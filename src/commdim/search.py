"""Maximal abelian (commutative) subalgebra dimensions.

One exact engine, :func:`largest_common_isotropic`, finds the largest
subspace on which a tuple of bilinear forms vanishes; certification in
:mod:`commdim.forms` and both exact routes here run it:

* :func:`max_abelian_exact` -- the center Z commutes with everything, so a
  largest commuting subspace is Z plus a largest common isotropic subspace
  of the commutator forms on the complement coordinates of Z, and the
  witness is Z plus the first such subspace the search finds.  A commuting
  subspace of maximal dimension is automatically closed under the product
  (its generated subalgebra is again commuting, so it cannot be larger),
  which makes the commuting-subspace maximum equal to the
  commutative-subalgebra maximum for both kinds.
* :func:`class2_exact_result` -- the same reduction for algebras of class at
  most 2, whose commutators land in the center.
* :func:`greedy_abelian_class2` -- the constructive procedure that solves a
  growing linear system; its output size s certifies dim <= s^2/4 + s.

A search node's extension space N, the vectors that can join its subspace,
has an RREF basis whose lead columns give both the rank bound and the pivots
a child row can take; leads are taken right to left, ties are cut, and the
children of leads that cannot reach the target are counted in bulk.  Over
GF(2) each node derives N from its parent's by XOR on rows packed into ints.
Over odd p a node takes N from one nullspace call on its equations
restricted to the columns that are not pivots, and one affine solve per
lead starts an odometer over that lead's children.  The greedy procedure
carries the canonical basis of its solution space from pick to pick, and
restricts it to the next pick's centralizer by one nullspace in its
coordinates.  It takes its centralizer rows from
:func:`~commdim.algebra._centralizer_system` and its residuals from
:func:`~commdim.gf.reduce_against_rref`, each one exact product.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    StructureConstantAlgebra,
    _center_system,
    _centralizer_system,
    center,
    nilpotency_class,
    pairwise_products,
)
from .errors import EnumerationTooLarge
from .forms import FormTuple, find_common_isotropic  # noqa: F401  perfbench/tracer.py wraps this name
from .gf import (
    DEFAULT_SEARCH_BUDGET,
    PrimeField,
    Subspace,
    alternation_defects,
    as_gf_array,
    checked_size,
    json_field,
    mulmod,
    nullspace_array,
    reduce_against_rref,
    rref_array,  # noqa: F401  perfbench/tracer.py wraps this name
    solve_affine,
)


class IsotropicSearch(NamedTuple):
    """Outcome of :func:`largest_common_isotropic`.

    ``basis`` is the witness's canonical RREF basis, or None when the asked
    dimension admits no subspace.  ``complete`` is False when the budget ran
    out; ``basis`` is then the best found before, ``nodes_visited`` budget + 1.
    """

    basis: np.ndarray | None
    nodes_visited: int
    complete: bool

    def require_complete(self) -> "IsotropicSearch":
        if not self.complete:
            raise EnumerationTooLarge(
                f"isotropic-subspace search exceeded its budget of {self.nodes_visited - 1} nodes",
                count=self.nodes_visited,
            )
        return self


def largest_common_isotropic(
    stack: np.ndarray, p: int, k: int | None = None, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsotropicSearch:
    """Largest subspace of GF(p)^n isotropic for every form of a (t, n, n) stack.

    With k given, a k-dimensional one instead, or basis None if none exists.
    Depth-first search over canonical RREF bases: a subspace is reached by
    peeling off its top row, and what remains is again isotropic, so each
    isotropic subspace is visited at most once.  A new top row v, with its
    pivot left of the others, lies in the node's extension space N: it solves
    (w M) v = 0 for every chosen row w and form M, unless the stack is
    alternating or symmetric also (v M) w = 0, and it is zero at the chosen
    pivots.  It must also satisfy v M v = 0 when the stack is not alternating.

    The leads l_0 < l_1 < ... of N's RREF basis b_0, b_1, ... left of the
    smallest pivot are the pivots a new row can take; the children on l_i are
    b_i + sum_{j>i} c_j b_j, and they reach at most depth + 1 + i rows.  The
    target is k, or one more than the best dimension so far, so ties are cut.
    Leads are taken right to left, the target renewed before each; once l_i
    falls short of it, l_0..l_i are doomed, and their children are counted
    but never expanded: in bulk on an alternating stack (p^(r-1-i) for l_i,
    r = dim N), else one by one, since v M v = 0 decides which count.  With
    k given the search stops at its first k-dimensional node, and with k None
    the witness is the first node found at the final dimension.  A k-search
    that finds nothing counts the same nodes in any order.  Candidates that
    fail v M v = 0 count against the budget too.

    p = 2 runs :func:`_gf2_nodes`, odd p :func:`_general_nodes`; the tree,
    its order, the node count and the witness are the same either way.
    """
    PrimeField(p)  # refuses p unless it is a prime in [2, MAX_PRIME]
    stack = as_gf_array(stack, p)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"need a (t, n, n) stack of forms, got shape {stack.shape}")
    n = stack.shape[2]
    if k is not None and checked_size("k", k) > n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    checked_size("budget", budget)
    if not stack.any():
        return IsotropicSearch(np.eye(n if k is None else k, n, dtype=np.int64), 0, True)
    transposed = stack.transpose(0, 2, 1)
    alternating = not alternation_defects(stack, p).any()
    # (v M) w = 0 and (w M) v = 0 are one equation when M is alternating or symmetric
    sides = stack if alternating or np.array_equal(stack, transposed) else np.concatenate([stack, transposed])
    # v M v = 0 is checked on the forms themselves when they are not alternating
    squares = 0 if alternating else len(stack)
    root, extend, to_array = _gf2_nodes(sides, squares) if p == 2 else _general_nodes(sides, squares, p)
    # the target is best_dim + 1; with k None the zero subspace stands first
    best_dim, best_node = (0, root) if k is None else (k - 1, None)
    nodes = spent = 0  # spent: nodes, and candidates that failed v M v = 0

    def visit(node, pivots: tuple[int, ...], reach: int) -> bool:
        """Search below a node that can reach at most reach rows, or only count
        it if it cannot beat best_dim or failed v M v = 0 (node None); False
        once the budget is spent or a k-dimensional node is found."""
        nonlocal nodes, spent, best_dim, best_node
        spent += 1
        if spent > budget:
            return False
        if node is None:
            return True
        nodes += 1
        depth = len(pivots)
        if depth > best_dim:
            best_dim, best_node = depth, node
            if depth == k:
                return False
        if reach <= best_dim or depth and pivots[0] == 0:
            return True
        leads, r, children = extend(node, pivots, pivots[0] if depth else n)
        if depth + len(leads) <= best_dim:
            return True  # cut: no child can beat best_dim
        for i in range(len(leads) - 1, -1, -1):
            reach = depth + 1 + i  # a child on lead i keeps at most i leads
            if reach <= best_dim and not squares:  # leads 0..i are doomed: count in bulk
                bulk = (p**r - p ** (r - 1 - i)) // (p - 1)
                nodes, spent = nodes + bulk, spent + bulk
                return spent <= budget
            for child in children(i):
                if not visit(child, (leads[i],) + pivots, reach):
                    return False
        return True

    visit(root, (), n)
    basis, complete = None if best_node is None else to_array(best_node), spent <= budget
    return IsotropicSearch(basis, nodes if complete else budget + 1, complete)


def _general_nodes(sides: np.ndarray, squares: int, p: int):
    """The search node over any GF(p): a node is (v, rows, system).

    Returns (root, extend, to_array), as :func:`_gf2_nodes` does.  A child is
    its new top row v with its parent's rows and equations (the root's v is
    empty), so a child that is never expanded builds no array.  Expanding a
    node stacks v and its equations (v M) x = 0 onto its parent's and takes N
    from one nullspace of the system on the non-pivot columns; N's leads left
    of the smallest pivot are that nullspace's own.

    Each lead solves one affine system; its solution x0 and homogeneous basis
    h_0..h_{m-1} give the children x0 + sum c_j h_j in itertools.product
    order of c, stepped as an odometer: the step to the child whose index ends
    in z zero digits base p raises the last z + 1 digits of c by 1 each, so it
    adds the precomputed sum of the last z + 1 rows h_j.
    """
    n = sides.shape[2]
    # the rows w @ lift, reshaped, are the equations (w M) x = 0 of basis row w
    lift = sides.transpose(1, 0, 2).reshape(n, -1)
    forms = sides[:squares]

    def to_array(node):
        v, rows, _ = node
        return np.concatenate([v.reshape(-1, n), rows])

    def extend(node, pivots, min_pivot):
        v, rows, system = node
        if v.size:
            rows = np.concatenate([v[None, :], rows])
            system = np.concatenate([(v @ lift).reshape(-1, n) % p, system])
        free = [q for q in range(n) if q not in pivots]
        leads = (nullspace_array(system[:, free], p) != 0).argmax(axis=1).tolist()
        below = leads[: bisect.bisect_left(leads, min_pivot)]

        def children(i):
            # the lead has a solution; the other coordinates are the free
            # columns right of it, and every column left of min_pivot is free
            pnew = below[i]
            q_cols = free[pnew + 1 :]
            x0, hom = solve_affine(system[:, q_cols], -system[:, pnew], p)
            v = np.zeros(n, dtype=np.int64)
            v[pnew] = 1
            v[q_cols] = x0
            steps = np.zeros((len(hom), n), dtype=np.int64)
            steps[:, q_cols] = np.cumsum(hom[::-1], axis=0) % p
            for index in range(p ** len(hom)):
                if index:
                    z, rest = 0, index
                    while rest % p == 0:
                        z, rest = z + 1, rest // p
                    v = (v + steps[z]) % p
                yield None if squares and ((v @ forms) @ v % p).any() else (v, rows, system)

        return below, len(leads), children

    empty = np.zeros((0, n), dtype=np.int64)
    return (np.zeros(0, dtype=np.int64), empty, empty), extend, to_array


def _gf2_nodes(sides: np.ndarray, squares: int):
    """The search node over GF(2), on rows packed into ints: bit j is column j.

    Returns (root, extend, to_array).  extend gives the leads left of the
    smallest pivot, dim N and children(i), the children on lead i in search
    order, None for a candidate that fails v M v = 0; to_array the witness.

    A node is (rows, basis, gram, equations, i), its rows top row first.  Its
    extension space N is derived from its parent's when it is expanded: the
    parent's N has the RREF basis b_0..b_{r-1} (a row's lead is its lowest
    set bit), and the new row v = sum c_a b_a took the lead of b_i, so N is
    the x = sum y_a b_a with y_i = 0 and (v S) x = 0 for every side S.  In
    these coordinates the equations are the XOR of the parent's Gram rows,
    gram[a] bit s*r + b = b_a S_s b_b, over the support of c.  They are
    eliminated by XOR in the order found, and each pivot coordinate (an
    equation's highest bit) is taken out by adding its basis row to the
    others, which keeps the basis in RREF.  The first child on lead i is b_i
    reduced by an echelon of b_{i+1}, ..., whose entries carry c and the
    equations by the same XORs; the others step through c in odometer order,
    each by one XOR into c, v and its equations.
    """
    ns, n = len(sides), sides.shape[2]
    lift = sides.transpose(1, 0, 2).reshape(n, ns * n)
    width = (n + 7) // 8

    def unpack(rows):
        """The (len(rows), n) 0/1 array of packed rows; n may exceed 63."""
        data = b"".join(row.to_bytes(width, "little") for row in rows)
        bits = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
        return np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(np.int64)

    def to_array(node):
        return unpack(node[0])

    def extend(node, pivots, min_pivot):
        rows, basis, gram, eqs, taken = node
        r = len(basis)
        if gram is not None:  # N from the parent's basis, less lead taken
            basis = list(basis)
            mask = ((1 << r) - 1) ^ (1 << taken)
            keep = mask  # the coordinates still free
            found = []  # (pivot, equation), each zero at the pivots before it
            for s in range(ns):
                eq = eqs >> (s * r) & mask
                for c, q in found:
                    if eq >> c & 1:
                        eq ^= q
                if eq:
                    c = eq.bit_length() - 1
                    keep ^= 1 << c
                    bc, rest = basis[c], eq ^ (1 << c)
                    while rest:
                        low = rest & -rest
                        basis[low.bit_length() - 1] ^= bc
                        rest ^= low
                    found.append((c, eq))
            basis = [row for a, row in enumerate(basis) if keep >> a & 1]
            r = len(basis)
        leads = [(row & -row).bit_length() - 1 for row in basis]
        below = bisect.bisect_left(leads, min_pivot)

        built = None  # tables(), made when a lead's children are first asked for

        def tables():
            b = unpack(basis)
            g = ((b @ lift).reshape(r, ns, n) @ b.T & 1).astype(np.uint8).reshape(r, ns * r)
            gram = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(g, axis=1, bitorder="little")]
            # the first child on lead i, with its coefficient mask and equations:
            # b_i reduced by an echelon of b_{i+1}, ..., each row zero at the
            # top bits of the rows before it, so one pass clears them all
            echelon: list[tuple[int, int, int, int]] = []
            for i in range(r - 1, -1, -1):
                v, coef, eqs = basis[i], 1 << i, gram[i]
                for top, w, c, e in echelon:
                    if v >> top & 1:
                        v, coef, eqs = v ^ w, coef ^ c, eqs ^ e
                echelon.append((v.bit_length() - 1, v, coef, eqs))
            # one odometer step flips the last q coordinates: their coefficient
            # mask, vector and equations, for q = 1..r
            flip_c, flip_v, flip_e = [0], [0], [0]
            for a in range(r - 1, -1, -1):
                flip_c.append(flip_c[-1] | 1 << a)
                flip_v.append(flip_v[-1] ^ basis[a])
                flip_e.append(flip_e[-1] ^ gram[a])
            return gram, echelon[::-1], flip_c, flip_v, flip_e

        def children(i):
            nonlocal built
            if built is None:
                built = tables()
            gram, firsts, flip_c, flip_v, flip_e = built
            _, v, coef, eqs = firsts[i]
            for step in range(1 << (r - 1 - i)):
                if step:
                    q = (step ^ (step - 1)).bit_length()
                    coef ^= flip_c[q]
                    v ^= flip_v[q]
                    eqs ^= flip_e[q]
                # v S v is the parity of the equation bits on the support of v
                if squares and any((eqs >> (s * r) & coef).bit_count() & 1 for s in range(squares)):
                    yield None
                else:
                    yield ((v,) + rows, basis, gram, eqs, i)

        return leads[:below], r, children

    return ((), [1 << j for j in range(n)], None, 0, 0), extend, to_array


@dataclass
class SearchResult:
    """A subalgebra-dimension answer; exact=False means lower bound only.

    nodes_visited is None for the greedy procedure, which runs no search.
    """

    mode: str
    dim: int
    witness: Subspace | None
    exact: bool
    nodes_visited: int | None = None

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "dim": self.dim,
            "witness": self.witness.to_json() if self.witness is not None else None,
            "exact": self.exact,
            "nodes_visited": self.nodes_visited,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SearchResult":
        witness = json_field(obj, "witness", "object", default=None)
        res = cls(
            json_field(obj, "mode", "str"),
            json_field(obj, "dim", "int"),
            None if witness is None else Subspace.from_json(witness),
            json_field(obj, "exact", "bool"),
            json_field(obj, "nodes_visited", "int", default=None),
        )
        if res.witness is not None and res.witness.dim != res.dim:
            raise ValueError(f"witness has dim {res.witness.dim}, result has dim {res.dim}")
        return res


def _subalgebra_closure(a: StructureConstantAlgebra, sub: Subspace) -> Subspace:
    """Smallest product-closed subspace containing sub."""
    cur = sub
    while True:
        prods = pairwise_products(a, cur.basis).reshape(cur.dim**2, a.dim)
        bigger = Subspace(a.p, np.concatenate([cur.basis, prods]))
        if bigger.dim == cur.dim:
            return cur
        cur = bigger


def _split_over_center(a: StructureConstantAlgebra, z: Subspace) -> tuple[list[int], np.ndarray]:
    """(complement coordinates, commutator table on them) for the center z.

    The complement of z is spanned by the unit vectors at the non-pivot
    coordinates comp of z's canonical basis; the table's [i, j] entry is
    [e_comp[i], e_comp[j]], with all d coordinates.
    """
    comp = sorted(set(range(a.dim)).difference(z.pivots))
    return comp, a.commutator_table()[np.ix_(comp, comp)]


def _isotropic_over_center(a: StructureConstantAlgebra, z: Subspace, budget: int) -> tuple[Subspace, IsotropicSearch]:
    """The center z plus the first largest common isotropic subspace found for
    the commutator forms on the complement of z; forms that vanish there are dropped.
    """
    comp, comm = _split_over_center(a, z)
    # form k sends (y, x) to [x, y]_k: the rows of a basis vector y are then
    # those of _centralizer_system
    forms = comm.transpose(2, 1, 0)
    res = largest_common_isotropic(forms[forms.any(axis=(1, 2))], a.p, budget=budget)
    emb = np.zeros((len(res.basis), a.dim), dtype=np.int64)
    emb[:, comp] = res.basis
    return Subspace(a.p, np.concatenate([emb, z.basis])), res


def max_abelian_exact(a: StructureConstantAlgebra, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Exact maximum dimension of a commutative subalgebra, with witness.

    The center plus the largest common isotropic subspace of the commutator
    forms on the complement coordinates of the center; the witness is the
    center plus the first such subspace of maximal dimension the search finds.
    If the node budget is exhausted the result is flagged as a lower bound,
    and for the assoc kind its witness is closed under the product; a
    complete witness already is (see the module docstring).
    """
    # the center's nullspace call is made here, not through algebra.center,
    # so that it is counted with the search's own calls
    z = Subspace(a.p, nullspace_array(_center_system(a), a.p), _canonical=True)
    witness, res = _isotropic_over_center(a, z, budget)
    if a.kind == "assoc" and not res.complete:
        witness = _subalgebra_closure(a, witness)
    return SearchResult("exact", witness.dim, witness, res.complete, res.nodes_visited)


def _class2_center(a: StructureConstantAlgebra) -> Subspace:
    """The center of a, which must be nilpotent of class at most 2."""
    cls = nilpotency_class(a)
    if cls is None or cls > 2:
        raise ValueError("algebra must be nilpotent of class at most 2")
    return center(a)


def class2_form_tuple(a: StructureConstantAlgebra) -> tuple[FormTuple, Subspace, list[int]]:
    """Split a class-<=2 algebra into (induced forms, center, complement coords).

    Commutators of the complement's unit vectors (see
    :func:`_split_over_center`) land in the center, and their coefficients
    along the center basis, read at its pivots, are the induced alternating
    forms.
    """
    z = _class2_center(a)
    comp, comm = _split_over_center(a, z)
    mats = comm[:, :, list(z.pivots)].transpose(2, 0, 1)
    return FormTuple(len(comp), z.dim, "alternating", a.field, mats), z, comp


def class2_exact_result(a: StructureConstantAlgebra, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Exact maximum via the isotropic reduction, with an embedded witness."""
    witness, res = _isotropic_over_center(a, _class2_center(a), budget)
    res.require_complete()
    return SearchResult("class2", witness.dim, witness, True, res.nodes_visited)


def greedy_abelian_class2(a: StructureConstantAlgebra) -> SearchResult:
    """Grow a commuting set in a complement of the center by linear solves.

    The picks are zero at the center's pivots and commute with every earlier
    pick; the loop stops when no further pick exists.  Each pick is the first
    row outside the picks' span of sol, the canonical basis of the solutions
    so far, which is carried from pick to pick: the x = y @ sol with
    [x, pick] = 0 have y in the nullspace of E @ sol.T, for E the
    :func:`_centralizer_system` of the pick alone, and y @ sol is again
    canonical, since its columns at sol's pivots are y.  The returned
    dimension s (picks plus center) always satisfies dim <= floor(s^2/4) + s.
    """
    z = _class2_center(a)
    p = a.p
    sol = np.delete(np.eye(a.dim, dtype=np.int64), list(z.pivots), axis=0)  # the unit rows off z's pivots
    picks = Subspace.zero(p, a.dim)
    while True:
        outside = reduce_against_rref(sol, picks.basis, picks.pivots, p).any(axis=1)
        if not outside.any():
            break
        new = sol[outside.argmax()]
        picks = Subspace(p, np.vstack([picks.basis, new]))
        y = nullspace_array(mulmod(_centralizer_system(a, new[None]), sol.T, p), p)
        sol = mulmod(y, sol, p)
    witness = picks.sum(z)
    s = witness.dim
    if a.dim > (s * s) // 4 + s:
        raise ValueError(f"greedy output s = {s} breaks dim {a.dim} <= floor(s^2/4) + s")
    return SearchResult("greedy", s, witness, False)
