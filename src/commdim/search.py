"""Maximal abelian (commutative) subalgebra dimensions.

One exact engine, :func:`largest_common_isotropic`, finds the largest
subspace on which a tuple of bilinear forms vanishes; certification in
:mod:`commdim.forms` and both exact routes here run it:

* :func:`max_abelian_exact` -- the center Z commutes with everything, so a
  largest commuting subspace is Z plus a largest common isotropic subspace
  of the commutator forms on the complement coordinates of Z, and the
  witness is Z plus the canonically first such subspace.  A commuting
  subspace of maximal dimension is automatically closed under the product
  (its generated subalgebra is again commuting, so it cannot be larger),
  which makes the commuting-subspace maximum equal to the
  commutative-subalgebra maximum for both kinds.
* :func:`class2_exact_result` -- the same reduction for algebras of class at
  most 2, whose commutators land in the center.
* :func:`greedy_abelian_class2` -- the constructive procedure that solves a
  growing linear system; its output size s certifies dim <= s^2/4 + s.

Each search node makes one nullspace call, whose RREF lead columns give both
the rank bound and the pivots a child row can take.  The greedy procedure and
:func:`maximal_abelian_ideal` share one growth loop, :func:`_grow`, which
adjoins the first new solution of the current linear system until none is left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import (
    KIND_LIE,
    StructureConstantAlgebra,
    _centralizer_system,
    center,
    nilpotency_class,
    pairwise_products,
)
from .errors import EnumerationTooLarge
from .forms import FormTuple, find_common_isotropic  # noqa: F401  perfbench/tracer.py wraps this name
from .gf import (
    DEFAULT_SEARCH_BUDGET,
    Subspace,
    nullspace_array,
    reduce_against_rref,
    rref_array,  # noqa: F401  perfbench/tracer.py wraps this name
    solve_affine,
)


class IsotropicSearch(NamedTuple):
    """Outcome of :func:`largest_common_isotropic`.

    ``basis`` is the witness's canonical RREF basis, or None when the asked
    dimension admits no subspace.  ``complete`` is False when the node budget
    ran out; ``basis`` is then the best subspace found before that.
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
    pivot left of the others, solves (w M) v = 0 for every chosen row w and
    form M; unless the stack is alternating it also solves (v M) w = 0 and
    must satisfy v M v = 0.  A branch is cut when its extension space cannot
    lift the dimension to the target, k or the best found so far.  The
    witness has the least (pivots, free values) key among the subspaces of
    its dimension: pivot columns compared first, then the entries of the
    canonical basis row by row.
    """
    stack = np.asarray(stack, dtype=np.int64) % p
    n = stack.shape[2]
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    if not stack.any():
        return IsotropicSearch(np.eye(n if k is None else k, n, dtype=np.int64), 0, True)
    alternating = not np.einsum("mii->mi", stack).any() and not ((stack + stack.transpose(0, 2, 1)) % p).any()
    sides = stack if alternating else np.concatenate([stack, stack.transpose(0, 2, 1)])
    # the rows w @ lift, reshaped, are the equations (w M) x = 0 of basis row w
    lift = sides.transpose(1, 0, 2).reshape(n, -1)
    best_dim, best_key, best_rows = k, None, None
    if k is None:  # the zero subspace stands until a larger one turns up
        best_dim, best_key, best_rows = 0, ((), []), np.zeros((0, n), dtype=np.int64)
    nodes = 0

    def visit(rows: np.ndarray, pivots: tuple[int, ...]) -> bool:
        """Search below one node; False once the budget is exhausted."""
        nonlocal nodes, best_dim, best_key, best_rows
        nodes += 1
        if nodes > budget:
            return False
        depth = len(pivots)
        if depth >= best_dim:
            # with the pivots equal, the entries order as the free values do
            key = (pivots, rows.ravel().tolist())
            if depth > best_dim or best_key is None or key < best_key:
                best_dim, best_key, best_rows = depth, key, rows
        min_pivot = pivots[0] if depth else n
        if min_pivot == 0 or depth == k:
            return True
        system = (rows @ lift).reshape(-1, n) % p
        # every further row lies in N = {x : system x = 0, zero at the current
        # pivots} and has its pivot left of min_pivot; the pivots it can have
        # are the lead columns of N's RREF basis there, so their count bounds
        # the reachable extra dimension and each of them has a solution
        fix = np.eye(n, dtype=np.int64)[list(pivots)]
        leads = (nullspace_array(np.concatenate([system, fix], axis=0), p) != 0).argmax(axis=1)
        leads = leads[leads < min_pivot].tolist()
        if depth + len(leads) < best_dim:
            return True
        for pnew in leads:
            q_cols = [q for q in range(pnew + 1, n) if q not in pivots]
            x0, hom = solve_affine(system[:, q_cols], (-system[:, pnew]) % p, p)
            for combo in itertools.product(range(p), repeat=hom.shape[0]):
                v = np.zeros(n, dtype=np.int64)
                v[pnew] = 1
                v[q_cols] = (x0 + np.asarray(combo, dtype=np.int64) @ hom) % p
                if not alternating and (np.einsum("a,mab,b->m", v, stack, v) % p).any():
                    continue
                if not visit(np.vstack([v[None, :], rows]), (pnew,) + pivots):
                    return False
        return True

    complete = visit(np.zeros((0, n), dtype=np.int64), ())
    return IsotropicSearch(best_rows, nodes, complete)


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


def _subalgebra_closure(a: StructureConstantAlgebra, sub: Subspace) -> Subspace:
    """Smallest product-closed subspace containing sub."""
    cur = sub
    while True:
        prods = pairwise_products(a, cur.basis).reshape(cur.dim**2, a.dim)
        bigger = cur.sum(Subspace(a.p, prods))
        if bigger.dim == cur.dim:
            return cur
        cur = bigger


def _split_over_center(a: StructureConstantAlgebra, z: Subspace) -> tuple[list[int], np.ndarray]:
    """(complement coordinates, commutator table on them) for the center z.

    The complement of z is spanned by the unit vectors at the non-pivot
    coordinates comp of z's canonical basis; the table's [i, j] entry is
    [e_comp[i], e_comp[j]], with all d coordinates.
    """
    comp = [c for c in range(a.dim) if c not in set(z.pivots)]
    return comp, a.commutator_table()[np.ix_(comp, comp)]


def _isotropic_over_center(
    a: StructureConstantAlgebra, z: Subspace, budget: int
) -> tuple[Subspace, IsotropicSearch]:
    """The center z plus the first largest common isotropic subspace of the
    commutator forms on the complement of z; forms that vanish there are dropped.
    """
    comp, comm = _split_over_center(a, z)
    # form k sends (y, x) to [x, y]_k: the rows of a basis vector y are then
    # those of _centralizer_system
    forms = comm.transpose(2, 1, 0)
    res = largest_common_isotropic(forms[forms.any(axis=(1, 2))], a.p, budget=budget)
    emb = np.zeros((len(res.basis), a.dim), dtype=np.int64)
    emb[:, comp] = res.basis
    return Subspace(a.p, np.concatenate([emb, z.basis])), res


def max_abelian_exact(
    a: StructureConstantAlgebra, budget: int = DEFAULT_SEARCH_BUDGET
) -> SearchResult:
    """Exact maximum dimension of a commutative subalgebra, with witness.

    The center plus the largest common isotropic subspace of the commutator
    forms on the complement coordinates of the center; the witness is the
    center plus the canonically first such subspace of maximal dimension.
    If the node budget is exhausted the result is flagged as a lower bound,
    and for the assoc kind its witness is closed under the product; a
    complete witness already is (see the module docstring).
    """
    # the center's nullspace call is made here, not through algebra.center,
    # so that it is counted with the search's own calls
    system = _centralizer_system(a, np.eye(a.dim, dtype=np.int64))
    z = Subspace(a.p, nullspace_array(system, a.p), _canonical=True)
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


def class2_form_tuple(
    a: StructureConstantAlgebra,
) -> tuple[FormTuple, Subspace, list[int]]:
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


def class2_exact_result(
    a: StructureConstantAlgebra, budget: int = DEFAULT_SEARCH_BUDGET
) -> SearchResult:
    """Exact maximum via the isotropic reduction, with an embedded witness."""
    witness, res = _isotropic_over_center(a, _class2_center(a), budget)
    res.require_complete()
    return SearchResult("class2", witness.dim, witness, True, res.nodes_visited)


def _grow(start: Subspace, system: Callable[[Subspace], np.ndarray]) -> Subspace:
    """Adjoin the first canonical solution of system(current) @ x = 0 outside
    the current subspace, one at a time, until every solution lies inside."""
    cur = start
    while True:
        sol = nullspace_array(system(cur), cur.p)
        new = next((row for row in sol if not cur.contains_vector(row)), None)
        if new is None:
            return cur
        cur = cur.sum(Subspace.span(cur.p, [new]))


def greedy_abelian_class2(a: StructureConstantAlgebra) -> SearchResult:
    """Grow a commuting set in a complement of the center by linear solves.

    The picks are zero at the center's pivots and commute with every earlier
    pick; the loop stops when no further pick exists.  The returned
    dimension s (picks plus center) always satisfies dim <= floor(s^2/4) + s.
    """
    z = _class2_center(a)
    fix = np.eye(a.dim, dtype=np.int64)[list(z.pivots)]
    picks = _grow(Subspace.zero(a.p, a.dim), lambda cur: np.concatenate([fix, _centralizer_system(a, cur.basis)]))
    witness = picks.sum(z)
    s = witness.dim
    if a.dim > (s * s) // 4 + s:
        raise ValueError(f"greedy output s = {s} breaks dim {a.dim} <= floor(s^2/4) + s")
    return SearchResult("greedy", s, witness, False)


def maximal_abelian_ideal(a: StructureConstantAlgebra) -> Subspace:
    """Greedily extend the center to an inclusion-maximal abelian ideal.

    Each step adjoins an x outside the current ideal i with [x, g] inside i
    for all g and [x, i] = 0.  Requires a nilpotent Lie algebra; the loop
    then ends with an abelian ideal admitting no one-element extension.
    """
    if a.kind != KIND_LIE:
        raise ValueError("maximal_abelian_ideal requires a Lie algebra")
    if nilpotency_class(a) is None:
        raise ValueError("maximal_abelian_ideal requires a nilpotent Lie algebra")
    d, p, t = a.dim, a.p, a.table()

    def system(ideal: Subspace) -> np.ndarray:
        # [x, e_j] in ideal for all j: rows ((j, l), i) of T[i,j,:] reduced against the ideal
        cond_ideal = reduce_against_rref(t, ideal.basis, ideal.pivots, p).transpose(1, 2, 0).reshape(d * d, d)
        return np.concatenate([cond_ideal, _centralizer_system(a, ideal.basis)])

    return _grow(center(a), system)
