"""Independent brute-force oracles used to cross-check the fast paths.

Everything here goes through plain enumeration and is deliberately kept
separate from the search it validates; exhaustive subspace enumeration
lives only here.  :func:`maximal_abelian_ideal`, which no command uses,
lives here too, checked against :func:`abelian_ideal_extension`.
"""

import itertools
import random
from itertools import chain

import numpy as np

from commdim import (
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    center,
    largest_common_isotropic,
    nilpotency_class,
    sample_form_tuple,
)
from commdim.algebra import ALGEBRA_SCHEMA, KIND_LIE, _centralizer_system
from commdim.gf import json_field, nullspace_array, reduce_against_rref, rref_array, rref_arrays_for_pivots, solve_affine
from commdim.search import IsotropicSearch, SearchResult


def enumerate_subspaces(n: int, k: int, field: PrimeField):
    """Every k-dim subspace of GF(p)^n exactly once, in canonical order:
    pivot columns lexicographic, then free entries odometer-style."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    for pivots in itertools.combinations(range(n), k):
        for a in rref_arrays_for_pivots(pivots, n, field.p):
            yield Subspace(field.p, a, _canonical=True)


def brute_force_max_abelian(alg: StructureConstantAlgebra) -> int:
    """Max dim over ALL subspaces that are commutative subalgebras: the
    commutator test first, the closure test only on the subspaces it passes."""
    field = PrimeField(alg.p)
    for k in range(alg.dim, 0, -1):
        for sub in enumerate_subspaces(alg.dim, k, field):
            if is_commutative_subspace(alg, sub) and is_subalgebra(alg, sub):
                return k
    return 0


def class2_dim(forms) -> int:
    """t plus the largest common isotropic subspace of an alternating tuple:
    the class-2 reduction run on the forms themselves, with no algebra, center
    or commutator table in between."""
    return forms.t + len(largest_common_isotropic(forms.stack(), forms.p).require_complete().basis)


def reference_common_isotropic(stack, p: int, k=None, budget: int = 5_000_000) -> IsotropicSearch:
    """The isotropic-subspace DFS of version 0.2.0, with the general GF(p) node.

    Each node builds its whole equation system, takes one nullspace of it,
    and solves one affine system per child pivot.  It takes leads in
    ascending column order, builds every child, expands every branch that
    can tie the best dimension, and returns the witness with the least
    (pivots, free values) key: the canonically first subspace.  Its tree is
    :func:`commdim.largest_common_isotropic`'s, so a k-search that finds
    nothing visits the same nodes in both; dimensions and completeness agree
    wherever both finish.
    """
    stack = np.asarray(stack, dtype=np.int64) % p
    n = stack.shape[2]
    if not stack.any():
        return IsotropicSearch(np.eye(n if k is None else k, n, dtype=np.int64), 0, True)
    alternating = not np.einsum("mii->mi", stack).any() and not ((stack + stack.transpose(0, 2, 1)) % p).any()
    sides = stack if alternating else np.concatenate([stack, stack.transpose(0, 2, 1)])
    lift = sides.transpose(1, 0, 2).reshape(n, -1)
    best_dim, best_key, best_rows = k, None, None
    if k is None:
        best_dim, best_key, best_rows = 0, ((), []), np.zeros((0, n), dtype=np.int64)
    nodes = 0

    def visit(rows, pivots):
        nonlocal nodes, best_dim, best_key, best_rows
        nodes += 1
        if nodes > budget:
            return False
        depth = len(pivots)
        if depth >= best_dim:
            key = (pivots, rows.ravel().tolist())
            if depth > best_dim or best_key is None or key < best_key:
                best_dim, best_key, best_rows = depth, key, rows
        min_pivot = pivots[0] if depth else n
        if min_pivot == 0 or depth == k:
            return True
        system = (rows @ lift).reshape(-1, n) % p
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


def restrictions_vanish(forms, basis: np.ndarray, mode: str = "isotropic") -> bool:
    """Every form restricts to zero (or to a symmetric matrix) on the row space of basis."""
    r = np.einsum("ka,mab,lb->mkl", basis, forms.stack(), basis) % forms.p
    if mode == "symmetric-restriction":
        r = (r - r.transpose(0, 2, 1)) % forms.p
    return not r.any()


def first_common_isotropic(forms, k: int, mode: str = "isotropic"):
    """The first k-dim subspace, in enumeration order, on which every form
    restricts to zero (or to a symmetric matrix); None if there is none."""
    for sub in enumerate_subspaces(forms.n, k, PrimeField(forms.p)):
        if restrictions_vanish(forms, sub.basis, mode):
            return sub
    return None


def brute_force_max_isotropic(forms, mode_symmetric=False) -> int:
    """Largest k with a qualifying subspace, by scanning every subspace."""
    field = PrimeField(forms.p)
    mats = forms.stack()
    for k in range(forms.n, -1, -1):
        for sub in enumerate_subspaces(forms.n, k, field):
            b = sub.basis
            r = np.einsum("ka,mab,lb->mkl", b, mats, b) % forms.p
            if mode_symmetric:
                if not ((r - r.transpose(0, 2, 1)) % forms.p).any():
                    return k
            elif not r.any():
                return k
    raise AssertionError("k = 0 always qualifies")


def first_axiom_violation(t: np.ndarray, p: int, kind: str) -> dict:
    """Each axiom of the kind mapped to its first violating basis pair or
    triple in row-major order (None when it holds), by plain loops over the
    product table t[i][j] = e_i e_j."""
    d = t.shape[0]
    tl = t.tolist()
    e = [[int(a == b) for b in range(d)] for a in range(d)]

    def mul(x, y):
        out = [0] * d
        for a in range(d):
            for b in range(d):
                if x[a] and y[b]:  # zero coefficients add nothing
                    for l in range(d):
                        out[l] += x[a] * y[b] * tl[a][b][l]
        return [v % p for v in out]

    def assoc_broken(i, j, k):
        return mul(mul(e[i], e[j]), e[k]) != mul(e[i], mul(e[j], e[k]))

    def alt_broken(i, j):
        if i == j:
            return any(tl[i][i])
        return any((x + y) % p for x, y in zip(tl[i][j], tl[j][i]))

    def jacobi_broken(i, j, k):
        terms = (mul(mul(e[i], e[j]), e[k]), mul(mul(e[j], e[k]), e[i]), mul(mul(e[k], e[i]), e[j]))
        return any(sum(c) % p for c in zip(*terms))

    def first(broken, keys):
        return next((key for key in keys if broken(*key)), None)

    triples = list(itertools.product(range(d), repeat=3))
    if kind == "assoc":
        return {"associative": first(assoc_broken, triples)}
    pairs = [(i, j) for i in range(d) for j in range(i + 1)]
    return {"alternating": first(alt_broken, pairs), "jacobi": first(jacobi_broken, triples)}


def extends_abelian_ideal(alg: StructureConstantAlgebra, ideal: Subspace, x) -> bool:
    """[x, e_j] lies in the ideal for every j and [x, ideal] = 0, by plain
    products; for x in an abelian ideal this always holds."""
    t = alg.table()
    x = np.asarray(x, dtype=np.int64)
    in_ideal = all(ideal.contains_vector(np.einsum("a,ak->k", x, t[:, j, :]) % alg.p) for j in range(alg.dim))
    return in_ideal and not any((np.einsum("a,b,abk->k", x, row, t) % alg.p).any() for row in ideal.basis)


def abelian_ideal_extension(alg: StructureConstantAlgebra, ideal: Subspace):
    """First vector, over all lines of GF(p)^d, outside the ideal that still
    extends it to an abelian ideal; None if there is none."""
    for line in enumerate_subspaces(alg.dim, 1, PrimeField(alg.p)):
        x = line.basis[0]
        if not ideal.contains_vector(x) and extends_abelian_ideal(alg, ideal, x):
            return x
    return None


def _basis_products(alg: StructureConstantAlgebra, sub: Subspace) -> np.ndarray:
    """(k, k, d) products of all basis-row pairs, in one exact int64 contraction."""
    b = sub.basis
    return np.einsum("ia,jb,abl->ijl", b, b, alg.table()) % alg.p


def is_subalgebra(alg: StructureConstantAlgebra, sub: Subspace) -> bool:
    """Every product of two basis vectors lies in the subspace."""
    return all(sub.contains_vector(v) for row in _basis_products(alg, sub) for v in row)


def is_commutative_subspace(alg: StructureConstantAlgebra, sub: Subspace) -> bool:
    """Commutators of all basis pairs vanish (no closure requirement)."""
    prods = _basis_products(alg, sub)
    comm = (prods - prods.transpose(1, 0, 2)) % alg.p
    if alg.kind == "lie":
        return not prods.any()
    return not comm.any()


def reference_reduce(v, basis: np.ndarray, pivots, p: int) -> np.ndarray:
    """Residual of v, a vector or a stack of them, against an RREF basis, one
    pivot at a time: row ri of the basis is subtracted as often as the
    residual so far has at its pivot."""
    r = np.mod(np.asarray(v, dtype=np.int64), p).copy()
    for ri, pc in enumerate(pivots):
        coef = r[..., pc].copy()
        if np.any(coef):
            r = (r - coef[..., None] * basis[ri]) % p
    return r


def reference_centralizer_system(alg: StructureConstantAlgebra, gens) -> np.ndarray:
    """Equation rows of {x : [x, g] = 0 for all rows g}, by one int64 einsum:
    row (g, k), column i is sum_j C[i, j, k] g_j."""
    gens, d = np.asarray(gens, dtype=np.int64), alg.dim
    return (np.einsum("gj,ijk->gki", gens, alg.commutator_table()) % alg.p).reshape(len(gens) * d, d)


def reference_center(alg: StructureConstantAlgebra) -> Subspace:
    """The center as the centralizer of the unit vectors: the system is the
    product of np.eye with the commutator table."""
    system = reference_centralizer_system(alg, np.eye(alg.dim, dtype=np.int64))
    return Subspace(alg.p, nullspace_array(system, alg.p), _canonical=True)


def reference_nilpotency_class(alg: StructureConstantAlgebra) -> int | None:
    """The lower central (power) series from term 1 = span of np.eye, each
    next term the span of the e_i b for b in the last, by one int64 tensordot."""
    d, p = alg.dim, alg.p
    if d == 0:
        return 0
    cur, m = np.eye(d, dtype=np.int64), 1
    while True:
        prods = np.tensordot(cur, alg.table(), axes=([1], [1])).reshape(-1, d) % p
        red, _ = rref_array(prods, p)
        if len(red) == 0:
            return m
        if len(red) == cur.shape[0]:
            return None
        cur, m = red, m + 1


def reference_greedy(alg: StructureConstantAlgebra) -> SearchResult:
    """The greedy procedure of version 0.3.0: each step solves the whole
    system (center pivots fixed to 0, [x, g] = 0 for every row g of the picks
    so far) from scratch and adjoins its first canonical solution outside the
    picks, until there is none."""
    cls = reference_nilpotency_class(alg)
    if cls is None or cls > 2:
        raise ValueError("algebra must be nilpotent of class at most 2")
    z = reference_center(alg)
    fix = np.eye(alg.dim, dtype=np.int64)[list(z.pivots)]
    picks = Subspace.zero(alg.p, alg.dim)
    while True:
        sol = nullspace_array(np.concatenate([fix, reference_centralizer_system(alg, picks.basis)]), alg.p)
        new = next((row for row in sol if not picks.contains_vector(row)), None)
        if new is None:
            break
        picks = picks.sum(Subspace.span(alg.p, [new]))
    witness = picks.sum(z)
    s = witness.dim
    if alg.dim > (s * s) // 4 + s:
        raise ValueError(f"greedy output s = {s} breaks dim {alg.dim} <= floor(s^2/4) + s")
    return SearchResult("greedy", s, witness, False)


def algebra_json_v1(alg: StructureConstantAlgebra) -> dict:
    """The version-1 JSON form, as written before schema 2: no "schema"
    field and one dense coordinate vector "v" per stored key, in (i, j) order."""
    entries = [{"i": i, "j": j, "v": [int(x) for x in v]} for (i, j), v in sorted(alg.sc.items())]
    obj = {"kind": alg.kind, "p": alg.p, "dim": alg.dim, "sc": entries}
    if alg.labels is not None:
        obj["labels"] = list(alg.labels)
    return obj


def reference_algebra_json(alg: StructureConstantAlgebra) -> dict:
    """The schema-2 dict as the writer built it before it wrote text, kept
    verbatim: entries sorted by (i, j), their nz pairs by m."""
    keys, rows, d = alg._keys, alg._rows, alg.dim
    code = keys[0] * d + keys[1]
    if not (code[1:] > code[:-1]).all():  # stored out of order, as by unitalize
        order = np.argsort(code)
        keys, rows = keys[:, order], rows[order]
    at = np.flatnonzero(rows != 0)  # row-major, so grouped by entry and sorted by m
    r, m = np.divmod(at, d)
    nz = np.array((m, rows.reshape(-1)[at])).T.tolist()
    ends = np.bincount(r, minlength=len(rows)).cumsum().tolist()
    ii, jj = keys.tolist()
    entries = [{"i": i, "j": j, "nz": nz[a:b]} for i, j, a, b in zip(ii, jj, [0, *ends], ends)]
    kind = "lie" if alg.kind == KIND_LIE else "assoc"
    obj = {"schema": ALGEBRA_SCHEMA, "kind": kind, "p": alg.p, "dim": alg.dim, "sc": entries}
    if alg.labels is not None:
        obj["labels"] = list(alg.labels)
    return obj


def random_invertible(p: int, n: int, rng: random.Random) -> np.ndarray:
    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if len(rref_array(m, p)[1]) == n:
            return m


def change_of_basis(alg: StructureConstantAlgebra, a: np.ndarray) -> StructureConstantAlgebra:
    """alg on the basis f_i = sum_k a[i, k] e_k, for an invertible a: f_i f_j
    = sum a[i, x] a[j, y] e_x e_y, written in the f's through a^-1, and built
    by the dict constructor, with only the keys i < j for the Lie kind."""
    d, p = alg.dim, alg.p
    inverse = rref_array(np.hstack([a, np.eye(d, dtype=np.int64)]), p)[0][:, d:]
    t = np.einsum("ix,jy,xyk->ijk", a, a, alg.table()) % p @ inverse % p
    sc = {(i, j): t[i, j].tolist() for i, j in itertools.product(range(d), repeat=2)
          if t[i, j].any() and (alg.kind != KIND_LIE or i < j)}
    return StructureConstantAlgebra(alg.kind, alg.field, d, sc)


def random_alternating_tuple(rng: random.Random, p: int, n: int, t: int):
    return sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**9))


def maximal_abelian_ideal(a: StructureConstantAlgebra) -> Subspace:
    """Greedily extend the center to an inclusion-maximal abelian ideal.

    Each step adjoins the first canonical solution x outside the current
    ideal i of [x, g] inside i for all g and [x, i] = 0.  That system is not
    monotone in i, so each step solves it afresh.  Requires a nilpotent Lie
    algebra; the loop then ends with an abelian ideal admitting no
    one-element extension.
    """
    if a.kind != "lie":
        raise ValueError("maximal_abelian_ideal requires a Lie algebra")
    if nilpotency_class(a) is None:
        raise ValueError("maximal_abelian_ideal requires a nilpotent Lie algebra")
    d, p, t = a.dim, a.p, a.table()
    ideal = center(a)
    while True:
        # [x, e_j] in ideal for all j: rows ((j, l), i) of T[i,j,:] reduced against the ideal
        cond_ideal = reduce_against_rref(t, ideal.basis, ideal.pivots, p).transpose(1, 2, 0).reshape(d * d, d)
        sol = nullspace_array(np.concatenate([cond_ideal, _centralizer_system(a, ideal.basis)]), p)
        new = next((row for row in sol if not ideal.contains_vector(row)), None)
        if new is None:
            return ideal
        ideal = ideal.sum(Subspace.span(p, [new]))


# the schema-2 reader as it was before its checks moved onto numpy arrays, kept
# verbatim with its two helpers to pin the reader's results and messages
def _ints(values) -> bool:
    return set(map(type, values)) <= {int}  # bool is a subclass of int, and not a JSON int


def _first_repeat(items: list):
    """The first item equal to an earlier one, or None."""
    seen = set()
    return next((x for x in items if x in seen or seen.add(x)), None)


def reference_checked_sc(entries: list, p: int, dim: int) -> tuple[list, np.ndarray]:
    """(keys, (N, dim) rows) of schema-2 entries, each field type-checked once over the list."""
    try:
        ii = [e["i"] for e in entries]
        jj = [e["j"] for e in entries]
        nzs = [e["nz"] for e in entries]
        ok = _ints(ii) and _ints(jj) and set(map(type, nzs)) <= {list}
    except (KeyError, TypeError):
        ok = False
    if not ok:  # again one entry at a time, to name the field at fault
        for e in entries:
            json_field(e, "i", "int"), json_field(e, "j", "int"), json_field(e, "nz", "list")
        raise ValueError("each structure constant entry needs JSON ints i, j and a JSON list nz")
    keys = list(zip(ii, jj))
    if keys and not (0 <= min(ii) and max(ii) < dim and 0 <= min(jj) and max(jj) < dim):
        bad = next(key for key in keys if not (0 <= key[0] < dim and 0 <= key[1] < dim))
        raise ValueError(f"structure constant key {bad} out of range")
    if len(set(keys)) < len(keys):
        raise ValueError(f"duplicate structure constant key {_first_repeat(keys)}")
    pairs = list(chain.from_iterable(nzs))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        raise ValueError("each nz item must be a pair [m, v]")
    flat = list(chain.from_iterable(pairs))
    if not _ints(flat):
        raise ValueError("nz coordinates and values must be JSON ints")
    ms, vs = flat[0::2], flat[1::2]
    if ms and not (0 <= min(ms) and max(ms) < dim):
        raise ValueError(f"nz coordinate out of range [0, {dim})")
    # ints outside [0, p), which may not fit int64, are reduced before numpy sees them
    if vs and not (0 <= min(vs) and max(vs) < p):
        vs = [v % p for v in vs]
    at = np.repeat(np.arange(len(keys)) * dim, list(map(len, nzs))) + np.array(ms, dtype=np.int64)
    # the writer lists each entry's m in increasing order, which makes at increase strictly
    if not (at[1:] > at[:-1]).all() and np.unique(at).size < at.size:
        n, m = divmod(_first_repeat(at.tolist()), dim)
        raise ValueError(f"nz coordinate {m} listed twice for structure constant key {keys[n]}")
    rows = np.zeros((len(keys), dim), dtype=np.int64)
    rows.reshape(-1)[at] = vs
    return keys, rows
