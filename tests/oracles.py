"""Independent brute-force oracles used to cross-check the fast paths.

Everything here goes through plain enumeration and is deliberately kept
separate from the search it validates; exhaustive subspace enumeration
lives only here.
"""

import itertools
import random

import numpy as np

from commdim import (
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    largest_common_isotropic,
    sample_form_tuple,
)
from commdim.gf import rref_arrays_for_pivots


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


def _restrictions_vanish(forms, basis: np.ndarray, mode: str) -> bool:
    r = np.einsum("ka,mab,lb->mkl", basis, forms.stack(), basis) % forms.p
    if mode == "symmetric-restriction":
        r = (r - r.transpose(0, 2, 1)) % forms.p
    return not r.any()


def first_common_isotropic(forms, k: int, mode: str = "isotropic"):
    """The first k-dim subspace, in enumeration order, on which every form
    restricts to zero (or to a symmetric matrix); None if there is none."""
    for sub in enumerate_subspaces(forms.n, k, PrimeField(forms.p)):
        if _restrictions_vanish(forms, sub.basis, mode):
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


def algebra_json_v1(alg: StructureConstantAlgebra) -> dict:
    """The version-1 JSON form, as written before schema 2: no "schema"
    field and one dense coordinate vector "v" per stored key, in (i, j) order."""
    entries = [{"i": i, "j": j, "v": [int(x) for x in v]} for (i, j), v in sorted(alg.sc.items())]
    obj = {"kind": alg.kind, "p": alg.p, "dim": alg.dim, "sc": entries}
    if alg.labels is not None:
        obj["labels"] = list(alg.labels)
    return obj


def random_invertible(p: int, n: int, rng: random.Random) -> np.ndarray:
    from commdim.gf import rref_array

    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if rref_array(m, p)[0] == n:
            return m


def random_alternating_tuple(rng: random.Random, p: int, n: int, t: int):
    return sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**9))
