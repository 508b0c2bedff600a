"""Independent brute-force oracles used to cross-check the fast paths.

Everything here goes through plain enumeration and is deliberately kept
separate from the search/scan implementations it validates.
"""

import random

import numpy as np

from commdim import (
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    enumerate_subspaces,
    is_abelian_subspace,
    sample_form_tuple,
)
from commdim.errors import NotASubalgebra


def brute_force_max_abelian(alg: StructureConstantAlgebra) -> int:
    """Max dim over ALL subspaces that are commutative subalgebras."""
    field = PrimeField(alg.p)
    for k in range(alg.dim, 0, -1):
        for sub in enumerate_subspaces(alg.dim, k, field):
            try:
                if is_abelian_subspace(alg, sub):
                    return k
            except NotASubalgebra:
                continue
    return 0


def _restrictions_vanish(forms, basis: np.ndarray, mode: str) -> bool:
    mats = np.stack([m.a for m in forms.mats])
    r = np.einsum("ka,mab,lb->mkl", basis, mats, basis) % forms.p
    if mode == "symmetric-restriction":
        r = (r - r.transpose(0, 2, 1)) % forms.p
    return not r.any()


def first_common_isotropic(forms, k: int, mode: str = "isotropic"):
    """The first k-dim subspace, in enumeration order, on which every form
    restricts to zero (or to a symmetric matrix); None if there is none."""
    for sub in enumerate_subspaces(forms.n, k, PrimeField(forms.p)):
        if _restrictions_vanish(forms, sub.basis.a, mode):
            return sub
    return None


def brute_force_max_isotropic(forms, mode_symmetric=False) -> int:
    """Largest k with a qualifying subspace, by scanning every subspace."""
    field = PrimeField(forms.p)
    mats = np.stack([m.a for m in forms.mats])
    for k in range(forms.n, -1, -1):
        for sub in enumerate_subspaces(forms.n, k, field):
            b = sub.basis.a
            r = np.einsum("ka,mab,lb->mkl", b, mats, b) % forms.p
            if mode_symmetric:
                if not ((r - r.transpose(0, 2, 1)) % forms.p).any():
                    return k
            elif not r.any():
                return k
    raise AssertionError("k = 0 always qualifies")


def is_subalgebra(alg: StructureConstantAlgebra, sub: Subspace) -> bool:
    try:
        is_abelian_subspace(alg, sub)
        return True
    except NotASubalgebra:
        return False


def is_commutative_subspace(alg: StructureConstantAlgebra, sub: Subspace) -> bool:
    """Commutators of all basis pairs vanish (no closure requirement)."""
    b = sub.basis.a
    t = alg.table()
    prods = np.einsum("ia,jb,abl->ijl", b, b, t) % alg.p
    comm = (prods - prods.transpose(1, 0, 2)) % alg.p
    if alg.kind == "lie":
        return not prods.any()
    return not comm.any()


def random_invertible(p: int, n: int, rng: random.Random) -> np.ndarray:
    from commdim.gf import rref_array

    while True:
        m = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        if rref_array(m, p)[0] == n:
            return m


def random_alternating_tuple(rng: random.Random, p: int, n: int, t: int):
    return sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**9))
