"""Constructors for the extremal algebras and their companions.

The central objects are the two-step nilpotent algebras attached to a form
tuple on V = GF(p)^n with values in U = GF(p)^t: basis e_1..e_n spans V,
f_1..f_t spans U, the product of V-vectors is the form-weighted combination
of the f's, and everything touching U multiplies to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureConstantAlgebra, is_abelian_subspace
from .forms import FormTuple
from .gf import PrimeField, Subspace, checked_size, json_field

MATRIX_ALGEBRA_CAP = 12
CONSTRUCTIONS = ("diagonal", "corner")  # of matrix_commutative_subalgebra


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, t, k) realizing abelian-dimension target s."""

    s: int
    n: int
    t: int
    k: int

    def to_json(self) -> dict:
        return {"s": self.s, "n": self.n, "t": self.t, "k": self.k}

    @classmethod
    def from_json(cls, obj: dict) -> "ExtremalParams":
        return cls(*(json_field(obj, key, "int") for key in ("s", "n", "t", "k")))


def extremal_params(s: int) -> ExtremalParams:
    """Pick (n, t, k) for a target maximal abelian dimension s >= 2.

    Even s: t = s/2 + 1, k = s/2, n = floor((s^2 - 5) / 8); odd s:
    t = k = (s+1)/2, n = floor((s^2 - 2) / 8).  n is clamped at 0 (the
    floor goes negative only for s = 2, where V is just empty).
    """
    checked_size("s", s, 2)
    if s % 2 == 0:
        t = s // 2 + 1
        k = s // 2
        n = max(0, (s * s - 5) // 8)
    else:
        t = k = (s + 1) // 2
        n = max(0, (s * s - 2) // 8)
    return ExtremalParams(s, n, t, k)


def _two_step_algebra(forms: FormTuple, kind: str) -> StructureConstantAlgebra:
    """e_i e_j = sum_m M_m[i, j] f_m on basis e_1..e_n, f_1..f_t; Lie stores i < j only."""
    n, t = forms.n, forms.t
    mats = forms.stack()
    pairs = mats.any(axis=0)
    if kind == "lie":
        pairs = np.triu(pairs, 1)
    keys = np.array(np.nonzero(pairs), dtype=np.int64)
    rows = np.zeros((keys.shape[1], n + t), dtype=np.int64)
    rows[:, n:] = mats[:, keys[0], keys[1]].T
    labels = [f"e{i + 1}" for i in range(n)] + [f"f{m + 1}" for m in range(t)]
    return StructureConstantAlgebra._from_rows(kind, forms.field, n + t, keys, rows, labels)


def build_lie_from_forms(forms: FormTuple) -> StructureConstantAlgebra:
    """The class-2 nilpotent Lie algebra of an alternating tuple, dim n + t."""
    if forms.kind != "alternating":
        raise ValueError(f"Lie construction needs alternating forms, got {forms.kind!r}")
    return _two_step_algebra(forms, "lie")


def build_assoc_from_forms(forms: FormTuple) -> StructureConstantAlgebra:
    """The class-2 nilpotent associative algebra of an arbitrary tuple."""
    return _two_step_algebra(forms, "assoc")


def unitalize(a: StructureConstantAlgebra) -> StructureConstantAlgebra:
    """Adjoin a two-sided identity as the last basis vector."""
    if a.kind != "assoc":
        raise ValueError("unitalization applies to associative algebras only")
    d, n = a.dim, len(a._rows)
    # the products of a, then e_i 1 = 1 e_i = e_i for i < d, then 1 1 = 1
    unit = np.arange(d)
    keys = np.full((2, n + 2 * d + 1), d, dtype=np.int64)
    keys[:, :n] = a._keys
    keys[0, n : n + 2 * d : 2] = keys[1, n + 1 : n + 2 * d : 2] = unit
    rows = np.zeros((n + 2 * d + 1, d + 1), dtype=np.int64)
    rows[:n, :d] = a._rows
    rows[n + 2 * unit, unit] = rows[n + 2 * unit + 1, unit] = 1
    rows[-1, d] = 1
    labels = None if a.labels is None else list(a.labels) + ["1"]
    return StructureConstantAlgebra._from_rows("assoc", a.field, d + 1, keys, rows, labels)


def matrix_algebra(r: int, field: PrimeField) -> StructureConstantAlgebra:
    """The full matrix algebra M_r(GF(p)) on the basis of matrix units."""
    if checked_size("r", r, 1) > MATRIX_ALGEBRA_CAP:
        raise ValueError(f"matrix size capped at {MATRIX_ALGEBRA_CAP}, got {r}")
    d = r * r
    # E_ab E_bc = E_ac, for every a, b, c in row-major order
    ia, ib, ic = np.indices((r, r, r)).reshape(3, -1)
    rows = np.zeros((r**3, d), dtype=np.int64)
    rows[np.arange(r**3), ia * r + ic] = 1
    keys = np.array((ia * r + ib, ib * r + ic), dtype=np.int64)
    labels = [f"E{a_ + 1}_{b + 1}" for a_ in range(r) for b in range(r)]
    return StructureConstantAlgebra._from_rows("assoc", field, d, keys, rows, labels)


def matrix_commutative_subalgebra(
    r: int, field: PrimeField, construction: str
) -> tuple[StructureConstantAlgebra, Subspace]:
    """M_r(GF(p)) together with a commutative subalgebra of it.

    "diagonal" gives the diagonal matrices (dim r).  "corner" gives the
    upper-right block of size k x k for r = 2k, or k x (k+1) for r = 2k+1,
    whose pairwise products all vanish; for r = 1 it is the whole algebra.
    """
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction {construction!r}")
    ambient = matrix_algebra(r, field)
    d = r * r
    if construction == "diagonal":
        positions = [a_ * r + a_ for a_ in range(r)]
    elif r == 1:
        positions = [0]
    else:
        positions = [a_ * r + b for a_ in range(r // 2) for b in range(r // 2, r)]
    basis = np.zeros((len(positions), d), dtype=np.int64)
    basis[np.arange(len(positions)), positions] = 1
    sub = Subspace(field.p, basis, _canonical=True)
    if not is_abelian_subspace(ambient, sub):
        raise RuntimeError("constructed subalgebra failed its commutativity check")
    return ambient, sub
