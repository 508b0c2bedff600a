"""Exact linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p; a type that owns
such data (:class:`Subspace` here, ``FormTuple`` in :mod:`commdim.forms`)
holds it read-only and checks its own invariants.  Only this module knows
the matrix JSON form {"p", "rows", "cols", "entries"}
(:func:`matrix_to_json`, :func:`matrix_from_json`).  Everything is
deterministic: row reduction yields the unique reduced row echelon form,
subspaces are held in a canonical basis (so equal subspaces compare equal
bit for bit), and subspaces of one dimension are ordered by their
(pivots, free values) key: lexicographic on pivot columns, then on the free
entries of the canonical basis, row by row.

Row reduction takes one of two paths by size: a matrix of at most
``SMALL_MATRIX_CELLS`` cells is converted once to lists of Python ints and
eliminated there, where a numpy call would cost more than the arithmetic;
a larger one is eliminated with numpy row operations.  Both return the same
arrays, since the reduced row echelon form is unique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_PRIME = 8191
DEFAULT_SEARCH_BUDGET = 5_000_000  # nodes of the isotropic-subspace search
# matrices of at most this many cells are row reduced on lists of Python ints,
# larger ones with numpy row operations: on dense random matrices the lists win
# up to 480 cells, and numpy wins from 729 (81 x 9) or 1024 (32 x 32) cells
SMALL_MATRIX_CELLS = 512


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (n is capped at 8191)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field GF(p) with 2 <= p <= 8191."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise ValueError(f"field order must be an int, got {self.p!r}")
        if not 2 <= self.p <= MAX_PRIME:
            raise ValueError(f"field order must lie in [2, {MAX_PRIME}], got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


def _inv_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def as_gf_array(entries, p: int) -> np.ndarray:
    """Coerce to a reduced int64 array over GF(p)."""
    return np.mod(np.asarray(entries, dtype=np.int64), p)


_JSON_TYPES = {
    "int": lambda v: type(v) is int,  # bool is a subclass of int, and not a JSON int
    "ints": lambda v: isinstance(v, list) and set(map(type, v)) <= {int},
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}
_REQUIRED = object()


def json_field(obj, key: str, kind: str, default=_REQUIRED):
    """obj[key] if it has the JSON type kind (a key of _JSON_TYPES), else ValueError.

    A missing field reads as default, and so does null when default is None.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    value = obj.get(key, default)
    if value is _REQUIRED:
        raise ValueError(f"missing field {key!r}")
    if (value is not None or default is not None) and not _JSON_TYPES[kind](value):
        raise ValueError(f"field {key!r} must be JSON {kind}, got {type(value).__name__}")
    return value


def matrix_to_json(p: int, a: np.ndarray) -> dict:
    """The JSON form of a 2-dimensional array over GF(p), entries row-major."""
    rows, cols = a.shape
    return {"p": p, "rows": rows, "cols": cols, "entries": [int(x) for x in a.reshape(-1)]}


def matrix_from_json(obj) -> tuple[int, np.ndarray]:
    """(p, reduced (rows, cols) array) from the JSON form of :func:`matrix_to_json`."""
    p = PrimeField(json_field(obj, "p", "int")).p
    rows, cols = json_field(obj, "rows", "int"), json_field(obj, "cols", "int")
    # ints outside [0, p), which may not fit int64, are reduced before numpy sees them
    entries = [x % p for x in json_field(obj, "entries", "ints")]
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    return p, np.array(entries, dtype=np.int64).reshape(rows, cols)


def _rref_rows(m: list[list[int]], p: int) -> tuple[int, list[int]]:
    """Row reduce a list of rows of ints in [0, p) in place; returns (rank, pivot cols).

    The rows keep their count, zero rows collected at the bottom.
    """
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        row = m[pr]
        m[pr] = m[r]
        if row[c] != 1:
            inv = _inv_mod(row[c], p)
            row = [x * inv % p for x in row]
        m[r] = row
        support = [(j, y) for j, y in enumerate(row) if y]
        for i in range(nrows):
            other = m[i]
            f = other[c]
            if f and i != r:
                for j, y in support:
                    other[j] = (other[j] - f * y) % p
        pivots.append(c)
        r += 1
    return r, pivots


def rref_array(a: np.ndarray, p: int) -> tuple[int, np.ndarray, list[int]]:
    """Reduced row echelon form of a raw array; returns (rank, rref, pivot cols).

    The output keeps the input shape, zero rows collected at the bottom.
    """
    m = np.mod(np.asarray(a, dtype=np.int64), p)
    if m.size <= SMALL_MATRIX_CELLS:
        rows = m.tolist()
        rank, pivots = _rref_rows(rows, p)
        return rank, np.array(rows, dtype=np.int64).reshape(m.shape), pivots
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        if m[r, c] != 1:
            m[r] = (m[r] * _inv_mod(m[r, c], p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return r, m, pivots


def nullspace_array(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) row basis of {x : a @ x = 0} over GF(p).

    One elimination, on the columns in reverse order: the solution read off
    a free column f is then 1 at f, 0 at the other free columns and nonzero
    only at pivot columns right of f, so these solutions, ordered by f, are
    already the RREF basis.
    """
    a = np.asarray(a, dtype=np.int64)[:, ::-1]
    ncols = a.shape[1]
    if a.size <= SMALL_MATRIX_CELLS:
        rows = np.mod(a, p).tolist()
        _, pivots = _rref_rows(rows, p)
        basis = []
        for f in reversed(range(ncols)):
            if f not in pivots:
                v = [0] * ncols
                v[f] = 1
                for row, pc in zip(rows, pivots):
                    v[pc] = -row[f] % p
                basis.append(v[::-1])
        return np.array(basis, dtype=np.int64).reshape(len(basis), ncols)
    rank, red, pivots = rref_array(a, p)
    free = [c for c in reversed(range(ncols)) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-red[:rank, free].T) % p
    return np.ascontiguousarray(basis[:, ::-1])


def solve_affine(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve a @ x = b over GF(p).

    Returns (particular solution, RREF row basis of the homogeneous solution
    space), or None if the system is inconsistent.
    """
    a = np.asarray(a, dtype=np.int64)
    ncols = a.shape[1]
    aug = np.column_stack([a, np.asarray(b, dtype=np.int64).reshape(-1)])
    rank, red, pivots = rref_array(aug, p)
    if pivots and pivots[-1] == ncols:
        return None
    x0 = np.zeros(ncols, dtype=np.int64)
    x0[pivots] = red[:rank, ncols]
    # the left block of a consistent system's RREF is the RREF of a
    return x0, nullspace_array(red[:rank, :ncols], p)


def reduce_against_rref(v: np.ndarray, basis: np.ndarray, pivots: Iterable[int], p: int) -> np.ndarray:
    """Residual of v after eliminating the pivots of an RREF basis."""
    r = np.mod(np.asarray(v, dtype=np.int64), p).copy()
    for ri, pc in enumerate(pivots):
        coef = r[..., pc].copy()
        if np.any(coef):
            r = (r - coef[..., None] * basis[ri]) % p
    return r


class Subspace:
    """A subspace of GF(p)^n held by its canonical RREF basis: a read-only,
    reduced (k, n) int64 array with no zero rows."""

    __slots__ = ("p", "basis", "pivots")

    def __init__(self, p: int, basis, _canonical: bool = False):
        p = PrimeField(p).p
        basis = as_gf_array(basis, p)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-dimensional, got shape {basis.shape}")
        if _canonical:
            pivots = (basis != 0).argmax(axis=1).tolist() if basis.size else []
        else:
            rank, basis, pivots = rref_array(basis, p)
            basis = basis[:rank]
        basis.flags.writeable = False
        self.p, self.basis, self.pivots = p, basis, tuple(pivots)

    @classmethod
    def span(cls, p: int, rows, ambient_dim: int | None = None) -> "Subspace":
        a = np.asarray(list(rows), dtype=np.int64)
        n = a.shape[-1] if ambient_dim is None else ambient_dim
        if a.shape != (0,) and (a.ndim != 2 or a.shape[1] != n):
            raise ValueError(f"rows of shape {a.shape} do not lie in GF({p})^{n}")
        return cls(p, a.reshape(len(a), n))

    @classmethod
    def zero(cls, p: int, n: int) -> "Subspace":
        return cls(p, np.zeros((0, n), dtype=np.int64), _canonical=True)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains_vector(self, v) -> bool:
        res = reduce_against_rref(as_gf_array(v, self.p), self.basis, self.pivots, self.p)
        return not np.any(res)

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.p, np.concatenate([self.basis, other.basis]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.basis.shape, self.basis.tobytes()))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, p={self.p})"

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "basis": matrix_to_json(self.p, self.basis)}

    @classmethod
    def from_json(cls, obj: dict) -> "Subspace":
        n = json_field(obj, "ambient_dim", "int")
        p, basis = matrix_from_json(json_field(obj, "basis", "object"))
        if basis.shape[1] != n:
            raise ValueError(f"basis has {basis.shape[1]} columns, ambient dim is {n}")
        return cls(p, basis)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n, exact big integer."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def _free_positions(pivots: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    ps = set(pivots)
    return [(r, c) for r, pc in enumerate(pivots) for c in range(pc + 1, n) if c not in ps]


def rref_arrays_for_pivots(pivots: tuple[int, ...], n: int, p: int) -> Iterator[np.ndarray]:
    """All RREF matrices with the given pivot columns, free entries in odometer order."""
    k = len(pivots)
    base = np.zeros((k, n), dtype=np.int64)
    base[np.arange(k), list(pivots)] = 1
    free = _free_positions(pivots, n)
    if not free:
        yield base.copy()
        return
    rows = np.array([f[0] for f in free])
    cols = np.array([f[1] for f in free])
    for vals in itertools.product(range(p), repeat=len(free)):
        m = base.copy()
        m[rows, cols] = vals
        yield m
