"""Exact linear algebra over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p; a type that owns
such data (:class:`Subspace` here, ``FormTuple`` in :mod:`commdim.forms`)
holds it read-only and checks its own invariants.  Input reaches GF(p) only
through :func:`as_gf_array`, and no caller reduces again after it: a large
int64 array already in [0, p) comes back itself, any other signed-int or bool
array from one ``np.mod``, and any other entry x as int(x) if that equals x.
Only this module knows the matrix JSON form {"p", "rows", "cols", "entries"}
(:func:`matrix_to_json`, :func:`matrix_from_json`).  Everything is
deterministic: row reduction yields the unique reduced row echelon form,
and subspaces are held in a canonical basis, so equal subspaces compare
equal bit for bit.

Every row reduction pivots on lists of Python ints (:func:`_rref_rows`);
numpy does only the products.  A reduction returns the nonzero rows of the
RREF and their pivot columns, so the rank is the number of pivots.  A
matrix of more than ``SMALL_MATRIX_CELLS`` cells first drops its zero rows,
and a tall one, with more than twice as many rows as columns, is fed in
blocks (:func:`_rref_tall`), each reduced against the basis so far by one
product.  Both return the same arrays as direct elimination, since the
reduced row echelon form is unique.
:func:`mulmod` is the one exact matrix product over GF(p), broadcast as in
numpy's matmul; the residual against an RREF basis, which the tall path and
:class:`Subspace` use, is one such product (:func:`reduce_against_rref`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_PRIME = 8191
DEFAULT_SEARCH_BUDGET = 5_000_000  # nodes of the isotropic-subspace search
# a matrix of at most this many cells is row reduced directly; a larger one
# first drops its zero rows, and a tall one is fed in blocks
SMALL_MATRIX_CELLS = 512
# every size, count, budget and seed lies below 10**SIZE_DIGITS, so that each
# prints within Python's limit of 4 300 digits on converting an int to text
SIZE_DIGITS = 1000
_SIZE_CAP = 10**SIZE_DIGITS  # CPython does not fold the power, so it is computed once


def checked_size(name: str, value: int, low: int = 0) -> int:
    """value if it is an int (not a bool) in [low, 10**SIZE_DIGITS), else a ValueError naming it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value >= _SIZE_CAP:
        raise ValueError(f"{name} must be below 10**{SIZE_DIGITS}")
    return value


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


def as_gf_array(entries, p: int) -> np.ndarray:
    """Coerce to a reduced int64 array over GF(p); the one way into GF(p).

    A reduced int64 array of more than ``SMALL_MATRIX_CELLS`` cells comes
    back itself (one :func:`in_range`), so a caller that freezes or writes
    the result must own its argument; any other signed-int or bool array
    comes back new from one ``np.mod``.  Any other input, 0-d included, is
    read as the caller's Python objects, each x as int(x) when that call
    succeeds and equals x: np.eye's floats and ints beyond int64 are read
    exactly, and 1.5, nan, "1", None or a complex raise ValueError.
    """
    a = np.asarray(entries)
    if a.dtype == np.int64:
        return a if a.size > SMALL_MATRIX_CELLS and in_range(a, p) else np.mod(a, p)
    if a.dtype.kind in "bi":
        return np.mod(a.astype(np.int64), p)
    # objects, not a.astype(object): numpy reads [2**64 - 1, -1] as float64, rounding 2**64 - 1
    obj = np.asarray(entries, dtype=object)
    out = np.empty(obj.shape, dtype=np.int64)
    for i, x in np.ndenumerate(obj):
        try:
            n = int(x)
        except (TypeError, ValueError, OverflowError):
            n = None
        if n is None or n != x:
            raise ValueError(f"entries must be ints, got non-integral {x!r}")
        out[i] = n % p
    return out


def alternation_defects(stack: np.ndarray, p: int) -> np.ndarray:
    """(n, n) mask of a (m, n, n) stack of forms with entries in [0, p): the (i, j)
    where some form has M[i, j] + M[j, i] != 0 mod p, and the (i, i) where some
    M[i, i] != 0.  The stack is alternating iff the mask is all False."""
    both = stack + stack.transpose(0, 2, 1)  # in [0, 2p - 2], so 0 mod p only at 0 and p
    bad = ((both != 0) & (both != p)).any(axis=0)
    np.fill_diagonal(bad, np.einsum("mii->im", stack).any(axis=1))
    return bad


def is_json_ints(v) -> bool:
    """True iff v is a list of JSON ints, each read as the "int" kind reads one."""
    return isinstance(v, list) and set(map(type, v)) <= {int}


_JSON_TYPES = {
    "int": lambda v: type(v) is int,  # bool is a subclass of int, and not a JSON int
    "ints": is_json_ints,
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
    return {"p": p, "rows": rows, "cols": cols, "entries": a.reshape(-1).tolist()}


def matrix_from_json(obj) -> tuple[int, np.ndarray]:
    """(p, reduced (rows, cols) array) from the JSON form of :func:`matrix_to_json`."""
    p = PrimeField(json_field(obj, "p", "int")).p
    rows, cols = json_field(obj, "rows", "int"), json_field(obj, "cols", "int")
    entries = json_field(obj, "entries", "ints")
    if rows < 0 or cols < 0:
        raise ValueError(f"rows and cols must be at least 0, got {rows} and {cols}")
    if len(entries) != rows * cols:
        raise ValueError("entry count does not match rows*cols")
    return p, as_gf_array(entries, p).reshape(rows, cols)


def in_range(a: np.ndarray, bound: int) -> bool:
    """True iff every entry of the int64 array a lies in [0, bound): one
    reduction, since a negative int64 read as uint64 is at least 2**63."""
    return not a.size or bool(a.view(np.uint64).max() < bound)


def _rref_rows(m: list[list[int]], p: int) -> list[int]:
    """Row reduce a list of rows of ints in [0, p) in place; returns the pivot cols.

    The first len(pivots) rows are then the RREF basis, and zero rows follow.
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
            inv = pow(row[c], p - 2, p)
            row = [x * inv % p for x in row]
        m[r] = row
        support = [(j, y) for j, y in enumerate(row) if y]
        for other in m:
            f = other[c]
            if f and other is not row:
                for j, y in support:
                    other[j] = (other[j] - f * y) % p
        pivots.append(c)
        r += 1
    return pivots


def mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Matrix product a @ b mod p of arrays with entries in [0, p), via float64 BLAS;
    arrays of more than two dimensions broadcast as in numpy's matmul.

    Exact while contraction length * (p - 1)**2 < 2**53, about 1.3e8 terms at
    p = 8191: every partial sum is then an integer that float64 holds exactly.
    """
    c = a.astype(np.float64) @ b.astype(np.float64)
    return np.mod(np.rint(c).astype(np.int64), p)


def rref_array(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a raw array: (basis, pivot cols), the basis
    being its nonzero rows, a (len(pivots), cols) int64 array; the rank is len(pivots)."""
    m = as_gf_array(a, p)
    if m.size <= SMALL_MATRIX_CELLS:
        return _rref_dense(m, p)
    nonzero = m.any(axis=1)
    kept = m if nonzero.all() else m[nonzero]
    return (_rref_tall if len(kept) > 2 * m.shape[1] else _rref_dense)(kept, p)


def _rref_dense(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """:func:`rref_array` of a reduced array m by :func:`_rref_rows`."""
    rows = m.tolist()
    pivots = _rref_rows(rows, p)
    return np.array(rows[: len(pivots)], dtype=np.int64).reshape(len(pivots), m.shape[1]), pivots


def _rref_tall(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """:func:`rref_array` of a reduced array with more than twice as many rows
    as columns, in blocks.

    Each round replaces the next block of rows by its residual against the
    RREF basis so far (:func:`reduce_against_rref`, one exact product), drops
    the residuals that are zero, and row reduces the rest together
    with the basis by :func:`_rref_dense`.  Each row is reduced against a
    basis once, and a block that lies in the span so far costs no
    elimination.  The block starts at one row per column and doubles each
    round, so a row order that adds one dimension per block still ends after
    about log2(rows / cols) rounds, and the rounds stop at full rank.
    """
    ncols = m.shape[1]
    basis, pivots, start, size = m[:0], [], 0, ncols
    while start < len(m) and len(pivots) < ncols:
        block = reduce_against_rref(m[start : start + size], basis, pivots, p)
        block = block[block.any(axis=1)]
        if len(block):
            basis, pivots = _rref_dense(np.concatenate([basis, block]), p)
        start, size = start + size, 2 * size
    return basis, pivots


def nullspace_array(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (RREF) row basis of {x : a @ x = 0} over GF(p).

    One elimination, on the columns in reverse order: the solution read off
    a free column f is then 1 at f, 0 at the other free columns and nonzero
    only at pivot columns right of f, so these solutions, ordered by f, are
    already the RREF basis.
    """
    a = as_gf_array(a, p)[:, ::-1]
    ncols = a.shape[1]
    if a.size <= SMALL_MATRIX_CELLS:
        rows = a.tolist()
        pivots = _rref_rows(rows, p)
    else:
        red, pivots = rref_array(a, p)
        rows = red.tolist()
    basis = []
    for f in reversed(range(ncols)):
        if f not in pivots:
            v = [0] * ncols
            v[f] = 1
            for row, pc in zip(rows, pivots):
                v[pc] = -row[f] % p
            basis.append(v[::-1])
    return np.array(basis, dtype=np.int64).reshape(len(basis), ncols)


def solve_affine(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve a @ x = b over GF(p).

    Returns (particular solution, RREF row basis of the homogeneous solution
    space), or None if the system is inconsistent.
    """
    a = as_gf_array(a, p)
    ncols = a.shape[1]
    aug = np.column_stack([a, as_gf_array(b, p).reshape(-1)])
    red, pivots = rref_array(aug, p)
    if pivots and pivots[-1] == ncols:
        return None
    x0 = np.zeros(ncols, dtype=np.int64)
    x0[pivots] = red[:, ncols]
    # the left block of a consistent system's RREF is the RREF of a
    return x0, nullspace_array(red[:, :ncols], p)


def reduce_against_rref(v: np.ndarray, basis: np.ndarray, pivots: Iterable[int], p: int) -> np.ndarray:
    """Residual of v, a vector or a stack of them with entries in [0, p), after
    eliminating the pivots of an RREF basis: v - v[..., pivots] @ basis, since
    the basis is the identity at its pivots.  The residual is zero at every pivot."""
    return (v - mulmod(v[..., list(pivots)], basis, p)) % p


class Subspace:
    """A subspace of GF(p)^n held by its canonical RREF basis: a read-only,
    reduced (k, n) int64 array with no zero rows."""

    __slots__ = ("p", "basis", "pivots")

    def __init__(self, p: int, basis, _canonical: bool = False):
        # an array is coerced once, here or inside rref_array; a list is made
        # an array once, here, which reads ints beyond int64 exactly, and
        # rref_array then re-checks that reduced array (in_range or a small np.mod)
        p = PrimeField(p).p
        if _canonical or not isinstance(basis, np.ndarray):
            basis = as_gf_array(basis, p)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-dimensional, got shape {basis.shape}")
        if _canonical:
            pivots = (basis != 0).argmax(axis=1).tolist() if basis.size else []
        else:
            basis, pivots = rref_array(basis, p)
        basis.flags.writeable = False
        self.p, self.basis, self.pivots = p, basis, tuple(pivots)

    @classmethod
    def span(cls, p: int, rows, ambient_dim: int | None = None) -> "Subspace":
        p, rows = PrimeField(p).p, list(rows)
        a = as_gf_array(rows, p) if rows else np.zeros((0,), dtype=np.int64)
        n = a.shape[-1] if ambient_dim is None else checked_size("ambient_dim", ambient_dim)
        if a.shape != (0,) and (a.ndim != 2 or a.shape[1] != n):
            raise ValueError(f"rows of shape {a.shape} do not lie in GF({p})^{n}")
        return cls(p, a if rows else np.zeros((0, n), dtype=np.int64))

    @classmethod
    def zero(cls, p: int, n: int) -> "Subspace":
        return cls(p, np.zeros((0, checked_size("n", n)), dtype=np.int64), _canonical=True)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def _check_same_space(self, other: "Subspace") -> None:
        if (other.p, other.ambient_dim) != (self.p, self.ambient_dim):
            raise ValueError(f"{other!r} does not lie in the space of {self!r}")

    def contains_vector(self, v) -> bool:
        v = as_gf_array(v, self.p)
        if v.shape != (self.ambient_dim,):
            raise ValueError(f"a vector of shape {v.shape} does not lie in GF({self.p})^{self.ambient_dim}")
        return not reduce_against_rref(v, self.basis, self.pivots, self.p).any()

    def contains(self, other: "Subspace") -> bool:
        self._check_same_space(other)
        return not reduce_against_rref(other.basis, self.basis, self.pivots, self.p).any()

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_same_space(other)
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
    if checked_size("n", n) < checked_size("k", k):
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    checked_size("q", q, 2)
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
