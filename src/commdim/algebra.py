"""Structure-constant algebras (Lie or associative) over GF(p).

An algebra of dimension d on basis e_0..e_{d-1} is given by the sparse map
(i, j) -> coordinate vector of e_i e_j.  Pairs that are absent multiply to
zero, except that for the Lie kind a missing (j, i) is derived from a stored
(i, j) by negation, so well-formed Lie algebras only store keys with i < j.
Explicitly stored keys always win, which is what lets the axiom checker
represent and detect broken input.

The JSON form (schema 2) is {"schema": 2, "kind", "p", "dim", "sc",
"labels"?}, where "sc" lists one {"i", "j", "nz": [[m, v], ...]} per stored
key, sorted by (i, j), with the nonzero coordinates m of e_i e_j in
increasing order.  A stored key whose product is zero keeps "nz": [].  A
document without "schema" is version 1, whose entries {"i", "j", "v"} hold
the dense coordinate vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import NotASubalgebra
from .gf import (
    PrimeField,
    Subspace,
    as_gf_array,
    json_field,
    nullspace_array,
    reduce_against_rref,
    rref_array,
)

KIND_LIE = "lie"
KIND_ASSOC = "assoc"
_KIND_ALIASES = {"lie": KIND_LIE, "assoc": KIND_ASSOC, "associative": KIND_ASSOC}
# the dense product table holds d^3 int64 entries, 33 MB at this cap; the
# largest algebra built here, the unitalized M_12 (d = 145), stays below it
MAX_ALGEBRA_DIM = 160
# the version of the JSON form that to_json writes
ALGEBRA_SCHEMA = 2


def _mulmod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact matrix product mod p via float64 BLAS.

    Entries are < p <= 8191 and the contraction length stays far below
    2**53 / p**2, so the float product is exact.
    """
    c = a.astype(np.float64) @ b.astype(np.float64)
    return np.mod(np.rint(c).astype(np.int64), p)


def _checked_kind(kind: str, dim: int) -> str:
    if kind not in _KIND_ALIASES:
        raise ValueError(f"unknown algebra kind {kind!r}")
    if not 0 <= dim <= MAX_ALGEBRA_DIM:
        raise ValueError(f"dimension must lie in [0, {MAX_ALGEBRA_DIM}], got {dim}")
    return _KIND_ALIASES[kind]


def _ints(values) -> bool:
    return set(map(type, values)) <= {int}  # bool is a subclass of int, and not a JSON int


def _first_repeat(items: list):
    """The first item equal to an earlier one, or None."""
    seen = set()
    return next((x for x in items if x in seen or seen.add(x)), None)


def _sc_from_json(entries: list, p: int, dim: int) -> tuple[list, np.ndarray]:
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


class StructureConstantAlgebra:
    """A finite-dimensional algebra over GF(p) given by structure constants."""

    __slots__ = ("kind", "field", "dim", "sc", "labels", "_rows", "_table", "_comm")

    def __init__(self, kind: str, field: PrimeField, dim: int, sc: dict, labels=None):
        kind = _checked_kind(kind, dim)
        p = field.p
        keys = [(int(key[0]), int(key[1])) for key in sc]
        try:
            rows = np.array(list(sc.values()), dtype=np.int64) if keys else np.zeros((0, dim), dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            rows = None
        in_range = all(0 <= i < dim and 0 <= j < dim for i, j in keys)
        if rows is None or rows.shape != (len(keys), dim) or not in_range:
            # again one entry at a time, to name the entry at fault
            rows = []
            for (i, j), vec in zip(keys, sc.values()):
                if not (0 <= i < dim and 0 <= j < dim):
                    raise ValueError(f"structure constant key {(i, j)} out of range")
                v = as_gf_array(vec, p)
                if v.shape != (dim,):
                    raise ValueError(f"structure constant vector for {(i, j)} has wrong length")
                rows.append(v)
            rows = np.array(rows, dtype=np.int64).reshape(len(keys), dim)
        self._init(kind, field, dim, keys, rows, labels)

    @classmethod
    def _from_rows(cls, kind: str, field: PrimeField, dim: int, keys: list, rows: np.ndarray, labels=None):
        """The algebra with e_i e_j = rows[n] for (i, j) = keys[n], n < N.

        keys must be distinct pairs of ints in [0, dim) and rows an (N, dim)
        int64 array, which the algebra takes over and reduces in place.
        """
        a = cls.__new__(cls)
        a._init(_checked_kind(kind, dim), field, dim, keys, rows, labels)
        return a

    def _init(self, kind: str, field: PrimeField, dim: int, keys: list, rows: np.ndarray, labels) -> None:
        self.kind = kind
        self.field = field
        self.dim = dim
        np.mod(rows, field.p, out=rows)
        rows.flags.writeable = False
        # one (N, d) array; sc maps each key to a read-only row view of it
        self._rows = rows
        self.sc = dict(zip(keys, rows))
        if labels is not None:
            labels = [str(x) for x in labels]
            if len(labels) != dim:
                raise ValueError("label count must equal dim")
        self.labels = labels
        self._table = None
        self._comm = None

    @property
    def p(self) -> int:
        return self.field.p

    def table(self) -> np.ndarray:
        """Dense (d, d, d) product tensor T with T[i, j] = e_i e_j."""
        if self._table is None:
            d, p = self.dim, self.p
            t = np.zeros((d, d, d), dtype=np.int64)
            i, j = np.array(list(self.sc), dtype=np.intp).reshape(-1, 2).T
            t[i, j] = self._rows
            if self.kind == KIND_LIE:
                derived = np.array([a != b and (b, a) not in self.sc for a, b in self.sc], dtype=bool)
                t[j[derived], i[derived]] = (-self._rows[derived]) % p
            t.flags.writeable = False
            self._table = t
        return self._table

    def commutator_table(self) -> np.ndarray:
        """Bracket tensor: the table itself for Lie kind, xy - yx otherwise."""
        if self._comm is None:
            t = self.table()
            if self.kind == KIND_LIE:
                self._comm = t
            else:
                c = (t - t.transpose(1, 0, 2)) % self.p
                c.flags.writeable = False
                self._comm = c
        return self._comm

    def product(self, x, y) -> np.ndarray:
        """Product (bracket for Lie kind) of two coordinate vectors."""
        x = as_gf_array(x, self.p)
        y = as_gf_array(y, self.p)
        return np.einsum("a,b,abk->k", x, y, self.table()) % self.p

    def to_json(self) -> dict:
        """The schema-2 JSON form: entries sorted by (i, j), their nz pairs by m."""
        rows = self._rows
        r, m = np.nonzero(rows)  # row-major, so grouped by entry and sorted by m
        nz = list(map(list, zip(m.tolist(), rows[r, m].tolist())))
        ends = np.bincount(r, minlength=len(rows)).cumsum().tolist()
        groups = [nz[a:b] for a, b in zip([0, *ends], ends)]
        entries = [{"i": i, "j": j, "nz": g} for (i, j), g in sorted(zip(self.sc, groups))]
        kind = "lie" if self.kind == KIND_LIE else "assoc"
        obj = {"schema": ALGEBRA_SCHEMA, "kind": kind, "p": self.p, "dim": self.dim, "sc": entries}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "StructureConstantAlgebra":
        """Read either schema; a document without "schema" is version 1."""
        schema = json_field(obj, "schema", "int", default=1)
        if schema == ALGEBRA_SCHEMA:
            field = PrimeField(json_field(obj, "p", "int"))
            kind, dim = json_field(obj, "kind", "str"), json_field(obj, "dim", "int")
            _checked_kind(kind, dim)  # before anything of size dim is allocated
            keys, rows = _sc_from_json(json_field(obj, "sc", "list"), field.p, dim)
            labels = json_field(obj, "labels", "list", default=None)
            return cls._from_rows(kind, field, dim, keys, rows, labels=labels)
        if schema != 1:
            raise ValueError(f"unknown algebra schema {schema}")
        p = PrimeField(json_field(obj, "p", "int")).p
        sc = {}
        for e in json_field(obj, "sc", "list"):
            key = (json_field(e, "i", "int"), json_field(e, "j", "int"))
            if key in sc:
                raise ValueError(f"duplicate structure constant key {key}")
            v = json_field(e, "v", "ints")
            # ints outside [0, p), which may not fit int64, are reduced before numpy sees them
            sc[key] = v if not v or 0 <= min(v) and max(v) < p else [x % p for x in v]
        return cls(
            json_field(obj, "kind", "str"),
            PrimeField(p),
            json_field(obj, "dim", "int"),
            sc,
            labels=json_field(obj, "labels", "list", default=None),
        )

    def __repr__(self) -> str:
        return f"StructureConstantAlgebra(kind={self.kind!r}, p={self.p}, dim={self.dim})"


@dataclass
class AxiomReport:
    """Outcome of the kind-specific axiom check."""

    kind: str
    checks: dict[str, bool]
    first_violation: tuple | None

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "checks": dict(self.checks),
            "first_violation": list(self.first_violation) if self.first_violation else None,
            "passed": self.passed,
        }


def _identity_index(t: np.ndarray) -> int | None:
    """The u with e_u e_x = e_x e_u = e_x for every basis vector e_x, or None."""
    eye = np.eye(len(t), dtype=t.dtype)
    both = (t == eye).all(axis=(1, 2)) & (t.transpose(1, 0, 2) == eye).all(axis=(1, 2))
    hits = np.flatnonzero(both)
    return int(hits[0]) if hits.size else None


def _first_identity_violation(t: np.ndarray, p: int, kind: str) -> tuple | None:
    """First basis triple (i, j, k), row-major, that breaks the kind's identity.

    assoc: (e_i e_j) e_k = e_i (e_j e_k).  lie: the literal cyclic sum
    [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0, kept in this form
    because on tables that are not alternating the ad-homomorphism form
    differs.  Every term is sum_m T[x, y, m] T[m, z] or sum_m T[x, y, m]
    T[z, m], so only the m in the support S -- coordinates of some product
    that are also a factor of some product -- contribute, and the
    contractions run over S alone.  S is empty for every two-step algebra,
    where products of V land in U and U multiplies to zero; it is all of
    range(d) for M_r and for any unitalization.  One (d, d, d) slab per i
    keeps memory at O(d^3).  The float products are exact: every partial sum
    is an integer below 3 d p^2 < 2**53, so fmod by p is zero exactly on the
    multiples of p; it runs only on the (j, k) rows whose sum is not 0.

    An assoc table with a two-sided identity e_u (T[u] = T[:, u] = I, as
    after unitalization) satisfies every triple that involves u.  When the
    other products have no e_u coordinate either, the triples without u are
    exactly those of the table with u deleted, which is checked instead; for
    a unitalized two-step algebra its support is empty.  The deletion
    repeats while the rest has such an identity, replacing the table each
    time, so nested identities keep memory at O(d^3).
    """
    idx = np.arange(t.shape[0])  # idx[x] is the input's index of basis vector x of t
    while kind == KIND_ASSOC and (u := _identity_index(t)) is not None:
        rest = np.flatnonzero(np.arange(len(t)) != u)
        if t[np.ix_(rest, rest, [u])].any():
            break
        t, idx = t[np.ix_(rest, rest, rest)], idx[rest]
    d = t.shape[0]
    support = t.any(axis=(0, 1)) & (t.any(axis=(1, 2)) | t.any(axis=(0, 2)))
    if not support.any():
        return None
    m = slice(None) if support.all() else np.flatnonzero(support)  # a slice keeps views
    tf = t.astype(np.float64)
    flat = tf.reshape(d, d * d)[m]  # flat[m, (k, l)] = T[m, k, l]
    rows = tf.reshape(d * d, d)[:, m]  # rows[(j, k), m] = T[j, k, m]
    for i in range(d):
        total = (tf[i][:, m] @ flat).reshape(d, d, d)  # [j, k] = (e_i e_j) e_k
        if kind == KIND_ASSOC:
            total -= (rows @ tf[i][m]).reshape(d, d, d)  # e_i (e_j e_k)
        else:
            total += (rows @ tf[m, i]).reshape(d, d, d)  # [[e_j,e_k],e_i]
            total += (tf[:, i][:, m] @ flat).reshape(d, d, d).transpose(1, 0, 2)  # [[e_k,e_i],e_j]
        nonzero = np.argwhere(total.any(axis=2))
        if nonzero.size:
            bad = np.fmod(total[nonzero[:, 0], nonzero[:, 1]], p).any(axis=1)
            if bad.any():
                j, k = nonzero[bad.argmax()]
                return (int(idx[i]), int(idx[j]), int(idx[k]))
    return None


def verify_axioms(a: StructureConstantAlgebra) -> AxiomReport:
    """Exhaustively check the kind's axioms over all basis pairs/triples."""
    t = a.table()
    p = a.p
    v = _first_identity_violation(t, p, a.kind)
    if a.kind == KIND_ASSOC:
        return AxiomReport("assoc", {"associative": v is None}, v)
    # Alternating: zero diagonal and T[i,j] = -T[j,i], scanned row-major over
    # j <= i so a tampered reversed key (i, j) with i > j is the one reported.
    bad = ((t + t.transpose(1, 0, 2)) % p).any(axis=2)
    np.fill_diagonal(bad, np.einsum("iik->ik", t).any(axis=1))
    hits = np.argwhere(np.tril(bad))
    alt_violation = tuple(int(x) for x in hits[0]) if hits.size else None
    checks = {"alternating": alt_violation is None, "jacobi": v is None}
    return AxiomReport("lie", checks, alt_violation or v)


def _centralizer_system(a: StructureConstantAlgebra, gens: np.ndarray) -> np.ndarray:
    """Equation rows for {x : [x, g] = 0 for all rows g}."""
    d = a.dim
    c = a.commutator_table()
    if gens.shape[0] == 0:
        return np.zeros((0, d), dtype=np.int64)
    # block for g: rows (k), cols (i): sum_j C[i,j,k] g_j
    blocks = _mulmod(gens, c.transpose(1, 0, 2).reshape(d, d * d), a.p).reshape(-1, d, d)  # (g, i, k)
    return blocks.transpose(0, 2, 1).reshape(-1, d)


def centralizer(a: StructureConstantAlgebra, gens) -> Subspace:
    """Solution space of [x, g] = 0 for every generator g."""
    system = _centralizer_system(a, Subspace.span(a.p, gens, a.dim).basis)
    return Subspace(a.p, nullspace_array(system, a.p), _canonical=True)


def center(a: StructureConstantAlgebra) -> Subspace:
    """Solution space of [x, e_j] = 0 for all j (commutator for assoc kind)."""
    system = _centralizer_system(a, np.eye(a.dim, dtype=np.int64))
    return Subspace(a.p, nullspace_array(system, a.p), _canonical=True)


def nilpotency_class(a: StructureConstantAlgebra) -> int | None:
    """Length of the lower central series (power series for assoc kind).

    Returns the smallest c with term c+1 = 0, or None when the descending
    series stabilizes at a nonzero subspace.
    """
    d, p = a.dim, a.p
    if d == 0:
        return 0
    cur = np.eye(d, dtype=np.int64)
    m = 1
    while True:
        # next term: RREF basis of span{e_i * b : b row of cur}; the table is
        # the bracket for the Lie kind and the product for the assoc kind
        prods = np.tensordot(cur, a.table(), axes=([1], [1])).reshape(-1, d) % p
        rank, red, _ = rref_array(prods, p)
        if rank == 0:
            return m
        if rank == cur.shape[0]:
            return None
        cur = red[:rank]
        m += 1


def pairwise_products(a: StructureConstantAlgebra, basis: np.ndarray) -> np.ndarray:
    """(k, k, d) tensor of products of all ordered basis-row pairs.

    Two matrix products with a reduction mod p between them: first x_i e_b
    for every row x_i and every e_b some row uses, then x_i x_j = sum_b
    x_j[b] x_i e_b.  Only the c <= d coordinates that some row uses take
    part, so this costs k c^2 d + k^2 c d and copies c^2 d table entries.
    Each product contracts over at most d reduced entries, so every partial
    sum is an integer below d p^2 (about 1.1e10 at d = 160, p = 8191), far
    under 2**53, and the float products in :func:`_mulmod` are exact.
    """
    d, p = a.dim, a.p
    basis = np.asarray(basis, dtype=np.int64) % p
    used = np.flatnonzero(basis.any(axis=0))
    x, c = basis[:, used], len(used)
    t = a.table()[np.ix_(used, used)].reshape(c, c * d)
    by_unit = _mulmod(x, t, p).reshape(len(basis), c, d)  # [i, b] = x_i e_b
    return _mulmod(x, by_unit, p)  # [i, j] = sum_b x_j[b] x_i e_b


def is_abelian_subspace(a: StructureConstantAlgebra, s: Subspace) -> bool:
    """True iff all pairwise brackets (commutators) of basis vectors vanish.

    The subspace must be a subalgebra: the product of any two basis vectors
    has to lie in it, otherwise NotASubalgebra is raised with the offending
    pair of indices.
    """
    if s.ambient_dim != a.dim:
        raise ValueError("subspace ambient dimension does not match the algebra")
    b = s.basis
    prods = pairwise_products(a, b)
    resid = reduce_against_rref(prods, b, s.pivots, a.p)
    outside = np.argwhere(resid.any(axis=2))
    if outside.size:
        i, j = (int(x) for x in outside[0])
        raise NotASubalgebra(
            f"product of basis vectors {i} and {j} falls outside the subspace",
            pair=(i, j),
        )
    if a.kind == KIND_LIE:
        return not prods.any()
    comm = (prods - prods.transpose(1, 0, 2)) % a.p
    return not comm.any()

