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
the dense coordinate vector.  The one writer,
:meth:`StructureConstantAlgebra.json_text`, builds the text; ``to_json``
parses it.  The one reader, ``from_json``, takes a parsed document or its
text.  A text of at least ``TEXT_READER_MIN_CHARS`` in the writer's layout is
parsed from its bytes by :func:`_read_text`, any other text by ``json.loads``.
Every way into an algebra (that text, a schema-2 or version-1 document, and
the constructor's dict) hands plain ints to :func:`_checked_keys` and to one
of two row builders, :func:`_dense_rows` or :func:`_sparse_rows`; these three
make every check on structure constants.

An algebra holds its keys and their products in two read-only arrays; the
``sc`` dict of row views is built on first use.
"""

from __future__ import annotations

import functools
import json
import operator
import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import NotASubalgebra
from .gf import (
    PrimeField,
    Subspace,
    alternation_defects,
    as_gf_array,
    checked_size,
    in_range,
    is_json_ints,
    json_field,
    mulmod,
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
# a text of at least this many characters is first tried by _read_text: its
# numpy path costs about 70 us at any size, and it overtook json.loads plus
# the dict path at 2.5-3.3 kB (a 368-byte document took 125 against 53 us)
TEXT_READER_MIN_CHARS = 4096
# json_text's layout up to the "sc" list, with p and dim as JSON writes ints
_TEXT_HEAD = re.compile(r'\{"schema": 2, "kind": "(lie|assoc)", "p": ([1-9][0-9]{0,3}), "dim": (0|[1-9][0-9]{0,2}), "sc": \[')


def _checked_kind(kind: str, dim: int) -> str:
    if kind not in _KIND_ALIASES:
        raise ValueError(f"unknown algebra kind {kind!r}")
    if checked_size("dim", dim) > MAX_ALGEBRA_DIM:
        raise ValueError(f"dimension must lie in [0, {MAX_ALGEBRA_DIM}], got {dim}")
    return _KIND_ALIASES[kind]


def _first_repeat(items: list):
    """The first item equal to an earlier one, or None."""
    seen = set()
    return next((x for x in items if x in seen or seen.add(x)), None)


def _below(values, bound: int) -> np.ndarray | None:
    """values as an int64 array if each lies in [0, bound), else None."""
    try:
        a = np.array(values, dtype=np.int64)
    except OverflowError:
        return None
    return a if in_range(a, bound) else None


def _checked_keys(ij, dim: int) -> np.ndarray:
    """The (2, N) int64 keys of ij, the i's and the j's as two int
    sequences, each key checked to lie in range and to be listed once."""
    keys = _below(ij, dim)
    if keys is None:
        bad = next(key for key in zip(*np.array(ij, dtype=object).tolist()) if not (0 <= key[0] < dim and 0 <= key[1] < dim))
        raise ValueError(f"structure constant key {bad} out of range")
    code = keys[0] * dim + keys[1]
    # the writer sorts entries by (i, j), which makes code increase strictly
    if not (code[1:] > code[:-1]).all() and np.unique(code).size < code.size:
        raise ValueError(f"duplicate structure constant key {_first_repeat(list(zip(*keys.tolist())))}")
    return keys


def _dense_rows(ij, vectors, p: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """((2, N) keys, (N, dim) reduced rows) of the keys ij and their dense
    product vectors: each vector's values and length, then the keys."""
    rows = [as_gf_array(v, p) for v in vectors]
    for key, v in zip(zip(*ij), rows):
        if v.shape != (dim,):
            raise ValueError(f"structure constant vector for {key} has wrong length")
    return _checked_keys(ij, dim), np.array(rows, dtype=np.int64).reshape(len(rows), dim)


def _sparse_rows(keys: np.ndarray, counts, ms, vs, p: int, dim: int) -> np.ndarray:
    """The (N, dim) reduced rows of the checked keys whose products list
    counts[n] pairs each, the m's and v's of all pairs in entry order."""
    ms = _below(ms, dim)
    if ms is None:
        raise ValueError(f"nz coordinate out of range [0, {dim})")
    vs = as_gf_array(vs, p)
    at = np.repeat(np.arange(len(counts)) * dim, counts) + ms
    # the writer lists each entry's m in increasing order, which makes at increase strictly
    if not (at[1:] > at[:-1]).all() and np.unique(at).size < at.size:
        n, m = divmod(_first_repeat(at.tolist()), dim)
        raise ValueError(f"nz coordinate {m} listed twice for structure constant key {tuple(keys[:, n].tolist())}")
    rows = np.zeros((len(counts), dim), dtype=np.int64)
    rows.reshape(-1)[at] = vs
    return rows


def _checked_sc(entries: list, p: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """((2, N) keys, (N, dim) rows) of schema-2 entries, their JSON types
    checked over the whole list: the keys' first, the pairs' once the keys pass."""
    try:
        ii = [e["i"] for e in entries]
        jj = [e["j"] for e in entries]
        nzs = [e["nz"] for e in entries]
        ok = is_json_ints(ii) and is_json_ints(jj) and set(map(type, nzs)) <= {list}
    except (KeyError, TypeError):
        ok = False
    if not ok:  # again one entry at a time, to name the field at fault
        for e in entries:
            json_field(e, "i", "int"), json_field(e, "j", "int"), json_field(e, "nz", "list")
        raise ValueError("each structure constant entry needs JSON ints i, j and a JSON list nz")
    keys = _checked_keys([ii, jj], dim)
    items = list(chain.from_iterable(nzs))
    if not (set(map(type, items)) <= {list} and set(map(len, items)) <= {2}):
        raise ValueError("each nz item must be a pair [m, v]")
    flat = list(chain.from_iterable(items))
    if not is_json_ints(flat):
        raise ValueError("nz coordinates and values must be JSON ints")
    return keys, _sparse_rows(keys, list(map(len, nzs)), flat[0::2], flat[1::2], p, dim)


@functools.cache
def _entry_skeleton(pairs: int) -> str:
    """An "sc" entry in json_text's layout with that many pairs, every int written 0."""
    return f'{{"i": 0, "j": 0, "nz": [{", ".join(["[0, 0]"] * pairs)}]}}'


def _sc_from_text(body: str) -> tuple[np.ndarray, ...] | None:
    """((2, N) keys, pair counts, m's, v's), all int64 arrays, of the text
    between the brackets of "sc" if it is in json_text's layout; None otherwise.

    Each maximal run of digits is one JSON int, of at most 9 digits and no
    leading zero.  With every run written as one 0, the text must equal the
    join of :func:`_entry_skeleton` over the entries, each entry's pair count
    read off the runs after its "{"; that fixes which int is i, j, m or v.
    Their values are left to :func:`_checked_keys` and :func:`_sparse_rows`.
    """
    if not body.isascii():
        return None
    a = np.frombuffer(body.encode(), dtype=np.uint8)
    digit = a - 48 < 10  # uint8 wraps, so no other byte lands below 10
    start, end = digit.copy(), digit.copy()
    start[1:] &= ~digit[:-1]
    end[:-1] &= ~digit[1:]
    starts = np.flatnonzero(start)
    lens = np.flatnonzero(end) + 1 - starts
    first = np.searchsorted(starts, np.flatnonzero(a == ord("{")))  # each entry's first run
    pairs = (np.diff(first, append=len(starts)) - 2) // 2  # after i and j, two ints per pair
    skeleton = ", ".join(map(_entry_skeleton, pairs.tolist())).encode()
    longest = int(lens.max(initial=1))
    if (np.where(digit, np.uint8(48), a)[start | ~digit].tobytes() != skeleton
            or longest > 9 or ((a[starts] == 48) & (lens > 1)).any()):
        return None
    # widened before any arithmetic: NumPy 1's value-based casting keeps
    # uint8 - np.int64(48) in uint8, where 3-digit values would wrap
    vals = a[starts].astype(np.int64) - 48
    for k in range(1, longest):  # one digit place of every longer run per step
        more = np.flatnonzero(lens > k)
        vals[more] = vals[more] * 10 + a[starts[more] + k] - 48
    in_nz = np.ones(len(vals), dtype=bool)
    in_nz[first] = in_nz[first + 1] = False
    mv = vals[in_nz]
    return np.stack([vals[first], vals[first + 1]]), pairs, mv[0::2], mv[1::2]


def _read_text(text: str) -> tuple[dict, tuple] | None:
    """(the document less its "sc", :func:`_sc_from_text` of its "sc") of a
    text in json_text's layout, read from its bytes; None for any other text,
    which is left to ``json.loads``.

    The layout is the head that _TEXT_HEAD matches, an "sc" body that
    :func:`_sc_from_text` parses, and then "}" or ', "labels": X}' with X any
    JSON text.  Trailing JSON whitespace is allowed, as the CLI's files end
    in a newline.  No value is checked here: ``from_json`` checks the
    document as it checks a parsed one.
    """
    head = _TEXT_HEAD.match(text)
    if head is None:
        return None
    doc = {"schema": ALGEBRA_SCHEMA, "kind": head[1], "p": int(head[2]), "dim": int(head[3])}
    text, start = text.rstrip(" \t\n\r"), head.end()
    if text.startswith("]", start):
        body, tail = "", text[start + 1 :]
    else:
        end = text.find("}]", start) + 1  # the entries hold no "}]" of their own
        if not end:
            return None
        body, tail = text[start:end], text[end + 1 :]
    if tail != "}":
        x = tail.removeprefix(', "labels": ')
        if x == tail or not x.endswith("}"):
            return None
        try:
            doc["labels"] = json.loads(x[:-1])
        except ValueError:
            return None
    sc = _sc_from_text(body)
    return None if sc is None else (doc, sc)


class StructureConstantAlgebra:
    """A finite-dimensional algebra over GF(p) given by structure constants."""

    __slots__ = ("kind", "field", "dim", "labels", "_keys", "_rows", "_sc", "_table", "_comm")

    def __init__(self, kind: str, field: PrimeField, dim: int, sc: dict, labels=None):
        kind = _checked_kind(kind, dim)
        ij = [[operator.index(i) for i, _ in sc], [operator.index(j) for _, j in sc]]
        keys, rows = _dense_rows(ij, sc.values(), field.p, dim)
        self._init(kind, field, dim, keys, rows, labels)

    @classmethod
    def _from_rows(cls, kind: str, field: PrimeField, dim: int, keys: np.ndarray, rows: np.ndarray, labels=None):
        """The algebra with e_i e_j = rows[n] for (i, j) = keys[:, n], taking over a
        (2, N) int64 array of distinct keys in [0, dim) and (N, dim) int64 rows,
        which must already be reduced mod p.  Every caller's are: the row builders
        reduce what they read, and :mod:`commdim.construct` passes form entries,
        an algebra's rows and 0/1."""
        a = cls.__new__(cls)
        a._init(_checked_kind(kind, dim), field, dim, keys, rows, labels)
        return a

    def _init(self, kind: str, field: PrimeField, dim: int, keys: np.ndarray, rows: np.ndarray, labels) -> None:
        self.kind, self.field, self.dim = kind, field, dim
        keys.flags.writeable = rows.flags.writeable = False
        self._keys, self._rows, self._sc, self._table, self._comm = keys, rows, None, None, None
        if labels is not None:
            labels = [str(x) for x in labels]
            if len(labels) != dim:
                raise ValueError("label count must equal dim")
        self.labels = labels

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def sc(self) -> dict:
        """{(i, j): read-only row e_i e_j} for every stored key, in stored order."""
        if self._sc is None:
            self._sc = dict(zip(zip(*self._keys.tolist()), self._rows))
        return self._sc

    def table(self) -> np.ndarray:
        """Dense (d, d, d) product tensor T with T[i, j] = e_i e_j."""
        if self._table is None:
            d, p = self.dim, self.p
            t = np.zeros((d, d, d), dtype=np.int64)
            i, j = self._keys
            if self.kind == KIND_LIE:  # every reverse first, so that stored keys win
                neg = p - self._rows  # in (0, p], the rows being reduced
                neg[neg == p] = 0
                t[j, i] = neg
            t[i, j] = self._rows
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
                c = t - t.transpose(1, 0, 2)  # in (-p, p)
                np.add(c, self.p, out=c, where=c < 0)
                c.flags.writeable = False
                self._comm = c
        return self._comm

    def product(self, x, y) -> np.ndarray:
        """Product (bracket for Lie kind) of two coordinate vectors."""
        x = as_gf_array(x, self.p)
        y = as_gf_array(y, self.p)
        return np.einsum("a,b,abk->k", x, y, self.table()) % self.p

    def json_text(self) -> str:
        """The schema-2 document in ``json.dumps``'s layout: entries sorted by
        (i, j), pairs by m, each distinct pair [m, v] formatted once."""
        keys, rows, d, p = self._keys, self._rows, self.dim, self.p
        code = keys[0] * d + keys[1]
        if not (code[1:] > code[:-1]).all():  # stored out of order, as by unitalize
            order = np.argsort(code)
            keys, rows = keys[:, order], rows[order]
        at = np.flatnonzero(rows != 0)  # row-major, so grouped by entry and sorted by m
        r, m = np.divmod(at, d)
        codes = (m * p + rows.reshape(-1)[at]).tolist()
        text = {c: f"[{c // p}, {c % p}]" for c in set(codes)}
        nz = list(map(text.__getitem__, codes))
        ends = np.bincount(r, minlength=len(rows)).cumsum().tolist()
        sc = ", ".join([f'{{"i": {i}, "j": {j}, "nz": [{", ".join(nz[a:b])}]}}'
                        for i, j, a, b in zip(*keys.tolist(), [0, *ends], ends)])
        labels = "" if self.labels is None else f', "labels": {json.dumps(self.labels)}'
        return f'{{"schema": {ALGEBRA_SCHEMA}, "kind": "{self.kind}", "p": {p}, "dim": {d}, "sc": [{sc}]{labels}}}'

    def to_json(self) -> dict:
        """The schema-2 JSON form: :meth:`json_text` parsed."""
        return json.loads(self.json_text())

    @classmethod
    def from_json(cls, obj: dict | str) -> "StructureConstantAlgebra":
        """Read either schema, from a parsed document or from its text; a
        document without "schema" is version 1.  A text of at least
        ``TEXT_READER_MIN_CHARS`` is first tried by :func:`_read_text`, and any
        text it does not take is parsed by ``json.loads``.  Both then make the
        same checks in the same order."""
        sc = None
        if isinstance(obj, str):
            read = _read_text(obj) if len(obj) >= TEXT_READER_MIN_CHARS else None
            obj, sc = read if read is not None else (json.loads(obj), None)
        schema = json_field(obj, "schema", "int", default=1)
        if schema not in (1, ALGEBRA_SCHEMA):
            raise ValueError(f"unknown algebra schema {schema}")
        field = PrimeField(json_field(obj, "p", "int"))
        kind, dim = json_field(obj, "kind", "str"), json_field(obj, "dim", "int")
        _checked_kind(kind, dim)  # before anything of size dim is allocated
        if sc is not None:  # parsed from the text, whose layout fixes every type
            keys = _checked_keys(sc[0], dim)
            rows = _sparse_rows(keys, *sc[1:], field.p, dim)
        elif schema == ALGEBRA_SCHEMA:
            keys, rows = _checked_sc(json_field(obj, "sc", "list"), field.p, dim)
        else:
            entries = json_field(obj, "sc", "list")
            ijv = [(json_field(e, "i", "int"), json_field(e, "j", "int"), json_field(e, "v", "ints")) for e in entries]
            ii, jj, vs = zip(*ijv) if ijv else ((), (), ())
            keys, rows = _dense_rows([ii, jj], vs, field.p, dim)
        labels = json_field(obj, "labels", "list", default=None)
        if labels is not None and not set(map(type, labels)) <= {str}:
            raise ValueError("field 'labels' must list JSON strings")
        return cls._from_rows(kind, field, dim, keys, rows, labels=labels)

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
    # Alternating: every coordinate form T[:, :, k] is; its defects are scanned
    # row-major over j <= i so a tampered reversed key (i, j) with i > j is the one reported.
    hits = np.argwhere(np.tril(alternation_defects(t.transpose(2, 0, 1), p)))
    alt_violation = tuple(int(x) for x in hits[0]) if hits.size else None
    checks = {"alternating": alt_violation is None, "jacobi": v is None}
    return AxiomReport("lie", checks, alt_violation or v)


def _centralizer_system(a: StructureConstantAlgebra, gens: np.ndarray) -> np.ndarray:
    """Equation rows for {x : [x, g] = 0 for all rows g}: row (g, k), column i
    is sum_j C[i, j, k] g_j, one product broadcast over the table's i."""
    d = a.dim  # an explicit row count: at d = 0, reshape(-1, 0) is ambiguous
    return mulmod(gens, a.commutator_table(), a.p).transpose(1, 2, 0).reshape(len(gens) * d, d)


def _center_system(a: StructureConstantAlgebra) -> np.ndarray:
    """Equation rows for {x : [x, e_j] = 0 for all j}: :func:`_centralizer_system`
    of the unit vectors, read off the commutator table as row (j, k), column i
    = C[i, j, k]."""
    d = a.dim
    return a.commutator_table().transpose(1, 2, 0).reshape(d * d, d)


def centralizer(a: StructureConstantAlgebra, gens) -> Subspace:
    """Solution space of [x, g] = 0 for every generator g."""
    system = _centralizer_system(a, Subspace.span(a.p, gens, a.dim).basis)
    return Subspace(a.p, nullspace_array(system, a.p), _canonical=True)


def center(a: StructureConstantAlgebra) -> Subspace:
    """Solution space of [x, e_j] = 0 for all j (commutator for assoc kind)."""
    return Subspace(a.p, nullspace_array(_center_system(a), a.p), _canonical=True)


def nilpotency_class(a: StructureConstantAlgebra) -> int | None:
    """Length of the lower central series (power series for assoc kind).

    Returns the smallest c with term c+1 = 0, or None when the descending
    series stabilizes at a nonzero subspace.  Term m+1 is the span of the
    e_i b for the rows b of term m's basis, one product of that basis with
    the table, whose [i, b] row is e_i b; the table is the bracket for the
    Lie kind and the product for the assoc kind.  Term 1 is the whole space,
    so term 2 is spanned by the table's own rows e_i e_j.
    """
    d, p = a.dim, a.p
    if d == 0:
        return 0
    t = a.table()
    prods, cur_dim, m = t.reshape(d * d, d), d, 1
    while True:
        red, _ = rref_array(prods, p)
        if len(red) == 0:
            return m
        if len(red) == cur_dim:
            return None
        prods = mulmod(red, t, p).reshape(-1, d)
        cur_dim, m = len(red), m + 1


def pairwise_products(a: StructureConstantAlgebra, basis: np.ndarray) -> np.ndarray:
    """(k, k, d) tensor of products of all ordered basis-row pairs.

    Two matrix products with a reduction mod p between them: first x_i e_b
    for every row x_i and every e_b some row uses, then x_i x_j = sum_b
    x_j[b] x_i e_b.  Only the c <= d coordinates that some row uses take
    part, so this costs k c^2 d + k^2 c d and copies c^2 d table entries.
    Each product contracts over at most d <= 160 reduced entries, far inside
    the exactness bound of :func:`~commdim.gf.mulmod`.
    """
    d, p = a.dim, a.p
    basis = as_gf_array(basis, p)
    used = np.flatnonzero(basis.any(axis=0))
    x, c = basis[:, used], len(used)
    t = a.table()[np.ix_(used, used)].reshape(c, c * d)
    by_unit = mulmod(x, t, p).reshape(len(basis), c, d)  # [i, b] = x_i e_b
    return mulmod(x, by_unit, p)  # [i, j] = sum_b x_j[b] x_i e_b


def is_abelian_subspace(a: StructureConstantAlgebra, s: Subspace) -> bool:
    """True iff all pairwise brackets (commutators) of basis vectors vanish.

    The subspace must be a subalgebra: the product of any two basis vectors
    has to lie in it, otherwise NotASubalgebra is raised with the offending
    pair of indices.
    """
    if (s.p, s.ambient_dim) != (a.p, a.dim):
        raise ValueError(f"{s!r} does not lie in the space of {a!r}")
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
    # the products are reduced, so xy - yx vanishes exactly where xy = yx
    return not prods.any() if a.kind == KIND_LIE else np.array_equal(prods, prods.transpose(1, 0, 2))

