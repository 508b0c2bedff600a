"""Tuples of bilinear forms and the sample-and-certify genericity check.

A certificate records a seeded tuple of forms for which the exact
isotropic-subspace search (:func:`commdim.search.largest_common_isotropic`)
found no common k-dimensional isotropic subspace, together with the number
of search nodes it visited and the number of k-subspaces that rules out.
Anyone can regenerate the tuple from the seed and replay the search, which
must visit the same nodes.  Sampling replaces a counting argument: under
2n < t(k-1) good tuples exist, so bounded retrying over consecutive seeds is
sound, and failure to certify never claims that good tuples do not exist.

A :class:`FormTuple` holds its t matrices as one read-only (t, n, n) array;
its JSON form lists them in the matrix form of :mod:`commdim.gf`.
"""

from __future__ import annotations

import random
import re
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import MAX_ALGEBRA_DIM
from .errors import CertificationFailed
from .gf import (
    DEFAULT_SEARCH_BUDGET,
    PrimeField,
    Subspace,
    alternation_defects,
    as_gf_array,
    checked_size,
    gaussian_binomial,
    json_field,
    matrix_from_json,
    matrix_to_json,
    rref_arrays_for_pivots,  # noqa: F401  perfbench/tracer.py counts subspaces through this name
)

FORM_KINDS = ("alternating", "symmetric", "general")
MODE_ISOTROPIC = "isotropic"
MODE_SYMMETRIC = "symmetric-restriction"
MODES = (MODE_ISOTROPIC, MODE_SYMMETRIC)
DEFAULT_MAX_ATTEMPTS = 256  # sampled tuples per certification
METHOD = "isotropic-dfs"  # the certificate's provenance tag


def _check_shape(n: int, t: int, kind: str) -> None:
    """Reject an unknown kind, or an n or t outside its range before any n x n array is allocated."""
    if kind not in FORM_KINDS:
        raise ValueError(f"unknown form kind {kind!r}")
    if max(checked_size("n", n), checked_size("t", t, 1)) > MAX_ALGEBRA_DIM:
        raise ValueError(f"need n in [0, {MAX_ALGEBRA_DIM}] and t in [1, {MAX_ALGEBRA_DIM}], got n = {n}, t = {t}")


class FormTuple:
    """A tuple of t bilinear forms on GF(p)^n, held as one read-only,
    reduced (t, n, n) int64 array of their matrices."""

    __slots__ = ("n", "t", "kind", "p", "seed", "_stack")

    def __init__(self, n: int, t: int, kind: str, field: PrimeField, mats, seed: int | None = None):
        _check_shape(n, t, kind)
        mats = list(mats)
        if len(mats) != t:
            raise ValueError(f"expected {t} matrices, got {len(mats)}")
        p = field.p
        stack = as_gf_array(mats, p)  # a new array, mats being a list, so freezing it leaves the caller's arrays alone
        if stack.shape != (t, n, n):
            raise ValueError("every form must be an n x n matrix over GF(p)")
        if kind == "alternating" and alternation_defects(stack, p).any():
            raise ValueError("alternating form needs zero diagonal and M^T = -M")
        if kind == "symmetric" and not np.array_equal(stack, stack.transpose(0, 2, 1)):
            raise ValueError("symmetric form needs M^T = M")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ValueError(f"seed must be an int or None, got {seed!r}")
        stack.flags.writeable = False
        self.n, self.t, self.kind, self.p = n, t, kind, p
        self.seed = seed
        self._stack = stack

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.p)

    def stack(self) -> np.ndarray:
        """(t, n, n) tensor of the form matrices."""
        return self._stack

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormTuple)
            and (self.n, self.t, self.kind, self.p) == (other.n, other.t, other.kind, other.p)
            and bool(np.array_equal(self._stack, other._stack))
        )

    def __repr__(self) -> str:
        return f"FormTuple(n={self.n}, t={self.t}, kind={self.kind!r}, p={self.p}, seed={self.seed})"

    def to_json(self) -> dict:
        obj = {"n": self.n, "t": self.t, "kind": self.kind, "p": self.p,
               "mats": [matrix_to_json(self.p, m) for m in self._stack]}
        if self.seed is not None:
            obj["seed"] = self.seed
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "FormTuple":
        n, t = json_field(obj, "n", "int"), json_field(obj, "t", "int")
        kind = json_field(obj, "kind", "str")
        _check_shape(n, t, kind)
        field = PrimeField(json_field(obj, "p", "int"))
        mats = []
        for m in json_field(obj, "mats", "list"):
            p, a = matrix_from_json(m)
            if p != field.p or a.shape != (n, n):
                raise ValueError("every form must be an n x n matrix over GF(p)")
            mats.append(a)
        return cls(n, t, kind, field, mats, seed=json_field(obj, "seed", "int", default=None))


def sample_form_tuple(n: int, t: int, kind: str, field: PrimeField, seed: int) -> FormTuple:
    """Uniformly random tuple of the given kind from a seeded deterministic RNG.

    Free entries (strict upper triangle for alternating, upper triangle plus
    diagonal for symmetric, everything for general) are drawn row-major from
    a single Mersenne-Twister stream, one matrix after the other, so the same
    seed reproduces the tuple bit for bit.  A negative seed is refused, since
    random.Random(-s) draws what random.Random(s) does.
    """
    _check_shape(n, t, kind)
    checked_size("seed", seed)
    p = field.p
    rng = random.Random(seed)
    # row-major free positions; an offset of -n takes in every position
    rows, cols = np.triu_indices(n, {"alternating": 1, "symmetric": 0, "general": -n}[kind])
    vals = np.array([rng.randrange(p) for _ in range(t * len(rows))], dtype=np.int64).reshape(t, len(rows))
    stack = np.zeros((t, n, n), dtype=np.int64)
    stack[:, rows, cols] = vals
    if kind != "general":
        stack[:, cols, rows] = vals if kind == "symmetric" else (-vals) % p
    return FormTuple(n, t, kind, field, stack, seed=seed)


def _checked_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _mode_stack(forms: FormTuple, mode: str) -> np.ndarray:
    """Forms whose common isotropic subspaces are the ones the mode asks for."""
    _checked_mode(mode)
    s = forms.stack()
    # the restrictions of M are all symmetric where M - M^T restricts to zero
    return s if mode == MODE_ISOTROPIC else (s - s.transpose(0, 2, 1)) % forms.p


def is_common_isotropic(forms: FormTuple, sub: Subspace, mode: str = MODE_ISOTROPIC) -> bool:
    """Check one subspace: all restrictions zero (or all symmetric)."""
    stack = _mode_stack(forms, mode)
    if sub.ambient_dim != forms.n or sub.p != forms.p:
        raise ValueError("subspace does not live on the forms' space")
    b = sub.basis
    return not (np.einsum("ka,mab,lb->mkl", b, stack, b) % forms.p).any()


def _search(forms: FormTuple, k: int, mode: str, budget: int) -> tuple[Subspace | None, int]:
    """(first matching k-dim subspace or None, search nodes visited)."""
    from .search import largest_common_isotropic  # search imports this module

    res = largest_common_isotropic(_mode_stack(forms, mode), forms.p, k=k, budget=budget).require_complete()
    witness = None if res.basis is None else Subspace(forms.p, res.basis, _canonical=True)
    return witness, res.nodes_visited


def find_common_isotropic(
    forms: FormTuple,
    k: int,
    mode: str = MODE_ISOTROPIC,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Subspace | None:
    """The first matching k-dim subspace found, leads taken right to left.

    A subspace matches when all forms restrict to zero on it (mode
    "isotropic") or to symmetric matrices (mode "symmetric-restriction").
    Returns None when no subspace matches, and raises EnumerationTooLarge
    when the search needs more than budget nodes.
    """
    return _search(forms, checked_size("k", k), mode, budget)[0]


# a count as str(int) writes it, within Python's 4 300-digit limit on reading it
_COUNT_TEXT = re.compile(r"0|[1-9][0-9]{0,4299}")


def _count_from_text(text: str) -> int:
    if not _COUNT_TEXT.fullmatch(text):
        raise ValueError("field 'subspaces_checked' must be a count written as str(int) writes it, of at most 4300 digits")
    return int(text)


@dataclass
class GenericityCertificate:
    """Replayable record that a sampled tuple admits no k-dim common isotropic subspace."""

    forms: FormTuple
    k: int
    subspaces_checked: int
    vacuous: bool = False
    mode: str = MODE_ISOTROPIC
    verdict: str = dc_field(default="certified")
    # provenance; certificates issued before the search existed have neither
    method: str | None = None
    nodes_visited: int | None = None

    @property
    def n(self) -> int:
        return self.forms.n

    @property
    def t(self) -> int:
        return self.forms.t

    @property
    def p(self) -> int:
        return self.forms.p

    @property
    def seed(self) -> int | None:
        return self.forms.seed

    def to_json(self) -> dict:
        obj = self.forms.to_json()
        obj.update(
            {
                "k": self.k,
                "subspaces_checked": str(self.subspaces_checked),
                "verdict": self.verdict,
                "vacuous": self.vacuous,
                "mode": self.mode,
            }
        )
        if self.method is not None:
            obj["method"] = self.method
        if self.nodes_visited is not None:
            obj["nodes_visited"] = self.nodes_visited
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "GenericityCertificate":
        return cls(
            forms=FormTuple.from_json(obj),
            k=checked_size("k", json_field(obj, "k", "int")),
            subspaces_checked=_count_from_text(json_field(obj, "subspaces_checked", "str")),
            vacuous=json_field(obj, "vacuous", "bool", default=False),
            mode=_checked_mode(json_field(obj, "mode", "str", default=MODE_ISOTROPIC)),
            verdict=json_field(obj, "verdict", "str", default="certified"),
            method=json_field(obj, "method", "str", default=None),
            nodes_visited=json_field(obj, "nodes_visited", "int", default=None),
        )


def certify_no_isotropic(
    n: int,
    t: int,
    k: int,
    field: PrimeField,
    seed: int,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    kind: str = "alternating",
    mode: str = MODE_ISOTROPIC,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> GenericityCertificate:
    """Sample tuples at seeds seed, seed+1, ... until one has no k-dim match.

    The successful seed, the search's node count and the number of k-dim
    subspaces ruled out go into the certificate.  When k exceeds n the claim
    is vacuously true and the certificate is issued without a search; when
    every k-subspace matches every tuple, it is refused before sampling.
    """
    for name, value, low in (("budget", budget, 0), ("seed", seed, 0), ("n", n, 0), ("t", t, 1), ("k", k, 0),
                             ("max_attempts", max_attempts, 1)):
        checked_size(name, value, low)
    _checked_mode(mode)
    _check_shape(n, t, kind)
    # No tuple can certify where every k-subspace matches: at any k <= n when
    # M^T = M makes every restriction symmetric, at k = 0, and at k = 1 when
    # every line is isotropic (v M v = 0) or every 1 x 1 restriction is symmetric.
    claim = ("k <= n" if mode == MODE_SYMMETRIC and (kind == "symmetric" or (kind, field.p) == ("alternating", 2))
             else f"k = {k}" if k == 0 or (k == 1 and (mode == MODE_SYMMETRIC or kind == "alternating")) else None)
    if n >= k and claim:
        raise ValueError(f"mode {mode!r} can never certify {kind} forms at p = {field.p} with {claim}")
    if not 2 * n < t * (k - 1):
        warnings.warn(
            f"2n < t(k-1) fails for n={n}, t={t}, k={k}: "
            "a clean tuple is not guaranteed to exist",
            stacklevel=2,
        )
    if n < k:
        forms = sample_form_tuple(n, t, kind, field, seed)
        return GenericityCertificate(forms, k, 0, vacuous=True, mode=mode, method=METHOD, nodes_visited=0)
    last_witness = None
    for attempt in range(max_attempts):
        forms = sample_form_tuple(n, t, kind, field, seed + attempt)
        witness, nodes = _search(forms, k, mode, budget)
        if witness is None:
            checked = gaussian_binomial(n, k, field.p)
            return GenericityCertificate(forms, k, checked, mode=mode, method=METHOD, nodes_visited=nodes)
        last_witness = witness
    raise CertificationFailed(
        f"all {max_attempts} sampled tuples admitted a common subspace "
        f"(n={n}, t={t}, k={k}, p={field.p}, seeds {seed}..{seed + max_attempts - 1})",
        witness=last_witness,
    )


def reverify_certificate(cert: GenericityCertificate, budget: int = DEFAULT_SEARCH_BUDGET) -> bool:
    """Regenerate the tuple from the recorded seed and replay the search.

    A recorded node count must be met exactly.  Running out of budget proves
    nothing either way, so it raises EnumerationTooLarge.
    """
    checked_size("budget", budget)
    if cert.verdict != "certified" or cert.method not in (None, METHOD) or cert.seed is None:
        return False
    regen = sample_form_tuple(cert.n, cert.t, cert.forms.kind, cert.forms.field, cert.seed)
    if regen != cert.forms:
        return False
    if cert.vacuous:
        return cert.n < cert.k and cert.subspaces_checked == 0 and cert.nodes_visited in (None, 0)
    if cert.k > cert.n:
        return False
    witness, nodes = _search(regen, cert.k, cert.mode, budget)
    if witness is not None or cert.nodes_visited not in (None, nodes):
        return False
    return cert.subspaces_checked == gaussian_binomial(cert.n, cert.k, cert.p)
