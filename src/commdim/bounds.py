"""Closed-form dimension bounds and the simple-algebra dimension table.

All values are exact rationals; nothing is rounded silently.  Floor/ceil
companions ride along in the serialized form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import StructureConstantAlgebra, nilpotency_class
from .gf import checked_size

FIELD_CLASSES = ("C", "R", "closed", "char0", "any")

# default constant for the semisimple associative bound over closed/finite fields
DEFAULT_C = Fraction(9, 2)
# the text of c that bound_table reads: an integer, a fraction a/b or a plain
# decimal; Fraction itself also reads exponents, and takes time and memory
# exponential in the length of one such as "1e-99999999"
_C_TEXT = re.compile(r"\s*[+-]?(?:[0-9]+(?:/[0-9]+|\.[0-9]*)?|\.[0-9]+)\s*")
# n and rank lie below 10**gf.SIZE_DIGITS, and a text of c has at most
# MAX_C_CHARS characters: the longest number then written, the numerator of
# (n^2 + (2c + 1) n) / 2, has about 3 000 digits, inside Python's limit of
# 4 300 on converting an int to text
MAX_C_CHARS = 1000


@dataclass(frozen=True)
class BoundEntry:
    name: str
    side: str  # "lower" | "upper"
    value: Fraction
    field_class: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "side": self.side,
            "value": str(self.value),
            "floor": math.floor(self.value),
            "ceil": math.ceil(self.value),
            "field_class": self.field_class,
        }


@dataclass
class BoundReport:
    n: int
    field_class: str
    entries: list[BoundEntry]

    def get(self, name: str, side: str) -> Fraction:
        for e in self.entries:
            if e.name == name and e.side == side:
                return e.value
        raise KeyError(f"no entry {name}/{side}")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field_class": self.field_class,
            "entries": [e.to_json() for e in self.entries],
        }

    def table(self) -> str:
        lines = [f"{'function':<10} {'side':<6} {'value':>12} {'floor':>8} {'ceil':>8}"]
        for e in self.entries:
            lines.append(
                f"{e.name:<10} {e.side:<6} {str(e.value):>12} "
                f"{math.floor(e.value):>8} {math.ceil(e.value):>8}"
            )
        return "\n".join(lines)


def _generic_lower(n: int) -> Fraction:
    return Fraction(n * n + 4 * n - 5, 8)


def bound_table(n: int, field_class: str, c: Fraction | str | None = None) -> BoundReport:
    """All applicable two-sided bounds for the given field class at n.

    The optional constant c, a Fraction or its text ("9/2", "-100", "4.5"), feeds the
    semisimple associative upper bound (n^2 + (2c+1) n) / 2 for the "closed"
    class; its default 9/2 is the value for algebraically closed and finite
    fields.
    """
    checked_size("n", n, 1)
    if field_class not in FIELD_CLASSES:
        raise ValueError(f"unknown field class {field_class!r}")
    if isinstance(c, str) and len(c) > MAX_C_CHARS:
        raise ValueError(f"c must be at most {MAX_C_CHARS} characters long, got {len(c)}")
    if isinstance(c, str) and not _C_TEXT.fullmatch(c):
        raise ValueError(f"c must be an integer, a fraction a/b or a decimal, got {c!r}")
    try:
        c = DEFAULT_C if c is None else Fraction(c)
    except (ZeroDivisionError, OverflowError, ValueError):  # 1/0, inf and nan
        raise ValueError(f"c must be a finite fraction, got {c!r}") from None

    low = _generic_lower(n)
    a_up = Fraction(n * n, 2) + 5 * n
    up_l_complex = Fraction(n * n + 17 * n, 2)
    real_l = (Fraction(2 * n * n + n), Fraction(4 * n * n + 18 * n))
    up_a_closed = Fraction(n * n, 2) + Fraction((2 * c + 1) * n, 2)
    up_char0 = Fraction(3 * n * n + n, 2)
    low_a1 = Fraction(n * n + 2 * n, 8)
    # (name, lower, upper or None) per field class, then the class-2 row
    rows = {
        "C": [("l_C", low, up_l_complex), ("g_C", low, up_l_complex), ("a_C", low, a_up)],
        "R": [("l_R", *real_l), ("g_R", *real_l), ("a_R", low, a_up)],
        "closed": [("l_K", low, None), ("a_K", low, up_a_closed), ("a1_K", low_a1, up_a_closed)],
        "char0": [("l_K", low, None), ("a_K", low, up_char0), ("a1_K", low_a1, up_char0)],
        "any": [("l_K", low, None), ("a_K", low, None), ("a1_K", low_a1, None)],
    }[field_class] + [("class2", low, Fraction(n * n, 4) + n)]
    entries: list[BoundEntry] = []
    for name, lower, upper in rows:
        entries.append(BoundEntry(name, "lower", lower, field_class))
        if upper is not None:
            if upper < lower:
                raise ValueError(f"c = {c} puts the {name} upper bound {upper} below its lower bound {lower}")
            entries.append(BoundEntry(name, "upper", upper, field_class))
    return BoundReport(n, field_class, entries)


@dataclass(frozen=True)
class SimpleTypeEntry:
    """One row of the simple-algebra table: dimension and max abelian dimension."""

    type: str
    rank: int | None
    dim: int
    max_abelian: int

    def to_json(self) -> dict:
        return {
            "type": self.type,
            "rank": self.rank,
            "dim": self.dim,
            "max_abelian": self.max_abelian,
        }


_EXCEPTIONAL = {
    "E6": (78, 16),
    "E7": (133, 27),
    "E8": (248, 36),
    "F4": (52, 9),
    "G2": (14, 3),
}
CLASSICAL_MIN_RANK = {"A": 1, "B": 3, "C": 2, "D": 4}
# the largest --max-rank of the simple-algebra table, which holds 4 rows per rank
MAX_SIMPLE_RANK = 1000


def simple_lie_data(type_: str, rank: int | None = None) -> SimpleTypeEntry:
    """Exact dimension and maximal abelian subalgebra dimension per type."""
    if type_ in _EXCEPTIONAL:
        if rank is not None:
            raise ValueError(f"type {type_} takes no rank")
        dim, mab = _EXCEPTIONAL[type_]
        return SimpleTypeEntry(type_, None, dim, mab)
    if type_ not in CLASSICAL_MIN_RANK:
        raise ValueError(f"unknown simple type {type_!r}")
    if rank is None:
        raise ValueError(f"type {type_} requires a rank")
    l = checked_size("rank", rank, CLASSICAL_MIN_RANK[type_])
    if type_ == "A":
        dim, mab = l * l + 2 * l, (l + 1) ** 2 // 4
    elif type_ == "B":
        dim, mab = 2 * l * l + l, l * (l - 1) // 2 + 1
    elif type_ == "C":
        dim, mab = 2 * l * l + l, l * (l + 1) // 2
    else:  # D
        dim, mab = 2 * l * l - l, l * (l - 1) // 2
    return SimpleTypeEntry(type_, l, dim, mab)


def exceptional_entries() -> list[SimpleTypeEntry]:
    return [simple_lie_data(t) for t in ("E6", "E7", "E8", "F4", "G2")]


@dataclass
class SevenNVerdict:
    ok: bool
    per_entry: list[dict]
    total_dim: int
    total_abelian: int


def seven_n_check(entries: list[SimpleTypeEntry]) -> SevenNVerdict:
    """dim <= 7 * max_abelian per entry and for the direct sum."""
    per = []
    ok = True
    for e in entries:
        good = e.dim <= 7 * e.max_abelian
        ok = ok and good
        per.append({"type": e.type, "rank": e.rank, "dim": e.dim,
                    "bound": 7 * e.max_abelian, "ok": good})
    total_dim = sum(e.dim for e in entries)
    total_ab = sum(e.max_abelian for e in entries)
    ok = ok and total_dim <= 7 * total_ab
    return SevenNVerdict(ok, per, total_dim, total_ab)


STRUCTURES = ("nilpotent", "class2", "nilpotent-assoc")


@dataclass
class BoundVerdict:
    structure: str
    n: int
    dim: int
    bound: Fraction
    ok: bool

    def to_json(self) -> dict:
        return {
            "structure": self.structure,
            "n": self.n,
            "dim": self.dim,
            "bound": str(self.bound),
            "ok": self.ok,
        }


def check_structural_bound(a: StructureConstantAlgebra, n: int, structure: str) -> BoundVerdict:
    """Assert the structural inequality matching the algebra's shape.

    nilpotent (Lie) and nilpotent-assoc: dim <= n(n+1)/2; class2 (class at
    most 2): dim <= floor(n^2/4) + n, where n is the exact maximal abelian
    dimension found by search.
    """
    checked_size("n", n)
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    cls = nilpotency_class(a)
    if cls is None:
        raise ValueError(f"algebra is not nilpotent; structure {structure!r} does not apply")
    if structure in ("nilpotent", "nilpotent-assoc"):
        kind = "lie" if structure == "nilpotent" else "assoc"
        if a.kind != kind:
            raise ValueError(f"structure {structure!r} expects kind {kind!r}")
        bound = Fraction(n * (n + 1), 2)
    else:
        if cls > 2:
            raise ValueError(f"algebra has class {cls}, not class <= 2")
        bound = Fraction(n * n // 4 + n)
    return BoundVerdict(structure, n, a.dim, bound, Fraction(a.dim) <= bound)
