import json
from fractions import Fraction

import pytest

from commdim import (
    PrimeField,
    StructureConstantAlgebra,
    bound_table,
    check_structural_bound,
    exceptional_entries,
    seven_n_check,
    simple_lie_data,
)
from commdim.bounds import FIELD_CLASSES, MAX_C_CHARS, SIZE_DIGITS

F2 = PrimeField(2)
# the largest n, s or rank read, and the longest text of c, written with as many
# digits as its bound allows: (n^2 + (2c + 1) n) / 2 then has the most digits
LARGEST = 10**SIZE_DIGITS - 1
LONGEST_C = "." + "9" * (MAX_C_CHARS - 1)


# ---------------------------------------------------------------- bound_table


def test_bound_table_complex_n2():
    rep = bound_table(2, "C")
    assert rep.get("l_C", "upper") == 19
    assert rep.get("a_C", "upper") == 12
    assert rep.get("a_C", "lower") == Fraction(7, 8)
    assert rep.get("g_C", "upper") == 19


def test_bound_table_real_n2():
    rep = bound_table(2, "R")
    assert rep.get("l_R", "upper") == 52
    assert rep.get("l_R", "lower") == 10
    assert rep.get("g_R", "lower") == 10
    assert rep.get("a_R", "upper") == 12


def test_bound_table_any_n1():
    rep = bound_table(1, "any")
    assert rep.get("l_K", "lower") == 0
    assert rep.get("a1_K", "lower") == Fraction(3, 8)


def test_bound_table_char0_and_closed():
    rep = bound_table(3, "char0")
    assert rep.get("a_K", "upper") == Fraction(3 * 9 + 3, 2)
    assert rep.get("a1_K", "upper") == Fraction(30, 2)
    rep = bound_table(3, "closed")
    assert rep.get("a_K", "upper") == Fraction(9, 2) + 15
    # custom constant c
    rep = bound_table(3, "closed", c=Fraction(2))
    assert rep.get("a_K", "upper") == Fraction(9 + 15, 2)


def test_bound_table_domain_error():
    with pytest.raises(ValueError):
        bound_table(0, "C")
    with pytest.raises(ValueError):
        bound_table(3, "Q")


def _independent_forms(n):
    # main-theorem formulas coded separately from the implementation
    return {
        ("l_C", "lower"): Fraction(n * n + 4 * n - 5, 8),
        ("l_C", "upper"): Fraction(n * n + 17 * n, 2),
        ("g_C", "lower"): Fraction(n * n + 4 * n - 5, 8),
        ("g_C", "upper"): Fraction(n * n + 17 * n, 2),
        ("a_C", "lower"): Fraction(n * n + 4 * n - 5, 8),
        ("a_C", "upper"): Fraction(n * n + 10 * n, 2),
        ("l_R", "lower"): Fraction(2 * n * n + n),
        ("l_R", "upper"): Fraction(4 * n * n + 18 * n),
        ("g_R", "lower"): Fraction(2 * n * n + n),
        ("g_R", "upper"): Fraction(4 * n * n + 18 * n),
        ("a_R", "lower"): Fraction(n * n + 4 * n - 5, 8),
        ("a_R", "upper"): Fraction(n * n + 10 * n, 2),
        ("class2", "lower"): Fraction(n * n + 4 * n - 5, 8),
        ("class2", "upper"): Fraction(n * n + 4 * n, 4),
    }


def test_bound_table_matches_independent_forms():
    for n in range(1, 101):
        expected = _independent_forms(n)
        for fc in ("C", "R"):
            for e in bound_table(n, fc).entries:
                assert e.value == expected[(e.name, e.side)], (n, fc, e)
        rep = bound_table(n, "char0")
        assert rep.get("a_K", "upper") == Fraction(3 * n * n + n, 2)
        assert rep.get("a1_K", "upper") == Fraction(3 * n * n + n, 2)
        rep = bound_table(n, "closed")
        assert rep.get("a_K", "upper") == Fraction(n * n + 10 * n, 2)
        rep = bound_table(n, "any")
        assert rep.get("l_K", "lower") == Fraction(n * n + 4 * n - 5, 8)
        assert rep.get("a_K", "lower") == Fraction(n * n + 4 * n - 5, 8)
        assert rep.get("a1_K", "lower") == Fraction(n * n + 2 * n, 8)


def test_bound_table_lower_below_upper():
    names = ("l_C", "g_C", "a_C", "l_R", "g_R", "a_R", "a_K", "a1_K", "class2")
    for n in range(1, 101):
        for fc in ("C", "R", "closed", "char0", "any"):
            rep = bound_table(n, fc)
            for name in names:
                try:
                    lo = rep.get(name, "lower")
                    hi = rep.get(name, "upper")
                except KeyError:
                    continue
                assert lo <= hi, (n, fc, name)


def test_bound_table_rejects_an_upper_bound_below_its_lower_bound():
    with pytest.raises(ValueError, match="a_K upper bound -294 below its lower bound 2"):
        bound_table(3, "closed", c=-100)
    # the largest c that keeps a_K's upper bound (n^2 + (2c+1)n)/2 at its lower bound 2
    assert bound_table(3, "closed", c=Fraction(-4, 3)).get("a_K", "upper") == 2


def test_bound_entry_json_exact_strings():
    rep = bound_table(2, "C")
    entry = next(e for e in rep.entries if e.name == "a_C" and e.side == "lower")
    obj = entry.to_json()
    assert obj["value"] == "7/8"
    assert obj["floor"] == 0 and obj["ceil"] == 1


def test_bound_report_table_format():
    text = bound_table(2, "R").table()
    lines = text.splitlines()
    assert lines[0].split() == ["function", "side", "value", "floor", "ceil"]
    assert any("l_R" in ln for ln in lines)


# ---------------------------------------------------------------- simple table


def test_simple_table_spec_rows():
    b3 = simple_lie_data("B", 3)
    assert (b3.dim, b3.max_abelian) == (21, 4)
    e7 = simple_lie_data("E7")
    assert (e7.dim, e7.max_abelian) == (133, 27)
    a1 = simple_lie_data("A", 1)
    assert (a1.dim, a1.max_abelian) == (3, 1)


def test_simple_table_exceptional_pairs():
    pairs = {(e.type, e.dim, e.max_abelian) for e in exceptional_entries()}
    assert pairs == {
        ("E6", 78, 16),
        ("E7", 133, 27),
        ("E8", 248, 36),
        ("F4", 52, 9),
        ("G2", 14, 3),
    }


def test_simple_table_closed_forms():
    for l in range(1, 26):
        a = simple_lie_data("A", l)
        assert a.dim == l * l + 2 * l
        assert a.max_abelian == (l + 1) ** 2 // 4
    for l in range(3, 26):
        b = simple_lie_data("B", l)
        assert b.dim == 2 * l * l + l
        assert b.max_abelian == l * (l - 1) // 2 + 1
    for l in range(2, 26):
        c = simple_lie_data("C", l)
        assert c.dim == 2 * l * l + l
        assert c.max_abelian == l * (l + 1) // 2
    for l in range(4, 26):
        d = simple_lie_data("D", l)
        assert d.dim == 2 * l * l - l
        assert d.max_abelian == l * (l - 1) // 2


def test_simple_table_rank_errors():
    for typ, bad in (("A", 0), ("B", 2), ("C", 1), ("D", 3)):
        with pytest.raises(ValueError):
            simple_lie_data(typ, bad)
    with pytest.raises(ValueError):
        simple_lie_data("E6", 6)
    with pytest.raises(ValueError):
        simple_lie_data("A")
    with pytest.raises(ValueError):
        simple_lie_data("Z", 1)


def test_bound_table_prints_up_to_its_bounds_and_refuses_past_them():
    for field_class in FIELD_CLASSES:
        report = bound_table(LARGEST, field_class, c=LONGEST_C)
        assert json.loads(json.dumps(report.to_json()))["n"] == LARGEST
        assert report.table().count("\n") == len(report.entries)
    with pytest.raises(ValueError, match=rf"^n must be below 10\*\*{SIZE_DIGITS}$"):
        bound_table(LARGEST + 1, "C")
    with pytest.raises(ValueError, match=rf"^c must be at most {MAX_C_CHARS} characters long, got {MAX_C_CHARS + 1}$"):
        bound_table(3, "closed", c=LONGEST_C + "9")


def test_simple_table_prints_up_to_its_rank_bound_and_refuses_past_it():
    for typ in "ABCD":
        entry = simple_lie_data(typ, LARGEST)
        assert json.loads(json.dumps(entry.to_json()))["rank"] == LARGEST
        with pytest.raises(ValueError, match=rf"^rank must be below 10\*\*{SIZE_DIGITS}$"):
            simple_lie_data(typ, LARGEST + 1)


# ---------------------------------------------------------------- 7n check


def test_seven_n_exceptional():
    verdict = seven_n_check(exceptional_entries())
    assert verdict.ok
    bounds = {e["type"]: (e["dim"], e["bound"]) for e in verdict.per_entry}
    assert bounds["E6"] == (78, 112)
    assert bounds["E7"] == (133, 189)
    assert bounds["E8"] == (248, 252)
    assert bounds["F4"] == (52, 63)
    assert bounds["G2"] == (14, 21)


def test_seven_n_c2():
    entry = simple_lie_data("C", 2)
    assert entry.dim == 10 and 7 * entry.max_abelian == 21
    assert seven_n_check([entry]).ok


def test_seven_n_empty_vacuous():
    assert seven_n_check([]).ok


def test_seven_n_all_types_to_rank_25():
    entries = exceptional_entries()
    for typ, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        entries.extend(simple_lie_data(typ, l) for l in range(lo, 26))
    assert seven_n_check(entries).ok
    for e in entries:
        if e.type in ("B", "C"):
            assert e.dim == 2 * e.rank**2 + e.rank


# ---------------------------------------------------------------- structural bounds


def heisenberg():
    return StructureConstantAlgebra("lie", F2, 3, {(0, 1): [0, 0, 1]})


def test_structural_bound_heisenberg():
    v = check_structural_bound(heisenberg(), 2, "nilpotent")
    assert v.ok and v.dim == 3 and v.bound == 3


def test_structural_bound_class2_abelian():
    v = check_structural_bound(StructureConstantAlgebra("lie", F2, 4, {}), 4, "class2")
    assert v.ok and v.bound == 8


def test_structural_bound_assoc():
    a = StructureConstantAlgebra("assoc", F2, 2, {(0, 0): [0, 1]})
    v = check_structural_bound(a, 2, "nilpotent-assoc")
    assert v.ok and v.bound == 3


def test_structural_bound_mismatches():
    sl2 = StructureConstantAlgebra(
        "lie", PrimeField(5), 3, {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]}
    )
    with pytest.raises(ValueError):
        check_structural_bound(sl2, 1, "nilpotent")  # not nilpotent
    with pytest.raises(ValueError):
        check_structural_bound(heisenberg(), 2, "nilpotent-assoc")  # wrong kind
    filiform = StructureConstantAlgebra(
        "lie", F2, 4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
    )
    with pytest.raises(ValueError):
        check_structural_bound(filiform, 2, "class2")  # class 3
    with pytest.raises(ValueError):
        check_structural_bound(heisenberg(), 2, "weird")


def test_structural_bound_json():
    v = check_structural_bound(heisenberg(), 2, "nilpotent")
    obj = v.to_json()
    assert obj == {"structure": "nilpotent", "n": 2, "dim": 3, "bound": "3", "ok": True}
