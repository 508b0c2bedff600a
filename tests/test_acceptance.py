"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import random
from fractions import Fraction

import numpy as np

from commdim import (
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    bound_table,
    build_assoc_from_forms,
    build_lie_from_forms,
    certify_no_isotropic,
    check_structural_bound,
    extremal_params,
    gaussian_binomial,
    greedy_abelian_class2,
    is_abelian_subspace,
    matrix_algebra,
    matrix_commutative_subalgebra,
    max_abelian_exact,
    nilpotency_class,
    sample_form_tuple,
    seven_n_check,
    simple_lie_data,
    unitalize,
)

from oracles import brute_force_max_abelian, class2_dim, enumerate_subspaces, is_commutative_subspace, is_subalgebra

F2 = PrimeField(2)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_lower_bound_pipeline():
    """params -> certify -> construct -> class2-exact search for s in 4..8."""
    ok = True
    details = []
    for s in range(4, 9):
        params = extremal_params(s)
        cert = certify_no_isotropic(
            params.n, params.t, params.k, F2, seed=20240800 + s, max_attempts=1000
        )
        alg = build_lie_from_forms(cert.forms)
        max_ab = class2_dim(cert.forms)
        dim_ok = alg.dim == params.n + params.t
        floor_ok = alg.dim >= math.ceil((s * s + 4 * s - 5) / 8)
        ab_ok = max_ab <= s
        ok = ok and dim_ok and floor_ok and ab_ok
        if s == 8:
            ok = ok and alg.dim == 12 and max_ab <= 8
            ok = ok and cert.subspaces_checked == gaussian_binomial(7, 4, 2) == 11811
        details.append(f"s={s}: dim={alg.dim}, max_abelian={max_ab}")
    report(1, ok, "; ".join(details))


def test_criterion_2_reduction_equivalence():
    """class2-exact == DFS-exact == full brute force on 50 seeded tuples."""
    rng = random.Random(240811)
    checked = 0
    ok = True
    while checked < 50:
        n = rng.randrange(1, 6)
        t = rng.randrange(1, 8 - n)
        ft = sample_form_tuple(n, t, "alternating", F2, rng.randrange(10**9))
        alg = build_lie_from_forms(ft)
        a = class2_dim(ft)
        b = max_abelian_exact(alg)
        c = brute_force_max_abelian(alg)
        ok = ok and b.exact and a == b.dim == c
        checked += 1
    report(2, ok, f"{checked} tuples with n+t <= 7 over GF(2), three methods agree")


def test_criterion_3_class2_upper_bound():
    """greedy witness dim s certifies dim <= floor(s^2/4) + s, 100/100."""
    rng = random.Random(240812)
    good = 0
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 9)
        t = rng.randrange(1, 11 - n)
        ft = sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**9))
        alg = build_lie_from_forms(ft)
        assert nilpotency_class(alg) in (1, 2)
        res = greedy_abelian_class2(alg)
        s = res.dim
        if is_abelian_subspace(alg, res.witness) and alg.dim <= s * s // 4 + s:
            good += 1
    report(3, good == 100, f"{good}/100 random class-<=2 algebras satisfy the bound")


def _criterion_4_corpus():
    rng = random.Random(240813)
    lie = [
        StructureConstantAlgebra("lie", F2, 3, {(0, 1): [0, 0, 1]}),
        StructureConstantAlgebra("lie", PrimeField(3), 3, {(0, 1): [0, 0, 1]}),
        StructureConstantAlgebra("lie", F2, 4, {}),
        StructureConstantAlgebra(
            "lie", F2, 4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
        ),
    ]
    for _ in range(16):
        n = rng.randrange(1, 5)
        t = rng.randrange(1, min(4, 8 - n))
        ft = sample_form_tuple(n, t, "alternating", F2, rng.randrange(10**9))
        lie.append(build_lie_from_forms(ft))
    assoc = [
        StructureConstantAlgebra("assoc", F2, 2, {(0, 0): [0, 1]}),
        build_assoc_from_forms(sample_form_tuple(2, 2, "general", F2, 31)),
    ]
    for _ in range(8):
        n = rng.randrange(1, 4)
        t = rng.randrange(1, 4)
        assoc.append(build_assoc_from_forms(sample_form_tuple(n, t, "general", F2, rng.randrange(10**9))))
    return lie, assoc


def test_criterion_4_nilpotent_dimension_bound():
    """dim <= n(n+1)/2 for nilpotent Lie and class-<=2 associative corpora."""
    lie, assoc = _criterion_4_corpus()
    ok = True
    for alg in lie:
        assert nilpotency_class(alg) is not None
        res = max_abelian_exact(alg)
        assert res.exact
        verdict = check_structural_bound(alg, res.dim, "nilpotent")
        ok = ok and verdict.ok
    for alg in assoc:
        assert nilpotency_class(alg) in (1, 2)
        res = max_abelian_exact(alg)
        assert res.exact
        verdict = check_structural_bound(alg, res.dim, "nilpotent-assoc")
        ok = ok and verdict.ok
    report(4, ok, f"{len(lie)} nilpotent Lie + {len(assoc)} associative algebras")


def test_criterion_5_associative_commutativity_criterion():
    """commutative subalgebras of A_Phi == symmetric restrictions, 30 tuples."""
    rng = random.Random(240814)
    ok = True
    subalgebras = 0
    for _ in range(30):
        n = rng.randrange(1, 5)
        t = rng.randrange(1, min(5, 7 - n))
        ft = sample_form_tuple(n, t, "general", F2, rng.randrange(10**9))
        alg = build_assoc_from_forms(ft)
        d = n + t
        mats = ft.stack()
        for k in range(d + 1):
            for sub in enumerate_subspaces(d, k, F2):
                if not is_subalgebra(alg, sub):
                    continue
                subalgebras += 1
                commutative = is_commutative_subspace(alg, sub)
                proj = Subspace.span(2, sub.basis[:, :n], n)
                pb = proj.basis
                restr = np.einsum("ka,mab,lb->mkl", pb, mats, pb) % 2
                symmetric = not ((restr - restr.transpose(0, 2, 1)) % 2).any()
                ok = ok and (commutative == symmetric)
    report(5, ok, f"30 tuples, {subalgebras} subalgebras scanned, criterion held")


def test_criterion_6_unitalization_shift():
    """max commutative dim of unitalize(A) == max commutative dim of A + 1."""
    rng = random.Random(240815)
    algebras = [
        StructureConstantAlgebra("assoc", F2, 1, {}),
        StructureConstantAlgebra("assoc", F2, 2, {(0, 0): [0, 1]}),
        StructureConstantAlgebra(  # unital truncated polynomials 1, x, x^2
            "assoc",
            F2,
            3,
            {
                (0, 0): [1, 0, 0], (0, 1): [0, 1, 0], (1, 0): [0, 1, 0],
                (0, 2): [0, 0, 1], (2, 0): [0, 0, 1], (1, 1): [0, 0, 1],
            },
        ),
        matrix_algebra(2, F2),
    ]
    while len(algebras) < 10:
        n = rng.randrange(1, 4)
        t = rng.randrange(1, min(4, 6 - n))
        algebras.append(build_assoc_from_forms(sample_form_tuple(n, t, "general", F2, rng.randrange(10**9))))
    ok = True
    pairs = []
    for alg in algebras:
        base = max_abelian_exact(alg)
        lifted = max_abelian_exact(unitalize(alg))
        assert base.exact and lifted.exact
        pairs.append((base.dim, lifted.dim))
        ok = ok and lifted.dim == base.dim + 1
    report(6, ok, f"10 algebras, (base, unitalized) dims: {pairs}")


def test_criterion_7_matrix_constructions():
    """corner and diagonal commutative subalgebras of M_r, r = 2..9, GF(2)/GF(3)."""
    ok = True
    for p in (2, 3):
        field = PrimeField(p)
        for r in range(2, 10):
            ambient, corner = matrix_commutative_subalgebra(r, field, "corner")
            k = r // 2
            expected = k * k if r % 2 == 0 else k * (k + 1)
            ok = ok and corner.dim == expected
            ok = ok and is_abelian_subspace(ambient, corner)
            ok = ok and Fraction(ambient.dim) <= Fraction(9, 2) * corner.dim
            _, diag = matrix_commutative_subalgebra(r, field, "diagonal")
            ok = ok and diag.dim == r
            ok = ok and is_abelian_subspace(ambient, diag)
    report(7, ok, "r in 2..9 over GF(2) and GF(3): dims, commutativity, 9/2 ratio")


def test_criterion_8_table_fidelity():
    """every simple-type table cell plus the 7n check."""
    expected_exceptional = {
        "E6": (78, 16), "E7": (133, 27), "E8": (248, 36), "F4": (52, 9), "G2": (14, 3),
    }
    ok = True
    entries = []
    for typ, (dim, mab) in expected_exceptional.items():
        e = simple_lie_data(typ)
        ok = ok and (e.dim, e.max_abelian) == (dim, mab)
        entries.append(e)
    for l in range(1, 26):
        e = simple_lie_data("A", l)
        ok = ok and e.dim == l * l + 2 * l and e.max_abelian == (l + 1) ** 2 // 4
        entries.append(e)
    for l in range(3, 26):
        e = simple_lie_data("B", l)
        ok = ok and e.dim == 2 * l * l + l and e.max_abelian == l * (l - 1) // 2 + 1
        entries.append(e)
    for l in range(2, 26):
        e = simple_lie_data("C", l)
        ok = ok and e.dim == 2 * l * l + l and e.max_abelian == l * (l + 1) // 2
        entries.append(e)
    for l in range(4, 26):
        e = simple_lie_data("D", l)
        ok = ok and e.dim == 2 * l * l - l and e.max_abelian == l * (l - 1) // 2
        entries.append(e)
    verdict = seven_n_check(entries)
    ok = ok and verdict.ok
    report(8, ok, f"{len(entries)} table entries reproduced; 7n check passed")


def test_criterion_9_bound_formula_fidelity():
    """bound_table matches independently coded closed forms for n = 1..100."""

    def forms(n):
        low = Fraction(n * n + 4 * n - 5, 8)
        return {
            ("C", "l_C", "lower"): low,
            ("C", "l_C", "upper"): Fraction(n * n + 17 * n, 2),
            ("C", "g_C", "lower"): low,
            ("C", "g_C", "upper"): Fraction(n * n + 17 * n, 2),
            ("C", "a_C", "lower"): low,
            ("C", "a_C", "upper"): Fraction(n * n + 10 * n, 2),
            ("R", "l_R", "lower"): Fraction(2 * n * n + n),
            ("R", "l_R", "upper"): Fraction(4 * n * n + 18 * n),
            ("R", "g_R", "lower"): Fraction(2 * n * n + n),
            ("R", "g_R", "upper"): Fraction(4 * n * n + 18 * n),
            ("R", "a_R", "lower"): low,
            ("R", "a_R", "upper"): Fraction(n * n + 10 * n, 2),
            ("char0", "a_K", "upper"): Fraction(3 * n * n + n, 2),
            ("char0", "a1_K", "upper"): Fraction(3 * n * n + n, 2),
            ("closed", "a_K", "upper"): Fraction(n * n + 10 * n, 2),
            ("closed", "a1_K", "upper"): Fraction(n * n + 10 * n, 2),
            ("any", "l_K", "lower"): low,
            ("any", "a_K", "lower"): low,
            ("any", "a1_K", "lower"): Fraction(n * n + 2 * n, 8),
        }

    ok = True
    compared = 0
    for n in range(1, 101):
        expected = forms(n)
        class2_band = (Fraction(n * n + 4 * n - 5, 8), Fraction(n * n + 4 * n, 4))
        for fc in ("C", "R", "closed", "char0", "any"):
            rep = bound_table(n, fc)
            ok = ok and rep.get("class2", "lower") == class2_band[0]
            ok = ok and rep.get("class2", "upper") == class2_band[1]
            ok = ok and rep.get("class2", "lower") <= rep.get("class2", "upper")
            for (efc, name, side), value in expected.items():
                if efc != fc:
                    continue
                got = rep.get(name, side)
                ok = ok and got == value
                ok = ok and str(got) == str(value)  # exact rational, string compare
                compared += 1
            for e in rep.entries:
                try:
                    lo = rep.get(e.name, "lower")
                    hi = rep.get(e.name, "upper")
                except KeyError:
                    continue
                ok = ok and lo <= hi
    report(9, ok, f"{compared} values over n = 1..100 match; lower <= upper throughout")


def test_criterion_10_excluded_items_are_formula_only():
    """compact-form / Lie-group / infinite-field content is formula-only here."""
    # the real lower bound 2n^2 + n, and the group-function bands g_C, g_R,
    # exist in this artifact only as evaluated formulas (criterion 9); no
    # construction over R or C and no infinite-field genericity is attempted.
    rep_r = bound_table(10, "R")
    rep_c = bound_table(10, "C")
    ok = rep_r.get("l_R", "lower") == 210  # 2*100 + 10
    ok = ok and rep_r.get("g_R", "lower") == 210
    ok = ok and rep_c.get("g_C", "upper") == rep_c.get("l_C", "upper")
    for field in ("R", "C"):
        import commdim

        ok = ok and not hasattr(commdim, f"build_compact_form_{field}")
    report(10, ok, "real/complex and Lie-group items covered by formula evaluators only")
