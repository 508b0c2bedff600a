import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from commdim import (
    NotASubalgebra,
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    build_assoc_from_forms,
    build_lie_from_forms,
    center,
    centralizer,
    is_abelian_subspace,
    matrix_algebra,
    maximal_abelian_ideal,
    nilpotency_class,
    sample_form_tuple,
    unitalize,
    verify_axioms,
)
from commdim.algebra import pairwise_products
from oracles import (
    abelian_ideal_extension,
    algebra_json_v1,
    enumerate_subspaces,
    first_axiom_violation,
    is_commutative_subspace,
    is_subalgebra,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def heisenberg(field):
    # basis x, y, z with [x, y] = z
    return StructureConstantAlgebra(
        "lie", field, 3, {(0, 1): [0, 0, 1]}, labels=["x", "y", "z"]
    )


def sl2_gf5():
    # basis e, h, f: [h,e] = 2e, [h,f] = -2f, [e,f] = h
    return StructureConstantAlgebra(
        "lie",
        F5,
        3,
        {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]},
        labels=["e", "h", "f"],
    )


def abelian(field, d):
    return StructureConstantAlgebra("lie", field, d, {})


def filiform4(field):
    # [x1,x2] = x3, [x1,x3] = x4: nilpotent of class 3
    return StructureConstantAlgebra(
        "lie", field, 4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
    )


# ---------------------------------------------------------------- axioms


def test_axioms_abelian():
    for d in (1, 3, 5):
        rep = verify_axioms(abelian(F3, d))
        assert rep.passed and rep.first_violation is None


def test_axioms_heisenberg():
    rep = verify_axioms(heisenberg(F2))
    assert rep.passed
    assert rep.checks == {"alternating": True, "jacobi": True}


def test_axioms_broken_alternating():
    bad = StructureConstantAlgebra(
        "lie", F3, 3, {(0, 1): [0, 0, 1], (1, 0): [0, 0, 1]}
    )
    rep = verify_axioms(bad)
    assert not rep.checks["alternating"]
    assert rep.first_violation == (1, 0)
    assert not rep.passed


def test_axioms_broken_diagonal():
    bad = StructureConstantAlgebra("lie", F2, 2, {(1, 1): [1, 0]})
    rep = verify_axioms(bad)
    assert not rep.checks["alternating"]
    assert rep.first_violation == (1, 1)


def test_axioms_broken_jacobi():
    # [x,y] = z, [x,z] = x: the (0,1,2) Jacobi sum is -z over GF(5)
    bad = StructureConstantAlgebra(
        "lie", F5, 3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}
    )
    rep = verify_axioms(bad)
    assert rep.checks["alternating"]
    assert not rep.checks["jacobi"]
    assert rep.first_violation is not None


def test_axioms_sl2():
    assert verify_axioms(sl2_gf5()).passed


def test_axioms_associative_violation():
    bad = StructureConstantAlgebra(
        "assoc", F2, 2, {(0, 0): [0, 1], (1, 0): [1, 0]}
    )
    rep = verify_axioms(bad)
    assert not rep.checks["associative"]
    assert rep.first_violation == (0, 0, 0)


@st.composite
def small_tables(draw):
    """Random tables whose identity-check support S (coordinates of some
    product that are also a factor of some product) is partial or full
    ("random", with a few stored zero products), empty ("two-step": the
    first n basis vectors multiply into the others, which multiply to zero)
    or full ("unital": a two-step assoc table with an identity adjoined).
    "moved" adjoins an identity to a two-step or random assoc table and moves
    it to a random index; "tampered" changes one entry of such a table in the
    identity's row or column, or in a product of the rest on the identity's
    coordinate."""
    p = draw(st.sampled_from([2, 3, 5, 8191]))
    style = draw(st.sampled_from(["random", "random", "two-step", "unital", "moved", "tampered"]))
    unital = style in ("unital", "moved", "tampered")
    d = draw(st.integers(0, 7 if unital else 8))
    kind = "assoc" if unital else draw(st.sampled_from(["lie", "assoc"]))
    # mostly sparse tables: at most 40 nonzero constants, dense only for d <= 3
    value = st.one_of(st.sampled_from([1, p - 1]), st.integers(1, p - 1))
    raw = np.zeros(d**3, dtype=np.int64)
    if d:
        for pos, v in draw(st.lists(st.tuples(st.integers(0, d**3 - 1), value), max_size=40)):
            raw[pos] = v
    raw = raw.reshape(d, d, d)
    if style in ("two-step", "unital") or (unital and draw(st.booleans())):
        n = draw(st.integers(0, max(d - 1, 0)))
        mask = np.zeros((d, d, d), dtype=np.int64)
        mask[:n, :n, n:] = 1
        raw = raw * mask
    if not unital and draw(st.booleans()):  # alternating: zero diagonal, T[j,i] = -T[i,j]
        upper = raw * np.triu(np.ones((d, d), dtype=np.int64), 1)[:, :, None]
        raw = (upper - upper.transpose(1, 0, 2)) % p
    sc = {(i, j): raw[i, j] for i in range(d) for j in range(d) if raw[i, j].any()}
    if style == "random" and d:
        index = st.integers(0, d - 1)
        for key in draw(st.lists(st.tuples(index, index), max_size=3)):
            sc.setdefault(key, np.zeros(d, dtype=np.int64))
    a = StructureConstantAlgebra(kind, PrimeField(p), d, sc)
    if not unital:
        return a
    a = unitalize(a)
    if style == "unital":
        return a
    t = a.table().copy()
    if style == "moved":
        perm = draw(st.permutations(range(d + 1)))
        t[np.ix_(perm, perm, perm)] = a.table()
    else:
        x, y = draw(st.integers(0, d)), draw(st.integers(0, d))
        where = draw(st.sampled_from(["row", "column", "rest"] if d else ["row", "column"]))
        at = {"row": (d, x, y), "column": (x, d, y), "rest": (x % d, y % d, d) if d else None}[where]
        t[at] = (t[at] + draw(st.integers(1, p - 1))) % p
    return _table_algebra("assoc", p, t)


def jacobi_totals(t: np.ndarray, kind: str) -> np.ndarray:
    """The identity's integer sums [i, j, k, l] before any reduction mod p."""
    out = np.einsum("ijm,mkl->ijkl", t, t)
    if kind == "assoc":
        return out - np.einsum("jkm,iml->ijkl", t, t)
    return out + np.einsum("jkm,mil->ijkl", t, t) + np.einsum("kim,mjl->ijkl", t, t)


# tables whose first row (j, k) with a nonzero integer sum, at the i of the
# first violation, sums to a multiple of p: (kind, p, table, that row)
VANISHING_MOD_P = [
    ("lie", 2, [[[0, 0, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0], [1, 0, 0]],
                [[0, 0, 1], [1, 0, 0], [0, 0, 0]]], (0, 0, 2)),
    ("lie", 8191, [[[0, 0, 0], [1, 1, 0], [8190, 0, 0]], [[8190, 8190, 0], [0, 0, 0], [8190, 0, 0]],
                   [[1, 0, 0], [1, 0, 0], [0, 0, 0]]], (0, 0, 1)),
    ("assoc", 8191, [[[8190, 8190, 8190], [8190, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 8190], [8190, 8190, 0]],
                     [[0, 0, 0], [0, 1, 0], [0, 1, 0]]], (0, 0, 0)),
    ("assoc", 3, [[[2, 0], [1, 0]], [[2, 1], [0, 0]]], (0, 1, 0)),
]


def _table_algebra(kind, p, table):
    d = len(table)
    sc = {(i, j): table[i][j] for i in range(d) for j in range(d) if any(table[i][j])}
    return StructureConstantAlgebra(kind, PrimeField(p), d, sc)


@pytest.mark.parametrize("kind, p, table, row", VANISHING_MOD_P)
def test_vanishing_mod_p_tables_sum_to_multiples_of_p(kind, p, table, row):
    # the premise of the examples below: a nonzero integer sum that is 0 mod p
    # comes first, and a real violation at the same i comes later
    total = jacobi_totals(np.array(table, dtype=np.int64), kind)
    assert total[row].any() and not (total[row] % p).any()
    assert not total[row[0]].reshape(-1, len(table))[: row[1] * len(table) + row[2]].any()
    rep = verify_axioms(_table_algebra(kind, p, table))
    assert rep.first_violation[0] == row[0] and rep.first_violation > row


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_tables())
@example(build_lie_from_forms(sample_form_tuple(5, 3, "alternating", PrimeField(8191), 3)))
@example(unitalize(build_assoc_from_forms(sample_form_tuple(4, 3, "general", PrimeField(8191), 3))))
@example(matrix_algebra(2, PrimeField(8191)))
@example(_table_algebra(*VANISHING_MOD_P[0][:3]))
@example(_table_algebra(*VANISHING_MOD_P[1][:3]))
@example(_table_algebra(*VANISHING_MOD_P[2][:3]))
@example(_table_algebra(*VANISHING_MOD_P[3][:3]))
@example(_table_algebra("assoc", 2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]))  # e_1 only a right factor
@example(unitalize(unitalize(_table_algebra(*VANISHING_MOD_P[3][:3]))))  # two nested identities
@example(_table_algebra("assoc", 2, [[[0, 0], [0, 0]], [[0, 1], [0, 0]]]))  # e_1 only a left factor
def test_axioms_match_triple_loop_oracle(a):
    want = first_axiom_violation(a.table(), a.p, a.kind)
    rep = verify_axioms(a)
    assert rep.checks == {name: v is None for name, v in want.items()}
    assert rep.first_violation == next((v for v in want.values() if v is not None), None)


def test_axiom_check_memory_is_cubic_in_dim():
    # a d^4 tensor at d = 48 is 5.3 M entries, about 42 MB of int64 alone; the
    # two-step table has an empty support and skips the contraction loop; the
    # unitalized one (d = 49) has full support, but its adjoined identity is
    # found in closed form and the rest, a two-step table, skips it as well
    lie = build_lie_from_forms(sample_form_tuple(40, 8, "alternating", F2, 7))
    unital = unitalize(build_assoc_from_forms(sample_form_tuple(40, 8, "general", F2, 7)))
    assert (lie.dim, unital.dim) == (48, 49)
    assert unital.table().any(axis=(0, 1)).all()
    # e_i e_j = e_min(i,j): e_63 is an identity, e_62 one of the rest, and so
    # on, so the identity is deleted 64 times, each time from a new table
    eye = np.eye(64, dtype=np.int64)
    nested = StructureConstantAlgebra("assoc", F2, 64, {(i, j): eye[min(i, j)] for i in range(64) for j in range(64)})
    for a in (lie, unital, nested):
        a.table()
        tracemalloc.start()
        try:
            assert verify_axioms(a).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20, (a.dim, peak)


def test_axiom_report_json():
    rep = verify_axioms(heisenberg(F2))
    obj = rep.to_json()
    assert obj["passed"] is True and obj["first_violation"] is None


# ---------------------------------------------------------------- center


def test_center_abelian():
    assert center(abelian(F2, 4)) == Subspace.span(2, np.eye(4, dtype=int))


def test_center_heisenberg():
    z = center(heisenberg(F3))
    assert z.dim == 1
    assert z.basis.tolist() == [[0, 0, 1]]


def test_center_sl2():
    assert center(sl2_gf5()).dim == 0


def test_center_associative_commutator():
    # e0 is an identity on a 2-dim commutative algebra: center is everything
    alg = StructureConstantAlgebra(
        "assoc", F3, 2, {(0, 0): [1, 0], (0, 1): [0, 1], (1, 0): [0, 1]}
    )
    assert center(alg).dim == 2


# ---------------------------------------------------------------- centralizer


def test_centralizer_empty_gens():
    assert centralizer(heisenberg(F2), []) == Subspace.span(2, np.eye(3, dtype=int))


def test_centralizer_heisenberg_x():
    c = centralizer(heisenberg(F2), [[1, 0, 0]])
    assert c.dim == 2
    assert c == Subspace.span(2, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="do not lie"):  # six entries, but not two generators
        centralizer(heisenberg(F2), [[1, 0], [0, 1], [1, 1]])


def test_centralizer_sl2_h():
    c = centralizer(sl2_gf5(), [[0, 1, 0]])
    assert c.dim == 1
    assert c.basis.tolist() == [[0, 1, 0]]


def test_center_inside_centralizer_and_antitone():
    rng = random.Random(99)
    for alg in (heisenberg(F3), sl2_gf5(), filiform4(F5)):
        z = center(alg)
        gens = []
        prev = Subspace.span(alg.p, np.eye(alg.dim, dtype=int))
        for _ in range(4):
            gens.append([rng.randrange(alg.p) for _ in range(alg.dim)])
            cur = centralizer(alg, gens)
            assert cur.contains(z)
            assert prev.contains(cur)  # antitone under growing generator sets
            prev = cur


# ---------------------------------------------------------------- nilpotency


def test_nilpotency_class_values():
    assert nilpotency_class(abelian(F2, 3)) == 1
    assert nilpotency_class(heisenberg(F2)) == 2
    assert nilpotency_class(sl2_gf5()) is None
    assert nilpotency_class(filiform4(F3)) == 3


def test_nilpotency_class_associative():
    # square-zero algebra: class 2; with an identity adjoined: not nilpotent
    a = StructureConstantAlgebra("assoc", F2, 2, {(0, 0): [0, 1]})
    assert nilpotency_class(a) == 2
    unital = StructureConstantAlgebra(
        "assoc", F2, 1, {(0, 0): [1]}
    )
    assert nilpotency_class(unital) is None


# ---------------------------------------------------------------- abelian subspaces


def test_one_dim_always_abelian():
    for alg in (heisenberg(F2), sl2_gf5()):
        for sub in enumerate_subspaces(3, 1, PrimeField(alg.p)):
            assert is_abelian_subspace(alg, sub)


def test_heisenberg_subspaces():
    h = heisenberg(F2)
    assert is_abelian_subspace(h, Subspace.span(2, [[1, 0, 0], [0, 0, 1]]))
    assert not is_abelian_subspace(h, Subspace.span(2, np.eye(3, dtype=int)))


def test_not_a_subalgebra_witness():
    h = heisenberg(F2)
    with pytest.raises(NotASubalgebra) as exc:
        is_abelian_subspace(h, Subspace.span(2, [[1, 0, 0], [0, 1, 0]]))
    assert exc.value.pair == (0, 1)


@st.composite
def algebras_with_subspaces(draw):
    """A table from small_tables, or a two-step algebra, with a random span.

    Spans that contain U (the f coordinates) of a two-step algebra are always
    subalgebras, so both outcomes of the closure check show up.
    """
    if draw(st.booleans()):
        a = draw(small_tables())
        gens = draw(st.lists(st.lists(st.integers(0, a.p - 1), min_size=a.dim, max_size=a.dim), max_size=4))
    else:
        p = draw(st.sampled_from([2, 3, 8191]))
        n, t = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        forms = sample_form_tuple(n, t, draw(st.sampled_from(["alternating", "general"])), PrimeField(p), draw(st.integers(0, 99)))
        a = build_lie_from_forms(forms) if forms.kind == "alternating" else build_assoc_from_forms(forms)
        gens = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n + t, max_size=n + t), max_size=3))
        if draw(st.booleans()):
            gens += np.eye(n + t, dtype=np.int64)[n:].tolist()
    return a, Subspace.span(a.p, gens, a.dim)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(algebras_with_subspaces())
def test_is_abelian_subspace_matches_oracles(case):
    a, sub = case
    b = sub.basis
    assert np.array_equal(pairwise_products(a, b), np.einsum("ia,jb,abl->ijl", b, b, a.table()) % a.p)
    if is_subalgebra(a, sub):
        assert is_abelian_subspace(a, sub) == is_commutative_subspace(a, sub)
    else:
        with pytest.raises(NotASubalgebra):
            is_abelian_subspace(a, sub)


def test_zero_subspace_is_abelian():
    assert is_abelian_subspace(heisenberg(F2), Subspace.zero(2, 3))


# ---------------------------------------------------------------- maximal abelian ideal


def test_maximal_abelian_ideal_abelian():
    assert maximal_abelian_ideal(abelian(F3, 4)) == Subspace.span(3, np.eye(4, dtype=int))


def test_maximal_abelian_ideal_heisenberg():
    h = heisenberg(F2)
    ideal = maximal_abelian_ideal(h)
    assert ideal.dim == 2
    assert ideal.contains_vector([0, 0, 1])
    assert is_abelian_subspace(h, ideal)
    # ideal property: [g, I] inside I
    t = h.table()
    for gi in range(3):
        for row in ideal.basis:
            prod = np.einsum("b,bk->k", row, t[gi]) % 2
            assert ideal.contains_vector(prod)
    # oracle: no abelian ideal of dimension 3 exists (the algebra itself is not abelian)
    for sub in enumerate_subspaces(3, 3, F2):
        assert not is_abelian_subspace(h, sub)


def test_maximal_abelian_ideal_no_extension():
    # re-run the extension test on the greedy output for a few algebras
    for alg in (heisenberg(F3), filiform4(F2), filiform4(F5)):
        ideal = maximal_abelian_ideal(alg)
        assert is_abelian_subspace(alg, ideal)
        assert abelian_ideal_extension(alg, ideal) is None, "ideal admitted a one-element extension"


def test_maximal_abelian_ideal_zero_forms():
    from commdim import FormTuple, build_lie_from_forms

    ft = FormTuple(2, 1, "alternating", F2, [np.zeros((2, 2), dtype=int)])
    alg = build_lie_from_forms(ft)
    assert maximal_abelian_ideal(alg) == Subspace.span(2, np.eye(3, dtype=int))


def test_maximal_abelian_ideal_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        maximal_abelian_ideal(sl2_gf5())
    with pytest.raises(ValueError):
        maximal_abelian_ideal(
            StructureConstantAlgebra("assoc", F2, 1, {(0, 0): [1]})
        )


# ---------------------------------------------------------------- serialization


def test_algebra_json_round_trip():
    h = heisenberg(F3)
    obj = h.to_json()
    assert obj["schema"] == 2 and obj["kind"] == "lie" and obj["p"] == 3 and obj["dim"] == 3
    assert obj["sc"] == [{"i": 0, "j": 1, "nz": [[2, 1]]}]
    back = StructureConstantAlgebra.from_json(obj)
    assert back.to_json() == obj
    assert np.array_equal(back.table(), h.table())


def _stored(a):
    return sorted((key, v.tolist()) for key, v in a.sc.items())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(small_tables())
def test_algebra_json_round_trips_in_both_schemas(a):
    obj = a.to_json()
    back = StructureConstantAlgebra.from_json(obj)
    assert back.to_json() == obj
    # stored zero products keep their keys, so explicit Lie keys survive
    assert _stored(back) == _stored(a) and np.array_equal(back.table(), a.table())
    assert all(e["nz"] == sorted(e["nz"]) for e in obj["sc"])
    old = StructureConstantAlgebra.from_json(algebra_json_v1(a))
    assert _stored(old) == _stored(a) and old.to_json() == obj


def test_stored_zero_product_keeps_its_key():
    a = StructureConstantAlgebra("lie", F3, 2, {(0, 1): [1, 0], (1, 0): [0, 0]})
    assert a.to_json()["sc"] == [{"i": 0, "j": 1, "nz": [[0, 1]]}, {"i": 1, "j": 0, "nz": []}]
    back = StructureConstantAlgebra.from_json(a.to_json())
    assert not back.table()[1, 0].any() and not verify_axioms(back).passed


_V2 = {"schema": 2, "kind": "lie", "p": 3, "dim": 3, "sc": [{"i": 0, "j": 1, "nz": [[2, 1]]}]}


def _with_nz(*nz):
    return dict(_V2, sc=[{"i": 0, "j": 1, "nz": list(nz)}])


@pytest.mark.parametrize(
    "doc, message",
    [
        (dict(_V2, schema=3), "unknown algebra schema 3"),
        (dict(_V2, schema="2"), "'schema' must be JSON int"),
        (dict(_V2, schema=True), "'schema' must be JSON int"),
        (_with_nz([2]), "pair"),
        (_with_nz([2, 1, 0]), "pair"),
        (_with_nz(2), "pair"),
        (_with_nz([-1, 1]), "out of range"),
        (_with_nz([3, 1]), "out of range"),
        (_with_nz([2, 1], [0, 1], [2, 2]), "coordinate 2 listed twice for structure constant key (0, 1)"),
        (_with_nz([2, True]), "JSON ints"),
        (_with_nz([True, 1]), "JSON ints"),
        (_with_nz([2, 1.0]), "JSON ints"),
        (dict(_V2, sc=[{"i": 0, "j": 1, "nz": []}, {"i": 0, "j": 1, "nz": [[2, 1]]}]), "duplicate structure constant key (0, 1)"),
        (dict(_V2, sc=[{"i": 0, "j": 3, "nz": []}]), "key (0, 3) out of range"),
        (dict(_V2, sc=[{"i": 0, "j": True, "nz": []}]), "'j' must be JSON int"),
        (dict(_V2, sc=[{"i": 0, "j": 1, "v": [0, 0, 1]}]), "missing field 'nz'"),
        (dict(_V2, sc=[{"i": 0, "j": 1, "nz": {}}]), "'nz' must be JSON list"),
        (dict(_V2, sc=[[0, 1, []]]), "expected a JSON object"),
        (dict(_V2, dim=100000), "dimension must lie in"),
        (dict(_V2, kind="jordan"), "unknown algebra kind"),
    ],
)
def test_malformed_schema_2_algebra_is_rejected(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        StructureConstantAlgebra.from_json(doc)


def test_schema_2_big_values_are_reduced_before_numpy():
    a = StructureConstantAlgebra.from_json(_with_nz([0, 7**40 + 1], [2, -(2**70)]))
    assert a.to_json()["sc"] == [{"i": 0, "j": 1, "nz": [[0, (7**40 + 1) % 3], [2, -(2**70) % 3]]}]


def test_schema_2_reader_accepts_unsorted_coordinates():
    a = StructureConstantAlgebra.from_json(_with_nz([2, 1], [0, 2]))
    assert a.to_json() == _with_nz([0, 2], [2, 1])


def test_assoc_json_kind_string():
    a = StructureConstantAlgebra("associative", F2, 1, {})
    assert a.kind == "assoc"
    assert a.to_json()["kind"] == "assoc"


def test_bad_structure_constants_rejected():
    with pytest.raises(ValueError):
        StructureConstantAlgebra("lie", F2, 2, {(0, 3): [1, 0]})
    with pytest.raises(ValueError):
        StructureConstantAlgebra("lie", F2, 2, {(0, 1): [1, 0, 0]})
    with pytest.raises(ValueError):
        StructureConstantAlgebra("weird", F2, 2, {})
