import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    NotASubalgebra,
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    build_lie_from_forms,
    center,
    centralizer,
    enumerate_subspaces,
    is_abelian_subspace,
    maximal_abelian_ideal,
    nilpotency_class,
    sample_form_tuple,
    verify_axioms,
)
from oracles import abelian_ideal_extension, first_axiom_violation

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
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["lie", "assoc"]))
    entry = st.sampled_from([0] * draw(st.integers(1, 20)) + list(range(1, p)))  # mostly sparse tables
    raw = np.array(draw(st.lists(entry, min_size=d**3, max_size=d**3)), dtype=np.int64).reshape(d, d, d)
    if draw(st.booleans()):  # alternating: zero diagonal, T[j,i] = -T[i,j]
        upper = raw * np.triu(np.ones((d, d), dtype=np.int64), 1)[:, :, None]
        raw = (upper - upper.transpose(1, 0, 2)) % p
    sc = {(i, j): raw[i, j] for i in range(d) for j in range(d) if raw[i, j].any()}
    return StructureConstantAlgebra(kind, PrimeField(p), d, sc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(small_tables())
def test_axioms_match_triple_loop_oracle(a):
    want = first_axiom_violation(a.table(), a.p, a.kind)
    rep = verify_axioms(a)
    assert rep.checks == {name: v is None for name, v in want.items()}
    assert rep.first_violation == next((v for v in want.values() if v is not None), None)


def test_axiom_check_memory_is_cubic_in_dim():
    # a d^4 tensor at d = 48 is 5.3 M entries, about 42 MB of int64 alone
    a = build_lie_from_forms(sample_form_tuple(40, 8, "alternating", F2, 7))
    assert a.dim == 48
    a.table()
    tracemalloc.start()
    try:
        assert verify_axioms(a).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, peak


def test_axiom_report_json():
    rep = verify_axioms(heisenberg(F2))
    obj = rep.to_json()
    assert obj["passed"] is True and obj["first_violation"] is None


# ---------------------------------------------------------------- center


def test_center_abelian():
    assert center(abelian(F2, 4)) == Subspace.full(2, 4)


def test_center_heisenberg():
    z = center(heisenberg(F3))
    assert z.dim == 1
    assert z.basis.a.tolist() == [[0, 0, 1]]


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
    assert centralizer(heisenberg(F2), []) == Subspace.full(2, 3)


def test_centralizer_heisenberg_x():
    c = centralizer(heisenberg(F2), [[1, 0, 0]])
    assert c.dim == 2
    assert c == Subspace.span(2, [[1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="do not lie"):  # six entries, but not two generators
        centralizer(heisenberg(F2), [[1, 0], [0, 1], [1, 1]])


def test_centralizer_sl2_h():
    c = centralizer(sl2_gf5(), [[0, 1, 0]])
    assert c.dim == 1
    assert c.basis.a.tolist() == [[0, 1, 0]]


def test_center_inside_centralizer_and_antitone():
    rng = random.Random(99)
    for alg in (heisenberg(F3), sl2_gf5(), filiform4(F5)):
        z = center(alg)
        gens = []
        prev = Subspace.full(alg.p, alg.dim)
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
    assert not is_abelian_subspace(h, Subspace.full(2, 3))


def test_not_a_subalgebra_witness():
    h = heisenberg(F2)
    with pytest.raises(NotASubalgebra) as exc:
        is_abelian_subspace(h, Subspace.span(2, [[1, 0, 0], [0, 1, 0]]))
    assert exc.value.pair == (0, 1)


def test_zero_subspace_is_abelian():
    assert is_abelian_subspace(heisenberg(F2), Subspace.zero(2, 3))


# ---------------------------------------------------------------- maximal abelian ideal


def test_maximal_abelian_ideal_abelian():
    assert maximal_abelian_ideal(abelian(F3, 4)) == Subspace.full(3, 4)


def test_maximal_abelian_ideal_heisenberg():
    h = heisenberg(F2)
    ideal = maximal_abelian_ideal(h)
    assert ideal.dim == 2
    assert ideal.contains_vector([0, 0, 1])
    assert is_abelian_subspace(h, ideal)
    # ideal property: [g, I] inside I
    t = h.table()
    for gi in range(3):
        for row in ideal.basis.a:
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
    assert maximal_abelian_ideal(alg) == Subspace.full(2, 3)


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
    assert obj["kind"] == "lie" and obj["p"] == 3 and obj["dim"] == 3
    assert obj["sc"] == [{"i": 0, "j": 1, "v": [0, 0, 1]}]
    back = StructureConstantAlgebra.from_json(obj)
    assert back.to_json() == obj
    assert np.array_equal(back.table(), h.table())


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
