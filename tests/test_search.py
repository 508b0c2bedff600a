import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    FormTuple,
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    build_assoc_from_forms,
    build_lie_from_forms,
    center,
    centralizer,
    certify_no_isotropic,
    class2_exact_result,
    class2_form_tuple,
    greedy_abelian_class2,
    is_abelian_subspace,
    largest_common_isotropic,
    matrix_algebra,
    maximal_abelian_ideal,
    max_abelian_exact,
    nilpotency_class,
    sample_form_tuple,
    unitalize,
    verify_axioms,
)

from commdim import gf, search
from oracles import abelian_ideal_extension, brute_force_max_abelian, class2_dim, extends_abelian_ideal

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def heisenberg(field):
    return StructureConstantAlgebra("lie", field, 3, {(0, 1): [0, 0, 1]})


def sl2_gf5():
    return StructureConstantAlgebra(
        "lie", F5, 3, {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]}
    )


def abelian(field, d):
    return StructureConstantAlgebra("lie", field, d, {})


def filiform4(field):
    return StructureConstantAlgebra(
        "lie", field, 4, {(0, 1): [0, 0, 1, 0], (0, 2): [0, 0, 0, 1]}
    )


# ---------------------------------------------------------------- exact search


def test_exact_abelian_full_space():
    for d in (1, 3, 5):
        res = max_abelian_exact(abelian(F2, d))
        assert res.dim == d and res.exact
        assert res.witness == Subspace.span(2, np.eye(d, dtype=int))


def test_exact_heisenberg():
    res = max_abelian_exact(heisenberg(F2))
    assert res.dim == 2 and res.exact
    assert is_abelian_subspace(heisenberg(F2), res.witness)


def test_exact_sl2():
    res = max_abelian_exact(sl2_gf5())
    assert res.dim == 1 and res.exact


def test_exact_matches_brute_force_corpus():
    corpus = [
        heisenberg(F2),
        heisenberg(F3),
        sl2_gf5(),
        filiform4(F2),
        matrix_algebra(2, F2),
        build_assoc_from_forms(sample_form_tuple(3, 2, "general", F2, 5)),
        unitalize(build_assoc_from_forms(sample_form_tuple(2, 2, "general", F2, 9))),
    ]
    rng = random.Random(101)
    for _ in range(6):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 4)
        t = rng.randrange(1, 3)
        ft = sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**6))
        corpus.append(build_lie_from_forms(ft))
    for alg in corpus:
        res = max_abelian_exact(alg)
        assert res.exact
        assert res.dim == brute_force_max_abelian(alg), alg
        assert is_abelian_subspace(alg, res.witness)
        assert res.witness.dim == res.dim


def test_exact_witness_is_canonical_first():
    # in the Heisenberg algebra the first canonical 2-dim abelian subspace
    # is span(x, z): pivots (0, 2) beat (1, 2), and free entries are zero
    res = max_abelian_exact(heisenberg(F2))
    assert res.witness.basis.tolist() == [[1, 0, 0], [0, 0, 1]]


def _exact_node_counts():
    # node counts of max_abelian_exact's search on the complement of the center
    return [
        (heisenberg(F2), 4),
        (sl2_gf5(), 32),
        (filiform4(F2), 9),
        (matrix_algebra(2, F2), 8),
        (build_lie_from_forms(sample_form_tuple(4, 3, "alternating", F2, 77)), 19),
        (build_assoc_from_forms(sample_form_tuple(3, 2, "general", F2, 5)), 4),
        (build_assoc_from_forms(sample_form_tuple(3, 3, "general", F3, 0)), 15),
    ]


def test_exact_node_counts_are_pinned():
    # the search tree is a deterministic function of the algebra
    for alg, nodes in _exact_node_counts():
        assert max_abelian_exact(alg).nodes_visited == nodes, alg


def test_exact_nodes_reduce_once_and_solve_only_lead_columns(monkeypatch):
    # a node's one nullspace gives both the rank bound and the child pivots:
    # no direct row reduction, and every solve it asks for has a solution
    def no_rref(a, p):
        raise AssertionError("the search node called rref_array directly")

    def consistent_solve(a, b, p):
        sol = gf.solve_affine(a, b, p)
        assert sol is not None, "solve_affine ran on a pivot column with no solution"
        return sol

    monkeypatch.setattr(search, "rref_array", no_rref)
    monkeypatch.setattr(search, "solve_affine", consistent_solve)
    for alg, nodes in _exact_node_counts():
        assert max_abelian_exact(alg).nodes_visited == nodes, alg


@pytest.mark.parametrize("n, t, k, p, dim", [(7, 5, 4, 2, 7), (7, 5, 4, 3, 7), (9, 5, 5, 2, 8)])
def test_exact_search_on_certified_algebras(n, t, k, p, dim):
    # the s = 8 and s = 9 pipeline algebras: the search on the complement of
    # the center is the class-2 search, node for node
    cert = certify_no_isotropic(n, t, k, PrimeField(p), seed=1000, max_attempts=1000)
    alg = build_lie_from_forms(cert.forms)
    exact, class2 = max_abelian_exact(alg), class2_exact_result(alg)
    assert exact.exact and exact.dim == class2.dim == dim
    assert exact.nodes_visited == class2.nodes_visited


@pytest.mark.parametrize("r, p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)])
def test_exact_matrix_algebra_meets_schur_jacobson(r, p):
    # the largest commutative subalgebra of M_r has dimension floor(r^2/4) + 1
    a = matrix_algebra(r, PrimeField(p))
    res = max_abelian_exact(a)
    assert res.exact and res.dim == r * r // 4 + 1
    assert is_abelian_subspace(a, res.witness)


def dual_matrix_algebra(field):
    """M_2 over the dual numbers K[t]/(t^2), on the basis t^k E_ij ordered by (k, i, j)."""
    basis = list(itertools.product(range(2), repeat=3))
    sc = {}
    for (x, (k, i, j)), (y, (l, a, b)) in itertools.product(enumerate(basis), repeat=2):
        if j == a and k + l < 2:
            sc[(x, y)] = [int(m == basis.index((k + l, i, b))) for m in range(8)]
    return StructureConstantAlgebra("assoc", field, 8, sc)


def test_exact_budget_abort_gives_lower_bound():
    # an aborted assoc search closes its witness under the product, which
    # is_abelian_subspace requires: on the dual-number M_2 the best subspace
    # after 5 nodes is not closed
    lie = build_lie_from_forms(sample_form_tuple(4, 3, "alternating", F2, 77))
    for alg in (lie, matrix_algebra(3, F3), dual_matrix_algebra(F2)):
        full = max_abelian_exact(alg)
        for budget in (0, 5):
            partial = max_abelian_exact(alg, budget=budget)
            assert not partial.exact
            assert partial.dim <= full.dim
            assert is_abelian_subspace(alg, partial.witness)


def test_complete_exact_search_skips_the_closure(monkeypatch):
    # a commuting subspace of largest dimension is already a subalgebra, so a
    # complete search returns its witness unclosed, and it still passes
    def no_closure(a, sub):
        raise AssertionError("a complete search ran _subalgebra_closure")

    unital = unitalize(build_assoc_from_forms(sample_form_tuple(3, 2, "general", F2, 5)))
    monkeypatch.setattr(search, "_subalgebra_closure", no_closure)
    for alg in (matrix_algebra(2, F2), matrix_algebra(3, F3), unital):
        res = max_abelian_exact(alg)
        assert res.exact
        assert is_abelian_subspace(alg, res.witness)


def test_exact_assoc_witness_closed():
    # max commutative subalgebra of M_2(GF(2)) has dim 2 and the witness is closed
    m2 = matrix_algebra(2, F2)
    res = max_abelian_exact(m2)
    assert res.dim == 2
    assert is_abelian_subspace(m2, res.witness)


# ---------------------------------------------------------------- class-2 reduction


def test_class2_zero_forms():
    ft = FormTuple(2, 2, "alternating", F2, [np.zeros((2, 2), int)] * 2)
    assert class2_dim(ft) == 4


def test_class2_heisenberg():
    ft = FormTuple(2, 1, "alternating", F2, [[[0, 1], [1, 0]]])
    assert class2_dim(ft) == 2


def test_class2_certified_instance():
    cert = certify_no_isotropic(7, 5, 4, F2, seed=1000, max_attempts=1000)
    assert class2_dim(cert.forms) <= 8  # k + t - 1


def test_class2_agrees_with_exact():
    rng = random.Random(55)
    for _ in range(12):
        n = rng.randrange(1, 5)
        t = rng.randrange(1, min(4, 8 - n))
        ft = sample_form_tuple(n, t, "alternating", F2, rng.randrange(10**6))
        alg = build_lie_from_forms(ft)
        assert class2_dim(ft) == max_abelian_exact(alg).dim


def test_class2_result_on_algebra():
    ft = sample_form_tuple(3, 2, "alternating", F3, 42)
    alg = build_lie_from_forms(ft)
    res = class2_exact_result(alg)
    assert res.exact and res.mode == "class2"
    assert res.dim == max_abelian_exact(alg).dim
    assert res.witness.dim == res.dim
    assert is_abelian_subspace(alg, res.witness)


def test_class2_form_tuple_round_trip():
    ft = sample_form_tuple(3, 2, "alternating", F2, 8)
    alg = build_lie_from_forms(ft)
    forms, z, comp = class2_form_tuple(alg)
    assert forms.t == z.dim
    assert forms.n == alg.dim - z.dim
    assert forms.kind == "alternating"
    # centre contains the value space U
    assert z.dim >= 2


def test_class2_rejects_higher_class():
    with pytest.raises(ValueError):
        class2_exact_result(filiform4(F2))
    with pytest.raises(ValueError):
        class2_exact_result(sl2_gf5())


# ---------------------------------------------------------------- greedy


def test_greedy_abelian_algebra():
    for d in (1, 4):
        res = greedy_abelian_class2(abelian(F3, d))
        assert res.dim == d
        assert res.witness == Subspace.span(3, np.eye(d, dtype=int))


def test_greedy_heisenberg():
    res = greedy_abelian_class2(heisenberg(F2))
    assert res.dim == 2
    assert is_abelian_subspace(heisenberg(F2), res.witness)
    assert 3 <= 2 * 2 // 4 + 2


def test_greedy_certified_instance():
    cert = certify_no_isotropic(7, 5, 4, F2, seed=1000, max_attempts=1000)
    alg = build_lie_from_forms(cert.forms)
    res = greedy_abelian_class2(alg)
    s = res.dim
    assert s >= 5  # 12 <= s^2/4 + s forces it
    assert alg.dim <= s * s // 4 + s
    assert is_abelian_subspace(alg, res.witness)


def test_greedy_bound_holds_without_assert(monkeypatch):
    # a solver that finds nothing leaves s = dim Z = 1, too small for d = 3
    monkeypatch.setattr(search, "nullspace_array", lambda a, p: np.zeros((0, a.shape[1]), dtype=np.int64))
    with pytest.raises(ValueError, match="floor"):
        greedy_abelian_class2(heisenberg(F2))


def test_greedy_rejects_class_3():
    with pytest.raises(ValueError):
        greedy_abelian_class2(filiform4(F3))
    with pytest.raises(ValueError):
        greedy_abelian_class2(sl2_gf5())


def test_greedy_assoc_class2():
    ft = sample_form_tuple(3, 1, "general", F2, 12)
    alg = build_assoc_from_forms(ft)
    res = greedy_abelian_class2(alg)
    assert is_abelian_subspace(alg, res.witness)
    assert alg.dim <= res.dim ** 2 // 4 + res.dim


def test_greedy_never_beats_exact():
    rng = random.Random(202)
    for _ in range(10):
        n = rng.randrange(1, 5)
        t = rng.randrange(1, 3)
        p = rng.choice([2, 3])
        ft = sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**6))
        alg = build_lie_from_forms(ft)
        g = greedy_abelian_class2(alg)
        e = max_abelian_exact(alg)
        assert g.dim <= e.dim
        assert is_abelian_subspace(alg, g.witness)


@st.composite
def two_step_algebras(draw):
    """Lie or assoc algebras built from random forms, or unitalized assoc ones; d <= 5."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["lie", "assoc", "unital"]))
    n = draw(st.integers(1, 3 if kind == "unital" else 4))
    t = draw(st.integers(1, (4 if kind == "unital" else 5) - n))
    form_kind = "alternating" if kind == "lie" else draw(st.sampled_from(["alternating", "symmetric", "general"]))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=t * n * n, max_size=t * n * n))
    mats = np.array(entries, dtype=np.int64).reshape(t, n, n)
    upper = np.triu(mats, 1)  # alternating and symmetric forms mirror the upper triangle
    if form_kind == "alternating":
        mats = (upper - upper.transpose(0, 2, 1)) % p
    elif form_kind == "symmetric":
        mats = upper + np.triu(mats).transpose(0, 2, 1)
    forms = FormTuple(n, t, form_kind, PrimeField(p), list(mats))
    if kind == "lie":
        return build_lie_from_forms(forms)
    alg = build_assoc_from_forms(forms)
    return unitalize(alg) if kind == "unital" else alg


@settings(derandomize=True, max_examples=130, deadline=None)
@given(two_step_algebras())
def test_searches_match_brute_force_on_small_algebras(alg):
    best = brute_force_max_abelian(alg)
    exact = max_abelian_exact(alg)
    assert exact.exact and exact.dim == best and is_abelian_subspace(alg, exact.witness)
    cls = nilpotency_class(alg)
    if cls is not None and cls <= 2:
        class2 = class2_exact_result(alg)
        assert class2.dim == best and is_abelian_subspace(alg, class2.witness)
        greedy = greedy_abelian_class2(alg)
        assert greedy.dim <= best and alg.dim <= greedy.dim**2 // 4 + greedy.dim
        assert is_abelian_subspace(alg, greedy.witness)
    if alg.kind == "lie":
        ideal = maximal_abelian_ideal(alg)
        assert is_abelian_subspace(alg, ideal)
        assert all(extends_abelian_ideal(alg, ideal, row) for row in ideal.basis), "not an ideal"
        assert abelian_ideal_extension(alg, ideal) is None


@settings(derandomize=True, max_examples=130, deadline=None)
@given(two_step_algebras())
def test_exact_witness_contains_center_and_matches_class2(alg):
    exact = max_abelian_exact(alg)
    assert exact.witness.contains(center(alg))
    cls = nilpotency_class(alg)
    if cls is not None and cls <= 2:
        obj, class2 = exact.to_json(), class2_exact_result(alg).to_json()
        assert obj.pop("mode") == "exact" and class2.pop("mode") == "class2"
        assert obj == class2
        # the induced forms on the complement give the same dimension
        forms, z, comp = class2_form_tuple(alg)
        assert (forms.n, forms.t) == (len(comp), z.dim)
        assert forms.t + len(largest_common_isotropic(forms.stack(), alg.p).basis) == class2["dim"]


def test_search_result_json():
    res = max_abelian_exact(heisenberg(F2))
    obj = res.to_json()
    assert obj["mode"] == "exact" and obj["dim"] == 2 and obj["exact"] is True
    assert obj["nodes_visited"] == 4
    assert greedy_abelian_class2(heisenberg(F2)).to_json()["nodes_visited"] is None
    assert obj["witness"]["basis"]["rows"] == 2


@pytest.mark.parametrize("kind", ["lie", "assoc"])
def test_zero_dimensional_algebra(kind):
    a = StructureConstantAlgebra(kind, F3, 0, {})
    assert center(a).dim == 0
    assert centralizer(a, []).dim == 0
    if kind == "lie":
        assert maximal_abelian_ideal(a).dim == 0
    assert nilpotency_class(a) == 0
    assert verify_axioms(a).passed
    for res in (max_abelian_exact(a), class2_exact_result(a), greedy_abelian_class2(a)):
        assert res.dim == 0 and res.witness.ambient_dim == 0
