import itertools
import json
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    FormTuple,
    NotASubalgebra,
    PrimeField,
    SearchResult,
    StructureConstantAlgebra,
    Subspace,
    build_assoc_from_forms,
    build_lie_from_forms,
    center,
    centralizer,
    certify_no_isotropic,
    class2_exact_result,
    class2_form_tuple,
    extremal_params,
    greedy_abelian_class2,
    is_abelian_subspace,
    largest_common_isotropic,
    matrix_algebra,
    max_abelian_exact,
    nilpotency_class,
    sample_form_tuple,
    unitalize,
    verify_axioms,
)

from commdim import gf, search
from commdim.gf import nullspace_array, reduce_against_rref, rref_array, solve_affine
from oracles import (
    abelian_ideal_extension,
    change_of_basis,
    random_invertible,
    brute_force_max_abelian,
    class2_dim,
    extends_abelian_ideal,
    maximal_abelian_ideal,
    reference_common_isotropic,
    reference_greedy,
)

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


def test_exact_witness_is_first_found_right_to_left():
    # in the Heisenberg algebra the search on the complement of the center
    # z takes lead y before x: span(y) already has the final dimension, so
    # the witness is span(y, z), and x's two children are counted in bulk
    res = max_abelian_exact(heisenberg(F2))
    assert res.witness.basis.tolist() == [[0, 1, 0], [0, 0, 1]]
    assert res.nodes_visited == 4


def _exact_node_counts():
    # node counts of max_abelian_exact's search on the complement of the center
    return [
        (heisenberg(F2), 4),
        (sl2_gf5(), 32),
        (filiform4(F2), 9),
        (matrix_algebra(2, F2), 8),
        (build_lie_from_forms(sample_form_tuple(4, 3, "alternating", F2, 77)), 17),
        (build_assoc_from_forms(sample_form_tuple(3, 2, "general", F2, 5)), 4),
        (build_assoc_from_forms(sample_form_tuple(3, 3, "general", F3, 0)), 15),
    ]


def test_exact_node_counts_are_pinned():
    # the search tree is a deterministic function of the algebra
    for alg, nodes in _exact_node_counts():
        assert max_abelian_exact(alg).nodes_visited == nodes, alg


def test_exact_nodes_reduce_once_and_solve_only_lead_columns(monkeypatch):
    # at odd p a node's one nullspace gives both the rank bound and the child
    # pivots: no direct row reduction, and every solve it asks for has a
    # solution; the GF(2) node derives each extension space from its parent's
    # by XOR and calls neither
    solves = Counter()

    def no_rref(a, p):
        raise AssertionError("the search node called rref_array directly")

    def consistent_solve(a, b, p):
        solves[p] += 1
        sol = gf.solve_affine(a, b, p)
        assert sol is not None, "solve_affine ran on a pivot column with no solution"
        return sol

    monkeypatch.setattr(search, "rref_array", no_rref)
    monkeypatch.setattr(search, "solve_affine", consistent_solve)
    for alg, nodes in _exact_node_counts():
        assert max_abelian_exact(alg).nodes_visited == nodes, alg
    assert solves[2] == 0 and solves[3] > 0 and solves[5] > 0


@st.composite
def form_stacks(draw):
    """(p, stack): (t, n, n) alternating, symmetric or general forms over
    GF(p) for p in {2, 3, 5}; n <= 8, 7, 6 as p grows, since a node of a
    non-alternating stack can try p^(n-1) rows that fail v M v = 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, {2: 8, 3: 7, 5: 6}[p]))
    t = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["alternating", "symmetric", "general"]))
    return p, sample_form_tuple(n, t, kind, PrimeField(p), draw(st.integers(0, 10**6))).stack()


def _same_search(got, want):
    return (
        got.nodes_visited == want.nodes_visited
        and got.complete == want.complete
        and (got.basis is None) == (want.basis is None)
        and (got.basis is None or np.array_equal(got.basis, want.basis))
    )


def _general_node_at_p2():
    """The engine with the general node at p = 2 in place of the packed one."""
    return mock.patch.object(search, "_gf2_nodes", lambda sides, squares: search._general_nodes(sides, squares, 2))


def _check_witness(stack, p, k, res):
    """res's witness, if any, is a canonical RREF basis of the asked
    dimension on which every form of the stack restricts to zero."""
    if res.basis is None:
        return
    b = res.basis
    assert k is None or len(b) == k
    assert np.array_equal(rref_array(b, p)[0], b)
    assert not (np.einsum("ka,mab,lb->mkl", b, stack, b) % p).any()


def _check_against_reference(stack, p, k, budget):
    """Run the engine and check it against the reference search, which takes
    leads in ascending order: wherever the reference finishes, the engine
    does too, with the same dimension, and a k-search that finds nothing
    visits the same nodes.  Returns the engine's result."""
    got = largest_common_isotropic(stack, p, k, budget=budget)
    _check_witness(stack, p, k, got)
    want = reference_common_isotropic(stack, p, k, budget=budget)
    if want.complete and not got.complete:
        # only the engine's budget bounds the candidates that fail v M v = 0,
        # and an alternating stack has none
        alternating = not np.einsum("mii->mi", stack).any() and not ((stack + stack.transpose(0, 2, 1)) % p).any()
        assert not alternating, k
        got = largest_common_isotropic(stack, p, k)
        _check_witness(stack, p, k, got)
    if want.complete:
        assert got.complete, k
        assert (got.basis is None) == (want.basis is None), k
        if want.basis is None:
            assert got.nodes_visited == want.nodes_visited, k
        else:
            assert len(got.basis) == len(want.basis), k
    return got


# the reference node costs about 0.1 ms, so at odd p a search that outgrows
# this many nodes (a single form at p = 5 can take 10^5) is compared up to
# the budget; at p = 2 every search runs to completion
ODD_P_BUDGET = 1000


@settings(derandomize=True, max_examples=80, deadline=None)
@given(form_stacks())
def test_search_nodes_match_reference_node(case):
    # dims, completeness and the node counts of k-searches that find nothing
    # match the reference for every k, and every witness is checked; at p = 2
    # the packed node and the general node walk one tree, node for node; a
    # budget below a search's own count stops it at budget + 1
    p, stack = case
    n = stack.shape[2]
    budget = gf.DEFAULT_SEARCH_BUDGET if p == 2 else ODD_P_BUDGET
    for k in [None, *range(n + 1)]:
        full = _check_against_reference(stack, p, k, budget)
        if p == 2:
            with _general_node_at_p2():
                assert _same_search(largest_common_isotropic(stack, p, k, budget=budget), full), k
        cut = full.nodes_visited // 2
        partial = largest_common_isotropic(stack, p, k, budget=cut)
        _check_witness(stack, p, k, partial)
        assert partial.complete == (full.nodes_visited == 0)
        assert partial.complete or partial.nodes_visited == cut + 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(form_stacks().filter(lambda case: case[0] != 2))
def test_odd_p_children_come_in_product_order(case):
    # a lead's children, stepped through as an odometer, are x0 + c @ hom in
    # itertools.product order of c, as the reference node builds them: the
    # search's outputs rarely show a change in sibling order, so it is
    # checked here on the first nodes of the tree, leads in ascending order
    p, stack = case
    n = stack.shape[2]
    sides = np.concatenate([stack, stack.transpose(0, 2, 1)])
    lift = sides.transpose(1, 0, 2).reshape(n, -1)
    root, extend, to_array = search._general_nodes(sides, 0, p)
    queue = [(root, ())]
    for _ in range(12):
        if not queue:
            break
        node, pivots = queue.pop(0)
        if pivots and pivots[0] == 0:
            continue
        leads, _, children = extend(node, pivots, pivots[0] if pivots else n)
        got = list(itertools.islice(((pnew, child) for i, pnew in enumerate(leads) for child in children(i)), 300))
        system = (to_array(node) @ lift).reshape(-1, n) % p
        want = []
        for pnew in leads:
            q_cols = [q for q in range(pnew + 1, n) if q not in pivots]
            x0, hom = solve_affine(system[:, q_cols], -system[:, pnew] % p, p)
            for combo in itertools.product(range(p), repeat=len(hom)):
                v = np.zeros(n, dtype=np.int64)
                v[pnew] = 1
                v[q_cols] = (x0 + np.asarray(combo, dtype=np.int64) @ hom) % p
                want.append((pnew, v.tolist()))
        assert [(pnew, to_array(child)[0].tolist()) for pnew, child in got] == want[:300]
        queue += [(child, (pnew,) + pivots) for pnew, child in got[:3]]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(form_stacks().filter(lambda case: case[0] != 2), st.data())
def test_lead_solve_is_read_off_the_extension_basis(case, data):
    # for the lead l_i of row b_i of the RREF basis of a node's extension
    # space, on the columns right of l_i, the affine solve returns the
    # homogeneous basis b_{i+1}, ... and b_i reduced by a right-to-left
    # echelon of it (solve_affine zeroes the free columns of a forward
    # elimination): the basis already holds everything the solve returns
    p, stack = case
    n = stack.shape[2]
    sides = np.concatenate([stack, stack.transpose(0, 2, 1)])
    lift = sides.transpose(1, 0, 2).reshape(n, -1)
    rows = np.array(data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=3)))
    node = Subspace(p, rows.reshape(len(rows), n))
    free = [q for q in range(n) if q not in node.pivots]
    system = (node.basis @ lift).reshape(-1, n)[:, free] % p
    b = nullspace_array(system, p)
    for i, lead in enumerate(int(np.flatnonzero(row)[0]) for row in b):
        right = list(range(lead + 1, len(free)))
        x0, hom = solve_affine(system[:, right], -system[:, lead] % p, p)
        hom = hom.reshape(len(hom), len(right))
        assert np.array_equal(hom, b[i + 1 :, right])
        echelon, cols = rref_array(hom[:, ::-1], p)
        assert np.array_equal(x0, reduce_against_rref(b[i, right][::-1], echelon, cols, p)[::-1])


@pytest.mark.parametrize("kind", ["alternating", "symmetric", "general"])
@pytest.mark.parametrize("n", [64, 70])
def test_gf2_node_matches_general_node_past_63_columns(kind, n):
    # a packed row with a bit at column 63 or beyond does not fit an int64;
    # the budget stops most of these searches long before they are complete
    stack = sample_form_tuple(n, 2, kind, F2, 7).stack()
    for k in [None, 3]:
        for budget in [1, 40, 300]:
            got = _check_against_reference(stack, 2, k, budget)
            assert got.basis is None or got.basis.shape[1] == n
            with _general_node_at_p2():
                assert _same_search(got, largest_common_isotropic(stack, 2, k, budget=budget)), (k, budget)


def _counting_tries(node_type, tried):
    """node_type with every candidate its children yield counted in tried:
    tried[True] counts those that fail v M v = 0, tried[False] the nodes."""

    def nodes(*args):
        root, extend, to_array = node_type(*args)

        def counted_extend(node, pivots, min_pivot):
            leads, r, children = extend(node, pivots, min_pivot)

            def counted(i):
                for child in children(i):
                    tried[child is None] += 1
                    yield child

            return leads, r, counted

        return root, counted_extend, to_array

    return nodes


@pytest.mark.parametrize("p, kind", [(5, "general"), (3, "symmetric"), (2, "general")])
def test_budget_bounds_the_candidates_tried(p, kind):
    # on a stack that is not alternating, a candidate that fails v M v = 0 is
    # not a node, but it is tried, so it counts against the budget as well:
    # a search stops after at most budget + 1 tries, and reports budget + 1
    stack = sample_form_tuple(7, 3, kind, PrimeField(p), 0).stack()
    name = "_gf2_nodes" if p == 2 else "_general_nodes"
    tried = Counter()
    with mock.patch.object(search, name, _counting_tries(getattr(search, name), tried)):
        for k in (None, 3):
            for budget in (0, 5, 50):
                tried.clear()
                res = largest_common_isotropic(stack, p, k, budget=budget)
                assert not res.complete and res.nodes_visited == budget + 1, (k, budget)
                assert sum(tried.values()) <= budget + 1, (k, budget)
        # the tries past the nodes are the rejected candidates
        tried.clear()
        res = largest_common_isotropic(stack, p, 3, budget=10**6)
        assert res.complete and tried[True] > 0 and tried[False] == res.nodes_visited - 1


def test_p5_ties_are_cut():
    # one nondegenerate alternating form on GF(5)^6 gives a Lie algebra of
    # dim 7 with center of dim 1, whose largest abelian subalgebra is the
    # center plus a Lagrangian subspace: 1 + 3 = 4.  Many branches reach
    # dim 4; with ties expanded the search took 125 119 nodes
    forms = sample_form_tuple(6, 1, "alternating", F5, 11)
    assert len(rref_array(forms.stack()[0], 5)[1]) == 6
    alg = build_lie_from_forms(forms)
    res = max_abelian_exact(alg)
    assert (res.dim, res.nodes_visited, res.exact) == (4, 9499, True)
    assert is_abelian_subspace(alg, res.witness)


@pytest.mark.parametrize("n, t, k, p, dim", [(7, 5, 4, 2, 7), (7, 5, 4, 3, 7), (9, 5, 5, 2, 8)])
def test_exact_search_on_certified_algebras(n, t, k, p, dim):
    # the s = 8 and s = 9 pipeline algebras: the search on the complement of
    # the center is the class-2 search, node for node
    cert = certify_no_isotropic(n, t, k, PrimeField(p), seed=1000, max_attempts=1000)
    alg = build_lie_from_forms(cert.forms)
    exact, class2 = max_abelian_exact(alg), class2_exact_result(alg)
    assert exact.exact and exact.dim == class2.dim == dim
    assert exact.nodes_visited == class2.nodes_visited


# (s, p, transforms): each k = None search at s = 10, p = 3 takes about 1 s
@pytest.mark.parametrize("s, p, transforms", [(10, 2, 3), (11, 2, 2), (10, 3, 1)])
def test_answers_do_not_depend_on_coordinates(s, p, transforms):
    # for A in GL(n, p) and C in GL(t, p), the forms sum_u C[s, u] A^T M_u A
    # have as common isotropic subspaces those of M, carried by x -> x A^-T.
    # So on the certified stacks past the brute-force oracles' reach the
    # k-search still finds nothing, the largest dimension stays, and a witness
    # times A^T is isotropic for M; the tree, and so the node count, changes
    params = extremal_params(s)
    n, t, k = params.n, params.t, params.k
    stack = certify_no_isotropic(n, t, k, PrimeField(p), seed=1000).forms.stack()
    dim = largest_common_isotropic(stack, p).require_complete().basis.shape[0]
    rng = random.Random(s * 10 + p)
    for _ in range(transforms):
        a, c = random_invertible(p, n, rng), random_invertible(p, t, rng)
        moved = np.einsum("su,ba,ubc,cd->sad", c, a, stack, a) % p
        assert largest_common_isotropic(moved, p, k).require_complete().basis is None
        witness = largest_common_isotropic(moved, p).require_complete().basis
        assert witness.shape[0] == dim
        back = witness @ a.T % p
        assert len(rref_array(back, p)[1]) == dim
        assert not (np.einsum("ia,uab,jb->uij", back, stack, back) % p).any()


def _basis_change_cases():
    for s, p in [(10, 2), (9, 3)]:  # the certified seed-1000 Lie algebras
        params = extremal_params(s)
        cert = certify_no_isotropic(params.n, params.t, params.k, PrimeField(p), seed=1000)
        yield pytest.param(build_lie_from_forms(cert.forms), id=f"lie-s{s}-p{p}")
    yield pytest.param(matrix_algebra(3, F2), id="matrix-3")
    yield pytest.param(unitalize(build_assoc_from_forms(sample_form_tuple(6, 2, "general", F3, 7))), id="unitalized")


@pytest.mark.parametrize("alg", list(_basis_change_cases()))
def test_answers_do_not_depend_on_the_algebras_basis(alg):
    # the same algebra on the basis f_i = sum_k A[i, k] e_k keeps its largest
    # commutative subalgebra's dimension, and the witness, on the f's, is one;
    # carried back to the e's by A it is one of alg.  The tree, and so the
    # node count, changes with the basis
    res = max_abelian_exact(alg)
    rng = random.Random(alg.dim * 10 + alg.p)
    for _ in range(2):
        a = random_invertible(alg.p, alg.dim, rng)
        moved = change_of_basis(alg, a)
        got = max_abelian_exact(moved)
        assert got.exact and got.dim == res.dim
        assert is_abelian_subspace(moved, got.witness)
        assert is_abelian_subspace(alg, Subspace(alg.p, got.witness.basis @ a % alg.p))


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
    # a solver that finds nothing stops greedy after its first pick, which
    # leaves s = 1 + dim Z = 2, too small for the d = 5 Heisenberg algebra
    monkeypatch.setattr(search, "nullspace_array", lambda a, p: np.zeros((0, a.shape[1]), dtype=np.int64))
    with pytest.raises(ValueError, match="floor"):
        greedy_abelian_class2(StructureConstantAlgebra("lie", F2, 5, {(0, 1): [0, 0, 0, 0, 1], (2, 3): [0, 0, 0, 0, 1]}))


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


def _greedy_outcome(greedy, alg) -> str:
    """The greedy result's JSON text, or the message of the ValueError it raises."""
    try:
        return json.dumps(greedy(alg).to_json())
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_greedy_matches_the_whole_system_reference_byte_for_byte(p):
    # the carried solution space against solving every pick's whole system
    field = PrimeField(p)
    algs = [abelian(field, 4), heisenberg(field), abelian(field, 0)]
    for n, t in ((3, 2), (7, 4), (12, 5), (18, 6), (40, 8)):
        for seed in (1, 2):
            algs.append(build_lie_from_forms(sample_form_tuple(n, t, "alternating", field, seed)))
            algs.append(build_assoc_from_forms(sample_form_tuple(n, t, "general", field, seed)))
    for alg in algs:
        want = _greedy_outcome(reference_greedy, alg)
        assert want.startswith("{")
        assert _greedy_outcome(greedy_abelian_class2, alg) == want, (alg, want)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.sampled_from(["lie", "assoc"]),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_greedy_matches_the_reference_on_two_step_tables(p, kind, d, seed):
    # e_0..e_{n-1} multiply into e_n.. and nothing else multiplies, so the
    # class is at most 2; the tables need not be alternating or associative,
    # and some break the greedy bound, which both must report alike
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, d + 1))
    raw = np.zeros((d, d, d), dtype=np.int64)
    raw[:n, :n, n:] = rng.integers(0, p, (n, n, d - n)) * (rng.random((n, n, 1)) < 0.5)
    sc = {(i, j): raw[i, j] for i in range(d) for j in range(d) if raw[i, j].any()}
    alg = StructureConstantAlgebra(kind, PrimeField(p), d, sc)
    assert _greedy_outcome(greedy_abelian_class2, alg) == _greedy_outcome(reference_greedy, alg)


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


@st.composite
def search_results(draw):
    """Search results with a random witness in GF(p)^n (or none) and random fields."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 5))
    k = draw(st.integers(0, n))
    rows = draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    witness = draw(st.none() | st.just(Subspace.span(p, np.array(rows, dtype=np.int64).reshape(k, n), n)))
    dim = draw(st.integers(0, 40)) if witness is None else witness.dim
    mode = draw(st.sampled_from(["exact", "class2", "greedy"]))
    return SearchResult(mode, dim, witness, draw(st.booleans()), draw(st.none() | st.integers(0, 10**7)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(search_results())
def test_search_result_json_round_trips(res):
    obj = res.to_json()
    assert SearchResult.from_json(obj).to_json() == obj
    with pytest.raises(ValueError, match="'exact' must be JSON bool"):
        SearchResult.from_json(dict(obj, exact=int(res.exact)))


def test_search_result_json_rejects_a_witness_of_another_dim():
    obj = max_abelian_exact(heisenberg(F2)).to_json()
    with pytest.raises(ValueError, match="witness has dim 2"):
        SearchResult.from_json(dict(obj, dim=3))


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


@pytest.mark.parametrize("field", [F2, F3], ids=["p2", "p3"])
def test_subalgebra_closure_adds_the_missing_products(field):
    # in M_3, span(I, N) with N = E12 + E23 is not closed: N^2 = E13, and
    # span(I, N, N^2) is the commutative subalgebra of polynomials in N
    alg = matrix_algebra(3, field)
    e = np.eye(9, dtype=np.int64)  # E_ab is e[3a + b], 0-based
    start = Subspace.span(field.p, [e[0] + e[4] + e[8], e[1] + e[5]])
    with pytest.raises(NotASubalgebra):
        is_abelian_subspace(alg, start)
    closed = search._subalgebra_closure(alg, start)
    assert closed == start.sum(Subspace.span(field.p, [e[2]]))
    assert closed.dim == 3 and is_abelian_subspace(alg, closed)
