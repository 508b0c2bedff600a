import json
import math
import random

import numpy as np
import pytest

from commdim import (
    FormTuple,
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    build_assoc_from_forms,
    build_lie_from_forms,
    center,
    certify_no_isotropic,
    extremal_params,
    find_common_isotropic,
    is_abelian_subspace,
    matrix_algebra,
    matrix_commutative_subalgebra,
    nilpotency_class,
    sample_form_tuple,
    unitalize,
    verify_axioms,
)
from commdim.gf import SIZE_DIGITS
from commdim.construct import ExtremalParams

F2 = PrimeField(2)
F3 = PrimeField(3)


# ---------------------------------------------------------------- parameters


def test_extremal_params_spec_values():
    assert extremal_params(4) == ExtremalParams(4, 1, 3, 2)
    assert extremal_params(5) == ExtremalParams(5, 2, 3, 3)
    assert extremal_params(8) == ExtremalParams(8, 7, 5, 4)


def test_extremal_params_prints_up_to_its_bound_and_refuses_past_it():
    largest = 10**SIZE_DIGITS - 1
    for s in (largest - 1, largest):  # both parities
        assert json.loads(json.dumps(extremal_params(s).to_json()))["s"] == s
    with pytest.raises(ValueError, match=rf"^s must be below 10\*\*{SIZE_DIGITS}$"):
        extremal_params(largest + 1)
    for bad in (2.5, 8.0, True):
        with pytest.raises(ValueError, match=rf"^s must be an int, got {bad!r}$"):
            extremal_params(bad)


def test_extremal_params_invariants():
    for s in range(2, 41):
        p = extremal_params(s)
        assert p.n >= 0 and p.t >= 1 and p.k >= 1
        assert p.n + p.t >= math.ceil((s * s + 4 * s - 5) / 8)
        if s >= 4 and p.n >= 1:
            assert 2 * p.n < p.t * (p.k - 1)


def test_extremal_params_domain_error():
    with pytest.raises(ValueError):
        extremal_params(1)


def test_extremal_params_json():
    p = extremal_params(6)
    assert ExtremalParams.from_json(p.to_json()) == p


# ---------------------------------------------------------------- Lie construction


def test_lie_from_symplectic_is_heisenberg():
    j = [[0, 1], [-1, 0]]
    for p in (2, 3, 5):
        ft = FormTuple(2, 1, "alternating", PrimeField(p), [j])
        alg = build_lie_from_forms(ft)
        assert alg.kind == "lie" and alg.dim == 3
        assert alg.sc.keys() == {(0, 1)}
        assert alg.sc[(0, 1)].tolist() == [0, 0, 1]
        assert verify_axioms(alg).passed


def test_lie_from_zero_forms_is_abelian():
    ft = FormTuple(2, 2, "alternating", F2, [np.zeros((2, 2), int)] * 2)
    alg = build_lie_from_forms(ft)
    assert alg.dim == 4
    assert nilpotency_class(alg) == 1
    assert not alg.sc


def test_lie_from_certified_tuple():
    cert = certify_no_isotropic(7, 5, 4, F2, seed=1000, max_attempts=1000)
    alg = build_lie_from_forms(cert.forms)
    assert alg.dim == 12
    assert nilpotency_class(alg) == 2
    assert verify_axioms(alg).passed


def test_lie_construction_invariants():
    rng = random.Random(20240811)
    for _ in range(15):
        p = rng.choice([2, 3, 5])
        n = rng.randrange(1, 5)
        t = rng.randrange(1, 4)
        ft = sample_form_tuple(n, t, "alternating", PrimeField(p), rng.randrange(10**6))
        alg = build_lie_from_forms(ft)
        assert alg.dim == n + t
        cls = nilpotency_class(alg)
        assert cls in (1, 2)
        z = center(alg)
        u_block = np.concatenate([np.zeros((t, n), np.int64), np.eye(t, dtype=np.int64)], axis=1)
        assert all(z.contains_vector(row) for row in u_block)
        assert verify_axioms(alg).passed


def test_lie_construction_rejects_non_alternating():
    ft = FormTuple(2, 1, "general", F2, [[[1, 0], [0, 0]]])
    with pytest.raises(ValueError):
        build_lie_from_forms(ft)


def test_isotropic_witness_spans_abelian_subalgebra():
    rng = random.Random(7)
    for _ in range(10):
        n, t = rng.randrange(2, 5), rng.randrange(1, 4)
        ft = sample_form_tuple(n, t, "alternating", F2, rng.randrange(10**6))
        alg = build_lie_from_forms(ft)
        for k in range(n + 1):
            w = find_common_isotropic(ft, k)
            if w is None:
                continue
            emb = np.zeros((k, n + t), dtype=np.int64)
            emb[:, :n] = w.basis
            u_rows = np.concatenate([np.zeros((t, n), np.int64), np.eye(t, dtype=np.int64)], axis=1)
            span = Subspace.span(2, np.concatenate([emb, u_rows]), n + t)
            assert span.dim == k + t
            assert is_abelian_subspace(alg, span)


# ---------------------------------------------------------------- associative construction


def test_assoc_zero_forms_commutative():
    ft = FormTuple(2, 2, "general", F2, [np.zeros((2, 2), int)] * 2)
    alg = build_assoc_from_forms(ft)
    assert alg.dim == 4
    assert is_abelian_subspace(alg, Subspace.span(2, np.eye(4, dtype=int)))


def test_assoc_nonsymmetric_form():
    ft = FormTuple(2, 1, "general", F2, [[[0, 1], [0, 0]]])
    alg = build_assoc_from_forms(ft)
    assert verify_axioms(alg).passed
    assert alg.product([1, 0, 0], [0, 1, 0]).tolist() == [0, 0, 1]
    assert alg.product([0, 1, 0], [1, 0, 0]).tolist() == [0, 0, 0]
    assert is_abelian_subspace(alg, Subspace.span(2, [[1, 0, 0], [0, 0, 1]]))
    # e1, e2 do not commute: the form is not symmetric on their span
    comm = (alg.product([1, 0, 0], [0, 1, 0]) - alg.product([0, 1, 0], [1, 0, 0])) % 2
    assert comm.any()


def test_assoc_symmetric_form_fully_commutative():
    ft = FormTuple(2, 1, "general", F2, [[[1, 1], [1, 0]]])
    alg = build_assoc_from_forms(ft)
    assert is_abelian_subspace(alg, Subspace.span(2, np.eye(3, dtype=int)))


def test_assoc_triple_products_vanish():
    rng = random.Random(3)
    for _ in range(5):
        ft = sample_form_tuple(3, 2, "general", F3, rng.randrange(10**6))
        alg = build_assoc_from_forms(ft)
        assert verify_axioms(alg).passed
        assert nilpotency_class(alg) in (1, 2)


# ---------------------------------------------------------------- unitalization


def test_unitalize_zero_algebra():
    a = StructureConstantAlgebra("assoc", F2, 1, {})
    u = unitalize(a)
    assert u.dim == 2
    assert verify_axioms(u).passed
    t = u.table()
    assert t[0, 0].tolist() == [0, 0]  # x * x = 0
    assert t[0, 1].tolist() == [1, 0] and t[1, 0].tolist() == [1, 0]
    assert t[1, 1].tolist() == [0, 1]


def test_unitalize_form_algebra():
    ft = FormTuple(2, 1, "general", F2, [[[0, 1], [0, 0]]])
    a = build_assoc_from_forms(ft)
    u = unitalize(a)
    assert u.dim == 4
    assert verify_axioms(u).passed
    t = u.table()
    eye = np.eye(4, dtype=np.int64)
    for i in range(4):
        assert np.array_equal(t[i, 3], eye[i])
        assert np.array_equal(t[3, i], eye[i])
    # original products preserved
    assert np.array_equal(t[:3, :3, :3], a.table())


def test_unitalize_twice_outer_identity_absorbs():
    a = StructureConstantAlgebra("assoc", F3, 1, {})
    uu = unitalize(unitalize(a))
    assert uu.dim == 3
    assert verify_axioms(uu).passed
    t = uu.table()
    eye = np.eye(3, dtype=np.int64)
    for i in range(3):
        assert np.array_equal(t[i, 2], eye[i])
        assert np.array_equal(t[2, i], eye[i])
    # the inner former identity is idempotent but no longer a global identity
    assert np.array_equal(t[1, 1], eye[1])
    assert np.array_equal(t[0, 1], eye[0])


def test_unitalize_rejects_lie():
    with pytest.raises(ValueError):
        unitalize(StructureConstantAlgebra("lie", F2, 2, {}))


# ---------------------------------------------------------------- matrix algebras


def test_matrix_algebra_axioms():
    for r, p in ((2, 2), (3, 3), (4, 2)):
        m = matrix_algebra(r, PrimeField(p))
        assert m.dim == r * r
        assert verify_axioms(m).passed


def test_matrix_algebra_cap():
    with pytest.raises(ValueError):
        matrix_algebra(13, F2)
    with pytest.raises(ValueError):
        matrix_algebra(0, F2)


def test_corner_r1_whole_algebra():
    ambient, sub = matrix_commutative_subalgebra(1, F2, "corner")
    assert ambient.dim == 1 and sub.dim == 1


def test_corner_r4_dims():
    ambient, sub = matrix_commutative_subalgebra(4, F2, "corner")
    assert sub.dim == 4 and ambient.dim == 16
    assert ambient.dim == 4 * sub.dim


def test_corner_r5_ratio():
    ambient, sub = matrix_commutative_subalgebra(5, F3, "corner")
    assert sub.dim == 6 and ambient.dim == 25
    assert 2 * ambient.dim <= 9 * sub.dim


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", range(2, 10))
def test_corner_construction_table(r, p):
    ambient, sub = matrix_commutative_subalgebra(r, PrimeField(p), "corner")
    k = r // 2
    expected = k * k if r % 2 == 0 else k * (k + 1)
    assert sub.dim == expected
    assert is_abelian_subspace(ambient, sub)
    assert 2 * ambient.dim <= 9 * sub.dim


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("r", range(1, 10))
def test_diagonal_construction(r, p):
    ambient, sub = matrix_commutative_subalgebra(r, PrimeField(p), "diagonal")
    assert sub.dim == r
    assert is_abelian_subspace(ambient, sub)


def test_unknown_construction():
    with pytest.raises(ValueError):
        matrix_commutative_subalgebra(2, F2, "block")
