import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    PrimeField,
    Subspace,
    gaussian_binomial,
    is_prime,
)
from commdim import gf
from commdim.gf import matrix_from_json, matrix_to_json, nullspace_array, rref_array, solve_affine

from oracles import enumerate_subspaces, random_invertible


def test_prime_field_accepts_primes():
    for p in (2, 3, 5, 7, 8191):
        assert PrimeField(p).p == p


@pytest.mark.parametrize("bad", [0, 1, 4, 9, 8190, 8192, 10007])
def test_prime_field_rejects(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_rref_identity():
    m = np.eye(3, dtype=np.int64)
    rank, ech, pivots = rref_array(m, 5)
    assert rank == 3 and pivots == [0, 1, 2]
    assert np.array_equal(ech, m)


def test_rref_zero():
    rank, ech, pivots = rref_array(np.zeros((2, 4), dtype=np.int64), 2)
    assert rank == 0 and pivots == []
    assert ech.shape == (2, 4) and not ech.any()


def test_rref_dependent_rows():
    rank, ech, pivots = rref_array(np.array([[1, 1], [1, 1]]), 2)
    assert rank == 1 and pivots == [0]
    assert ech.tolist() == [[1, 1], [0, 0]]


def test_rref_idempotent():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
            m = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
            rank, ech, _ = rref_array(m, p)
            again_rank, again, _ = rref_array(ech[:rank], p)
            assert again_rank == rank and np.array_equal(again, ech[:rank])


def test_rref_canonical_under_row_operations():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            k, n = rng.randrange(1, 4), rng.randrange(2, 6)
            a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
            e = random_invertible(p, k, rng)
            _, ech1, _ = rref_array(a, p)
            _, ech2, _ = rref_array((e @ a) % p, p)
            assert np.array_equal(ech1, ech2)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(7, 4, 2) == 11811
    for n in range(6):
        assert gaussian_binomial(n, n, 3) == 1
        assert gaussian_binomial(n, 0, 5) == 1


def test_gaussian_binomial_symmetry():
    for n in range(8):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 3) == gaussian_binomial(n, n - k, 3)


def test_gaussian_binomial_domain_error():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 2)


def test_enumerate_line_in_plane():
    subs = list(enumerate_subspaces(2, 1, PrimeField(2)))
    found = {tuple(s.basis.reshape(-1)) for s in subs}
    assert found == {(1, 0), (0, 1), (1, 1)}


def test_enumerate_order_is_canonical():
    # pivot columns lexicographic, then free entries odometer-style
    got = [s.basis.tolist() for s in enumerate_subspaces(2, 1, PrimeField(2))]
    assert got == [[[1, 0]], [[1, 1]], [[0, 1]]]
    got3 = [s.basis.tolist() for s in enumerate_subspaces(2, 1, PrimeField(3))]
    assert got3 == [[[1, 0]], [[1, 1]], [[1, 2]], [[0, 1]]]
    pivots = [s.pivots for s in enumerate_subspaces(4, 2, PrimeField(2))]
    assert pivots == sorted(pivots)


def test_enumerate_full_space():
    subs = list(enumerate_subspaces(3, 3, PrimeField(3)))
    assert len(subs) == 1
    assert subs[0] == Subspace.span(3, np.eye(3, dtype=int))


def test_enumerate_planes_in_four_space():
    subs = list(enumerate_subspaces(4, 2, PrimeField(2)))
    assert len(subs) == 35
    assert len(set(subs)) == 35


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_complete_and_canonical(p):
    field = PrimeField(p)
    for n in range(6):
        for k in range(n + 1):
            seen = set()
            for sub in enumerate_subspaces(n, k, field):
                rank, ech, _ = rref_array(sub.basis, p)
                assert rank == k and np.array_equal(ech, sub.basis)  # already canonical
                seen.add(sub)
            assert len(seen) == gaussian_binomial(n, k, p)


def test_matrix_json_round_trip():
    m = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    obj = matrix_to_json(7, m)
    assert obj == {"p": 7, "rows": 2, "cols": 3, "entries": [1, 2, 3, 4, 5, 6]}
    p, back = matrix_from_json(obj)
    assert p == 7 and back.dtype == np.int64 and np.array_equal(back, m)
    # ints outside [0, p), even beyond int64, are reduced before numpy sees them
    p, big = matrix_from_json(dict(obj, entries=[7**40 + 1, -1, 0, 0, 0, 0]))
    assert big.tolist() == [[1, 6, 0], [0, 0, 0]]
    for bad in (dict(obj, p=6), dict(obj, rows=True), dict(obj, entries=[1, 2, 3]), dict(obj, entries=[1.0] * 6)):
        with pytest.raises(ValueError):
            matrix_from_json(bad)


def test_subspace_canonical_equality():
    s1 = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    s2 = Subspace.span(3, [[2, 2, 0], [1, 2, 1]])  # same row space
    assert s1 == s2
    assert hash(s1) == hash(s2)
    assert s1.dim == 2


def test_subspace_membership_and_lattice():
    s = Subspace.span(2, [[1, 0, 1], [0, 1, 1]])
    assert s.contains_vector([1, 1, 0])
    assert not s.contains_vector([1, 1, 1])
    t = Subspace.span(2, [[1, 0, 1]])
    assert s.contains(t)
    assert s.sum(t) == s
    with pytest.raises(ValueError, match="do not lie"):  # rows of width 3 in GF(2)^2
        Subspace.span(2, [[1, 0, 1], [0, 1, 1]], 2)


def test_subspace_span_of_no_rows():
    assert Subspace.span(2, [], 3) == Subspace.zero(2, 3)
    z = Subspace.span(2, [], 0)
    assert z.dim == 0 and z.ambient_dim == 0


def test_subspace_json_round_trip():
    s = Subspace.span(3, [[1, 2, 0], [0, 0, 1]])
    assert Subspace.from_json(s.to_json()) == s
    with pytest.raises(ValueError, match="ambient dim"):
        Subspace.from_json(dict(s.to_json(), ambient_dim=4))


def test_subspace_basis_is_read_only_and_reduced():
    for s in (
        Subspace(5, [[2, 4, 7], [0, 0, 9]]),
        Subspace(5, np.array([[1, 2, 6]]), _canonical=True),
        Subspace.span(5, [[-4, 7, 0]]),
        Subspace.zero(5, 3),
    ):
        assert s.basis.dtype == np.int64 and s.basis.ndim == 2 and s.ambient_dim == 3
        assert not s.basis.flags.writeable
        assert ((0 <= s.basis) & (s.basis < 5)).all()
        assert s.pivots == tuple(int(np.flatnonzero(row)[0]) for row in s.basis)
        with pytest.raises(ValueError):
            s.basis[..., 0] = 1
    assert Subspace(5, [[2, 4, 7], [0, 0, 9]]).basis.tolist() == [[1, 2, 0], [0, 0, 1]]


def test_solve_affine():
    p = 5
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)
    b = np.array([3, 6], dtype=np.int64)
    x0, hom = solve_affine(a, b, p)
    assert ((a @ x0) % p).tolist() == [3, 1]  # 6 mod 5
    assert hom.shape[0] == 1
    assert solve_affine(a, np.array([1, 0]), p) is None


# shapes with no rows or columns, and shapes just below, at and above the
# cell count where the kernels switch from Python lists to numpy
_T = gf.SMALL_MATRIX_CELLS
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.sampled_from([(_T // c + d, c) for c in (8, 16, 32) for d in (-1, 0, 1)]),
)


@st.composite
def gf_systems(draw):
    """(p, a, b): a is unreduced with rank at most k, zeroed rows and columns,
    and b lies in a's column space or is drawn at random."""
    p = draw(st.sampled_from([2, 3, 5, 8191]))
    rows, cols = draw(_SHAPES)
    k = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, p, (rows, k)) @ rng.integers(0, p, (k, cols))
    a[rng.random(rows) < 0.2] = 0
    a[:, rng.random(cols) < 0.2] = 0
    b = a @ rng.integers(0, p, cols) if draw(st.booleans()) else rng.integers(0, p, rows)
    return p, a, b


def _identical(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
    if isinstance(x, (tuple, list)):
        return type(x) is type(y) and len(x) == len(y) and all(map(_identical, x, y))
    return type(x) is type(y) and x == y


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gf_systems())
def test_list_and_numpy_paths_agree_bit_for_bit(system):
    p, a, b = system
    for fn, args in ((rref_array, (a, p)), (nullspace_array, (a, p)), (solve_affine, (a, b, p))):
        with mock.patch.object(gf, "SMALL_MATRIX_CELLS", -1):
            numpy_path = fn(*args)
        with mock.patch.object(gf, "SMALL_MATRIX_CELLS", 10**9):
            list_path = fn(*args)
        assert _identical(list_path, numpy_path), fn.__name__
        assert _identical(fn(*args), numpy_path), fn.__name__


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gf_systems())
def test_nullspace_solves(system):
    p, a, _ = system
    rows, cols = a.shape
    rank = rref_array(a, p)[0]
    for cells in (-1, 10**9):  # the numpy path, then the list path
        with mock.patch.object(gf, "SMALL_MATRIX_CELLS", cells):
            ns = nullspace_array(a, p)
        assert ns.shape == (cols - rank, cols)
        assert not ((a @ ns.T) % p).any()
        ns_rank, ns_rref, _ = rref_array(ns, p)
        assert ns_rank == ns.shape[0] and np.array_equal(ns_rref, ns)  # the canonical basis
