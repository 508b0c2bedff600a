import random
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    FormTuple,
    PrimeField,
    StructureConstantAlgebra,
    Subspace,
    gaussian_binomial,
    is_prime,
)
from commdim import gf
from commdim.algebra import MAX_ALGEBRA_DIM, pairwise_products
from commdim.search import largest_common_isotropic
from commdim.gf import MAX_PRIME, matrix_from_json, matrix_to_json, nullspace_array, rref_array, solve_affine

from oracles import enumerate_subspaces, random_invertible, reference_reduce


def test_non_integral_values_are_rejected_not_truncated():
    for make in (Subspace, Subspace.span):
        with pytest.raises(ValueError, match="non-integral 1.5"):
            make(3, [[1.5, 0.7]])
    with pytest.raises(ValueError, match="non-integral 0.5"):
        FormTuple(2, 1, "general", PrimeField(3), [[[0.5, 1.2], [2.9, 0]]])
    with pytest.raises(ValueError, match="non-integral 1.9"):
        StructureConstantAlgebra("lie", PrimeField(2), 3, {(0, 1): [0, 0, 1.9]})
    # keys go through operator.index, which refuses a float
    with pytest.raises(TypeError, match="integer"):
        StructureConstantAlgebra("lie", PrimeField(2), 3, {(0.9, 1): [0, 0, 1.9]})
    for bad in ([np.nan], [np.inf], ["1"], [Fraction(3, 2)], [None], ["a"], [1 + 0j], 1.5):
        with pytest.raises(ValueError, match="non-integral"):
            gf.as_gf_array(bad, 3)
    # the GF(p) kernels and the search engine read such input as as_gf_array does
    alg = StructureConstantAlgebra("lie", PrimeField(3), 2, {})
    for call, bad in (
        (lambda: rref_array(np.array([[1.5, 0.0]]), 3), "1.5"),
        (lambda: nullspace_array(np.array([[1.9, 1.0]]), 3), "1.9"),
        (lambda: solve_affine(np.array([[1.5, 0.0]]), [1], 3), "1.5"),
        (lambda: solve_affine([[1, 0]], np.array([0.5]), 3), "0.5"),
        (lambda: largest_common_isotropic(np.array([[[0, 1.5], [1.5, 0]]]), 3), "1.5"),
        (lambda: pairwise_products(alg, np.array([[0.5, 1.0]])), "0.5"),
    ):
        with pytest.raises(ValueError, match=f"non-integral {bad}"):
            call()
    # integral floats, such as np.eye's default output, read as their ints
    assert Subspace(3, np.eye(2)) == Subspace(3, np.eye(2, dtype=np.int64))
    assert _identical(rref_array(np.eye(2), 3), rref_array(np.eye(2, dtype=np.int64), 3))
    assert gf.as_gf_array([[4.0, -1.0]], 3).tolist() == [[1, 2]]
    assert gf.as_gf_array([True, False], 3).tolist() == [1, 0]
    # and so does 0-d input
    assert gf.as_gf_array(1.0, 3).tolist() == 1 and gf.as_gf_array(np.array(3.0), 3).tolist() == 0
    assert gf.as_gf_array(2**70, 3).tolist() == 2**70 % 3
    # a vector of one integral value is not a vector of length 1
    for value in (1.0, 2**70):
        with pytest.raises(ValueError, match="has wrong length"):
            StructureConstantAlgebra("lie", PrimeField(3), 1, {(0, 0): value})


@pytest.mark.parametrize("big", [2**63, 2**64 - 1, 2**70, -(2**70)])
def test_ints_beyond_int64_reduce_exactly(big):
    # numpy reads 2^63 and 2^64 - 1 as uint64, which an int64 cast would
    # wrap, and 2^70 as a Python object; the JSON readers reduce such ints
    # mod p, and so must the Python constructors
    assert gf.as_gf_array([[big, 2**64 - 1]], 3).tolist() == [[big % 3, 0]]
    assert Subspace(5, [[1, big]]).basis.tolist() == [[1, big % 5]]
    assert Subspace.span(5, [[1, big]]) == Subspace(5, [[1, big % 5]])
    a = StructureConstantAlgebra("lie", PrimeField(5), 3, {(0, 1): [0, big, 2**64 - 1]})
    assert a.table()[0, 1].tolist() == [0, big % 5, (2**64 - 1) % 5]
    # and so must the GF(p) kernels and the search engine
    m, r = [[1, big, 2]], [[1, big % 5, 2]]
    assert _identical(rref_array(m, 5), rref_array(r, 5))
    assert _identical(nullspace_array(m, 5), nullspace_array(r, 5))
    assert _identical(solve_affine(m, [big], 5), solve_affine(r, [big % 5], 5))
    stack, reduced = [[[0, big, 0], [-big, 0, 1], [0, 4, 0]]], [[[0, big % 5, 0], [-big % 5, 0, 1], [0, 4, 0]]]
    assert _identical(largest_common_isotropic(stack, 5), largest_common_isotropic(reduced, 5))
    lie = StructureConstantAlgebra("lie", PrimeField(5), 3, {(0, 1): [0, 0, 1]})
    assert _identical(pairwise_products(lie, m), pairwise_products(lie, r))


def test_as_gf_array_returns_only_a_large_reduced_int64_array_itself():
    p, big = 5, gf.SMALL_MATRIX_CELLS + 1
    for cells in (gf.SMALL_MATRIX_CELLS, big):
        a = np.arange(cells, dtype=np.int64) % p
        assert (gf.as_gf_array(a, p) is a) == (cells == big)
        shifted = a - 1  # -1 reads as p - 1
        got = gf.as_gf_array(shifted, p)
        assert got is not shifted and got.dtype == np.int64
        assert got.tolist() == [(x - 1) % p for x in a.tolist()] and shifted.min() == -1
        # another dtype is read into a new int64 array
        assert gf.as_gf_array(a.astype(np.int32), p).tolist() == a.tolist()


@pytest.mark.parametrize("n", [4, 24], ids=["small", "large"])
def test_constructors_own_their_arrays(n):
    # as_gf_array may return its argument, so a constructor that freezes its
    # array must neither freeze a caller's array nor follow the caller's writes
    p, field = 3, PrimeField(3)
    rng = np.random.default_rng(n)
    upper = np.triu(rng.integers(0, p, (1, n, n)), 1)
    mats = (upper - upper.transpose(0, 2, 1)) % p
    basis = rng.integers(0, p, (n, 2)) @ rng.integers(0, p, (2, n)) % p
    rows = rng.integers(0, p, (n - 1, n))
    before = {
        "forms": FormTuple(n, 1, "alternating", field, mats).stack(),
        "subspace": Subspace(p, basis).basis,
        "span": Subspace.span(p, basis).basis,
        "algebra": StructureConstantAlgebra("assoc", field, n, {(0, j): rows[j - 1] for j in range(1, n)}).table(),
    }
    want = {name: a.copy() for name, a in before.items()}
    for a in (mats, basis, rows):
        assert a.flags.writeable and (a.size > gf.SMALL_MATRIX_CELLS) == (n == 24)
        a += 1
    for name, a in before.items():
        assert np.array_equal(a, want[name]), name


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
    ech, pivots = rref_array(m, 5)
    assert pivots == [0, 1, 2]
    assert np.array_equal(ech, m)


def test_rref_zero():
    ech, pivots = rref_array(np.zeros((2, 4), dtype=np.int64), 2)
    assert pivots == []
    assert ech.shape == (0, 4)


def test_rref_dependent_rows():
    ech, pivots = rref_array(np.array([[1, 1], [1, 1]]), 2)
    assert pivots == [0]
    assert ech.tolist() == [[1, 1]]


def test_rref_idempotent():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(25):
            rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
            m = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
            ech, pivots = rref_array(m, p)
            again, again_pivots = rref_array(ech, p)
            assert again_pivots == pivots and np.array_equal(again, ech)


def test_rref_canonical_under_row_operations():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(20):
            k, n = rng.randrange(1, 4), rng.randrange(2, 6)
            a = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(k)], dtype=np.int64)
            e = random_invertible(p, k, rng)
            ech1, _ = rref_array(a, p)
            ech2, _ = rref_array((e @ a) % p, p)
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
                ech, _ = rref_array(sub.basis, p)
                assert np.array_equal(ech, sub.basis)  # already canonical, of rank k
                seen.add(sub)
            assert len(seen) == gaussian_binomial(n, k, p)


def test_matrix_json_round_trip():
    m = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    obj = matrix_to_json(7, m)
    assert obj == {"p": 7, "rows": 2, "cols": 3, "entries": [1, 2, 3, 4, 5, 6]}
    p, back = matrix_from_json(obj)
    assert p == 7 and back.dtype == np.int64 and np.array_equal(back, m)
    # ints outside [0, p), even beyond int64, are reduced exactly; numpy
    # reads the second list as float64, which cannot hold 2^63 - 1
    for entries in ([7**40 + 1, -1, 0, 0, 0, 0], [-1, 2**63, 2**63 - 1, 0, 0, 0]):
        p, big = matrix_from_json(dict(obj, entries=entries))
        assert big.dtype == np.int64 and big.reshape(-1).tolist() == [x % 7 for x in entries]
    for bad, message in (
        (dict(obj, p=6), "not prime"),
        (dict(obj, rows=True), "field 'rows' must be JSON int"),
        (dict(obj, entries=[1, 2, 3]), "entry count"),
        (dict(obj, entries=[1.0] * 6), "field 'entries' must be JSON ints"),
        # numpy would read -1 as a dimension to infer
        (dict(obj, rows=-1, cols=-1, entries=[1]), "rows and cols must be at least 0, got -1 and -1"),
        (dict(obj, rows=0, cols=-1, entries=[]), "rows and cols must be at least 0, got 0 and -1"),
        (dict(obj, rows=-1, cols=0, entries=[]), "rows and cols must be at least 0, got -1 and 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            matrix_from_json(bad)
    with pytest.raises(ValueError, match="rows and cols must be at least 0"):
        Subspace.from_json({"ambient_dim": -1, "basis": dict(obj, rows=0, cols=-1, entries=[])})


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


def test_contains_vector_refuses_a_vector_of_another_length():
    # broadcast against the basis, [1] once read as inside span(1, 1, 1)
    s = Subspace(3, [[1, 1, 1]])
    for v in ([1], [1, 1, 1, 1], [[1, 1, 1]]):
        with pytest.raises(ValueError, match="does not lie"):
            s.contains_vector(v)


def test_contains_refuses_a_subspace_of_another_space():
    # the GF(5) span of (1, 0, 0) once read as inside a GF(3) subspace
    s = Subspace(3, [[1, 0, 0]])
    for other in (Subspace.span(5, [[1, 0, 0]]), Subspace.span(3, [[1, 0, 0, 0]])):
        with pytest.raises(ValueError, match="does not lie"):
            s.contains(other)


def test_sum_refuses_a_subspace_of_another_space():
    # the GF(5) basis was once reduced mod 3
    s = Subspace(3, [[1, 0, 0]])
    for other in (Subspace(5, [[4, 0, 0], [0, 1, 0]]), Subspace(3, [[0, 1]])):
        with pytest.raises(ValueError, match="does not lie"):
            s.sum(other)


@st.composite
def residual_cases(draw):
    """(v, RREF basis, its pivots, p) with v one vector, a stack of them or a
    (k, k, n) tensor, random or in the basis's span; the basis may be empty."""
    p = draw(st.sampled_from([2, 3, 8191]))
    n = draw(st.integers(0, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    red, pivots = rref_array(rng.integers(0, p, (draw(st.integers(0, n)), n)), p)
    shape = draw(st.sampled_from([(), (4,), (3, 3)]))
    if draw(st.booleans()):
        v = rng.integers(0, p, shape + (len(red),)) @ red % p
    else:
        v = rng.integers(0, p, shape + (n,))
    return v, red, pivots, p


@settings(derandomize=True, max_examples=200, deadline=None)
@given(residual_cases())
def test_reduce_against_rref_matches_the_per_pivot_loop(case):
    v, basis, pivots, p = case
    got = gf.reduce_against_rref(v, basis, pivots, p)
    assert got.shape == v.shape
    assert np.array_equal(got, reference_reduce(v, basis, pivots, p))
    assert not got[..., pivots].any()


@st.composite
def form_stacks(draw):
    """(p, stack): a (m, n, n) stack over GF(p), random or alternating but
    for up to two random entries, so that single defects occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.integers(0, p, (m, n, n))
    if draw(st.booleans()):
        upper = np.triu(stack, 1)
        stack = (upper - upper.transpose(0, 2, 1)) % p
        for _ in range(draw(st.integers(0, 2)) if m and n else 0):
            stack[tuple(rng.integers(0, (m, n, n)))] = rng.integers(0, p)
    return p, stack


@settings(derandomize=True, max_examples=300, deadline=None)
@given(form_stacks())
def test_alternation_defects_match_the_per_entry_loop(case):
    p, stack = case
    n = stack.shape[1]
    want = np.zeros((n, n), dtype=bool)
    for form in stack.tolist():
        for i in range(n):
            for j in range(n):
                if (form[i][i] if i == j else form[i][j] + form[j][i]) % p:
                    want[i, j] = True
    got = gf.alternation_defects(stack, p)
    assert got.dtype == bool and np.array_equal(got, want)


def test_subspace_span_of_no_rows():
    assert Subspace.span(2, [], 3) == Subspace.zero(2, 3)
    z = Subspace.span(2, [], 0)
    assert z.dim == 0 and z.ambient_dim == 0


def test_subspace_json_round_trip():
    s = Subspace.span(3, [[1, 2, 0], [0, 0, 1]])
    assert Subspace.from_json(s.to_json()) == s
    with pytest.raises(ValueError, match="ambient dim"):
        Subspace.from_json(dict(s.to_json(), ambient_dim=4))


@st.composite
def subspaces(draw):
    """Spans of up to n random rows in GF(p)^n, n <= 5."""
    p, n = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 5))
    k = draw(st.integers(0, n))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=k * n, max_size=k * n))
    return Subspace.span(p, np.array(entries, dtype=np.int64).reshape(k, n), n)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(subspaces())
def test_subspace_json_round_trips(s):
    obj = s.to_json()
    assert Subspace.from_json(obj).to_json() == obj
    longer = dict(obj["basis"], entries=obj["basis"]["entries"] + [0])
    with pytest.raises(ValueError, match="entry count"):
        Subspace.from_json(dict(obj, basis=longer))


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


# shapes with no rows or columns, shapes just below, at and above the cell
# count above which zero rows are dropped first, and tall shapes, which are
# reduced in blocks: the center systems of d = 12 and d = 24
_T = gf.SMALL_MATRIX_CELLS
_SHAPES = st.one_of(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    st.sampled_from([(_T // c + d, c) for c in (8, 16, 32) for d in (-1, 0, 1)]),
    st.sampled_from([(144, 12), (576, 24)]),
)


def _block_of_row(rows: int, cols: int) -> np.ndarray:
    """The index of the block of the tall path that each row falls in: the
    blocks hold cols rows, then twice as many each time."""
    return np.array([(i // cols + 1).bit_length() - 1 for i in range(rows)], dtype=np.int64)


@st.composite
def gf_systems(draw):
    """(p, a, b): a is unreduced with rank at most k, and b lies in a's column
    space or is drawn at random.  The rows of a come in random order, with a
    fifth or nine tenths of them and a fifth of the columns zeroed, or in an
    order where each block of the tall path adds one dimension: a row of block
    j combines the first j + 1 rows of a random basis, the last one nonzero."""
    p = draw(st.sampled_from([2, 3, 5, 8191]))
    rows, cols = draw(_SHAPES)
    k = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = rng.integers(0, p, (rows, k))
    ordered = cols > 0 and draw(st.booleans())
    if ordered:
        block = _block_of_row(rows, cols)
        coef[np.arange(k)[None, :] > block[:, None]] = 0
        last = block < k
        coef[last, block[last]] = rng.integers(1, p, int(last.sum()))
    a = coef @ rng.integers(0, p, (k, cols))
    if not ordered:
        a[rng.random(rows) < draw(st.sampled_from([0.2, 0.9]))] = 0
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
    # on every path an RREF is its nonzero rows, one per pivot column
    for cells in (-1, 10**9, gf.SMALL_MATRIX_CELLS):
        with mock.patch.object(gf, "SMALL_MATRIX_CELLS", cells):
            basis, pivots = rref_array(a, p)
        assert basis.shape == (len(pivots), a.shape[1]) and basis.any(axis=1).all()
        assert basis[np.arange(len(pivots)), pivots].tolist() == [1] * len(pivots)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(gf_systems())
def test_nullspace_solves(system):
    p, a, _ = system
    rows, cols = a.shape
    rank = len(rref_array(a, p)[1])
    for cells in (-1, 10**9):  # zero-row drop and blocks, then direct elimination
        with mock.patch.object(gf, "SMALL_MATRIX_CELLS", cells):
            ns = nullspace_array(a, p)
        assert ns.shape == (cols - rank, cols)
        assert not ((a @ ns.T) % p).any()
        assert np.array_equal(rref_array(ns, p)[0], ns)  # the canonical basis


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gf_systems())
def test_rref_leaves_its_input_alone_whether_reduced_or_not(system):
    # a reduced input skips the mod and reaches the elimination as it is, which must not write to it
    p, a, _ = system
    outputs = []
    with mock.patch.object(gf, "SMALL_MATRIX_CELLS", -1):
        for m in (a, a % p, a % p - p):
            before = m.copy()
            outputs.append(rref_array(m, p))
            assert np.array_equal(m, before)
    assert _identical(outputs[0], outputs[1]) and _identical(outputs[0], outputs[2])


@pytest.mark.parametrize("rows", [MAX_ALGEBRA_DIM, 4 * MAX_ALGEBRA_DIM])
def test_elimination_at_the_largest_prime_and_dimension(rows):
    # the square case is reduced directly, the tall one in blocks
    p, cols = MAX_PRIME, MAX_ALGEBRA_DIM
    rng = np.random.default_rng(rows)
    a = rng.integers(0, p, (rows, 120)) @ rng.integers(0, p, (120, cols)) % p
    rank = len(rref_array(a, p)[1])
    ns = nullspace_array(a, p)
    assert rank == 120 and rank + ns.shape[0] == cols
    assert not ((a @ ns.T) % p).any()
    assert np.array_equal(rref_array(ns, p)[0], ns)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PrimeField(True), "field order must be an int"),
        (lambda: PrimeField(3.0), "field order must be an int"),
        (lambda: Subspace(3, [1, 2]), "basis must be 2-dimensional"),
        (lambda: Subspace(3, [[[1]]]), "basis must be 2-dimensional"),
        (lambda: gaussian_binomial(3, 1, 1), "q must be at least 2"),
    ],
    ids=["bool-order", "float-order", "vector-basis", "3d-basis", "q-below-2"],
)
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
