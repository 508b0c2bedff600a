import hashlib
import json
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commdim import (
    CertificationFailed,
    EnumerationTooLarge,
    FormTuple,
    GenericityCertificate,
    PrimeField,
    Subspace,
    certify_no_isotropic,
    find_common_isotropic,
    gaussian_binomial,
    is_common_isotropic,
    largest_common_isotropic,
    reverify_certificate,
    sample_form_tuple,
)
from commdim import forms
from commdim.algebra import MAX_ALGEBRA_DIM
from commdim.forms import FORM_KINDS, MODE_ISOTROPIC, MODE_SYMMETRIC

from oracles import (
    brute_force_max_isotropic,
    enumerate_subspaces,
    first_common_isotropic,
    random_invertible,
    reference_common_isotropic,
    restrictions_vanish,
)

F2 = PrimeField(2)
F3 = PrimeField(3)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def symplectic_gf2_4():
    # standard symplectic form on GF(2)^4, block antidiagonal
    j = np.zeros((4, 4), dtype=np.int64)
    j[0, 2] = j[1, 3] = j[2, 0] = j[3, 1] = 1
    return FormTuple(4, 1, "alternating", F2, [j])


# ---------------------------------------------------------------- sampling


def test_sample_empty_space():
    ft = sample_form_tuple(0, 2, "alternating", F2, 7)
    assert ft.n == 0 and ft.t == 2
    assert ft.stack().shape == (2, 0, 0)


@pytest.mark.parametrize("n, t", [(MAX_ALGEBRA_DIM + 1, 1), (2, MAX_ALGEBRA_DIM + 1), (2000, 1)])
def test_form_tuples_beyond_the_algebra_cap_are_rejected_before_allocation(n, t):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(f"t in [1, {MAX_ALGEBRA_DIM}], got n = {n}, t = {t}")):
            sample_form_tuple(n, t, "general", F2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    with pytest.raises(ValueError, match=re.escape(f"t in [1, {MAX_ALGEBRA_DIM}], got n = {n}, t = {t}")):
        FormTuple(n, t, "general", F2, [])
    # the cap itself is allowed
    assert sample_form_tuple(min(n, MAX_ALGEBRA_DIM), min(t, MAX_ALGEBRA_DIM), "general", F2, 1).stack().shape


def test_sample_alternating_invariants():
    for seed in range(5):
        for p in (2, 3, 5):
            ft = sample_form_tuple(4, 2, "alternating", PrimeField(p), seed)
            for m in ft.stack():
                assert not np.diagonal(m).any()
                assert not ((m + m.T) % p).any()


def test_sample_symmetric_invariants():
    ft = sample_form_tuple(3, 2, "symmetric", F3, 11)
    for m in ft.stack():
        assert np.array_equal(m, m.T)


def test_sample_deterministic():
    a = sample_form_tuple(5, 3, "general", F3, 2024)
    b = sample_form_tuple(5, 3, "general", F3, 2024)
    c = sample_form_tuple(5, 3, "general", F3, 2025)
    assert a == b
    assert a != c


def test_sample_matches_golden_file():
    with open(GOLDEN / "form_n2_t1_p3_seed20240811.json") as fh:
        expected = json.load(fh)
    ft = sample_form_tuple(2, 1, "alternating", F3, 20240811)
    assert ft.to_json() == expected


# sha256 of json.dumps(to_json()) for tuples sampled before the draws were
# vectorized: seeded replay depends on the order of the draws
_PINNED_SAMPLES = {
    (5, 3, 3, 2024, "alternating"): "eeeb905738fc83d72fbbf8be9118de6765a709f055af073ad1975103e09eecec",
    (5, 3, 3, 2024, "symmetric"): "4979bd07558ff163d9cb0ec5727a0305c4aa72138b693ed921e6252943e2600e",
    (5, 3, 3, 2024, "general"): "3fd37dc6b45a274623123007237816707250ff23ece287e5952670b0617df245",
    (40, 8, 2, 1, "alternating"): "445794e43b089538e196c5741c0b17e79f47e55659e00b4cb015d77f1d514db3",
    (40, 8, 2, 1, "symmetric"): "ddbac5bd51cce50d839052a6505fc0afd0d00e2c45a6fc327399459ad625b647",
    (40, 8, 2, 1, "general"): "9a46a2d7e9898055368a456a085988e8170e85dcb490ce747a2031525d751a03",
    (4, 2, 8191, 7, "alternating"): "46f2b854544d4c606f3ab58cf5d5ea992ea1e56b85dcc3ab7bdba8236d191aa4",
    (4, 2, 8191, 7, "symmetric"): "f4a9dd3b6bc92464133d32e187e9fdc7efa2c9e38dbec3dd15c29cd745591222",
    (4, 2, 8191, 7, "general"): "6b7caac3fdae1e60a82929ee14a5d2caaaf85053f90d74f7f2707b075ac6278c",
}


@pytest.mark.parametrize("n, t, p, seed, kind", sorted(_PINNED_SAMPLES))
def test_sample_replays_pinned_tuples(n, t, p, seed, kind):
    ft = sample_form_tuple(n, t, kind, PrimeField(p), seed)
    digest = hashlib.sha256(json.dumps(ft.to_json()).encode()).hexdigest()
    assert digest == _PINNED_SAMPLES[(n, t, p, seed, kind)]


@pytest.mark.parametrize("kind", FORM_KINDS)
def test_form_stack_is_read_only_and_reduced(kind):
    field = PrimeField(5)
    ft = FormTuple(3, 2, kind, field, sample_form_tuple(3, 2, kind, field, 4).stack() + 5 * np.arange(9).reshape(3, 3))
    s = ft.stack()
    assert s.dtype == np.int64 and s.shape == (2, 3, 3) and not s.flags.writeable
    assert ((0 <= s) & (s < 5)).all()
    assert ft == sample_form_tuple(3, 2, kind, field, 4)
    with pytest.raises(ValueError):
        s[0, 0, 1] = 1


def test_form_tuple_validation():
    with pytest.raises(ValueError):
        FormTuple(2, 1, "alternating", F3, [[[0, 1], [1, 0]]])  # not skew
    with pytest.raises(ValueError):
        FormTuple(2, 1, "symmetric", F3, [[[0, 1], [2, 0]]])
    with pytest.raises(ValueError):
        FormTuple(2, 2, "general", F3, [[[0, 1], [2, 0]]])  # wrong count
    with pytest.raises(ValueError):
        FormTuple(2, 1, "general", F3, [np.eye(3, dtype=int)])  # wrong size


def test_form_tuple_json_round_trip():
    ft = sample_form_tuple(3, 2, "general", F3, 5)
    assert FormTuple.from_json(ft.to_json()) == ft
    obj = ft.to_json()
    for bad in (dict(obj["mats"][0], p=5), dict(obj["mats"][0], rows=1, entries=obj["mats"][0]["entries"][:3])):
        with pytest.raises(ValueError, match="n x n matrix over GF"):
            FormTuple.from_json(dict(obj, mats=[bad, obj["mats"][1]]))


def test_form_tuple_header_is_refused_before_its_matrices():
    obj = sample_form_tuple(3, 2, "general", F3, 5).to_json()
    malformed = [{"p": 3, "rows": 1, "cols": 1, "entries": [1.5]}, obj["mats"][1]]
    for header, message in (({"kind": "bogus"}, "unknown form kind 'bogus'"), ({"n": 10**6}, "need n in")):
        with pytest.raises(ValueError, match=message):
            FormTuple.from_json(dict(obj, mats=malformed, **header))
    with pytest.raises(ValueError, match="field 'entries' must be JSON ints"):
        FormTuple.from_json(dict(obj, mats=malformed))


# ---------------------------------------------------------------- scanning


def test_symplectic_plane_witness():
    ft = symplectic_gf2_4()
    w = find_common_isotropic(ft, 2)
    # the witness is one of the isotropic planes among all 35: the first one
    # found with leads taken right to left, span(e2, e3)
    planes = [sub for sub in enumerate_subspaces(4, 2, F2) if restrictions_vanish(ft, sub.basis)]
    assert w in planes
    assert w.basis.tolist() == [[0, 0, 1, 0], [0, 0, 0, 1]]


def test_symplectic_no_lagrangian_3():
    assert find_common_isotropic(symplectic_gf2_4(), 3) is None


def test_all_zero_tuple_returns_first_subspace():
    z = FormTuple(3, 2, "alternating", F2, [np.zeros((3, 3), int)] * 2)
    for k in range(4):
        w = find_common_isotropic(z, k)
        assert w is not None
        first = next(iter(enumerate_subspaces(3, k, F2)))
        assert w == first


def test_every_line_isotropic_for_alternating():
    for seed in range(5):
        ft = sample_form_tuple(4, 3, "alternating", F3, seed)
        assert find_common_isotropic(ft, 1) is not None


def test_isotropy_is_basis_independent():
    rng = random.Random(17)
    ft = sample_form_tuple(4, 2, "alternating", F3, 99)
    for sub in enumerate_subspaces(4, 2, F3):
        status = is_common_isotropic(ft, sub)
        e = random_invertible(3, sub.dim, rng)
        scrambled = Subspace.span(3, (e @ sub.basis) % 3)
        assert scrambled == sub
        assert is_common_isotropic(ft, scrambled) == status


def test_monotonicity_in_k():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 5)
        t = rng.randrange(1, 4)
        ft = sample_form_tuple(n, t, "alternating", F2, rng.randrange(10**6))
        kmax = brute_force_max_isotropic(ft)
        for k in range(n + 1):
            found = find_common_isotropic(ft, k) is not None
            assert found == (k <= kmax)


def test_symmetric_restriction_mode():
    # phi = [[0,1],[0,0]]: span(e1) symmetric-restricts, the full plane does not
    ft = FormTuple(2, 1, "general", F2, [[[0, 1], [0, 0]]])
    w = find_common_isotropic(ft, 1, mode="symmetric-restriction")
    assert w is not None
    assert find_common_isotropic(ft, 2, mode="symmetric-restriction") is None
    sym = FormTuple(2, 1, "general", F2, [[[1, 1], [1, 0]]])
    assert find_common_isotropic(sym, 2, mode="symmetric-restriction") is not None


def test_scan_budget():
    # the s = 10 certificate's tuple has no 5-dim common isotropic subspace,
    # and a search shows it in 3 103 nodes whatever order it takes them in
    ft = sample_form_tuple(11, 6, "alternating", F2, 1000)
    for budget in (1000, 3102):
        with pytest.raises(EnumerationTooLarge):
            find_common_isotropic(ft, 5, budget=budget)
    assert find_common_isotropic(ft, 5, budget=3103) is None


def test_scan_k_out_of_range():
    ft = sample_form_tuple(2, 1, "alternating", F2, 0)
    with pytest.raises(ValueError):
        find_common_isotropic(ft, 3)


# ---------------------------------------------------------------- certification


def test_vacuous_certificate():
    cert = certify_no_isotropic(1, 3, 2, F2, seed=4)
    assert cert.vacuous
    assert cert.subspaces_checked == 0
    assert reverify_certificate(cert)


def test_certificate_small_plane():
    with pytest.warns(UserWarning):  # 2n < t(k-1) fails here; warn-only
        cert = certify_no_isotropic(2, 3, 2, F2, seed=0, max_attempts=256)
    assert cert.subspaces_checked == 1  # only the full plane
    assert not cert.vacuous
    assert reverify_certificate(cert)


def test_certificate_main_instance():
    cert = certify_no_isotropic(7, 5, 4, F2, seed=1000, max_attempts=1000)
    assert cert.subspaces_checked == gaussian_binomial(7, 4, 2) == 11811
    assert (cert.method, cert.nodes_visited) == ("isotropic-dfs", 128)
    assert reverify_certificate(cert)


def test_certification_failure_carries_witness():
    # one alternating form on GF(2)^4 always has an isotropic plane
    with pytest.warns(UserWarning):
        with pytest.raises(CertificationFailed) as exc:
            certify_no_isotropic(4, 1, 2, F2, seed=0, max_attempts=4)
    assert exc.value.witness is not None
    assert exc.value.witness.dim == 2


@pytest.mark.parametrize("max_attempts", [0, -3])
def test_certify_rejects_nonpositive_max_attempts(monkeypatch, max_attempts):
    def no_sample(*args, **kwargs):
        raise AssertionError("a tuple was sampled")

    monkeypatch.setattr(forms, "sample_form_tuple", no_sample)
    for n in (3, 2):  # a searched claim, and a vacuous one (k > n)
        with pytest.raises(ValueError, match="max_attempts"):
            certify_no_isotropic(n, 4, 3, F2, seed=7, max_attempts=max_attempts)


def test_certify_warns_when_inequality_fails():
    # 2n < t(k-1) fails but a nonzero form on the plane still certifies
    with pytest.warns(UserWarning, match="not guaranteed"):
        cert = certify_no_isotropic(2, 1, 2, F2, seed=3, max_attempts=64)
    assert cert.subspaces_checked == 1


def test_certificates_deterministic():
    a = certify_no_isotropic(3, 4, 3, F2, seed=7, max_attempts=64)
    b = certify_no_isotropic(3, 4, 3, F2, seed=7, max_attempts=64)
    assert a.to_json() == b.to_json()


def test_certificate_json_round_trip():
    with pytest.warns(UserWarning):
        cert = certify_no_isotropic(2, 3, 2, F2, seed=0)
    obj = cert.to_json()
    assert obj["verdict"] == "certified"
    assert obj["subspaces_checked"] == "1"
    back = GenericityCertificate.from_json(obj)
    assert back.to_json() == obj
    assert reverify_certificate(back)


@st.composite
def form_tuples(draw):
    """Form tuples over GF(2), GF(3) or GF(5) with n <= 4, with or without a seed."""
    p = draw(st.sampled_from([2, 3, 5]))
    n, t = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(FORM_KINDS))
    ft = sample_form_tuple(n, t, kind, PrimeField(p), draw(st.integers(0, 10**6)))
    return ft if draw(st.booleans()) else FormTuple(n, t, kind, PrimeField(p), ft.stack())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(form_tuples())
def test_form_tuple_json_round_trips(ft):
    obj = ft.to_json()
    assert FormTuple.from_json(obj).to_json() == obj
    with pytest.raises(ValueError, match="'t' must be JSON int"):
        FormTuple.from_json(dict(obj, t=str(ft.t)))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    form_tuples(),
    st.integers(0, 6),
    st.integers(0, 10**40),
    st.booleans(),
    st.sampled_from([MODE_ISOTROPIC, MODE_SYMMETRIC]),
    st.sampled_from(["certified", "failed"]),
    st.sampled_from([None, forms.METHOD]),
    st.none() | st.integers(0, 10**7),
)
def test_certificate_json_round_trips(ft, k, checked, vacuous, mode, verdict, method, nodes):
    cert = GenericityCertificate(ft, k, checked, vacuous, mode, verdict, method, nodes)
    obj = cert.to_json()
    assert GenericityCertificate.from_json(obj).to_json() == obj
    with pytest.raises(ValueError):
        GenericityCertificate.from_json(dict(obj, subspaces_checked=f"{checked}!"))


@pytest.mark.parametrize("text", [" 11811 ", "+11811", "1_1811", "011", "-1", "", "11811\n", "١", "1" * 4301, "1" * 5000])
def test_certificate_reads_subspaces_checked_only_as_str_writes_it(text):
    obj = GenericityCertificate(sample_form_tuple(3, 2, "alternating", F2, 0), 2, 11811).to_json()
    for count in (0, 11811, 10**4299):  # the last has 4 300 digits
        assert GenericityCertificate.from_json(dict(obj, subspaces_checked=str(count))).subspaces_checked == count
    with pytest.raises(ValueError, match="^field 'subspaces_checked' must be a count"):
        GenericityCertificate.from_json(dict(obj, subspaces_checked=text))


def test_reverify_detects_tampered_matrix():
    with pytest.warns(UserWarning):
        cert = certify_no_isotropic(2, 3, 2, F2, seed=0)
    obj = cert.to_json()
    obj["mats"][0]["entries"][1] ^= 1
    obj["mats"][0]["entries"][2] ^= 1  # keep it alternating so parsing succeeds
    tampered = GenericityCertificate.from_json(obj)
    assert not reverify_certificate(tampered)


def test_reverify_detects_wrong_count():
    with pytest.warns(UserWarning):
        cert = certify_no_isotropic(2, 3, 2, F2, seed=0)
    obj = cert.to_json()
    obj["subspaces_checked"] = str(cert.subspaces_checked - 1)
    assert not reverify_certificate(GenericityCertificate.from_json(obj))


def test_reverify_detects_wrong_k():
    # k above n takes the non-vacuous certificate's own k > n check
    cert = certify_no_isotropic(3, 4, 3, F2, seed=7, max_attempts=64)
    assert not cert.vacuous and reverify_certificate(cert)
    for k in (cert.k - 1, cert.n + 1):
        assert not reverify_certificate(GenericityCertificate.from_json(dict(cert.to_json(), k=k))), k


def test_reverify_detects_tampered_provenance():
    cert = certify_no_isotropic(3, 4, 3, F2, seed=7, max_attempts=64)
    obj = cert.to_json()
    assert reverify_certificate(GenericityCertificate.from_json(obj))
    for name, value in (("nodes_visited", obj["nodes_visited"] + 1), ("method", "exhaustive-scan")):
        tampered = GenericityCertificate.from_json(dict(obj, **{name: value}))
        assert not reverify_certificate(tampered), name


def test_certificate_issued_before_provenance_still_reverifies():
    with open(GOLDEN / "cert_n7_t5_k4_p2_seed1000_before_provenance.json") as fh:
        old = json.load(fh)
    assert "method" not in old and "nodes_visited" not in old
    cert = GenericityCertificate.from_json(old)
    assert cert.to_json() == old
    assert reverify_certificate(cert)
    # today's certificate of the same instance adds exactly the two fields
    new = certify_no_isotropic(7, 5, 4, F2, seed=1000, max_attempts=1000).to_json()
    assert {k: v for k, v in new.items() if k not in ("method", "nodes_visited")} == old


def test_certificate_from_the_ascending_order_search_still_reverifies():
    # issued at version 0.2.0, whose search took leads in ascending order: a
    # search that finds nothing visits the same 9 882 nodes in any order, so
    # the certificate replays and is issued again byte for byte
    with open(GOLDEN / "cert_n9_t5_k5_p3_seed1000_v0.2.0.json") as fh:
        old = json.load(fh)
    cert = GenericityCertificate.from_json(old)
    assert cert.nodes_visited == 9882 and cert.to_json() == old
    assert reverify_certificate(cert)
    assert certify_no_isotropic(9, 5, 5, F3, seed=1000, max_attempts=1).to_json() == old


def test_reverify_budget_abort_raises():
    cert = certify_no_isotropic(3, 4, 3, F2, seed=7, max_attempts=64)
    with pytest.raises(EnumerationTooLarge):
        reverify_certificate(cert, budget=cert.nodes_visited - 1)
    assert reverify_certificate(cert, budget=cert.nodes_visited)


# ---------------------------------------------------------------- engine against the oracle


@st.composite
def small_form_tuples(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 4))
    t = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(FORM_KINDS))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=t * n * n, max_size=t * n * n))
    raw = np.array(entries, dtype=np.int64).reshape(t, n, n)
    upper = np.triu(raw, 1)
    if kind == "alternating":
        mats = upper - upper.transpose(0, 2, 1)
    elif kind == "symmetric":
        mats = np.triu(raw) + upper.transpose(0, 2, 1)
    else:
        mats = raw
    return FormTuple(n, t, kind, PrimeField(p), list(mats % p))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_form_tuples())
def test_engine_matches_enumeration_oracle(ft):
    for mode in (MODE_ISOTROPIC, MODE_SYMMETRIC):
        # symmetric restrictions are the isotropic subspaces of M - M^T
        stack = ft.stack()
        if mode == MODE_SYMMETRIC:
            stack = (stack - stack.transpose(0, 2, 1)) % ft.p
        for k in range(ft.n + 1):
            got = find_common_isotropic(ft, k, mode=mode)
            want = first_common_isotropic(ft, k, mode)
            assert (got is None) == (want is None), (mode, k)
            if got is None:
                # a search that finds nothing visits the same nodes in any order
                nodes = largest_common_isotropic(stack, ft.p, k).nodes_visited
                assert nodes == reference_common_isotropic(stack, ft.p, k).nodes_visited, (mode, k)
            else:
                assert got.dim == k and got == Subspace.span(ft.p, got.basis, ft.n), (mode, k)
                assert restrictions_vanish(ft, got.basis, mode), (mode, k)
        res = largest_common_isotropic(stack, ft.p)
        kmax = brute_force_max_isotropic(ft, mode_symmetric=mode == MODE_SYMMETRIC)
        assert res.complete and len(res.basis) == kmax, mode
        assert restrictions_vanish(ft, res.basis, mode), mode


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_form_tuple(3, 1, "bogus", F2, 1), "unknown form kind"),
        (lambda: find_common_isotropic(sample_form_tuple(3, 1, "alternating", F2, 1), 1, mode="bogus"), "unknown mode"),
        (lambda: is_common_isotropic(sample_form_tuple(3, 1, "alternating", F2, 1), Subspace.zero(2, 4)),
         "does not live on the forms' space"),
        (lambda: is_common_isotropic(sample_form_tuple(3, 1, "alternating", F2, 1), Subspace.zero(3, 3)),
         "does not live on the forms' space"),
        (lambda: certify_no_isotropic(3, 1, 2, F2, None), "requires an explicit seed"),
        (lambda: certify_no_isotropic(-1, 1, 2, F2, 1), "need n >= 0"),
        (lambda: certify_no_isotropic(3, 1, -1, F2, 1), "need n >= 0"),
        # k > n would issue a vacuous certificate without ever reading the mode
        (lambda: certify_no_isotropic(2, 1, 3, F2, 1, mode="nonsense"), "unknown mode 'nonsense'"),
        (lambda: GenericityCertificate.from_json(dict(certify_no_isotropic(2, 3, 3, F2, 1).to_json(), mode="nonsense")),
         "unknown mode 'nonsense'"),
    ],
    ids=["form-kind", "mode", "subspace-dim", "subspace-p", "seed-none", "n-negative", "k-negative",
         "certify-mode", "certificate-mode"],
)
def test_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_seed_is_an_int_or_none_and_round_trips():
    # each of these used to construct, and to write a document that from_json refused
    for seed in (True, 1.5, "7"):
        with pytest.raises(ValueError, match="seed must be an int or None"):
            FormTuple(2, 1, "alternating", F2, [[[0, 1], [1, 0]]], seed=seed)
    ft = sample_form_tuple(3, 2, "alternating", F3, 2**70)
    back = FormTuple.from_json(json.loads(json.dumps(ft.to_json())))
    assert back == ft and back.seed == 2**70


def test_negative_seeds_are_refused():
    # random.Random(-s) draws what random.Random(s) does, so seed -7 would repeat seed 7's tuple
    with pytest.raises(ValueError, match="seed must be at least 0, got -7"):
        sample_form_tuple(4, 2, "alternating", F3, -7)
    for n in (3, 2):  # a search, then a vacuous certificate
        with pytest.raises(ValueError, match="got -5"):
            certify_no_isotropic(n, 4, 3, F2, seed=-5, max_attempts=11)
    # a tuple's own seed is metadata, so the certificate reads; its replay is refused
    obj = certify_no_isotropic(3, 4, 3, F2, seed=7, max_attempts=64).to_json()
    cert = GenericityCertificate.from_json(dict(obj, seed=-1))
    assert cert.seed == -1
    with pytest.raises(ValueError, match="got -1"):
        reverify_certificate(cert)
