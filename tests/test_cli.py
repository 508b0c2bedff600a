import json
import os
import pathlib
import subprocess
import sys

import pytest

import commdim
from commdim import PrimeField, StructureConstantAlgebra, sample_form_tuple
from commdim.bounds import CLASSICAL_MIN_RANK, MAX_C_CHARS, MAX_SIMPLE_RANK
from commdim.gf import SIZE_DIGITS
from commdim.cli import main
from oracles import algebra_json_v1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_params(capsys):
    code, obj = run_json(capsys, "params", "--s", "5")
    assert code == 0
    assert obj == {"s": 5, "n": 2, "t": 3, "k": 3}


def test_params_domain_error(capsys):
    code, obj = run_json(capsys, "params", "--s", "1")
    assert code == 1
    assert "error" in obj


def test_bounds_json(capsys):
    code, obj = run_json(capsys, "bounds", "--n", "1", "--field", "C")
    assert code == 0
    entries = {(e["name"], e["side"]): e["value"] for e in obj["entries"]}
    assert entries[("l_C", "upper")] == "9"


def test_bounds_table_format(capsys):
    code, out = run(capsys, "bounds", "--n", "2", "--field", "R", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("function")


def test_bounds_custom_c(capsys):
    code, obj = run_json(capsys, "bounds", "--n", "2", "--field", "closed", "--c", "9/2")
    assert code == 0
    entries = {(e["name"], e["side"]): e["value"] for e in obj["entries"]}
    assert entries[("a_K", "upper")] == "12"


def test_bounds_zero_denominator_is_a_domain_error(capsys):
    code, out = run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", "1/0")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


def test_bounds_inverted_by_c_is_a_domain_error(capsys):
    code, out = run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", "-100")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert "below its lower bound" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("c", ["1e-99999999", "1e3", "1_000", "0x10", "\u0663", "inf", "nan", "3 / 2", "1.5/2", ""])
def test_bounds_refuses_c_outside_integers_fractions_and_decimals(capsys, c):
    # Fraction reads exponents too, and would spend time and memory exponential
    # in the length of "1e-99999999" before the table is built
    code, out = run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", c)
    assert code == 1
    assert out == json.dumps({"error": f"c must be an integer, a fraction a/b or a decimal, got {c!r}"}) + "\n"


def test_bounds_reads_c_as_an_integer_a_fraction_or_a_decimal(capsys):
    outputs = {c: run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", c) for c in ["9/2", "4.5", " +4.50 ", "18/4"]}
    assert len(set(outputs.values())) == 1 and outputs["9/2"][0] == 0


_LARGEST = str(10**SIZE_DIGITS - 1)
_PAST = str(10**SIZE_DIGITS)


@pytest.mark.parametrize(
    "argv, name",
    [
        (["bounds", "--field", "C", "--n"], "n"),
        (["bounds", "--field", "closed", "--c", "." + "9" * (MAX_C_CHARS - 1), "--n"], "n"),
        (["bounds", "--field", "closed", "--c", "." + "9" * (MAX_C_CHARS - 1), "--format", "table", "--n"], "n"),
        (["params", "--s"], "s"),
        (["simple-table", "--type", "A", "--rank"], "rank"),
    ],
)
def test_sizes_print_up_to_their_bound_and_are_refused_past_it(capsys, argv, name):
    # past the bound, Python's own limit on printing long ints would answer
    code, out = run(capsys, *argv, _LARGEST)
    assert code == 0 and _LARGEST in out
    code, out = run(capsys, *argv, _PAST)
    assert (code, out) == (1, json.dumps({"error": f"{name} must be below 10**{SIZE_DIGITS}"}) + "\n")


def test_bounds_refuses_a_c_text_past_its_length_bound(capsys):
    c = "1." + "0" * (MAX_C_CHARS - 2)
    assert run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", c) == run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", "1")
    code, out = run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", c + "0")
    error = f"c must be at most {MAX_C_CHARS} characters long, got {MAX_C_CHARS + 1}"
    assert (code, out) == (1, json.dumps({"error": error}) + "\n")


def test_simple_table_single(capsys):
    code, obj = run_json(capsys, "simple-table", "--type", "E8")
    assert code == 0
    assert obj == [{"type": "E8", "rank": None, "dim": 248, "max_abelian": 36}]


def test_simple_table_default_list(capsys):
    code, obj = run_json(capsys, "simple-table")
    assert code == 0
    types = [e["type"] for e in obj]
    assert types[:5] == ["E6", "E7", "E8", "F4", "G2"]
    assert {"A", "B", "C", "D"} <= set(types)
    # --max-rank defaults to 8, and 0 leaves only the exceptional types
    assert (code, obj) == run_json(capsys, "simple-table", "--max-rank", "8")
    code, obj = run_json(capsys, "simple-table", "--max-rank", "0")
    assert code == 0 and [e["type"] for e in obj] == types[:5]


def test_simple_table_max_rank_is_capped_before_building(monkeypatch, capsys):
    code, obj = run_json(capsys, "simple-table", "--max-rank", str(MAX_SIMPLE_RANK))
    assert code == 0 and len(obj) == 5 + sum(MAX_SIMPLE_RANK - lo + 1 for lo in CLASSICAL_MIN_RANK.values())

    def build(*args):
        raise AssertionError("a table row was built")

    monkeypatch.setattr(commdim.cli, "exceptional_entries", build)
    monkeypatch.setattr(commdim.cli, "simple_lie_data", build)
    code, out = run(capsys, "simple-table", "--max-rank", str(MAX_SIMPLE_RANK + 1))
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert f"capped at {MAX_SIMPLE_RANK}" in json.loads(lines[0])["error"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--rank", "3"], "--rank needs --type"),
        (["--max-rank", "3", "--type", "A", "--rank", "3"], "--max-rank applies to the whole table, not to one --type"),
        (["--type", "E8", "--max-rank", "8"], "--max-rank applies to the whole table, not to one --type"),
        (["--max-rank", "-3"], "--max-rank must be at least 0, got -3"),
    ],
)
def test_simple_table_refuses_options_it_would_ignore(capsys, argv, error):
    assert run(capsys, "simple-table", *argv) == (1, json.dumps({"error": error}) + "\n")


def test_matrix_comm(capsys):
    code, obj = run_json(capsys, "matrix-comm", "--r", "4", "--p", "2", "--construction", "corner")
    assert code == 0
    assert obj["sub_dim"] == 4
    assert obj["ambient"]["dim"] == 16


@pytest.mark.filterwarnings("error")  # 2n < t(k-1) fails here, but the cap refuses n before that warning
def test_certify_beyond_the_size_cap_is_a_domain_error(capsys):
    # the claim is vacuous (k > n), so before the cap this sampled 2000 x 2000 forms and printed them
    code, out = run(capsys, "certify", "--n", "2000", "--t", "1", "--k", "2001", "--p", "2", "--seed", "1")
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    assert "need n in [0, 160] and t in [1, 160]" in json.loads(lines[0])["error"]


def test_certify_requires_seed(capsys):
    code, obj = run_json(capsys, "certify", "--n", "2", "--t", "3", "--k", "2", "--p", "2")
    assert code == 1
    assert "seed" in obj["error"]


def test_budget_abort_exit_2(capsys):
    code, obj = run_json(
        capsys,
        "certify", "--n", "10", "--t", "7", "--k", "5", "--p", "2",
        "--seed", "0", "--budget", "1000",
    )
    assert code == 2
    assert "error" in obj


def test_full_pipeline_deterministic(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    alg_path = str(tmp_path / "alg.json")

    outputs = []
    for _ in range(2):
        code, params = run_json(capsys, "params", "--s", "6")
        assert code == 0
        code, cert = run_json(
            capsys,
            "certify",
            "--n", str(params["n"]), "--t", str(params["t"]), "--k", str(params["k"]),
            "--p", "2", "--seed", "321", "--max-attempts", "1000",
            "-o", cert_path,
        )
        assert code == 0
        code, alg = run_json(capsys, "construct", "--from", cert_path, "--kind", "lie", "-o", alg_path)
        assert code == 0
        assert alg["dim"] == params["n"] + params["t"]
        code, res = run_json(capsys, "search", "--alg", alg_path, "--mode", "class2")
        assert code == 0
        outputs.append((params, cert, alg, res))
    assert outputs[0] == outputs[1]
    assert outputs[0][3]["dim"] <= 6


def test_search_modes(tmp_path, capsys):
    alg_path = str(tmp_path / "heis.json")
    heis = {"kind": "lie", "p": 2, "dim": 3, "sc": [{"i": 0, "j": 1, "v": [0, 0, 1]}]}
    with open(alg_path, "w") as fh:
        json.dump(heis, fh)
    code, res = run_json(capsys, "search", "--alg", alg_path, "--mode", "exact")
    assert code == 0 and res["dim"] == 2 and res["exact"] is True
    code, res = run_json(capsys, "search", "--alg", alg_path, "--mode", "greedy")
    assert code == 0 and res["dim"] == 2 and res["exact"] is False
    code, res = run_json(capsys, "search", "--alg", alg_path, "--mode", "class2")
    assert code == 0 and res["dim"] == 2


def test_verify_good_and_corrupted(tmp_path, capsys):
    good = {"kind": "lie", "p": 2, "dim": 3, "sc": [{"i": 0, "j": 1, "v": [0, 0, 1]}]}
    bad = {
        "kind": "lie",
        "p": 3,
        "dim": 3,
        "sc": [{"i": 0, "j": 1, "v": [0, 0, 1]}, {"i": 1, "j": 0, "v": [0, 0, 1]}],
    }
    good_path, bad_path = str(tmp_path / "good.json"), str(tmp_path / "bad.json")
    with open(good_path, "w") as fh:
        json.dump(good, fh)
    with open(bad_path, "w") as fh:
        json.dump(bad, fh)
    code, rep = run_json(capsys, "verify", "--alg", good_path)
    assert code == 0 and rep["passed"] is True
    code, rep = run_json(capsys, "verify", "--alg", bad_path)
    assert code == 1
    assert rep["first_violation"] == [1, 0]


def test_unitalize_cli(tmp_path, capsys):
    alg_path = str(tmp_path / "a.json")
    with open(alg_path, "w") as fh:
        json.dump({"kind": "assoc", "p": 2, "dim": 1, "sc": []}, fh)
    code, obj = run_json(capsys, "unitalize", "--alg", alg_path)
    assert code == 0 and obj["dim"] == 2


def test_reverify_cli(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, _ = run_json(
        capsys,
        "certify", "--n", "3", "--t", "4", "--k", "3", "--p", "2",
        "--seed", "7", "--max-attempts", "100", "-o", cert_path,
    )
    assert code == 0
    code, obj = run_json(capsys, "reverify", "--cert", cert_path)
    assert code == 0 and obj == {"reverified": True}
    # tamper with the stored seed: regeneration no longer matches
    with open(cert_path) as fh:
        cert = json.load(fh)
    cert["seed"] = cert["seed"] + 1
    with open(cert_path, "w") as fh:
        json.dump(cert, fh)
    code, obj = run_json(capsys, "reverify", "--cert", cert_path)
    assert code == 1 and obj == {"reverified": False}


@pytest.mark.filterwarnings("error")
def test_negative_seed_exits_1(tmp_path, capsys):
    # seed -5 would sample seed 5's tuple again, so the run is refused, and writes
    # nothing; the seed is checked first, so 2n < t(k-1) failing raises no warning
    cert_path = tmp_path / "cert.json"
    code, obj = run_json(
        capsys, "certify", "--n", "3", "--t", "1", "--k", "2", "--p", "3",
        "--seed", "-5", "--max-attempts", "11", "-o", str(cert_path),
    )
    assert code == 1 and set(obj) == {"error"} and "-5" in obj["error"] and not cert_path.exists()
    assert run_json(
        capsys, "certify", "--n", "3", "--t", "4", "--k", "3", "--p", "2",
        "--seed", "7", "--max-attempts", "100", "-o", str(cert_path),
    )[0] == 0
    cert_path.write_text(json.dumps(dict(json.loads(cert_path.read_text()), seed=-1)))
    code, obj = run_json(capsys, "reverify", "--cert", str(cert_path))
    assert code == 1 and set(obj) == {"error"} and "-1" in obj["error"]


def test_reverify_budget_abort_exit_2(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, cert = run_json(
        capsys,
        "certify", "--n", "3", "--t", "4", "--k", "3", "--p", "2",
        "--seed", "7", "--max-attempts", "100", "-o", cert_path,
    )
    assert code == 0 and cert["method"] == "isotropic-dfs"
    # a valid certificate too large to replay is an abort, not a rejection
    code, obj = run_json(capsys, "reverify", "--cert", cert_path, "--budget", str(cert["nodes_visited"] - 1))
    assert code == 2 and set(obj) == {"error"}
    code, obj = run_json(capsys, "reverify", "--cert", cert_path, "--budget", str(cert["nodes_visited"]))
    assert code == 0 and obj == {"reverified": True}


def test_negative_budget_is_a_domain_error(tmp_path, capsys):
    cert_path, alg_path = str(tmp_path / "cert.json"), str(tmp_path / "alg.json")
    zero_path = str(tmp_path / "zero.json")
    certify = ["certify", "--n", "3", "--t", "4", "--k", "3", "--p", "2", "--seed", "7", "--max-attempts", "100"]
    assert run_json(capsys, *certify, "-o", cert_path)[0] == 0
    with open(alg_path, "w") as fh:
        json.dump(_ALG, fh)
    with open(zero_path, "w") as fh:
        json.dump({"kind": "lie", "p": 3, "dim": 0, "sc": []}, fh)
    vacuous_path = str(tmp_path / "vacuous.json")
    vacuous = ["certify", "--n", "2", "--t", "3", "--k", "3", "--p", "2", "--seed", "1"]
    assert run_json(capsys, *vacuous, "-o", vacuous_path)[1]["vacuous"] is True
    for argv in (
        certify,
        vacuous,
        ["reverify", "--cert", vacuous_path],
        ["search", "--alg", alg_path, "--mode", "exact"],
        ["search", "--alg", alg_path, "--mode", "class2"],
        ["search", "--alg", zero_path, "--mode", "exact"],
        ["search", "--alg", zero_path, "--mode", "class2"],
        ["reverify", "--cert", cert_path],
    ):
        code, out = run(capsys, *argv, "--budget", "-1")
        lines = out.splitlines()
        assert code == 1 and len(lines) == 1 and set(json.loads(lines[0])) == {"error"}, argv
        assert "budget" in json.loads(lines[0])["error"]
    # budget 0 is a valid, if tiny, budget: the search aborts
    assert run_json(capsys, *certify, "--budget", "0")[0] == 2


@pytest.mark.parametrize("attempts", ["0", "-3"])
def test_nonpositive_max_attempts_is_a_domain_error(capsys, attempts):
    code, out = run(capsys, "certify", "--n", "3", "--t", "4", "--k", "3", "--p", "2", "--seed", "7", "--max-attempts", attempts)
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and set(json.loads(lines[0])) == {"error"}
    error = json.loads(lines[0])["error"]
    assert "max_attempts" in error and "sampled" not in error


@pytest.mark.parametrize(
    "kind, p, k, mode",
    [
        # every form is symmetric, so every restriction is too
        pytest.param("symmetric", "3", "2", "symmetric-restriction", id="symmetric-3"),
        pytest.param("symmetric", "2", "2", "symmetric-restriction", id="symmetric-2"),
        pytest.param("alternating", "2", "2", "symmetric-restriction", id="alternating-2"),
        # every line is isotropic for an alternating form, and a 1 x 1 restriction is symmetric
        pytest.param("alternating", "3", "1", "isotropic", id="alternating-3-line"),
        pytest.param("alternating", "2", "1", "isotropic", id="alternating-2-line"),
        pytest.param("general", "3", "1", "symmetric-restriction", id="general-3-line"),
        # the zero subspace matches every tuple
        pytest.param("general", "3", "0", "isotropic", id="general-3-zero"),
        pytest.param("symmetric", "5", "0", "symmetric-restriction", id="symmetric-5-zero"),
    ],
)
def test_symmetric_restriction_of_symmetric_forms_is_refused_before_sampling(monkeypatch, tmp_path, capsys,
                                                                           kind, p, k, mode):
    # every k-subspace matches, so no tuple can certify
    certify = ["certify", "--n", "4", "--t", "2", "--k", k, "--p", p, "--seed", "0", "--kind", kind, "--mode", mode]

    def sample(*args):
        raise AssertionError("a tuple was sampled")

    monkeypatch.setattr(commdim.forms, "sample_form_tuple", sample)
    cert_path = tmp_path / "cert.json"
    code, out = run(capsys, *certify, "-o", str(cert_path))
    lines = out.splitlines()
    assert code == 1 and len(lines) == 1 and set(json.loads(lines[0])) == {"error"} and not cert_path.exists()
    assert mode in json.loads(lines[0])["error"] and "never certify" in json.loads(lines[0])["error"]
    monkeypatch.undo()
    if k != "0":  # k > n stays vacuously certified
        with pytest.warns(UserWarning):
            code, obj = run_json(capsys, "certify", "--n", str(int(k) - 1), *certify[3:])
        assert code == 0 and obj["vacuous"] is True


def test_symmetric_restriction_of_other_forms_still_samples(capsys):
    for kind in ("alternating", "general"):
        with pytest.warns(UserWarning):
            code, obj = run_json(capsys, "certify", "--n", "4", "--t", "2", "--k", "2", "--p", "3", "--seed", "0",
                                 "--kind", kind, "--mode", "symmetric-restriction", "--max-attempts", "1")
        assert code == 1 and "all 1 sampled tuples" in obj["error"], kind
    # a line is isotropic for a symmetric form only where v M v = 0, so k = 1 can certify
    with pytest.warns(UserWarning):
        code, obj = run_json(capsys, "certify", "--n", "2", "--t", "3", "--k", "1", "--p", "3", "--seed", "0",
                             "--kind", "symmetric")
    assert code == 0 and obj["k"] == 1 and obj["subspaces_checked"] == "4"


def test_usage_error_is_machine_readable(capsys):
    code, obj = run_json(capsys, "bogus-command")
    assert code == 1 and "error" in obj
    code, obj = run_json(capsys, "search", "--alg", "x.json", "--mode", "bogus")
    assert code == 1 and "error" in obj


def test_usage_error_between_calls_leaves_later_result_unchanged(capsys):
    # the parser is built once per process and shared by every main() call
    first = run(capsys, "bounds", "--n", "3", "--field", "closed")
    assert run_json(capsys, "bounds", "--n", "3", "--field", "closed", "--format", "xml")[0] == 1
    assert run(capsys, "bounds", "--n", "3", "--field", "closed", "--c", "1/2", "--format", "table")[0] == 0
    assert run_json(capsys, "bounds", "--n", "3")[0] == 1
    assert run(capsys, "bounds", "--n", "3", "--field", "closed") == first
    assert first[0] == 0 and json.loads(first[1])["n"] == 3


def test_missing_file_is_domain_error(capsys):
    code, obj = run_json(capsys, "verify", "--alg", "/nonexistent/alg.json")
    assert code == 1
    assert "error" in obj


def test_construct_assoc_from_cert(tmp_path, capsys):
    cert_path = str(tmp_path / "cert.json")
    code, _ = run_json(
        capsys,
        "certify", "--n", "2", "--t", "3", "--k", "3", "--p", "3",
        "--seed", "17", "--max-attempts", "100", "-o", cert_path,
    )
    assert code == 0
    code, obj = run_json(capsys, "construct", "--from", cert_path, "--kind", "assoc")
    assert code == 0
    assert obj["kind"] == "assoc" and obj["dim"] == 5


_ALG = {"kind": "lie", "p": 3, "dim": 3, "sc": [{"i": 0, "j": 1, "v": [0, 0, 1]}]}
_FORMS = {"n": 2, "t": 1, "kind": "alternating", "p": 3, "mats": [{"p": 3, "rows": 2, "cols": 2, "entries": [0, 1, 2, 0]}]}
_CERT = dict(_FORMS, k=2, subspaces_checked="1", seed=1, nodes_visited=1)
_ALG2 = {"schema": 2, "kind": "lie", "p": 3, "dim": 3, "sc": [{"i": 0, "j": 1, "nz": [[2, 1]]}]}


def _nz(*nz):
    return dict(_ALG2, sc=[{"i": 0, "j": 1, "nz": list(nz)}])


@pytest.mark.parametrize(
    "command, flag, doc",
    [
        ("reverify", "--cert", dict(_CERT, k=None)),
        ("reverify", "--cert", dict(_CERT, nodes_visited=[1])),
        ("reverify", "--cert", dict(_CERT, subspaces_checked=None)),
        ("reverify", "--cert", [_CERT]),
        ("verify", "--alg", dict(_ALG, sc=[{"i": 0, "j": 1, "v": None}])),
        ("verify", "--alg", dict(_ALG, sc=None)),
        ("verify", "--alg", [_ALG]),
        ("verify", "--alg", dict(_ALG, sc=[{"i": 0, "j": 1, "v": [0, 0, 1e30]}])),
        ("verify", "--alg", dict(_ALG, kind=["lie"])),
        ("verify", "--alg", dict(_ALG, labels=3)),
        ("search", "--alg", dict(_ALG, dim=3.5)),
        ("construct", "--from", dict(_FORMS, mats=None)),
        ("construct", "--from", dict(_FORMS, mats=[{"p": 3, "rows": 2, "cols": 2, "entries": "0120"}])),
        ("construct", "--from", dict(_FORMS, n=2.0)),
        ("verify", "--alg", {"kind": "lie", "p": 2, "dim": 100000, "sc": []}),
        ("search", "--alg", {"kind": "lie", "p": 2, "dim": 100000, "sc": []}),
        ("search", "--alg", dict(_ALG, sc=[{"i": 0, "j": 1, "v": [0, 0, 1]}, {"i": 0, "j": 1, "v": [0, 0, 0]}])),
        ("verify", "--alg", dict(_ALG, sc=[{"i": 0, "j": 1, "v": [0, 0, 1]}, {"i": 0, "j": 1, "v": [0, 0, 1]}])),
        ("construct", "--from", dict(_FORMS, mats=[{"p": 5, "rows": 2, "cols": 2, "entries": [0, 1, 4, 0]}])),
        ("construct", "--from", dict(_FORMS, mats=[{"p": 3, "rows": 3, "cols": 3, "entries": [0] * 9}])),
        ("verify", "--alg", dict(_ALG2, schema=3)),
        ("search", "--alg", dict(_ALG2, schema="2")),
        ("unitalize", "--alg", dict(_ALG2, schema=True, kind="assoc")),
        ("verify", "--alg", _nz([2])),
        ("verify", "--alg", _nz([2, 1, 0])),
        ("search", "--alg", _nz([-1, 1])),
        ("verify", "--alg", _nz([3, 1])),
        ("verify", "--alg", _nz([2, 1], [2, 2])),
        ("search", "--alg", _nz([2, True])),
        ("verify", "--alg", dict(_ALG2, sc=[{"i": 0, "j": 1, "nz": []}, {"i": 0, "j": 1, "nz": [[2, 1]]}])),
        ("verify", "--alg", dict(_ALG2, dim=100000)),
        ("search", "--alg", dict(_ALG2, dim=100000)),
        ("unitalize", "--alg", dict(_ALG2, kind="assoc", labels=[[1], {"a": 2}, "x"])),
    ],
)
def test_malformed_json_is_a_domain_error(tmp_path, capsys, command, flag, doc):
    path = str(tmp_path / "in.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    extra = {"search": ["--mode", "exact"], "construct": ["--kind", "lie"]}.get(command, [])
    code, out = run(capsys, command, flag, path, *extra)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


@pytest.mark.parametrize("count", [" 1 ", "+1", "1_0"])
def test_reverify_reads_a_count_only_as_str_writes_it(tmp_path, capsys, count):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(_CERT, subspaces_checked=count)))
    code, out = run(capsys, "reverify", "--cert", str(path))
    assert code == 1 and json.loads(out)["error"].startswith("field 'subspaces_checked' must be a count")


@pytest.mark.parametrize(
    "command, flag, extra",
    [
        ("verify", "--alg", []),
        ("search", "--alg", ["--mode", "exact"]),
        ("construct", "--from", ["--kind", "lie"]),
        ("unitalize", "--alg", []),
        ("reverify", "--cert", []),
    ],
)
def test_deeply_nested_json_is_a_domain_error(tmp_path, capsys, command, flag, extra):
    # json.dump cannot write this, and json.load runs out of recursion on it
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out = run(capsys, command, flag, str(path), *extra)
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


def test_huge_json_ints_are_reduced_mod_p(tmp_path, capsys):
    path = str(tmp_path / "alg.json")
    with open(path, "w") as fh:
        json.dump(dict(_ALG, sc=[{"i": 0, "j": 1, "v": [0, 0, 3**40 + 1]}]), fh)
    code, rep = run_json(capsys, "verify", "--alg", path)
    assert code == 0 and rep["passed"] is True


def test_huge_schema_2_values_are_reduced_mod_p(tmp_path, capsys):
    path = str(tmp_path / "alg.json")
    with open(path, "w") as fh:
        json.dump(_nz([2, 7**40 + 1]), fh)
    code, rep = run_json(capsys, "verify", "--alg", path)
    assert code == 0 and rep["passed"] is True
    with open(path, "w") as fh:
        json.dump(dict(_nz([2, 7**40 + 1]), kind="assoc"), fh)
    code, unit = run_json(capsys, "unitalize", "--alg", path)
    assert code == 0 and unit["sc"][0] == {"i": 0, "j": 1, "nz": [[2, (7**40 + 1) % 3]]}


GOLDEN_V1 = pathlib.Path(__file__).parent / "golden" / "alg_lie_n7_t5_p2_seed1000_v1.json"


def test_version_1_algebra_gives_the_outputs_of_its_schema_2_form(tmp_path, capsys):
    # the golden file is the version-1 output of `construct --kind lie` on the
    # seed-1000 certificate, from before schema 2
    text = GOLDEN_V1.read_text()
    alg = StructureConstantAlgebra.from_json(json.loads(text))
    assert json.dumps(algebra_json_v1(alg)) + "\n" == text
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps(alg.to_json()))
    # the same algebra as the associative kind, for unitalize
    assoc = StructureConstantAlgebra("assoc", alg.field, alg.dim, alg.sc, labels=alg.labels)
    v1_assoc, v2_assoc = tmp_path / "v1_assoc.json", tmp_path / "v2_assoc.json"
    v1_assoc.write_text(json.dumps(algebra_json_v1(assoc)))
    v2_assoc.write_text(json.dumps(assoc.to_json()))
    for old, new, argv in [
        (GOLDEN_V1, v2, ["verify"]),
        (GOLDEN_V1, v2, ["search", "--mode", "class2"]),
        (GOLDEN_V1, v2, ["search", "--mode", "exact"]),
        (GOLDEN_V1, v2, ["search", "--mode", "greedy"]),
        (GOLDEN_V1, v2, ["unitalize"]),
        (v1_assoc, v2_assoc, ["unitalize"]),
        (v1_assoc, v2_assoc, ["verify"]),
    ]:
        want = run(capsys, argv[0], "--alg", str(old), *argv[1:])
        assert run(capsys, argv[0], "--alg", str(new), *argv[1:]) == want, argv
        assert want[0] == (1 if argv == ["unitalize"] and old == GOLDEN_V1 else 0), (argv, want)


def test_construct_writes_schema_2(tmp_path, capsys):
    forms = tmp_path / "forms.json"
    forms.write_text(json.dumps(sample_form_tuple(3, 2, "alternating", PrimeField(3), 5).to_json()))
    for kind in ("lie", "assoc"):
        path = str(tmp_path / f"{kind}.json")
        code, out = run(capsys, "construct", "--from", str(forms), "--kind", kind, "-o", path)
        assert code == 0 and json.loads(out)["schema"] == 2
        with open(path) as fh:
            assert fh.read() == out


def test_greedy_bound_failure_is_a_domain_error(tmp_path, capsys):
    # not associative, but of class <= 2, so greedy runs and then breaks its bound
    path = str(tmp_path / "alg.json")
    with open(path, "w") as fh:
        json.dump({"kind": "assoc", "p": 2, "dim": 2, "sc": [{"i": 1, "j": 0, "v": [0, 1]}]}, fh)
    code, out = run(capsys, "search", "--alg", path, "--mode", "greedy")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 1 and set(json.loads(lines[0])) == {"error"}


def test_closed_stdout_is_quiet_and_keeps_the_output_file(tmp_path):
    # the pipe's reader is gone before the first write of the algebra's JSON
    # (about 50 kB)
    forms = tmp_path / "f40.json"
    forms.write_text(json.dumps(sample_form_tuple(40, 8, "alternating", PrimeField(2), 1).to_json()))
    alg = tmp_path / "alg.json"
    src = str(pathlib.Path(commdim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "commdim", "construct", "--from", str(forms), "--kind", "lie", "-o", str(alg)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
    doc = json.loads(alg.read_text())
    assert doc["kind"] == "lie" and doc["dim"] == 48
