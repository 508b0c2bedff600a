"""Tests of the benchmark itself: expected answers, answer checks, tracer, pacer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import importlib
import io
import json
import signal
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, REPEAT_COUNTERS, SITES, Tracer  # noqa: E402

sys.path.insert(0, str(workloads.ROOT / "tests"))

from commdim import class2_exact_result  # noqa: E402
from commdim.cli import main  # noqa: E402
from oracles import brute_force_max_abelian  # noqa: E402

EXPECTED = workloads.load_expected()
SMALL_SHAPES = [s[0] for s in workloads.EXACT_SHAPES if s[1] == "assoc"]  # d <= 6
LIE_SHAPES = [s[0] for s in workloads.EXACT_SHAPES if s[1] == "lie"]


@pytest.mark.parametrize("shape", SMALL_SHAPES)
def test_expected_small_exact_dims_match_brute_force(shape):
    for seed, dim in EXPECTED["exact-p3"][shape].items():
        alg = workloads._exact_algebra(shape, int(seed))
        assert alg.dim <= 6
        assert brute_force_max_abelian(alg) == dim, (shape, seed)


@pytest.mark.parametrize("shape", LIE_SHAPES)
def test_expected_lie_exact_dims_match_class2_reduction(shape):
    for seed, dim in EXPECTED["exact-p3"][shape].items():
        assert class2_exact_result(workloads._exact_algebra(shape, int(seed))).dim == dim


def test_expected_covers_every_pool_member():
    assert set(EXPECTED["pipeline-p2"]) == {str(s) for s in workloads.PIPELINE_POOL}
    for shape, kind, *_ in workloads.EXACT_SHAPES:
        pool = (0,) if kind is None else workloads.EXACT_POOL
        assert set(EXPECTED["exact-p3"][shape]) == {str(s) for s in pool}
    assert EXPECTED["exact-p3"]["matrix-3"]["0"] == workloads.SCHUR_JACOBSON


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_instance_lists_depend_only_on_the_seed(name):
    wl = workloads.WORKLOADS[name]
    first = wl.instances(7)
    assert first == wl.instances(7)
    assert first != wl.instances(8)
    assert len(first) == wl.size
    shapes = [inst.shape for inst in first]
    assert all(shapes.count(s) == shapes.count(shapes[0]) for s in shapes)


def _run_exact_instance(tmp_path, shape="assoc-3-3", seed=0, tracer=None):
    wl = workloads.WORKLOADS["exact-p3"]
    inst = workloads.Instance(0, shape, seed)
    wl.write_inputs([inst], tmp_path)
    (argv,) = wl.commands(inst, tmp_path, tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = tracer.call_cli(main, argv, inst.index) if tracer else main(argv)
    return wl, inst, [(rc, json.loads(buf.getvalue()))]


def test_exact_check_accepts_additive_fields_and_rejects_wrong_answers(tmp_path):
    wl, inst, outs = _run_exact_instance(tmp_path)
    assert wl.check(inst, outs, tmp_path, tmp_path, EXPECTED) == []

    extra = copy.deepcopy(outs)
    extra[0][1].update(method="engine", nodes_visited=12)
    assert wl.check(inst, extra, tmp_path, tmp_path, EXPECTED) == []

    def broken(mutate):
        bad = copy.deepcopy(outs)
        mutate(bad[0][1])
        return wl.check(inst, bad, tmp_path, tmp_path, EXPECTED)

    assert broken(lambda r: r.update(dim=r["dim"] - 1))
    assert broken(lambda r: r.update(exact=False))
    assert broken(lambda r: r["witness"]["basis"].update(rows=1, entries=r["witness"]["basis"]["entries"][:6]))
    assert wl.check(inst, [(2, outs[0][1])], tmp_path, tmp_path, EXPECTED)


def test_witness_problem_rejects_noncommuting_subspace():
    alg = workloads._exact_algebra("matrix-3", 0)
    diag = {"ambient_dim": 9, "basis": {"p": 3, "rows": 2, "cols": 9,
                                        "entries": [1, 0, 0, 0, 0, 0, 0, 0, 0,
                                                    0, 0, 0, 0, 1, 0, 0, 0, 0]}}
    assert workloads.witness_problem(alg, {"dim": 2, "witness": diag}) is None
    units = copy.deepcopy(diag)
    units["basis"]["entries"] = [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert workloads.witness_problem(alg, {"dim": 2, "witness": units}) is not None


def test_tracer_records_at_caller_sites_and_restores_them(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in SITES}
    with Tracer() as tracer:
        for m, a, _ in SITES:
            assert getattr(importlib.import_module(m), a) is not originals[(m, a)]
        _run_exact_instance(tmp_path, tracer=tracer)
    for m, a, _ in SITES:
        assert getattr(importlib.import_module(m), a) is originals[(m, a)]

    layer = tracer.metrics()
    assert layer["cli.calls"] == 1
    assert layer["search.exact.expanded"] > 0
    assert layer["search.exact.solves"] == layer["gf.solve_affine.calls"] > 0
    # nullspace calls come from the DFS directly and from inside solve_affine
    assert layer["gf.nullspace_array.calls"] == layer["search.exact.expanded"] + layer["gf.solve_affine.calls"]
    assert layer["gf.rref_array.cells"] > 0
    assert layer["forms.subspaces_scanned"] == 0
    # self times partition the CLI call's duration
    own = sum(v for k, v in layer.items() if k.endswith("self_s"))
    assert 0 < own <= layer["search.exact_s"] + layer["cli.self_s"] + layer["algebra.from_json_s"] + 1e-9
    assert all(v >= 0 for v in layer.values())


def test_repeat_counters_identical_on_a_rerun(tmp_path):
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            _run_exact_instance(tmp_path, shape="unital-2-3", seed=1, tracer=tracer)
        counts.append(tracer.repeat_counters(0))
    assert counts[0] == counts[1]
    assert set(counts[0]) == set(REPEAT_COUNTERS)


@pytest.mark.parametrize("kind", sorted(pace.KINDS))
def test_pacer_samples_inside_armed_calls_and_restores_the_alarm(kind):
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pacer(kind, interval=0.01) as pacer:
        pacer.begin()
        pacer.arm()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        inside = pacer.disarm()
        wall = time.perf_counter() - t0 - inside
        paced = pacer.end(wall)
        assert len(pacer.samples) > 3 and inside > 0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    # the stretch is rescaled by the reference's speed across it
    assert paced == pytest.approx(wall * pace.REFERENCE_S[kind] / (sum(pacer.samples) / len(pacer.samples)))
