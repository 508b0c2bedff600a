"""commdim benchmark: closed-loop CLI workloads with answer checks.

    python3 perfbench/run.py --workload pipeline-p2 --seed 1 --seconds 35 --trace 0

One caller in one process drives ``commdim.cli.main(argv)`` in-process, each
call waiting for the previous one, with its JSON files in a scratch directory
inside the checkout and ``--jobs`` left at its default of 1.  A run sets up
(SETUP_REPEATS times, median reported), runs each shape of the workload once
to warm up, then makes passes over the workload's fixed list of instances:
at least MIN_PASSES, and another only while it fits into ``--seconds``.
Every answer is checked.

Times are paced (see ``pace.py``): wall time rescaled by a reference
computation timed around and inside each instance, so that load from other
work on the host does not move them.  ``--trace 0`` reports the end-to-end
metrics, from the median pass of each instance, and prints the same figures
in unpaced wall seconds as ``wall.*`` lines.  ``--trace 1`` runs every
instance once with the wrappers of ``tracer.py`` installed and reports the
per-layer metrics of those calls; the first half of the list also runs
untraced, which gives the tracing overhead.  It then re-runs the first
instance of each shape under a fresh tracer to assert that the
machine-independent counters repeat exactly, and writes the spans to
``.perfbench_out/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from pathlib import Path

from pace import Pacer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
# every instance runs at least this often, and its time is the median pass
MIN_PASSES = 2
INPUT_FLAGS = ("--from", "--alg", "--cert")


def _import_program():
    """The workloads module and commdim.cli.main, both from this checkout's src/."""
    if not (SRC / "commdim" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no commdim sources under {SRC}")
    import workloads  # puts SRC first on sys.path
    import commdim.cli

    if not Path(commdim.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"benchmark: commdim was imported from {commdim.cli.__file__}, not {SRC}")
    return workloads, commdim.cli.main


def call_cli(main, argv: list[str], tracer=None, instance: int = -1, pacer=None):
    """One closed-loop CLI call: (exit code, parsed stdout, seconds, stdout bytes).
    The seconds leave out the pacer's reference runs inside the call."""
    buf = io.StringIO()
    inside = 0.0
    if pacer:
        pacer.arm()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = tracer.call_cli(main, argv, instance) if tracer else main(argv)
    except Exception:  # a crash is a failed answer, not a benchmark error
        traceback.print_exc()
        rc = -1
    finally:
        if pacer:
            inside = pacer.disarm()
    elapsed = time.perf_counter() - t0 - inside
    text = buf.getvalue()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    return rc, doc, elapsed, len(text.encode())


def _input_bytes(argv: list[str]) -> int:
    return sum(os.path.getsize(argv[i + 1]) for i, a in enumerate(argv[:-1]) if a in INPUT_FLAGS)


def run_instance(wl, main, inst, inputs: Path, work: Path, expected: dict, tracer=None, pacer=None):
    """Run one instance's commands back to back; return (seconds, paced
    seconds or None without a pacer, problems)."""
    work.mkdir(parents=True, exist_ok=True)
    outs, seconds = [], 0.0
    if pacer:
        pacer.begin()
    for argv in wl.commands(inst, inputs, work):
        in_bytes = _input_bytes(argv) if tracer else 0
        rc, doc, elapsed, out_bytes = call_cli(main, argv, tracer, inst.index, pacer)
        seconds += elapsed
        outs.append((rc, doc))
        if tracer:
            tracer.count(inst.index, "cli.json_bytes", in_bytes + out_bytes)
    paced = pacer.end(seconds) if pacer else None
    try:
        problems = wl.check(inst, outs, inputs, work, expected)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    shutil.rmtree(work)
    for p in problems:
        print(f"FAIL {wl.name} instance {inst.index} ({inst.shape}, seed {inst.seed}): {p}", file=sys.stderr)
    return seconds, paced, problems


def measure_setup(wl, instances, work: Path) -> tuple[float, float, Path]:
    """Median over SETUP_REPEATS of: fresh interpreter importing commdim.cli,
    plus writing the workload's inputs.  Returns it in wall and in paced
    seconds, with the last input dir.  Set-up is mostly the child's imports
    and JSON encoding, so the small reference paces it on every workload."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import commdim.cli"
    pacer = Pacer("small")
    times, paced = [], []
    for r in range(SETUP_REPEATS):
        inputs = work / f"inputs{r}"
        pacer.begin()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms, which
        # rounds the child's time up to the next step
        subprocess.run([sys.executable, "-c", code], check=True)
        inputs.mkdir()
        wl.write_inputs(instances, inputs)
        times.append(time.perf_counter() - t0)
        paced.append(pacer.end(times[-1]))
    return statistics.median(times), statistics.median(paced), inputs


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _upper_quartile(values: list[float]) -> float:
    """The nearest-rank 75th percentile: a measured sample, like median_high."""
    return sorted(values)[math.ceil(0.75 * len(values)) - 1]


def untraced_run(wl, main, instances, inputs, work, expected, seconds: float, pacer) -> dict:
    """A warm-up, then MIN_PASSES passes over the list, more while another
    pass fits into ``seconds``.  An instance's time is the median of its paced
    passes."""
    paced = [[] for _ in instances]
    wall = [[] for _ in instances]
    pass_times, failed, attempted = [], 0, 0
    # one untimed run of each shape first: the first calls of a process
    # import lazily, grow the heap and start BLAS threads
    warm = {inst.shape: inst for inst in reversed(instances)}
    for inst in warm.values():
        failed += bool(run_instance(wl, main, inst, inputs, work / "run", expected)[2])
        attempted += 1
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for j, inst in enumerate(instances):
            t, t_paced, problems = run_instance(wl, main, inst, inputs, work / "run", expected, pacer=pacer)
            wall[j].append(t)
            paced[j].append(t_paced)
            attempted += 1
            failed += bool(problems)
        pass_times.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - t_start
        if len(pass_times) >= MIN_PASSES and elapsed + max(pass_times) > seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{wl.name}: {len(pass_times)} passes of {len(instances)} instances, "
        f"{len(pacer.samples)} reference runs (median {statistics.median(pacer.samples) * 1e3:.2f} ms)",
        file=sys.stderr,
    )
    metrics, wall_metrics = {}, {}
    for out, per_pass in ((metrics, paced), (wall_metrics, wall)):
        per = [statistics.median(ts) for ts in per_pass]
        # the upper median is a measured sample; on structure, whose instances
        # are bimodal (d = 24 and d = 48), the mean of the two middle samples
        # would sit in the gap between the modes
        out["run_s"] = _metric(sum(per), "s")
        out["instance_s.p50"] = _metric(statistics.median_high(per), "s")
        out["instance_s.p75"] = _metric(_upper_quartile(per), "s")
    metrics["peak_rss_mb"] = _metric(peak_mb, "MB")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "wall": wall_metrics, "repeat_ok": True}


def traced_run(wl, main, instances, inputs, work, expected, pacer) -> dict:
    from tracer import LAYER_METRICS, Tracer

    # the first half of the list also runs untraced, for the overhead; it
    # holds every shape of every workload.  Both sides of a pair are paced
    # from reference runs before and after them only: a reference run inside
    # a traced call would land in its spans
    n_paired = len(instances) // 2
    ratios, pair, pairs_of_shape = [], {}, Counter()
    failed = 0
    tracer = Tracer()
    for inst in instances:
        paired = inst.index < n_paired
        sides = [True]
        if paired:  # alternate, per shape, which side runs first
            sides = [False, True] if pairs_of_shape[inst.shape] % 2 == 0 else [True, False]
            pairs_of_shape[inst.shape] += 1
        for traced in sides:
            # the wrappers are installed only around traced calls
            pacer.begin()
            with tracer if traced else contextlib.nullcontext():
                t, _, problems = run_instance(
                    wl, main, inst, inputs, work / "run", expected, tracer if traced else None
                )
            t = pacer.end(t)
            failed += bool(problems)
            pair[traced] = t
        if paired:
            ratios.append(pair[True] / pair[False])
    layer = tracer.metrics()
    # the median pair, so that a burst of load on one side of one pair does
    # not decide it
    layer["trace.overhead_frac"] = statistics.median(ratios) - 1
    repeat_ok = True
    firsts = {}
    for inst in instances:
        firsts.setdefault(inst.shape, inst)
    for inst in firsts.values():
        with Tracer() as again:
            _, _, problems = run_instance(wl, main, inst, inputs, work / "run", expected, again)
        failed += bool(problems)
        first, second = tracer.repeat_counters(inst.index), again.repeat_counters(inst.index)
        if first != second:
            repeat_ok = False
            diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
            print(f"REPEAT {wl.name} instance {inst.index}: counters differ {diff}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl.name}.tsv")
    metrics = {name: _metric(layer[name], unit) for name, unit in LAYER_METRICS}
    attempted = len(instances) + n_paired + len(firsts)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "repeat_ok": repeat_ok}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, cli_main = _import_program()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()
    instances = wl.instances(args.seed)

    TMP.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP) as tmp, Pacer(wl.pace) as pacer:
        work = Path(tmp)
        setup_wall, setup_s, inputs = measure_setup(wl, instances, work)
        if args.trace:
            result = traced_run(wl, cli_main, instances, inputs, work, expected, pacer)
        else:
            result = untraced_run(wl, cli_main, instances, inputs, work, expected, args.seconds, pacer)
            result["metrics"] = {"setup_s": _metric(setup_s, "s"), **result["metrics"]}
            result["wall"] = {"setup_s": _metric(setup_wall, "s"), **result["wall"]}

    failed_frac = result["failed"] / result["attempted"]
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in result.get("wall", {}).items():
        print(f"wall.{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed_frac:.6g} fraction")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["repeat_ok"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
