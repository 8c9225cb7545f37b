"""Run one workload of the jointtomo benchmark and print its metrics.

    python3 perfbench/run.py --workload mc_d4 --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json`` from
an untraced run.  ``--trace 1`` runs one pass of the workload's rounds
untraced and one with every public function of the layer modules wrapped in
a span, and reports the per-layer metrics.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it holds every figure the run made, with the run environment.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
# Per-function figures and their units.
LAYER_FIELDS = {"calls": "count", "self_ms_p50": "ms", "self_share": "share"}


def _pin_threads() -> None:
    """Single-threaded BLAS; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_package():
    init = ROOT / "src" / "jointtomo" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a jointtomo checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import jointtomo
    if Path(jointtomo.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported jointtomo from {jointtomo.__file__}, not {init}")
    import workloads
    return workloads


def _percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if values else 0.0


def setup_seconds(workload: str, seed: int) -> tuple:
    """Wall time from starting a fresh interpreter until it is ready to make
    its first timed call, once per repeat: raw, and calibrated by the
    reference kernel timed around each start."""
    import reference
    raw, calibrated = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    ref_before = reference.seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: set-up child exited with {code}")
        ref_after = reference.seconds()
        raw.append(elapsed)
        calibrated.append(elapsed * reference.NOMINAL_S / ((ref_before + ref_after) / 2.0))
        ref_before = ref_after
    return raw, calibrated


def gate_in_child(workload: str, seed: int) -> list:
    """The workload's correctness gate, run in a child process so that its
    memory does not count towards this process's ``peak_rss_mb``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--gate-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    try:
        problems = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        problems = [f"gate child exited with {proc.returncode}: {proc.stderr[-500:]}"]
    if proc.returncode != 0 and not problems:
        problems = [f"gate child exited with {proc.returncode}"]
    return problems


def _timed_reference() -> tuple:
    """The reference kernel's fastest time, and the wall time its repeats took."""
    import reference
    t0 = time.perf_counter()
    best = reference.seconds()
    return best, time.perf_counter() - t0


def run_passes(wl, ctx, tally, seconds: float, passes: int) -> None:
    """Run the workload's rounds in order, pass after pass, until at least
    ``passes`` passes are complete and ``seconds`` have passed; the first
    pass is scored.  The reference kernel runs between rounds; ``tally``
    gets the wall time of the rounds alone."""
    t0 = time.perf_counter()
    ref_before, ref_total = _timed_reference()
    r = 0
    while r < passes * wl.rounds or time.perf_counter() - t0 < seconds:
        wl.run_round(ctx, r % wl.rounds, tally, first=r < wl.rounds)
        ref_after, ref_elapsed = _timed_reference()
        tally.close_round(ref_before, ref_after)
        ref_before = ref_after
        ref_total += ref_elapsed
        r += 1
    tally.wall_s = time.perf_counter() - t0 - ref_total


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    import jointtomo
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # a checkout without git metadata
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": sha, "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "jointtomo": jointtomo.__version__,
        "nproc": len(os.sched_getaffinity(0)), "seed": seed,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _ms(tally, part: str) -> list:
    return [v * 1e3 for v in tally.best.get(part, {}).values()]


def end_to_end(tally, setup: list) -> dict:
    """Metrics of an untraced run, as ``{name: (value, unit)}``."""
    mse_state, mse_povm = tally.mse_xn()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "trials_per_s": (tally.trials_per_s(), "1/s"),
        "latency_ms_p50": (_percentile(_ms(tally, "step"), 50), "ms"),
        "latency_ms_p90": (_percentile(_ms(tally, "step"), 90), "ms"),
        "trials_per_s_wall": (tally.trials / tally.wall_s, "1/s"),
        "reference_ms_p50": (_percentile([v * 1e3 for v in tally.reference_s], 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "mse_state_xN": (mse_state, "1"),
        "mse_povm_xN": (mse_povm, "1"),
        "failed_frac": (tally.failed / tally.trials, "share"),
    }
    for part in ("estimate", "refine"):
        if part in tally.best:
            metrics[f"{part}_ms_p50"] = (_percentile(_ms(tally, part), 50), "ms")
            metrics[f"{part}_ms_p90"] = (_percentile(_ms(tally, part), 90), "ms")
    return metrics


def per_layer(wl, ctx, plain, traced, tracer, wanted) -> tuple:
    """Metrics of a traced run, as ``{name: (value, unit)}``, and the
    per-function names in ``wanted`` that the package no longer has (reported
    as 0 and listed as absent)."""
    from spans import FAILURE_STAGES
    stats = tracer.layer_stats()
    traced_wall = traced.wall_s
    metrics = {}
    for name, st in stats["layers"].items():
        metrics[f"{name}.calls"] = (st["calls"] / traced.trials, "count")
        metrics[f"{name}.self_ms_p50"] = (st["self_ms_p50"], "ms")
        metrics[f"{name}.self_share"] = (st["self_s"] / traced_wall, "share")
    absent = [k for k in wanted if k.rpartition(".")[2] in LAYER_FIELDS and k not in metrics]
    for key in absent:
        metrics[key] = (0.0, LAYER_FIELDS[key.rpartition(".")[2]])
    # Named self shares, the rest of the spans' self time, and the time
    # outside every span add up to 1.
    named = {k.rpartition(".")[0] for k in wanted if k.endswith(".self_share")}
    metrics["trace.other_self_share"] = (
        sum(st["self_s"] for n, st in stats["layers"].items() if n not in named) / traced_wall,
        "share")
    metrics["trace.unaccounted_share"] = (1.0 - stats["covered_s"] / traced_wall, "share")
    untraced_tps, traced_tps = plain.trials / plain.wall_s, traced.trials / traced_wall
    metrics["trace.untraced_trials_per_s"] = (untraced_tps, "1/s")
    metrics["trace.trials_per_s"] = (traced_tps, "1/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_tps / untraced_tps, "share")
    # Every failure leaves through a wrapped function, so the tracer sees it.
    for stage in FAILURE_STAGES:
        metrics[f"failures.{stage}"] = (float(tracer.failures[stage]), "count")
    metrics["failed_frac"] = (traced.failed / traced.trials, "share")
    sweeps, attempts = plain.refine_sweeps, sum(plain.refine_attempts)
    metrics["refine.sweeps_mean"] = (sum(sweeps) / len(sweeps) if sweeps else 0.0, "count")
    metrics["refine.hit_iters_frac"] = (
        plain.refine_hit_iters / len(sweeps) if sweeps else 0.0, "share")
    metrics["refine.useful_sweep_frac"] = (sum(sweeps) / attempts if attempts else 0.0, "share")
    for part in ("estimate", "refine"):
        metrics[f"fit.{part}_ms_p50"] = (_percentile(_ms(plain, part), 50), "ms")
        metrics[f"fit.{part}_ms_p90"] = (_percentile(_ms(plain, part), 90), "ms")
    mse_state, mse_povm = plain.mse_xn()
    metrics["accuracy.mse_state_xN"] = (mse_state, "1")
    metrics["accuracy.mse_povm_xN"] = (mse_povm, "1")
    built, solve = wl.b_bytes(ctx)
    metrics["channels.b.bytes"] = (float(built), "bytes-computed")
    metrics["estimator.stage1_solve.b_bytes"] = (float(solve), "bytes-computed")
    return metrics, absent


def traced_run(wl, ctx, wanted) -> tuple:
    """The scored rounds untraced, then again under the tracer."""
    from spans import Tracer
    from workloads import Tally
    plain, traced = Tally(), Tally()
    run_passes(wl, ctx, plain, 0.0, passes=1)
    with Tracer() as tracer:
        run_passes(wl, ctx, traced, 0.0, passes=1)
    metrics, absent = per_layer(wl, ctx, plain, traced, tracer, wanted)
    traced.problems += plain.problems
    return traced, metrics, absent


def result_line(tally, metrics: dict, wanted) -> dict:
    """The benchmark's result: correctness, counts and the ``wanted`` metrics
    (a non-finite value is reported as null and makes the result incorrect)."""
    tally.check_consistency()
    finite = {k: math.isfinite(metrics[k][0]) for k in wanted}
    return {
        "correct": not tally.problems and all(finite.values()),
        "attempted": tally.trials, "failed": tally.failed,
        "metrics": {k: {"value": metrics[k][0] if finite[k] else None, "unit": metrics[k][1]}
                    for k in wanted},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    p.add_argument("--gate-only", action="store_true",
                   help="run the correctness gate, print its problems as JSON and exit")
    args = p.parse_args(argv)
    _pin_threads()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = _import_package()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    if args.gate_only:
        problems = wl.gate(args.seed)
        print(json.dumps(problems))
        return 1 if problems else 0
    if args.setup_only:
        wl.setup(args.seed)
        print("ready", flush=True)
        return 0

    report = {"workload": wl.name, "why": wl.why, "environment": environment(args.seed)}
    problems = gate_in_child(wl.name, args.seed)
    if problems:
        report["gate_failures"] = problems
        print(json.dumps(report))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    ctx = wl.setup(args.seed)
    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        tally, metrics, report["absent"] = traced_run(wl, ctx, wanted)
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        report["setup_s_raw"], setup = setup_seconds(wl.name, args.seed)
        tally = workloads.Tally()
        run_passes(wl, ctx, tally, args.seconds, passes=wl.min_passes)
        metrics = end_to_end(tally, setup)
    result = result_line(tally, metrics, wanted)
    report["metrics"] = {k: {"value": v if math.isfinite(v) else None, "unit": u}
                         for k, (v, u) in metrics.items()}
    report["problems"] = tally.problems
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
