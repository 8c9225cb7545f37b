"""Paired parent/change runs of the jointtomo benchmark, written to one JSON file.

    python3 tools/paired.py --parent HEAD~1 --workloads mc_d4 --seeds 201-210 --out BENCH.json

Run from the root of a checkout: that checkout, with its working tree as it
is, is the change.  The parent revision is exported with ``git archive`` into
a temporary directory, and the change's ``perfbench/`` and ``BENCHMARK.json``
are copied over the parent's, so that the two sides differ only in the
package.  For each workload and seed, ``perfbench/run.py --workload W --seed
S --trace 0`` runs once on each side, the side that goes first alternating
from pair to pair.  The script prints, per workload and end-to-end metric of
``BENCHMARK.json``, the median and quartiles of each side and the number of
pairs the change wins, and writes every pair's metrics with that summary, the
revisions, the seeds and the run environment to ``--out``.  For every workload
and metric it also says whether the change's median is worse than the
parent's by more than the metric's ``bound``.  With ``--claim WORKLOAD/METRIC``
it prints and writes the verdict of the claim rule on that metric: there are
at least ten pairs, the change wins at least nine tenths of them, ties
counting for neither, and its median is better than the parent's, in the
metric's ``better`` direction, by more than the distance between the parent's
quartiles.  Beside the verdict it reports the change-over-parent ratio of the
medians of the calibration kernel's time and of the uncalibrated throughput,
so that a calibrated gain the calibration's own shift matches shows.  It exits 1 when any
run exits non-zero, is not ``correct`` or reports a failed trial, and 2 when
the parent revision cannot be exported or the claim names no workload run and
end-to-end metric.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1
SIDES = ("parent", "change")
# The fewest pairs on which a claim can be met.
MIN_CLAIM_PAIRS = 10


def _seeds(text: str) -> list:
    """``1-3,7`` as ``[1, 2, 3, 7]``."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _git(*args, root=ROOT, env=None) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True, timeout=60, env=env).stdout.strip()


def read_revisions(parent: str, root: Path = ROOT) -> dict:
    """The two sides' revisions: the parent commit, the checkout's HEAD
    commit, whether its working tree differs from HEAD, and the tree that
    was measured as the change: the hash ``git write-tree`` gives the
    working tree with every file that is not ignored added, and that of its
    ``src`` directory.  A commit of that working tree has that tree, so the
    change measured is the commit's whenever ``git rev-parse <commit>:src``
    reads ``change_src``."""
    with tempfile.TemporaryDirectory(prefix="paired-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("read-tree", "HEAD", root=root, env=env)
        _git("add", "--all", "--", ".", root=root, env=env)
        tree = _git("write-tree", root=root, env=env)
    return {"parent": _git("rev-parse", "--verify", parent + "^{commit}", root=root),
            "change": _git("rev-parse", "HEAD", root=root),
            "change_dirty": tree != _git("rev-parse", "HEAD^{tree}", root=root),
            "change_tree": tree, "change_src": _git("rev-parse", f"{tree}:src", root=root)}


def export_parent(revision: str, into: Path) -> None:
    """The tree of ``revision`` under ``into``, with the change's benchmark."""
    tar = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                         capture_output=True, check=True, timeout=300).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    shutil.rmtree(into / "perfbench", ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", into / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")


def parse_run(stdout: str, returncode: int) -> tuple:
    """One run of ``perfbench/run.py`` as ``(run, environment)``: its exit
    code, verdict, trial counts and every metric of its report line, as
    ``{name: value}``, and the environment that line records."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        report = json.loads(lines[-2]) if len(lines) > 1 else {}
    except (IndexError, ValueError):
        result, report = {}, {}
    metrics = {name: m.get("value") for name, m in report.get("metrics", {}).items()}
    metrics.update({name: m.get("value") for name, m in result.get("metrics", {}).items()})
    run = {"exit": returncode, "correct": result.get("correct") is True and returncode == 0,
           "attempted": result.get("attempted", 0), "failed": result.get("failed", 0),
           "metrics": metrics}
    return run, report.get("environment", {})


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per workload and end-to-end metric (``BENCHMARK.json``'s entries),
    each side's median and quartiles over the pairs, the ratio of the
    medians (change over parent), and the pairs in which the change is
    strictly better.  A pair missing the metric on either side is left
    out."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        summary[workload] = {}
        for metric in end_to_end:
            name, better = metric["name"], metric["better"]
            got = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                   for p in pairs if p["workload"] == workload]
            got = [(a, b) for a, b in got if a is not None and b is not None]
            if not got:
                continue
            parent, change = [a for a, _ in got], [b for _, b in got]
            wins = sum((b > a) if better == "higher" else (b < a) for a, b in got)
            med = statistics.median(parent)
            summary[workload][name] = {
                "unit": metric["unit"], "better": better, "pairs": len(got),
                "parent_median": med, "parent_iqr": _quartiles(parent),
                "change_median": statistics.median(change), "change_iqr": _quartiles(change),
                "change_wins": wins, "ratio": statistics.median(change) / med if med else None}
    return summary


def _median_ratio(pairs: list, workload: str, name: str):
    """The change's median of the figure ``name`` on ``workload`` over the
    parent's, from the pairs that report it on both sides; None without any,
    or where the parent's median is zero."""
    got = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
           for p in pairs if p["workload"] == workload]
    got = [(a, b) for a, b in got if a is not None and b is not None]
    if not got:
        return None
    med = statistics.median(a for a, _ in got)
    return statistics.median(b for _, b in got) / med if med else None


def claim_verdict(summary: dict, claim: str, pairs: list = ()) -> dict:
    """The claim rule on ``claim``, ``"WORKLOAD/METRIC"``: met when there are
    at least ``MIN_CLAIM_PAIRS`` pairs, the change wins at least nine tenths
    of them (``change_wins`` counts strict wins only, so a tie counts for
    neither side) and its median beats the parent's, in the metric's better
    direction, by more than the parent's quartile distance.  Beside it, the
    ratios of the medians (change over parent) of the calibration kernel's
    time and of the uncalibrated throughput on the workload, from ``pairs``:
    a calibrated gain that the calibration's own shift matches is not a
    gain of the program."""
    workload, metric = claim.split("/")
    e = summary.get(workload, {}).get(metric)
    if e is None:
        return {"claim": claim, "pairs": 0, "met": False}
    q1, q3 = e["parent_iqr"]
    gain = e["change_median"] - e["parent_median"]
    gain = gain if e["better"] == "higher" else -gain
    return {"claim": claim, "pairs": e["pairs"], "change_wins": e["change_wins"],
            "median_gain": gain, "parent_iqr_width": q3 - q1,
            "met": (e["pairs"] >= MIN_CLAIM_PAIRS and 10 * e["change_wins"] >= 9 * e["pairs"]
                    and gain > q3 - q1),
            "reference_ratio": _median_ratio(pairs, workload, "reference_ms_p50"),
            "wall_ratio": _median_ratio(pairs, workload, "trials_per_s_wall")}


def bound_checks(summary: dict, end_to_end: list) -> dict:
    """Per workload and end-to-end metric: the ratio of the medians and
    whether the change's median is worse than the parent's by more than the
    metric's ``bound`` (a fraction of the parent's median); None where the
    parent's median is zero."""
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    checks = {}
    for workload, metrics in summary.items():
        checks[workload] = {}
        for name, e in metrics.items():
            ratio, bound = e["ratio"], bounds[name]
            worse = None if ratio is None else (
                ratio < 1 - bound if e["better"] == "higher" else ratio > 1 + bound)
            checks[workload][name] = {"ratio": ratio, "bound": bound, "worse_than_bound": worse}
    return checks


def make_record(revisions: dict, environment: dict, seeds: list, seconds: float,
                pairs: list, end_to_end: list, claim: str = None) -> dict:
    """The file's content: every pair as run, their summary, the bound
    checks and, with a ``claim``, its verdict (else None)."""
    summary = summarize(pairs, end_to_end)
    return {
        "schema": SCHEMA, "revisions": revisions, "environment": environment,
        "workloads": list(dict.fromkeys(p["workload"] for p in pairs)), "seeds": seeds,
        "seconds": seconds, "pairs": pairs, "summary": summary,
        "bounds": bound_checks(summary, end_to_end),
        "claim": None if claim is None else claim_verdict(summary, claim, pairs),
        "correct": all(p[side]["correct"] and p[side]["failed"] == 0
                       for p in pairs for side in SIDES),
    }


def _print_summary(summary: dict) -> None:
    print(f"{'workload':18} {'metric':13} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'ratio':>7} {'wins':>6}")
    for workload, metrics in summary.items():
        for name, e in metrics.items():
            sides = [f"{e[f'{s}_median']:.5g} [{e[f'{s}_iqr'][0]:.5g}, {e[f'{s}_iqr'][1]:.5g}]"
                     for s in SIDES]
            ratio = "-" if e["ratio"] is None else f"{e['ratio']:.3f}"
            print(f"{workload:18} {name:13} {sides[0]:>32} {sides[1]:>32} {ratio:>7} "
                  f"{e['change_wins']:>3}/{e['pairs']}")


def _print_verdicts(record: dict) -> None:
    for workload, metrics in record["bounds"].items():
        for name, check in metrics.items():
            verdict = {None: "not judged (parent median 0)", True: "WORSE than its bound",
                       False: "within its bound"}[check["worse_than_bound"]]
            print(f"{workload}/{name}: change median {verdict} ({check['bound']:.0%})")
    claim = record["claim"]
    if claim is None:
        return
    if not claim["pairs"]:
        print(f"claim {claim['claim']}: NOT MET (no pair measured it)")
        return
    print(f"claim {claim['claim']}: {'MET' if claim['met'] else 'NOT MET'} "
          f"(change wins {claim['change_wins']}/{claim['pairs']}, at least "
          f"{MIN_CLAIM_PAIRS} pairs needed; median gain {claim['median_gain']:.5g} against a "
          f"parent quartile distance of {claim['parent_iqr_width']:.5g})")
    for key, what in (("reference_ratio", "calibration kernel time (reference_ms_p50)"),
                      ("wall_ratio", "uncalibrated throughput (trials_per_s_wall)")):
        if claim[key] is not None:
            print(f"  change/parent median of the {what}: {claim[key]:.3f}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1", help="the revision to compare against")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1", help="a range and list, like 201-210 or 1,4")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    p.add_argument("--claim", metavar="WORKLOAD/METRIC",
                   help="judge this end-to-end metric of a workload run by the claim rule")
    args = p.parse_args(argv)
    seeds, workloads = _seeds(args.seeds), args.workloads.split(",")
    if args.claim is not None:
        workload, _, metric = args.claim.partition("/")
        if workload not in workloads or metric not in {m["name"] for m in spec["end_to_end"]}:
            p.error(f"--claim {args.claim!r} names no workload run and end-to-end metric")
    pairs, environment = [], {}
    with tempfile.TemporaryDirectory(prefix="paired-parent-") as tmp:
        try:
            revs = read_revisions(args.parent)
            export_parent(revs["parent"], Path(tmp))
        except (OSError, subprocess.SubprocessError) as exc:
            print(f"paired: cannot export {args.parent!r}: {exc}", file=sys.stderr)
            return 2
        roots = {"parent": Path(tmp), "change": ROOT}
        for i, (workload, seed) in enumerate((w, s) for w in workloads for s in seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=roots[side], capture_output=True, text=True,
                                      timeout=1800)
                pair[side], env = parse_run(proc.stdout, proc.returncode)
                if side == "change" and not environment:
                    environment = env
                if not pair[side]["correct"] or pair[side]["failed"]:
                    print(f"{side} run of {workload} seed {seed} failed (exit "
                          f"{proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
            print(f"{workload} seed {seed} ({order[0]} first): " + "; ".join(
                f"{side} trials_per_s {pair[side]['metrics'].get('trials_per_s')}"
                for side in SIDES), flush=True)
            pairs.append(pair)
    record = make_record(revs, environment, seeds, args.seconds, pairs, spec["end_to_end"],
                         args.claim)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    _print_summary(record["summary"])
    _print_verdicts(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
