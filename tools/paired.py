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
revisions, the seeds and the run environment to ``--out``.  It exits 1 when
any run exits non-zero, is not ``correct`` or reports a failed trial, and 2
when the parent revision cannot be exported.
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


def make_record(revisions: dict, environment: dict, seeds: list, seconds: float,
                pairs: list, end_to_end: list) -> dict:
    """The file's content: every pair as run, and their summary."""
    return {
        "schema": SCHEMA, "revisions": revisions, "environment": environment,
        "workloads": list(dict.fromkeys(p["workload"] for p in pairs)), "seeds": seeds,
        "seconds": seconds, "pairs": pairs, "summary": summarize(pairs, end_to_end),
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


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD~1", help="the revision to compare against")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1", help="a range and list, like 201-210 or 1,4")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = p.parse_args(argv)
    seeds, workloads = _seeds(args.seeds), args.workloads.split(",")
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
    record = make_record(revs, environment, seeds, args.seconds, pairs, spec["end_to_end"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    _print_summary(record["summary"])
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
