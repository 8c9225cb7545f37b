"""Run the benchmark over several seeds and print every metric per workload.

    python3 perfbench/report.py --seeds 1-10 --seconds 12
    python3 perfbench/report.py --workloads fit_d4_incomplete --seeds 7 --trace 1

For each workload and metric it prints the median over the seeds, the first
and third quartiles, and their distance as a share of the median (the
run-to-run spread that BENCHMARK.json's bounds are compared with).  Run from
the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summarize(values) -> dict:
    """Median, quartiles and quartile spread relative to the median."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("nan"), "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                                  timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            detail = json.loads(lines[-2]).get("metrics", {}) if len(lines) > 1 else {}
            ok &= proc.returncode == 0 and result.get("correct", False)
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"correct {result.get('correct')}, attempted {result.get('attempted')}, "
                  f"failed {result.get('failed')}, {time.perf_counter() - t0:.1f} s wall"
                  + ("" if args.trace else "; " + ", ".join(
                      f"{k} {v['value']:.6g}" for k, v in result.get("metrics", {}).items()
                      if v["value"] is not None)),
                  flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:] or (lines[-2] if len(lines) > 1 else ""))
            # the detail line's figures beside the result's, result taking precedence
            runs.append({**detail, **result.get("metrics", {})})
        summary[workload] = {}
        for name in runs[0]:
            values = [r[name]["value"] for r in runs if r.get(name, {}).get("value") is not None]
            if not values:
                continue
            s = summarize(values)
            s["unit"] = runs[0][name]["unit"]
            summary[workload][name] = s
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] > bound
                                                             else "over 1/3 bound")
            print(f"  {name:48s} {s['median']:14.6g} {s['unit']:14s} "
                  f"q1 {s['q1']:12.6g} q3 {s['q3']:12.6g} spread {s['spread']:.4f} {flag}")
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
