"""The paired-run script (``tools/paired.py``) on canned benchmark output:
what it reads from a run and the layout of the file it writes; and the
revisions it records, on a scratch git repository."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("paired", ROOT / "tools" / "paired.py")
paired = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired)
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
ENVIRONMENT = {"git_sha": "unknown", "python": "3.11", "numpy": "2.0", "nproc": 2, "seed": 1}
REVISIONS = {"parent": "a" * 40, "change": "b" * 40, "change_dirty": True, "change_tree": "c" * 40,
             "change_src": "d" * 40}
# Keys of the file, and of each pair's run and each summary entry in it.
RECORD_KEYS = {"schema", "revisions", "environment", "workloads", "seeds", "seconds", "pairs",
               "summary", "correct"}
RUN_KEYS = {"exit", "correct", "attempted", "failed", "metrics"}
SUMMARY_KEYS = {"unit", "better", "pairs", "parent_median", "parent_iqr", "change_median",
                "change_iqr", "change_wins", "ratio"}


def _stdout(trials_per_s, setup_s=0.2, rss=50.0, correct=True, failed=0) -> str:
    """What ``perfbench/run.py --trace 0`` prints: a report line with every
    figure and the environment, then the result line."""
    metrics = {"setup_s": (setup_s, "s"), "trials_per_s": (trials_per_s, "1/s"),
               "peak_rss_mb": (rss, "MB")}
    report = {"workload": "mc_d2", "environment": ENVIRONMENT,
              "metrics": {**{k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                          "latency_ms_p50": {"value": 3.0, "unit": "ms"}}}
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return "ready\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def _pair(workload, seed, parent_tps, change_tps, first="parent", **change):
    return {"workload": workload, "seed": seed, "first": first,
            "parent": paired.parse_run(_stdout(parent_tps), 0)[0],
            "change": paired.parse_run(_stdout(change_tps, **change), 0)[0]}


def test_a_run_is_read_from_its_last_two_lines():
    run, env = paired.parse_run(_stdout(1000.0), 0)
    assert env == ENVIRONMENT
    assert run == {"exit": 0, "correct": True, "attempted": 100, "failed": 0,
                   "metrics": {"setup_s": 0.2, "trials_per_s": 1000.0, "peak_rss_mb": 50.0,
                               "latency_ms_p50": 3.0}}
    assert not paired.parse_run(_stdout(1000.0), 1)[0]["correct"]  # a non-zero exit
    assert not paired.parse_run(_stdout(1000.0, correct=False), 1)[0]["correct"]
    run, env = paired.parse_run("Traceback (most recent call last):\n", 1)
    assert not run["correct"] and run["metrics"] == {} and env == {}


def _assert_layout(record: dict, workloads: list, seeds: list) -> None:
    """The file's layout: every key, one pair per workload and seed with
    both sides' runs, and a summary entry with every field."""
    assert set(record) == RECORD_KEYS and record["schema"] == paired.SCHEMA
    assert sorted((p["workload"], p["seed"]) for p in record["pairs"]) == sorted(
        (w, s) for w in workloads for s in seeds)
    for pair in record["pairs"]:
        assert pair["first"] in paired.SIDES
        assert all(set(pair[side]) == RUN_KEYS for side in paired.SIDES)
    assert list(record["summary"]) == workloads
    for metrics in record["summary"].values():
        assert set(metrics) == {m["name"] for m in END_TO_END}
        assert all(set(e) == SUMMARY_KEYS and len(e["parent_iqr"]) == 2
                   for e in metrics.values())
    assert isinstance(record["correct"], bool)


def test_the_record_summarizes_every_pair(tmp_path):
    pairs = [_pair("mc_d2", 1, 100.0, 110.0), _pair("mc_d2", 2, 120.0, 115.0, first="change"),
             _pair("mc_d2", 3, 90.0, 130.0, rss=49.0),
             _pair("fit_d4_incomplete", 1, 10.0, 12.0), _pair("fit_d4_incomplete", 2, 11.0, 13.0),
             _pair("fit_d4_incomplete", 3, 12.0, 14.0)]
    record = paired.make_record(REVISIONS, ENVIRONMENT, [1, 2, 3], 1.0, pairs, END_TO_END)
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(record))
    record = json.loads(path.read_text())
    _assert_layout(record, ["mc_d2", "fit_d4_incomplete"], [1, 2, 3])
    assert record["correct"] is True and record["revisions"] == REVISIONS
    tps = record["summary"]["mc_d2"]["trials_per_s"]
    assert (tps["parent_median"], tps["change_median"], tps["change_wins"], tps["pairs"]) == (
        100.0, 115.0, 2, 3)
    assert tps["ratio"] == pytest.approx(1.15) and tps["parent_iqr"][0] <= 100.0
    rss = record["summary"]["mc_d2"]["peak_rss_mb"]  # lower is better: one pair used less
    assert rss["better"] == "lower" and rss["change_wins"] == 1


def test_a_failed_trial_makes_the_record_incorrect():
    pairs = [_pair("mc_d2", 1, 100.0, 110.0, failed=3)]
    record = paired.make_record(REVISIONS, ENVIRONMENT, [1], 1.0, pairs, END_TO_END)
    _assert_layout(record, ["mc_d2"], [1])
    assert record["correct"] is False


def test_the_revisions_name_the_measured_tree(tmp_path):
    """A dirty working tree is recorded by the tree a commit of it has."""
    def git(*args):
        config = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
        return subprocess.run(["git", *config, *args], cwd=tmp_path, capture_output=True,
                              text=True, check=True).stdout.strip()

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / ".gitignore").write_text("out.json\n")
    git("add", "--all")
    git("commit", "-q", "-m", "one")
    clean = paired.read_revisions("HEAD", root=tmp_path)
    assert clean["parent"] == clean["change"] == git("rev-parse", "HEAD")
    assert not clean["change_dirty"] and clean["change_tree"] == git("rev-parse", "HEAD^{tree}")
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    (tmp_path / "src" / "b.py").write_text("y = 1\n")  # untracked, and measured
    (tmp_path / "out.json").write_text("{}")  # ignored
    dirty = paired.read_revisions("HEAD", root=tmp_path)
    assert dirty["change"] == clean["change"] and dirty["change_dirty"]
    assert git("status", "--porcelain") == "M src/a.py\n?? src/b.py"  # the index is untouched
    git("add", "--all")
    git("commit", "-q", "-m", "two")
    assert dirty["change_tree"] == git("rev-parse", "HEAD^{tree}")
    assert dirty["change_src"] == git("rev-parse", "HEAD:src") != clean["change_src"]
