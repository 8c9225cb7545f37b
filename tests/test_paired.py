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
               "summary", "bounds", "claim", "correct"}
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
    assert record["bounds"].keys() == record["summary"].keys()
    assert all(metrics.keys() == record["summary"][w].keys()
               for w, metrics in record["bounds"].items())
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


def _claimed(parent, change, metric="trials_per_s") -> dict:
    """The verdict on ``mc_d4/metric`` over pairs of (parent, change) values."""
    values = {"trials_per_s": lambda v: {"trials_per_s": v},
              "setup_s": lambda v: {"trials_per_s": 100.0, "setup_s": v}}[metric]
    pairs = [{"workload": "mc_d4", "seed": k, "first": paired.SIDES[k % 2],
              "parent": paired.parse_run(_stdout(**values(a)), 0)[0],
              "change": paired.parse_run(_stdout(**values(b)), 0)[0]}
             for k, (a, b) in enumerate(zip(parent, change))]
    record = paired.make_record(REVISIONS, ENVIRONMENT, list(range(len(pairs))), 1.0, pairs,
                                END_TO_END, claim=f"mc_d4/{metric}")
    return record["claim"]


# Quartiles 98.75 and 101.25 (statistics.quantiles' default method): a distance of 2.5.
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


@pytest.mark.parametrize("change, met", [
    pytest.param([110.0] * 9 + [90.0], True, id="nine-of-ten"),
    pytest.param([110.0] * 8 + [90.0, 90.0], False, id="eight-of-ten"),
    pytest.param([110.0] * 9 + [101.0], True, id="a-tie-counts-for-neither"),
    pytest.param([110.0] * 8 + [PARENT[8], PARENT[9]], False, id="two-ties-are-not-wins"),
    pytest.param([p + 0.5 for p in PARENT], False, id="gain-inside-the-parent-spread"),
])
def test_the_claim_rule(change, met):
    verdict = _claimed(PARENT, change)
    assert verdict["met"] is met and verdict["pairs"] == 10
    assert verdict["parent_iqr_width"] == pytest.approx(2.5)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_a_claim_needs_ten_pairs(n):
    verdict = _claimed(PARENT[:n], [200.0] * n)
    assert verdict["change_wins"] == verdict["pairs"] == n and verdict["met"] is False


def test_the_claim_reports_the_calibration_and_wall_clock_shifts():
    pairs = [{"workload": "mc_d4", "seed": k, "first": paired.SIDES[k % 2],
              "parent": {"metrics": {"trials_per_s": 100.0, "reference_ms_p50": 10.0,
                                     "trials_per_s_wall": 50.0}},
              "change": {"metrics": {"trials_per_s": 110.0, "reference_ms_p50": 11.0,
                                     "trials_per_s_wall": 50.0 - k}}}
             for k in range(11)]
    verdict = paired.claim_verdict(paired.summarize(pairs, END_TO_END), "mc_d4/trials_per_s",
                                   pairs)
    assert verdict["reference_ratio"] == pytest.approx(1.1)
    assert verdict["wall_ratio"] == pytest.approx(45.0 / 50.0)
    assert _claimed(PARENT, PARENT)["reference_ratio"] is None  # the runs do not report it


def test_the_claim_rule_reads_the_better_direction():
    faster = [0.9 * v for v in PARENT]  # lower is better for setup_s
    assert _claimed(PARENT, faster, "setup_s")["met"] is True
    assert _claimed(faster, PARENT, "setup_s")["met"] is False
    assert _claimed(PARENT, faster)["met"] is False  # higher is better for trials_per_s


def test_each_other_metric_is_checked_against_its_bound():
    pairs = [_pair("mc_d2", 1, 100.0, 80.0, setup_s=0.24, rss=60.0),
             _pair("mc_d2", 2, 100.0, 70.0, setup_s=0.26, rss=56.0)]
    record = paired.make_record(REVISIONS, ENVIRONMENT, [1, 2], 1.0, pairs, END_TO_END)
    assert record["claim"] is None
    checks = record["bounds"]["mc_d2"]
    # medians against the parent's: trials_per_s 0.75 (bound 0.25), setup_s 1.25 (0.25),
    # peak_rss_mb 1.16 (0.15)
    assert {name: c["worse_than_bound"] for name, c in checks.items()} == {
        "trials_per_s": False, "setup_s": False, "peak_rss_mb": True}
    assert checks["trials_per_s"]["ratio"] == pytest.approx(0.75)


def test_a_claim_outside_the_run_is_refused_before_anything_runs(tmp_path, capsys):
    out = tmp_path / "BENCH.json"
    for claim in ("mc_d4/trials_per_s", "mc_d2/latency_ms_p50", "mc_d2"):
        with pytest.raises(SystemExit) as exit_:
            paired.main(["--workloads", "mc_d2", "--claim", claim, "--out", str(out)])
        assert exit_.value.code == 2 and "names no workload run" in capsys.readouterr().err
    assert not out.exists()
