"""Tests of the benchmark itself, on workloads small enough to run in seconds."""

import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import jointtomo  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TINY_MC = workloads.MonteCarlo(
    "tiny_mc", "test", rounds=2, min_passes=2,
    cases=[("one_qubit_closed_complete", None),
           ("one_qubit_random_pure", None),
           ("one_qubit_closed_incomplete", jointtomo.Stage1Config("tikhonov"))])
TINY_FIT = workloads.Fit("tiny_fit", "test", "two_qubit_mixed_unitary_incomplete",
                         per_grid_point=1)


def _untraced(wl, seed):
    ctx = wl.setup(seed)
    tally = workloads.Tally()
    run.run_passes(wl, ctx, tally, 0.0, passes=1)
    return tally, run.end_to_end(tally, [0.5])


def _bindings():
    """Every attribute of every jointtomo module and class, by identity."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if name == "jointtomo" or name.startswith("jointtomo."):
            for attr, value in vars(mod).items():
                seen[(name, attr)] = value
                if inspect.isclass(value):
                    for member, obj in vars(value).items():
                        seen[(name, attr, member)] = obj
    return seen


def test_shipped_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("wl", [TINY_MC, TINY_FIT], ids=lambda w: w.name)
def test_every_named_metric_appears_with_its_unit(wl):
    tally, metrics = _untraced(wl, seed=3)
    result = run.result_line(tally, metrics, list(E2E))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == E2E
    assert all(v["value"] > 0 for v in result["metrics"].values())

    ctx = wl.setup(3)
    tally, metrics, absent = run.traced_run(wl, ctx, list(LAYER))
    result = run.result_line(tally, metrics, list(LAYER))
    assert result["correct"] and absent == []
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER


def test_self_shares_and_unaccounted_share_sum_to_one():
    ctx = TINY_MC.setup(1)
    _, metrics, _ = run.traced_run(TINY_MC, ctx, list(LAYER))
    shares = [v for k, (v, _) in metrics.items() if k.endswith(".self_share")]
    total = sum(shares) + metrics["trace.unaccounted_share"][0]
    assert total == pytest.approx(1.0, abs=1e-9)
    named = sum(metrics[k][0] for k in LAYER if k.endswith(".self_share"))
    assert named + metrics["trace.other_self_share"][0] + metrics["trace.unaccounted_share"][0] \
        == pytest.approx(1.0, abs=1e-9)
    assert metrics["measurement.simulate_dataset.calls"][0] == 1.0  # one per trial


def test_tracer_patches_every_alias_and_restores_all():
    before = _bindings()
    original = jointtomo.measurement.simulate_dataset
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            wrapped = jointtomo.simulate_dataset
            assert wrapped is not original
            assert jointtomo.bench.simulate_dataset is wrapped
            assert jointtomo.measurement.simulate_dataset is wrapped
            assert jointtomo.refine.correct_state is jointtomo.estimator.correct_state
            assert jointtomo.refine.correct_state.__wrapped__ is not None
            assert jointtomo.KrausChannel.apply.__wrapped__ is not None
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert "estimator.correct_state" in tracer.names


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(jointtomo.channels, "rank_bound")
    wanted = list(LAYER) + ["channels.rank_bound.calls", "channels.rank_bound.self_share"]
    ctx = TINY_MC.setup(1)
    _, metrics, absent = run.traced_run(TINY_MC, ctx, wanted)
    assert absent == ["channels.rank_bound.calls", "channels.rank_bound.self_share"]
    assert metrics["channels.rank_bound.calls"] == (0.0, "count")


def test_failure_is_counted_once_under_its_stage():
    sc = jointtomo.preset("one_qubit_closed_incomplete")
    reg = jointtomo.build_regression_matrices(sc.ensemble, sc.basis)
    ds = jointtomo.simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000,
                                    seed=0, basis=sc.basis)
    with spans.Tracer() as tracer:
        with pytest.raises(jointtomo.DegeneracyError, match=r"^\[stage1\]"):
            jointtomo.estimate_joint_v1(ds, reg.b, sc.basis, jointtomo.Stage1Config("plain_ls"))
    assert dict(tracer.failures) == {"stage1": 1}


@pytest.mark.parametrize("wl", [TINY_MC, TINY_FIT], ids=lambda w: w.name)
def test_same_seed_gives_identical_accuracy(wl):
    first, m1 = _untraced(wl, seed=5)
    second, m2 = _untraced(wl, seed=5)
    other, m3 = _untraced(wl, seed=6)
    for name in ("mse_state_xN", "mse_povm_xN", "failed_frac"):
        assert m1[name][0] == m2[name][0]
    assert m1["mse_state_xN"][0] != m3["mse_state_xN"][0]
    assert math.isfinite(m1["mse_povm_xN"][0])


def test_gate_checks_exactness(monkeypatch):
    assert TINY_MC.gate(1) == []
    monkeypatch.setattr(workloads, "EXACT_TOL", 0.0)
    assert len(TINY_MC.gate(1)) == len(TINY_MC.cases)


def test_gate_runs_in_a_child_process():
    assert run.gate_in_child("mc_d2", 1) == []
    problems = run.gate_in_child("no_such_workload", 1)
    assert len(problems) == 1 and "exited with 2" in problems[0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_d2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
