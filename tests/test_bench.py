import numpy as np
import pytest
from dataclasses import replace

from jointtomo import (
    DensityMatrix,
    MseTable,
    Stage1Config,
    ValidationError,
    build_regression_matrices,
    fit_loglog_slope,
    preset,
    run_method_comparison,
    run_mse_experiment,
)
from jointtomo.bench import MseRow, PRESET_NAMES


def test_preset_structures():
    sc = preset("one_qubit_closed_complete")
    assert len(sc.ensemble) == 15 and sc.d == 2
    assert sc.truth_povm.m == 3
    assert np.allclose(sorted(np.linalg.eigvalsh(sc.truth_state.rho)), [0.1, 0.9])
    assert np.allclose(sorted(np.linalg.eigvalsh(sc.truth_povm.elements[0])), [0.1, 0.4])
    assert np.allclose(sorted(np.linalg.eigvalsh(sc.truth_povm.elements[1])), [0.1, 0.5])
    assert sc.expect_complete and sc.estimator == "v1"

    sci = preset("one_qubit_closed_incomplete")
    assert len(sci.ensemble) == 6
    assert not sci.expect_complete
    assert sci.stage1.method == "mp_inverse"
    # shares the complete preset's truth
    assert np.allclose(sci.truth_state.rho, sc.truth_state.rho)
    assert np.allclose(sci.truth_povm.elements, sc.truth_povm.elements)

    scp = preset("one_qubit_random_pure")
    assert len(scp.ensemble) == 17 and scp.estimator == "v2" and scp.pure
    assert np.allclose(sorted(np.linalg.eigvalsh(scp.truth_state.rho)), [0.0, 1.0], atol=1e-12)
    assert not any(ch.is_trace_preserving for ch in scp.ensemble.channels)

    sc2 = preset("two_qubit_mixed_unitary")
    assert sc2.d == 4 and len(sc2.ensemble) == 900  # 30 processes x 30 sampling points
    assert np.allclose(sorted(np.linalg.eigvalsh(sc2.truth_state.rho)), [0.1, 0.2, 0.3, 0.4])
    assert np.allclose(sorted(np.linalg.eigvalsh(sc2.truth_povm.elements[0])),
                       [0.1, 0.1, 0.1, 0.3])
    sc2i = preset("two_qubit_mixed_unitary_incomplete")
    assert len(sc2i.ensemble) == 300
    assert np.allclose(sc2i.truth_state.rho, sc2.truth_state.rho)

    with pytest.raises(ValidationError):
        preset("no_such_scenario")


def test_preset_reproducible_from_name_and_seed():
    a = preset("one_qubit_closed_complete", seed=5)
    b = preset("one_qubit_closed_complete", seed=5)
    assert np.array_equal(a.truth_state.rho, b.truth_state.rho)
    assert all(np.array_equal(x.kraus, y.kraus)
               for x, y in zip(a.ensemble.channels, b.ensemble.channels))
    c = preset("one_qubit_closed_complete", seed=6)
    assert not np.allclose(a.truth_state.rho, c.truth_state.rho)


def test_preset_completeness_expectations():
    for name in PRESET_NAMES:
        sc = preset(name)
        reg = build_regression_matrices(sc.ensemble, sc.basis)
        if sc.estimator == "v1":
            assert reg.complete_v1 == sc.expect_complete
        else:
            assert reg.complete_v2 == sc.expect_complete


def test_exact_mode_mse_is_zero():
    sc = preset("one_qubit_closed_complete")
    table = run_mse_experiment(sc, [100, 1000], trials=2, exact=True)
    for row in table.rows:
        assert row.mse_state < 1e-14
        assert row.mse_povm < 1e-14


def test_experiment_determinism_and_accounting():
    sc = preset("one_qubit_closed_complete")
    t1 = run_mse_experiment(sc, [1000, 10000], trials=3, seed=2)
    t2 = run_mse_experiment(sc, [1000, 10000], trials=3, seed=2)
    assert t1.rows == t2.rows
    assert [r.n for r in t1.rows] == [17 * 1000, 17 * 10000]
    t3 = run_mse_experiment(sc, [1000, 10000], trials=3, seed=3)
    assert t1.rows != t3.rows
    scp = preset("one_qubit_random_pure")
    tp = run_mse_experiment(scp, [1000], trials=2, seed=0)
    assert tp.rows[0].n == (2 * 17 + 2) * 1000


def test_failure_accounting():
    sc = preset("one_qubit_closed_complete")
    degenerate = replace(sc, truth_state=DensityMatrix(2, np.eye(2) / 2))
    table = run_mse_experiment(degenerate, [100], trials=3, exact=True)
    assert table.failures == 3
    assert table.rows[0].trials == 0
    assert np.isnan(table.rows[0].mse_state)


def test_monotone_mse_decrease():
    sc = preset("one_qubit_closed_complete")
    table = run_mse_experiment(sc, [10 ** 3, 10 ** 4, 10 ** 5], trials=10, seed=0)
    ms = table.column("mse_state")
    mp = table.column("mse_povm")
    assert np.all(np.diff(ms) < 0)
    assert np.all(np.diff(mp) < 0)


def test_fit_loglog_slope_synthetic():
    rows = tuple(MseRow(n=n, mse_state=3.0 / n, se_state=0.0,
                        mse_povm=2.0, se_povm=0.0, trials=5)
                 for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6))
    table = MseTable(rows=rows, scenario="synthetic")
    slope, intercept, r2 = fit_loglog_slope(table, "mse_state")
    assert abs(slope + 1.0) < 1e-12
    assert abs(np.exp(intercept) - 3.0) < 1e-10
    assert r2 > 1 - 1e-12
    slope, _, _ = fit_loglog_slope(table, "mse_povm")
    assert abs(slope) < 1e-12
    with pytest.raises(ValidationError):
        fit_loglog_slope(MseTable(rows=rows[:2], scenario="x"), "mse_state")
    with pytest.raises(ValidationError):
        fit_loglog_slope(table, "mse_median")


def test_csv_and_metadata_output(tmp_path):
    sc = preset("one_qubit_closed_complete")
    table = run_mse_experiment(sc, [1000, 10000, 100000], trials=3, seed=1)
    csv = tmp_path / "mse.csv"
    table.to_csv(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "N,mse_state,se_state,mse_povm,se_povm,trials"
    assert len(lines) == 4
    assert lines[1].startswith("17000,")
    meta = tmp_path / "mse.meta.json"
    table.write_metadata(meta)
    import json
    data = json.loads(meta.read_text())
    assert data["scenario"] == "one_qubit_closed_complete"
    assert data["n0_grid"] == [1000, 10000, 100000]


def test_method_comparison_is_paired():
    sc = preset("one_qubit_closed_incomplete")
    cfg = Stage1Config(method="mp_inverse")
    tables = run_method_comparison(sc, [1000, 10000], trials=3,
                                   configs=[("a", cfg, None), ("b", cfg, None)], seed=4)
    assert tables["a"].rows == tables["b"].rows
    # restricting to all processes reproduces the unrestricted run
    tables2 = run_method_comparison(sc, [1000, 10000], trials=3,
                                    configs=[("full", cfg, None),
                                             ("subset", cfg, list(range(6)))], seed=4)
    assert tables2["full"].rows == tables2["subset"].rows


def test_experiment_input_validation():
    sc = preset("one_qubit_closed_complete")
    with pytest.raises(ValidationError):
        run_mse_experiment(sc, [1000], trials=1)
    with pytest.raises(ValidationError):
        run_mse_experiment(sc, [1000, 1000], trials=2)


def test_trial_loop_computes_the_ideal_statistics_once(monkeypatch):
    from jointtomo import ProcessEnsemble
    calls = []
    original = ProcessEnsemble.apply

    def counting(self, rho):
        calls.append(len(self))
        return original(self, rho)

    monkeypatch.setattr(ProcessEnsemble, "apply", counting)
    sc = preset("one_qubit_closed_complete")
    table = run_mse_experiment(sc, [100, 1000], trials=3, seed=4)
    assert calls == [len(sc.ensemble)]  # one evolution of the truth for six trials
    assert table.failures == 0 and [r.trials for r in table.rows] == [3, 3]


def _svd_calls_on_design_rows(monkeypatch, rows, action) -> int:
    """How many ``np.linalg.svd`` calls ``action`` makes on matrices with
    ``rows`` rows, the number of processes."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    action()
    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls.count(rows)


@pytest.mark.parametrize("name", ["one_qubit_closed_complete", "one_qubit_random_pure"])
def test_experiment_factors_its_design_once(monkeypatch, name):
    sc = preset(name)
    count = _svd_calls_on_design_rows(
        monkeypatch, len(sc.ensemble),
        lambda: run_mse_experiment(sc, [1000, 10000], trials=2, seed=1))
    assert count == 1


def test_cli_estimate_factors_its_design_once(monkeypatch, tmp_path):
    from jointtomo.cli import main
    ds = str(tmp_path / "ds.json")
    assert main(["simulate", "--preset", "one_qubit_closed_complete", "--n0", "1000",
                 "--out", ds, "--quiet"]) == 0
    count = _svd_calls_on_design_rows(
        monkeypatch, len(preset("one_qubit_closed_complete").ensemble),
        lambda: main(["estimate", "--preset", "one_qubit_closed_complete", "--dataset", ds,
                      "--out", str(tmp_path / "est.json"), "--quiet"]))
    assert count == 1
