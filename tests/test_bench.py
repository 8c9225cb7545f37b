import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from jointtomo import (
    DegeneracyError,
    DensityMatrix,
    MseTable,
    Stage1Config,
    ValidationError,
    build_regression_matrices,
    estimate_joint_v1,
    estimate_joint_v2,
    factor_design,
    fit_loglog_slope,
    is_generalized_unital,
    preset,
    project_pure,
    run_method_comparison,
    run_mse_experiment,
    simulate_dataset,
)
import jointtomo as jt
from jointtomo import bench, coherence_to_state, stage1_solve, to_coords
from jointtomo.bench import MseRow, PRESET_NAMES
from jointtomo.measurement import THREADED_DRAW_ROWS, MeasurementDataset


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


def _seeded_calls():
    """Each public function that takes a seed, as ``name -> call(seed)``, on
    the smallest inputs that reach the seed."""
    sc = preset("one_qubit_closed_complete")
    configs = [("ls", Stage1Config(), None)]
    return {
        "preset": lambda seed: preset("one_qubit_closed_complete", seed=seed),
        "simulate_dataset": lambda seed: simulate_dataset(
            sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=seed, basis=sc.basis),
        "run_mse_experiment": lambda seed: run_mse_experiment(sc, [100], 2, seed=seed),
        "run_method_comparison": lambda seed: run_method_comparison(sc, [100], 2, configs,
                                                                    seed=seed),
    }


@pytest.mark.parametrize("name", ["preset", "simulate_dataset", "run_mse_experiment",
                                  "run_method_comparison"])
@pytest.mark.parametrize("seed, message", [
    pytest.param(-1, "seed must be >= 0, got -1", id="negative"),
    pytest.param(2.5, "seed must be a whole number, got 2.5", id="fraction"),
    pytest.param(True, "seed must be a whole number, got True", id="bool"),
    pytest.param("3", "seed must be a whole number, got '3'", id="string"),
])
def test_seeds_are_refused_unless_whole_and_non_negative(name, seed, message):
    call = _seeded_calls()[name]
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(seed)


def test_seeds_that_are_whole_numbers_or_generators_are_read_as_before():
    calls = _seeded_calls()
    # A whole number given as a float or a numpy integer is that number.
    for name in ("run_mse_experiment", "run_method_comparison"):
        assert calls[name](3.0) == calls[name](np.int64(3)) == calls[name](3)
    a, b = calls["preset"](3.0), calls["preset"](3)
    assert a.seed == 3 and np.array_equal(a.truth_state.rho, b.truth_state.rho)
    # simulate_dataset also takes None, a SeedSequence, a BitGenerator or a Generator.
    simulate = calls["simulate_dataset"]
    assert np.array_equal(simulate(3.0).y_hat, simulate(3).y_hat)
    sequence = np.random.SeedSequence(4)
    expected = simulate(sequence).y_hat
    for seed in (np.random.PCG64(sequence), np.random.default_rng(sequence)):
        assert np.array_equal(simulate(seed).y_hat, expected)
    assert simulate(None).y_hat.shape == expected.shape


def test_preset_completeness_expectations():
    for name in PRESET_NAMES:
        sc = preset(name)
        reg = build_regression_matrices(sc.ensemble, sc.basis)
        if sc.estimator == "v1":
            assert reg.complete_v1 == sc.expect_complete
        else:
            assert reg.complete_v2 == sc.expect_complete


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_is_v1_exactly_when_its_processes_are_generalized_unital(name):
    """The CLI's verdict (``cli._v1_misfit``, read off the flags for presets
    and files alike) therefore agrees with each preset's estimator."""
    sc = preset(name)
    fits = all(is_generalized_unital(ch)[0] for ch in sc.ensemble.channels)
    assert (sc.estimator == "v1") == fits


def test_each_runner_records_the_shared_metadata_and_its_own():
    sc = preset("one_qubit_closed_incomplete")
    shared = {"scenario": sc.name, "scenario_seed": 0, "run_seed": 2, "n0_grid": [100, 1000],
              "trials": 2, "method": "mp_inverse", "reg_scale": None}
    table = run_mse_experiment(sc, [100, 1e3], trials=2, seed=2)
    assert table.metadata == {**shared, "failures": table.failures, "exact": False,
                              "estimator": "v1", "n_processes": 6, "d": 2}
    tables = run_method_comparison(sc, [100, 1e3], 2, seed=2, configs=[
        ("all", sc.stage1, None), ("some", sc.stage1, [5, 0, 1, 2])])
    for label, indices in (("all", None), ("some", [5, 0, 1, 2])):
        assert tables[label].metadata == {**shared, "failures": tables[label].failures,
                                          "label": label, "process_indices": indices}
    assert tables["all"].rows == table.rows


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


def test_a_preset_whose_state_draws_never_give_an_anchor_is_refused(monkeypatch):
    """The truth state is redrawn until its anchor coordinate is a usable
    share of its coherence vector.  With every drawn unitary the identity
    the state stays diagonal, its anchor (the x coordinate) stays zero, and
    the preset is refused once the redraws run out."""
    monkeypatch.setattr(bench, "haar_unitary", lambda d, rng: np.eye(d, dtype=complex))
    with pytest.raises(DegeneracyError,
                       match="^could not draw a state with a usable anchor coordinate$"):
        preset("one_qubit_closed_complete")


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


def test_trial_streams_are_the_streams_of_the_seed_lists(monkeypatch):
    """A trial's SeedSequence, given uint32 words, draws what the list
    ``[scenario seed, seed, i, t]`` draws, for entries of 2^32 and beyond."""
    entropy = [0, 2 ** 32, 2 ** 64 + 5, 7]
    words = np.array([w for n in entropy for w in bench._words(n)], dtype=np.uint32)
    assert words.tolist() == [0, 0, 1, 5, 0, 1, 7]
    draws = [np.random.default_rng(np.random.SeedSequence(e)).random(8) for e in (words, entropy)]
    assert np.array_equal(*draws)
    seeds, simulate = [], bench.simulate_dataset

    def recording(*args, seed, **kwargs):
        seeds.append(seed)
        return simulate(*args, seed=seed, **kwargs)

    monkeypatch.setattr(bench, "simulate_dataset", recording)
    sc = preset("one_qubit_closed_complete", seed=2 ** 32)
    run_mse_experiment(sc, [100, 1000], trials=3, seed=2 ** 64 + 5)
    assert len(seeds) == 6
    for k, seq in enumerate(seeds):
        listed = np.random.SeedSequence([2 ** 32, 2 ** 64 + 5, k // 3, k % 3])
        assert np.array_equal(np.random.default_rng(seq).random(4),
                              np.random.default_rng(listed).random(4))


def test_a_scenario_seed_is_read_as_a_whole_number():
    sc = preset("one_qubit_closed_complete")
    with pytest.raises(ValidationError, match="scenario seed must be >= 0, got -1"):
        run_mse_experiment(replace(sc, seed=-1), [1000], trials=2)


def _record_calls():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, basis=sc.basis)
    return {
        "to_coords": lambda: to_coords(np.eye(2) / 2.0, None),
        "coherence_to_state": lambda: coherence_to_state(np.zeros(3), None),
        "build_regression_matrices": lambda: build_regression_matrices(None, sc.basis),
        "stage1_solve": lambda: stage1_solve(sc.regression.design, np.zeros(15), np.zeros(2)),
        "estimate_joint_v1": lambda: estimate_joint_v1(ds, sc.regression.b, None),
        "run_mse_experiment": lambda: run_mse_experiment(None, [100], trials=2),
        "run_mse_experiment config": lambda: run_mse_experiment(sc, [100], trials=2, config="mp"),
        "run_method_comparison": lambda: run_method_comparison(
            sc, [100], trials=2, configs=[("a", Stage1Config(), None), ("b", None, None)]),
        "estimate_joint_v2": lambda: estimate_joint_v2(ds, sc.regression.b_natural, "mp"),
        "fit_loglog_slope": lambda: fit_loglog_slope(None),
    }


@pytest.mark.parametrize("name, message", [
    ("to_coords", "basis must be an OperatorBasis, got NoneType"),
    ("coherence_to_state", "basis must be an OperatorBasis, got NoneType"),
    ("build_regression_matrices", "ensemble must be a ProcessEnsemble, got NoneType"),
    ("stage1_solve", "config must be a Stage1Config, got ndarray"),
    ("estimate_joint_v1", "basis must be an OperatorBasis, got NoneType"),
    ("run_mse_experiment", "scenario must be a Scenario, got NoneType"),
    ("run_mse_experiment config", "config must be a Stage1Config, got str"),
    ("run_method_comparison", "config must be a Stage1Config, got NoneType"),
    ("estimate_joint_v2", "config must be a Stage1Config, got str"),
    ("fit_loglog_slope", "table must be a MseTable, got NoneType"),
])
def test_a_record_of_the_wrong_type_is_refused_by_name(name, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        _record_calls()[name]()


_BASIS = "basis must be an OperatorBasis, got "


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda sc, ds, est, tmp: jt.refine_alternating(ds, sc.regression.b, None, est),
                 _BASIS + "NoneType", id="refine_alternating"),
    pytest.param(lambda sc, ds, est, tmp: jt.export_sos_problem(
        ds, sc.regression.b, "basis", tmp / "p.sos"), _BASIS + "str", id="export_sos_problem"),
    pytest.param(lambda sc, ds, est, tmp: jt.hamiltonian_generator(np.eye(2), 2),
                 _BASIS + "int", id="hamiltonian_generator"),
    pytest.param(lambda sc, ds, est, tmp: jt.change_of_basis(np.eye(2)),
                 _BASIS + "ndarray", id="change_of_basis"),
    pytest.param(lambda sc, ds, est, tmp: jt.povm_membership(0.0, np.zeros(3), None),
                 _BASIS + "NoneType", id="povm_membership"),
    pytest.param(lambda sc, ds, est, tmp: jt.in_physical_set(np.zeros(3), sc),
                 _BASIS + "Scenario", id="in_physical_set"),
    pytest.param(lambda sc, ds, est, tmp: jt.build_targets_v1(ds, None),
                 _BASIS + "NoneType", id="build_targets_v1 basis"),
    pytest.param(lambda sc, ds, est, tmp: jt.build_targets_v1(ds.y_hat, sc.basis),
                 "dataset must be a MeasurementDataset or a DatasetStack, got ndarray",
                 id="build_targets_v1 dataset"),
    pytest.param(lambda sc, ds, est, tmp: jt.ideal_statistics(
        sc.ensemble, sc.truth_state, sc.truth_povm, basis=2), _BASIS + "int",
                 id="ideal_statistics"),
    pytest.param(lambda sc, ds, est, tmp: jt.simulate_dataset(
        sc.ensemble, sc.truth_state, sc.truth_povm, 100, basis="2"), _BASIS + "str",
                 id="simulate_dataset"),
    pytest.param(lambda sc, ds, est, tmp: jt.born_probabilities(
        sc.truth_state, sc.truth_povm.elements), "povm must be a Povm, got ndarray",
                 id="born_probabilities"),
    pytest.param(lambda sc, ds, est, tmp: jt.rank_bound(sc.ensemble.channels),
                 "ensemble must be a ProcessEnsemble, got tuple", id="rank_bound"),
    pytest.param(lambda sc, ds, est, tmp: jt.superoperator(None),
                 "channel must be a KrausChannel, got NoneType", id="superoperator"),
    pytest.param(lambda sc, ds, est, tmp: jt.transfer_matrix(sc.ensemble, sc.basis),
                 "channel must be a KrausChannel, got ProcessEnsemble", id="transfer_matrix"),
    pytest.param(lambda sc, ds, est, tmp: jt.is_generalized_unital(np.eye(2)),
                 "channel must be a KrausChannel, got ndarray", id="is_generalized_unital"),
    pytest.param(lambda sc, ds, est, tmp: jt.DatasetStack.of([ds, est]),
                 "stack member 1 must be a MeasurementDataset, got EstimateResult",
                 id="DatasetStack.of"),
    pytest.param(lambda sc, ds, est, tmp: jt.ProcessEnsemble(None),
                 "ensemble channels must be a tuple or a list, got NoneType",
                 id="ProcessEnsemble"),
    pytest.param(lambda sc, ds, est, tmp: jt.make_named_channel(np.eye(2)),
                 "channel kind must be a str, got ndarray", id="make_named_channel"),
    pytest.param(lambda sc, ds, est, tmp: jt.preset(np.eye(2)),
                 "preset name must be a str, got ndarray", id="preset"),
])
def test_every_entry_refuses_a_record_of_the_wrong_type_by_name(call, message, tmp_path):
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, basis=sc.basis)
    est = estimate_joint_v1(ds, sc.regression.b, sc.basis)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(sc, ds, est, tmp_path)
    assert not list(tmp_path.iterdir())


def test_experiment_input_validation():
    sc = preset("one_qubit_closed_complete")
    with pytest.raises(ValidationError):
        run_mse_experiment(sc, [1000], trials=1)
    for grid in ([1000, 1000], [], [1000, 1000, 100]):
        with pytest.raises(ValidationError):
            run_mse_experiment(sc, grid, trials=2)


@pytest.mark.parametrize("trials", [2.5, "3", None, np.nan],
                         ids=["fraction", "string", "none", "nan"])
def test_the_experiments_refuse_a_trial_count_that_is_not_whole(trials):
    sc = preset("one_qubit_closed_complete")
    with pytest.raises(ValidationError, match="trials must be a whole number"):
        run_mse_experiment(sc, [1000], trials=trials)
    with pytest.raises(ValidationError, match="trials must be a whole number"):
        run_method_comparison(sc, [1000], trials=trials, configs=[("a", Stage1Config(), None)])


@pytest.mark.parametrize("trials", [np.int64(3), 3.0], ids=["numpy-int", "whole-float"])
def test_the_experiments_accept_a_whole_trial_count(trials):
    sc = preset("one_qubit_closed_complete")
    table = run_mse_experiment(sc, [1000], trials=trials, seed=1)
    assert table.rows[0].trials + table.failures == 3
    assert table.metadata["trials"] == 3 and type(table.metadata["trials"]) is int
    (compared,) = run_method_comparison(sc, [1000], trials=trials, seed=1,
                                        configs=[("a", Stage1Config(), None)]).values()
    assert compared.rows == table.rows


@pytest.mark.parametrize("grid", [[1000, 1000, 100], []], ids=["not-increasing", "empty"])
def test_method_comparison_refuses_the_grids_the_experiment_refuses(grid):
    sc = preset("one_qubit_closed_complete")
    with pytest.raises(ValidationError, match="shot grid"):
        run_method_comparison(sc, grid, trials=2, configs=[("a", Stage1Config(), None)])


@pytest.mark.parametrize("configs", [None, 3, [1], [("a",)]],
                         ids=["none", "int", "bare-member", "short-member"])
def test_method_comparison_refuses_configs_that_are_not_triples(configs):
    sc = preset("one_qubit_closed_complete")
    with pytest.raises(ValidationError, match="^configs must be a sequence of "
                                              r"\(label, Stage1Config, process_indices\) triples$"):
        run_method_comparison(sc, [1000], trials=2, configs=configs)


def test_method_comparison_refuses_duplicate_labels():
    sc = preset("one_qubit_closed_complete")
    cfg = Stage1Config()
    with pytest.raises(ValidationError, match="unique"):
        run_method_comparison(sc, [1000], trials=2,
                              configs=[("a", cfg, None), ("a", cfg, list(range(10)))])


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
    run_mse_experiment(sc, [1000], trials=2, seed=5)
    assert calls == [len(sc.ensemble)]  # kept on the ensemble for the next call


def _counting(monkeypatch, module, name) -> list:
    """Replace ``module.name`` by a wrapper that records each call's last
    positional argument; returns the record."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: calls.append(args[-1]) or original(*args, **kwargs))
    return calls


@pytest.mark.parametrize("name", ["one_qubit_closed_complete", "one_qubit_random_pure"])
def test_trial_loop_checks_constants_once_and_results_once_per_block(monkeypatch, name):
    from jointtomo import measurement
    sc = preset(name)
    tables = _counting(monkeypatch, measurement, "sampling_table")
    sampled = _counting(monkeypatch, measurement, "sample_frequencies")
    states = _counting(monkeypatch, measurement, "_checked_states")
    povms = _counting(monkeypatch, measurement, "_checked_povms")
    table = run_mse_experiment(sc, [1000, 100000], trials=7, seed=4)
    assert table.failures == 0 and [r.trials for r in table.rows] == [7, 7]
    # the three sampled probability sets are checked when the scenario's
    # statistics are made, and never again for 14 trials
    assert len(tables) == 3 and sampled == []
    # one stacked check per block of results: one block per grid point, and a
    # pure scenario checks its projected states once more
    per_block = 2 if sc.pure else 1
    assert len(states) == 2 * per_block and len(povms) == 2
    assert all(len(stack) == 7 for stack in states + povms)
    run_mse_experiment(sc, [1000], trials=7, seed=5)
    assert len(tables) == 3 and sampled == []  # kept on the scenario


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
    builds = []
    original = bench.build_regression_matrices
    monkeypatch.setattr(bench, "build_regression_matrices",
                        lambda *args: builds.append(args) or original(*args))
    count = _svd_calls_on_design_rows(
        monkeypatch, len(sc.ensemble),
        lambda: run_mse_experiment(sc, [1000, 10000], trials=2, seed=1))
    assert count == 1 and len(builds) == 1
    # a second call on the same scenario builds and factors nothing
    count = _svd_calls_on_design_rows(
        monkeypatch, len(sc.ensemble),
        lambda: run_mse_experiment(sc, [1000, 10000], trials=2, seed=2))
    assert count == 0 and len(builds) == 1


@pytest.mark.parametrize("name, built", [
    ("two_qubit_mixed_unitary", {"b", "design"}),
    ("one_qubit_random_pure", {"b_natural", "design_natural"}),
])
def test_an_experiment_builds_the_design_of_its_basis_alone(name, built):
    sc = preset(name)
    run_mse_experiment(sc, [1000], trials=2, seed=1)
    assert set(vars(sc.regression)) == {"ensemble", "basis"} | built


def _peak_above_start(call) -> int:
    """The most bytes ``tracemalloc`` saw held during ``call()`` above what
    was held when it began."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def test_set_up_and_a_trial_block_stay_inside_their_working_set():
    """Bounds from the array shapes: building and factoring the design and
    computing the ideal statistics hold little beyond ``b`` and its factors,
    and a block of trials little beyond a few ``(T, L, M)`` arrays."""
    sc = preset("two_qubit_mixed_unitary")
    setup = _peak_above_start(lambda: (sc.regression.design, jt.ideal_statistics(
        sc.ensemble, sc.truth_state, sc.truth_povm, basis=sc.basis)))
    design = sc.regression.design
    assert setup < 1.5 * (design.b.nbytes + design.u.nbytes + design.vh.nbytes)
    run_mse_experiment(sc, [1000], trials=bench.TRIAL_BLOCK, seed=1)
    block = _peak_above_start(
        lambda: run_mse_experiment(sc, [1000], trials=bench.TRIAL_BLOCK, seed=2))
    assert block < 4.5 * bench.TRIAL_BLOCK * len(sc.ensemble) * sc.truth_povm.m * 8


def test_a_replaced_scenario_gets_its_own_statistics():
    sc = preset("one_qubit_closed_complete")
    reg = sc.regression
    assert sc.regression is reg
    other = replace(sc, truth_state=DensityMatrix(2, np.eye(2) / 2))
    assert other.regression is not reg
    exact = [simulate_dataset(s.ensemble, s.truth_state, s.truth_povm, 10, exact=True,
                              basis=s.basis) for s in (sc, other)]
    assert not np.allclose(exact[0].y_hat, exact[1].y_hat)


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


def _reference_table(sc, n0_grid, trials, seed, config, indices=None):
    """MSE rows and failure count of a plain per-trial loop over the
    single-dataset estimators, on the experiment's random streams."""
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    b = reg.b_natural if sc.estimator == "v2" else reg.b
    design = factor_design(b if indices is None else b[indices])
    rows, failures = [], 0
    for i, n0 in enumerate(n0_grid):
        errs = []
        for t in range(trials):
            ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                                  seed=np.random.SeedSequence([sc.seed, seed, i, t]),
                                  scale_observable=sc.anchor_index, basis=sc.basis)
            ds = ds if indices is None else ds.subset(indices)
            try:
                if sc.estimator == "v2":
                    result = estimate_joint_v2(ds, design, config)
                    if sc.pure:
                        result = replace(result, rho_hat=project_pure(result.rho_hat))
                else:
                    result = estimate_joint_v1(ds, design, sc.basis, config)
            except DegeneracyError:
                failures += 1
                continue
            errs.append((np.linalg.norm(result.rho_hat.rho - sc.truth_state.rho) ** 2,
                         np.sum(np.abs(result.povm_hat.elements - sc.truth_povm.elements) ** 2)))
        rows.append((ds.total_copies, len(errs), np.mean(errs, axis=0) if errs else None))
    return rows, failures


def _assert_table_matches(table, reference):
    rows, failures = reference
    assert table.failures == failures
    for row, (n, count, means) in zip(table.rows, rows):
        assert (row.n, row.trials) == (n, count)
        if count:
            assert row.mse_state == pytest.approx(means[0], rel=1e-12)
            assert row.mse_povm == pytest.approx(means[1], rel=1e-12)


@pytest.mark.parametrize("name", ["one_qubit_closed_complete", "one_qubit_random_pure"])
def test_stacked_experiment_matches_a_per_trial_loop(monkeypatch, name):
    monkeypatch.setattr(bench, "TRIAL_BLOCK", 4)  # blocks of 4, 4 and 2 trials
    sc = preset(name)
    # two shots per setting leave some trials degenerate, each one failure
    table = run_mse_experiment(sc, [2, 1000, 100000], trials=10, seed=7)
    assert table.failures > 0
    _assert_table_matches(table, _reference_table(sc, [2, 1000, 100000], 10, 7, sc.stage1))


def test_stacked_comparison_matches_a_per_trial_loop(monkeypatch):
    monkeypatch.setattr(bench, "TRIAL_BLOCK", 4)
    sc = preset("one_qubit_closed_complete")
    subset = list(range(0, 15, 2))
    configs = [("tikhonov", Stage1Config("tikhonov"), None),
               ("subset", Stage1Config("mp_inverse"), subset)]
    tables = run_method_comparison(sc, [1000, 100000], trials=10, configs=configs, seed=8)
    for label, config, indices in configs:
        _assert_table_matches(tables[label],
                              _reference_table(sc, [1000, 100000], 10, 8, config, indices))


@pytest.mark.parametrize("indices", [
    pytest.param([-1] + list(range(14)), id="negative"),
    pytest.param([0.5, 1.7] + list(range(2, 15)), id="fractional"),
    pytest.param([0, 0] + list(range(1, 15)), id="repeated"),
    pytest.param([], id="empty"),
    pytest.param(list(range(14)) + [15], id="beyond-L"),
    pytest.param(list(range(1, 15)), id="valid"),
])
def test_process_subsets_refuse_bad_indices(indices):
    sc = preset("one_qubit_closed_complete")  # L = 15
    cfg = Stage1Config("mp_inverse")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=3,
                          basis=sc.basis)

    def compare():
        return run_method_comparison(sc, [1000], trials=3, configs=[("s", cfg, indices)],
                                     seed=2)["s"]

    if indices == list(range(1, 15)):  # the valid subset runs as before
        table = compare()
        assert table.metadata["process_indices"] == indices
        _assert_table_matches(table, _reference_table(sc, [1000], 3, 2, cfg, indices))
        return
    for call in (lambda: ds.subset(indices), lambda: ds.as_stack().subset(indices), compare):
        with pytest.raises(ValidationError, match="process indices"):
            call()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_block_draws_are_the_single_dataset_draws(monkeypatch, name):
    monkeypatch.setattr(bench, "TRIAL_BLOCK", 4)  # blocks of 4 and 2 trials
    sc = preset(name)
    drawn = _drawn_blocks(monkeypatch)
    grid = [1000, 100000]
    for exact in (False, True):
        drawn.clear()
        run_mse_experiment(sc, grid, trials=6, seed=9, exact=exact)
        assert [len(stack) for stack in drawn] == [4, 2, 4, 2]
        lossy = ~sc.ensemble.tp_flags
        if lossy.any() and not exact:  # the lossy processes' survival draws vary
            assert np.ptp(drawn[0].x_a0_hat[:, lossy], axis=0).min() > 0
        for i, n0 in enumerate(grid):
            for stack in drawn[2 * i:2 * i + 2]:
                assert (stack.n0, stack.anchor_index) == (n0, sc.anchor_index)
                np.testing.assert_array_equal(stack.tp_flags, sc.ensemble.tp_flags)
            _assert_serial_draws(drawn[2 * i:2 * i + 2], sc, n0, 9, i=i, exact=exact)


def _count_calls(monkeypatch, owner, name, counts) -> None:
    """Count the calls of ``owner.name`` under ``name`` in ``counts``."""
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("name", ["one_qubit_closed_complete", "one_qubit_random_pure"])
def test_trial_loop_makes_no_per_trial_objects(monkeypatch, name):
    from jointtomo import estimator, measurement
    from jointtomo.measurement import MeasurementDataset
    monkeypatch.setattr(bench, "TRIAL_BLOCK", 4)  # blocks of 4, 4 and 2 trials
    sc = preset(name)
    subset = list(range(0, len(sc.ensemble), 2))
    configs = [("full", Stage1Config("mp_inverse"), None),
               ("subset", Stage1Config("mp_inverse"), subset)]
    # two shots per setting leave some trials degenerate, each one failure
    reference = _reference_table(sc, [2, 1000], 10, 7, sc.stage1)
    references = {label: _reference_table(sc, [2, 1000], 10, 8, config, indices)
                  for label, config, indices in configs}
    counts = {}
    for owner, attr in ((MeasurementDataset, "__post_init__"), (MeasurementDataset, "subset"),
                        (MeasurementDataset, "as_stack"), (estimator, "estimate_joint_v1"),
                        (estimator, "estimate_joint_v2"), (measurement, "_checked_datasets"),
                        (estimator, "_factors")):
        _count_calls(monkeypatch, owner, attr, counts)

    table = run_mse_experiment(sc, [2, 1000], trials=10, seed=7)
    # one dataset check and one stage-1 and factor pass per block of trials: no
    # dataset is built, checked or estimated on its own, and none twice
    assert counts == {"_checked_datasets": 6, "_factors": 6}
    _assert_table_matches(table, reference)
    if name == "one_qubit_closed_complete":
        assert table.failures > 0

    counts.clear()
    tables = run_method_comparison(sc, [2, 1000], trials=10, configs=configs, seed=8)
    assert counts == {"_checked_datasets": 6, "_factors": 12}  # one per block and case
    for label, _, _ in configs:
        _assert_table_matches(tables[label], references[label])


def test_a_v2_scenario_that_is_not_pure_scores_its_estimates_unprojected():
    from jointtomo.estimator import _estimates_v2
    from jointtomo.measurement import DatasetStack
    pure = preset("one_qubit_random_pure")
    sc = replace(pure, pure=False)
    stack = DatasetStack.of(simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000,
                                             seed=t, basis=sc.basis)
                            for t in range(6))
    design = sc.regression.design_natural
    block = bench._estimate_block(sc, stack, design, sc.stage1)
    direct = _estimates_v2(stack, design, sc.stage1)
    for name in ("rho_hat", "povm_hat", "refused"):
        np.testing.assert_array_equal(getattr(block, name), getattr(direct, name))
    # The pure scenario projects the same estimates to rank one; this one keeps them mixed.
    assert np.linalg.eigvalsh(block.rho_hat)[:, 0].max() > 1e-3
    projected = bench._estimate_block(pure, stack, design, sc.stage1).rho_hat
    assert np.abs(np.linalg.eigvalsh(projected)[:, 0]).max() < 1e-12
    grid, trials = [2, 1000], 20
    table = run_mse_experiment(sc, grid, trials=trials, seed=2)
    assert sum(row.trials for row in table.rows) + table.failures == trials * len(grid)
    for column in ("mse_state", "se_state", "mse_povm", "se_povm"):
        assert np.isfinite(table.column(column)).all()


@pytest.fixture(scope="module")
def large():
    """A preset whose trial blocks are drawn as one stack, on two threads."""
    sc = preset("two_qubit_mixed_unitary")
    assert len(sc.ensemble) >= THREADED_DRAW_ROWS
    return sc


def _drawn_blocks(monkeypatch) -> list:
    """Record every stack ``_run_trials`` estimates, in order."""
    drawn, estimate = [], bench._estimate_block
    monkeypatch.setattr(bench, "_estimate_block",
                        lambda sc, stack, *args: drawn.append(stack) or estimate(sc, stack, *args))
    return drawn


def _thread_starts(monkeypatch) -> list:
    """Record the name of every thread started."""
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self.name) or start(self))
    return starts


def _assert_serial_draws(stacks, sc, n0, seed, i=0, exact=False, indices=None) -> None:
    """The stacks, in order, hold the datasets ``simulate_dataset`` draws
    alone for trials 0, 1, ... at grid index ``i``, bit for bit."""
    t = 0
    for stack in stacks:
        for k in range(len(stack)):
            ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                                  seed=np.random.SeedSequence([sc.seed, seed, i, t]),
                                  scale_observable=sc.anchor_index, exact=exact,
                                  basis=sc.basis)
            assert isinstance(ds, MeasurementDataset)
            ds = ds if indices is None else ds.subset(indices)
            for name in ("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar"):
                np.testing.assert_array_equal(getattr(stack, name)[k], getattr(ds, name))
            t += 1


@pytest.mark.parametrize("trials", [2, 3, 50, 51, 101])
def test_a_large_ensembles_blocks_are_the_serial_draws(monkeypatch, large, trials):
    """Every block of two or more trials starts one worker, which is gone
    when the call returns, and the stacks are the serial draws."""
    drawn, starts = _drawn_blocks(monkeypatch), _thread_starts(monkeypatch)
    threads = threading.active_count()
    table = run_mse_experiment(large, [1000], trials=trials, seed=3)
    assert threading.active_count() == threads
    sizes = [min(bench.TRIAL_BLOCK, trials - s) for s in range(0, trials, bench.TRIAL_BLOCK)]
    assert [len(stack) for stack in drawn] == sizes and table.rows[0].trials == trials
    assert len(starts) == sum(size >= 2 for size in sizes)
    _assert_serial_draws(drawn, large, 1000, 3)


def test_a_comparison_with_a_process_subset_draws_the_serial_blocks(monkeypatch, large):
    drawn, starts = _drawn_blocks(monkeypatch), _thread_starts(monkeypatch)
    subset = list(range(0, len(large.ensemble), 3))
    configs = [("full", large.stage1, None), ("subset", Stage1Config("mp_inverse"), subset)]
    run_method_comparison(large, [1000], trials=51, configs=configs, seed=4)
    assert [len(stack) for stack in drawn] == [50, 50, 1, 1] and len(starts) == 1
    _assert_serial_draws(drawn[0::2], large, 1000, 4)
    _assert_serial_draws(drawn[1::2], large, 1000, 4, indices=subset)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_threads_start_only_for_sampled_blocks_of_large_ensembles(monkeypatch, name):
    sc = preset(name)
    starts = _thread_starts(monkeypatch)
    run_mse_experiment(sc, [1000], trials=3, seed=6, exact=True)
    assert starts == []
    run_mse_experiment(sc, [1000], trials=3, seed=6)
    assert len(starts) == (len(sc.ensemble) >= THREADED_DRAW_ROWS)
