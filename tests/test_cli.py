import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtomo import amplitude_damping, cli, make_named_channel, preset, simulate_dataset
from jointtomo.channels import ProcessEnsemble
from jointtomo.cli import main
from jointtomo.serialize import load_dataset, save_ensemble


def run_cli(*args):
    return main(list(args))


def test_simulate_writes_reproducible_dataset(tmp_path, capsys):
    out = tmp_path / "ds.json"
    rc = run_cli("simulate", "--preset", "one_qubit_closed_complete",
                 "--n0", "500", "--seed", "3", "--out", str(out))
    assert rc == 0
    first = out.read_bytes()
    assert b"y_hat" in first
    rc = run_cli("simulate", "--preset", "one_qubit_closed_complete",
                 "--n0", "500", "--seed", "3", "--out", str(out))
    assert rc == 0
    assert out.read_bytes() == first
    captured = capsys.readouterr()
    assert "config:" in captured.out


def test_simulate_exact_flag(tmp_path):
    out = tmp_path / "ds.json"
    assert run_cli("simulate", "--preset", "one_qubit_closed_complete",
                   "--exact", "--out", str(out), "--quiet") == 0
    ds = load_dataset(out)
    sc = preset("one_qubit_closed_complete")
    ref = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10000,
                           exact=True, basis=sc.basis)
    assert np.allclose(ds.y_hat, ref.y_hat)


def test_missing_file_is_io_error(tmp_path, capsys):
    rc = run_cli("estimate", "--preset", "one_qubit_closed_complete",
                 "--dataset", str(tmp_path / "nope.json"))
    assert rc == 4
    assert "nope.json" in capsys.readouterr().err


def test_simulate_without_inputs_is_validation_error(tmp_path, capsys):
    rc = run_cli("simulate", "--out", str(tmp_path / "x.json"))
    assert rc == 2
    assert "preset" in capsys.readouterr().err


def test_degenerate_estimate_is_exit_3(tmp_path, capsys):
    # plain least squares on a rank-deficient design is a numerical degeneracy
    ds = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_incomplete", "--n0", "1000",
            "--out", str(ds), "--quiet")
    rc = run_cli("estimate", "--preset", "one_qubit_closed_incomplete",
                 "--dataset", str(ds), "--method", "ls",
                 "--out", str(tmp_path / "est.json"))
    assert rc == 3
    assert "rank deficient" in capsys.readouterr().err


def test_estimate_exact_roundtrip(tmp_path, capsys):
    ds = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_complete", "--exact",
            "--out", str(ds), "--quiet")
    out = tmp_path / "est.json"
    rc = run_cli("estimate", "--preset", "one_qubit_closed_complete",
                 "--dataset", str(ds), "--method", "ls", "--out", str(out))
    assert rc == 0
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if l.startswith("state error"))
    assert float(line.split()[-1]) < 1e-8
    saved = json.loads(out.read_text())
    assert saved["diagnostics"]["method"] == "plain_ls"


@pytest.mark.parametrize("command, built", [
    (("estimate",), {"b", "design"}), (("refine",), {"b", "design"}),
    (("estimate", "--version", "v2"), {"b_natural", "design_natural"}),
])
def test_a_fit_builds_the_design_of_its_basis_alone(tmp_path, monkeypatch, command, built):
    build, records = cli.build_regression_matrices, []
    monkeypatch.setattr(cli, "build_regression_matrices",
                        lambda ens, basis: records.append(build(ens, basis)) or records[-1])
    ds = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_complete", "--n0", "1000",
            "--out", str(ds), "--quiet")
    rc = run_cli(*command, "--preset", "one_qubit_closed_complete", "--dataset", str(ds),
                 "--method", "mp", "--out", str(tmp_path / "fit.json"), "--quiet")
    assert rc == 0 and len(records) == 1
    assert set(vars(records[0])) == {"ensemble", "basis"} | built


def test_estimate_tikhonov_auto_scale(tmp_path):
    ds_path = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_incomplete", "--n0", "1000",
            "--out", str(ds_path), "--quiet")
    out = tmp_path / "est.json"
    rc = run_cli("estimate", "--preset", "one_qubit_closed_incomplete",
                 "--dataset", str(ds_path), "--method", "tikhonov",
                 "--reg-scale", "auto", "--out", str(out), "--quiet")
    assert rc == 0
    saved = json.loads(out.read_text())
    n_total = (6 + 2) * 1000
    assert saved["diagnostics"]["reg_scale"] == pytest.approx(100.0 / n_total)


def test_estimate_pure_flag(tmp_path):
    ds_path = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_random_pure", "--n0", "10000",
            "--out", str(ds_path), "--quiet")
    out = tmp_path / "est.json"
    rc = run_cli("estimate", "--preset", "one_qubit_random_pure", "--version", "v2",
                 "--dataset", str(ds_path), "--pure", "--out", str(out), "--quiet")
    assert rc == 0
    saved = json.loads(out.read_text())
    rho = np.array([[complex(re, im) for re, im in row] for row in saved["rho_hat"]])
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_refine_command(tmp_path, capsys):
    ds_path = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_incomplete", "--n0", "10000",
            "--out", str(ds_path), "--quiet")
    out = tmp_path / "ref.json"
    rc = run_cli("refine", "--preset", "one_qubit_closed_incomplete",
                 "--dataset", str(ds_path), "--method", "mp", "--out", str(out))
    assert rc == 0
    assert "objective" in capsys.readouterr().out
    assert out.exists()


def test_refine_summary_reports_the_stop_reason(tmp_path, capsys):
    ds_path = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_incomplete", "--n0", "10000",
            "--out", str(ds_path), "--quiet")
    out = tmp_path / "ref.json"
    rc = run_cli("refine", "--preset", "one_qubit_closed_incomplete", "--dataset", str(ds_path),
                 "--method", "mp", "--iters", "3", "--out", str(out))
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    diag = json.loads(out.read_text())["diagnostics"]
    reason = diag["stop_reason"]
    assert reason in ("converged", "max_iters", "rejected")
    assert f"(stopped: {reason}); corrected objective {diag['corrected_objective']:.6e}" in summary
    assert (f"in {diag['sweeps_accepted']} accepted sweeps of {diag['sweeps_run']} run "
            in summary)


def test_export_sos_command(tmp_path):
    ds_path = tmp_path / "ds.json"
    run_cli("simulate", "--preset", "one_qubit_closed_complete", "--n0", "1000",
            "--out", str(ds_path), "--quiet")
    out = tmp_path / "prob.sos"
    rc = run_cli("export-sos", "--preset", "one_qubit_closed_complete",
                 "--dataset", str(ds_path), "--out", str(out), "--quiet")
    assert rc == 0
    text = out.read_text()
    assert text.splitlines()[0].startswith("#")
    assert "OBJECTIVE" in text and "INEQ state_ball_p2" in text


@pytest.mark.parametrize("command", [["estimate"], ["estimate", "--version", "v2"], ["refine"],
                                     ["export-sos"], ["export-sos", "--pure"]])
@pytest.mark.parametrize("preset_name, data_preset", [
    ("one_qubit_closed_complete", "one_qubit_closed_incomplete"),
    ("one_qubit_closed_incomplete", "one_qubit_closed_complete"),
    ("one_qubit_closed_complete", "one_qubit_random_pure"),
])
def test_dataset_of_another_ensemble_is_refused(tmp_path, capsys, command, preset_name,
                                                data_preset):
    ds_path = tmp_path / "ds.json"
    run_cli("simulate", "--preset", data_preset, "--n0", "1000", "--out", str(ds_path),
            "--quiet")
    out = tmp_path / "out"
    rc = run_cli(*command, "--preset", preset_name, "--dataset", str(ds_path),
                 "--out", str(out), "--quiet")
    assert rc == 2
    err = capsys.readouterr().err
    rows, processes = len(preset(preset_name).ensemble), len(preset(data_preset).ensemble)
    assert f"error: the dataset has {processes} processes but the design has {rows} rows" in err
    assert not out.exists()


def test_rank_check_preset(capsys):
    rc = run_cli("rank-check", "--preset", "one_qubit_closed_complete")
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank(B) = 9 of 9" in out
    assert "v1 model applies: yes" in out and "complete (v1): yes" in out
    assert "minimum Hamiltonians for d=2: 3 (n_min = 3)" in out


def test_rank_check_channel_files(tmp_path, capsys):
    flips = ProcessEnsemble(tuple(make_named_channel("bit_flip", p=p)
                                  for p in (0.1, 0.4, 0.8)))
    path = tmp_path / "flips.json"
    save_ensemble(flips, path)
    rc = run_cli("rank-check", "--channels", str(path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank(B) = 2 of 9" in out and "v1 model applies: yes" in out
    rng = np.random.default_rng(0)
    tp = ProcessEnsemble(tuple(
        make_named_channel("random_cp", d=2, rank=4, seed=int(rng.integers(2 ** 32)), tp=True)
        for _ in range(20)))
    save_ensemble(tp, path)
    rc = run_cli("rank-check", "--channels", str(path))
    out = capsys.readouterr().out
    assert "rank(B_natural) = 13 <= bound 13" in out
    assert "v1 model applies: no (process 1 is not generalized-unital)" in out
    assert "complete (v2): no" in out


def test_hamiltonian_file_workflow(tmp_path):
    h = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps([{"d": 2, "h": h, "dt_us": 1.0}]))
    sc = preset("one_qubit_closed_complete")
    from jointtomo.serialize import save_povm, save_state
    save_state(sc.truth_state, tmp_path / "state.json")
    save_povm(sc.truth_povm, tmp_path / "povm.json")
    out = tmp_path / "ds.json"
    rc = run_cli("simulate", "--hamiltonians", str(hpath), "--samples", "3",
                 "--state", str(tmp_path / "state.json"),
                 "--povm", str(tmp_path / "povm.json"),
                 "--n0", "100", "--out", str(out), "--quiet")
    assert rc == 0
    ds = load_dataset(out)
    assert ds.y_hat.shape == (3, 3)


_H = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]


@pytest.mark.parametrize("flag,records", [
    pytest.param("--channels", [{"d": 2, "kraus": [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [float("nan"), 0.0]]]]}], id="kraus-nan"),
    pytest.param("--hamiltonians", [{"d": 2, "h": [row + [[0.0, 0.0]] for row in _H],
                                     "dt_us": 1.0}], id="hamiltonian-2x3"),
    pytest.param("--hamiltonians", [{"d": 2, "h": _H, "dt_us": float("nan")}], id="dt-nan"),
    pytest.param("--hamiltonians", [{"d": 2, "h": _H, "dt_us": "0.5"}], id="dt-string"),
    pytest.param("--hamiltonians", [{"d": 2, "h": _H, "dt_us": True}], id="dt-bool"),
])
def test_rank_check_refuses_non_finite_or_misshapen_processes(tmp_path, capsys, flag,
                                                               records):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(records))
    assert run_cli("rank-check", flag, str(path)) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("d", [2.7, "2", True], ids=["fraction", "string", "bool"])
@pytest.mark.parametrize("which", ["state", "povm", "channels"])
def test_files_with_a_fractional_or_non_numeric_dimension_are_refused(tmp_path, capsys,
                                                                     which, d):
    from jointtomo.serialize import save_povm, save_state
    sc = preset("one_qubit_closed_complete")
    paths = {name: tmp_path / f"{name}.json" for name in ("state", "povm", "channels")}
    save_state(sc.truth_state, paths["state"])
    save_povm(sc.truth_povm, paths["povm"])
    save_ensemble(sc.ensemble, paths["channels"])
    data = json.loads(paths[which].read_text())
    for record in data if isinstance(data, list) else [data]:
        record["d"] = d
    paths[which].write_text(json.dumps(data))
    assert run_cli("simulate", "--channels", str(paths["channels"]),
                   "--state", str(paths["state"]), "--povm", str(paths["povm"]),
                   "--n0", "100", "--out", str(tmp_path / "ds.json"), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {paths[which]}: ")
    assert "whole number" in err and "Traceback" not in err
    assert not (tmp_path / "ds.json").exists()


def test_a_non_hermitian_hamiltonian_is_refused_with_its_file(tmp_path, capsys):
    path = tmp_path / "h.json"
    upper = [[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path.write_text(json.dumps([{"d": 2, "h": upper, "dt_us": 1.0}]))
    assert run_cli("rank-check", "--hamiltonians", str(path)) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: {path}: Hamiltonian H1 is not Hermitian")
    assert "Traceback" not in err


def test_bench_command(tmp_path, capsys):
    out = tmp_path / "mse.csv"
    rc = run_cli("bench", "--preset", "one_qubit_closed_complete",
                 "--n0-grid", "1000,10000,100000", "--trials", "3",
                 "--out", str(out))
    assert rc == 0
    assert out.exists() and (tmp_path / "mse.csv.meta.json").exists()
    assert out.read_text().splitlines()[0] == "N,mse_state,se_state,mse_povm,se_povm,trials"
    assert "slope" in capsys.readouterr().out


def test_bench_exits_0_once_its_outputs_are_written(tmp_path, capsys):
    written = []
    for flags in ([], ["--quiet"]):
        out = tmp_path / f"mse{len(flags)}.csv"
        rc = run_cli("bench", "--preset", "one_qubit_closed_complete", "--n0-grid", "1e3,1e4",
                     "--trials", "3", "--out", str(out), *flags)
        assert rc == 0
        written.append((out.read_bytes(), (tmp_path / f"{out.name}.meta.json").read_bytes()))
        if not flags:
            assert "no state slope: need at least 3 rows" in capsys.readouterr().out
    assert written[0] == written[1]


def test_bench_runs_at_a_whole_shot_count_above_2_to_the_53(tmp_path):
    # a float reads 2**53 + 1 as 2**53; the grid keeps the integer as given
    n0 = 2 ** 53 + 1
    out = tmp_path / "mse.csv"
    assert run_cli("bench", "--preset", "one_qubit_closed_complete", "--n0-grid",
                   f"1e3,{n0}", "--trials", "2", "--out", str(out), "--quiet") == 0
    meta = json.loads((tmp_path / "mse.csv.meta.json").read_text())
    assert meta["n0_grid"] == [1000, n0]


def test_preset_excludes_truth_files(tmp_path, capsys):
    rc = run_cli("simulate", "--preset", "one_qubit_closed_complete",
                 "--state", str(tmp_path / "nonexistent.json"),
                 "--out", str(tmp_path / "ds.json"))
    assert rc == 2
    assert "--state/--povm" in capsys.readouterr().err
    assert not (tmp_path / "ds.json").exists()


BENCH = ("bench", "--preset", "one_qubit_closed_complete", "--trials", "2", "--quiet")
FIT = ("--preset", "one_qubit_closed_complete", "--dataset", "ds.json", "--quiet")


@pytest.mark.parametrize("argv", [
    pytest.param(BENCH + ("--n0-grid", "1e3,abc"), id="grid-word"),
    pytest.param(BENCH + ("--n0-grid", "1e3,nan"), id="grid-nan"),
    pytest.param(BENCH + ("--n0-grid", "1e3,"), id="grid-empty"),
    pytest.param(BENCH + ("--n0-grid", "1e3,2500.5"), id="grid-fraction"),
    pytest.param(BENCH + ("--method", "tikhonov", "--reg-scale", "abc"), id="reg-word"),
    pytest.param(BENCH + ("--method", "tikhonov", "--reg-scale", "nan"), id="reg-nan"),
    pytest.param(BENCH + ("--method", "tikhonov", "--reg-scale", "inf"), id="reg-inf"),
    pytest.param(BENCH + ("--method", "tikhonov", "--reg-scale", "-1"), id="reg-negative"),
    pytest.param(BENCH + ("--reg-scale", "abc"), id="reg-word-no-method"),
    pytest.param(BENCH + ("--reg-scale", "0.1"), id="reg-without-method"),
    pytest.param(BENCH + ("--povm", "p.json"), id="preset-with-povm"),
    pytest.param(("bench", "--trials", "2"), id="no-preset"),
    pytest.param(BENCH + ("--channels", "c.json"), id="preset-with-channels"),
    pytest.param(("rank-check", "--preset", "one_qubit_closed_complete",
                  "--hamiltonians", "h.json"), id="preset-with-hamiltonians"),
    pytest.param(("estimate",) + FIT + ("--iters", "5"), id="estimate-iters"),
    pytest.param(("refine",) + FIT + ("--version", "v2"), id="refine-version"),
    pytest.param(("refine",) + FIT + ("--pure",), id="refine-pure"),
    pytest.param(("refine",) + FIT + ("--iters", "-1"), id="refine-negative-iters"),
])
def test_bad_arguments_exit_with_validation_code(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path / "mse.csv")) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "mse.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "bench", "rank-check"])
def test_negative_seed_is_refused_without_a_traceback(tmp_path, capsys, command):
    out = [] if command == "rank-check" else ["--out", str(tmp_path / "out")]
    rc = run_cli(command, "--preset", "one_qubit_closed_complete", "--seed", "-1", *out,
                 "--quiet")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "error: seed must be >= 0, got -1"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_iters_is_refused_by_the_library_check(tmp_path, capsys):
    # No dataset file exists: the count is refused before any file is read.
    rc = run_cli("refine", *FIT, "--iters", "-1", "--out", str(tmp_path / "out"))
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: iters must be >= 0, got -1"


def _edited_dataset(tmp_path, **fields) -> str:
    """A simulated one_qubit_closed_complete dataset with some fields replaced."""
    path = tmp_path / "sim.json"
    assert run_cli("simulate", "--preset", "one_qubit_closed_complete", "--n0", "1000",
                   "--out", str(path), "--quiet") == 0
    return json.dumps({**json.loads(path.read_text()), **fields})


@pytest.mark.parametrize("text,method", [
    pytest.param("{bad", "ls", id="not-json"),
    pytest.param(json.dumps({"y_hat": [[0.5]]}), "ls", id="missing-keys"),
    pytest.param(json.dumps({"y_hat": [[float("nan"), 0.1]], "x_a0_hat": [0.7],
                             "c_j0_hat": [0.7, 0.7], "x01_bar": 0.1, "n0": 10,
                             "tp_flags": [True]}), "ls", id="nan-frequency"),
    pytest.param(json.dumps({"y_hat": [[-0.3, 0.1]], "x_a0_hat": [0.7], "c_j0_hat": [0.7, 0.7],
                             "x01_bar": 0.1, "n0": 10, "tp_flags": [True]}), "ls",
                 id="negative-frequency"),
    pytest.param(json.dumps({"y_hat": 3, "x_a0_hat": [0.7], "c_j0_hat": [0.7, 0.7],
                             "x01_bar": 0.1, "n0": 10, "tp_flags": [True]}), "ls",
                 id="bad-shape"),
    # A real dataset with one field changed, so that only that field is wrong.
    pytest.param({"n0": 0}, "ls", id="zero-shots"),
    pytest.param({"n0": -5}, "ls", id="negative-shots"),
    pytest.param({"n0": 0}, "tikhonov", id="zero-shots-tikhonov"),
    pytest.param({"anchor_index": 0}, "ls", id="zero-anchor"),
    pytest.param({"anchor_index": -2}, "ls", id="negative-anchor"),
    pytest.param({"anchor_index": 99}, "ls", id="anchor-beyond-basis"),
    pytest.param({"x01_bar": 1e200}, "ls", id="huge-anchor-value"),
    pytest.param({"c_j0_hat": [0.3e200, 0.3e200, 0.4e200]}, "ls", id="huge-trace-frequencies"),
])
def test_bad_dataset_file_exits_with_validation_code(tmp_path, capsys, text, method):
    if isinstance(text, dict):
        text = _edited_dataset(tmp_path, **text)
    path = tmp_path / "ds.json"
    path.write_text(text)
    rc = run_cli("estimate", "--preset", "one_qubit_closed_complete", "--dataset", str(path),
                 "--method", method, "--out", str(tmp_path / "est.json"), "--quiet")
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "est.json").exists()


@pytest.mark.parametrize("command", ["refine", "export-sos"])
def test_fits_refuse_an_anchor_beyond_the_basis(tmp_path, capsys, command):
    path = tmp_path / "ds.json"
    path.write_text(_edited_dataset(tmp_path, anchor_index=4))
    rc = run_cli(command, "--preset", "one_qubit_closed_complete", "--dataset", str(path),
                 "--out", str(tmp_path / "out"), "--quiet")
    assert rc == 2
    assert "anchor index" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_SHOT_TEXTS = ["0", "-3", "2.5", str(2 ** 63 - 1), str(2 ** 63), str(2 ** 63 + 1), "1e300",
               "inf", "-inf", "nan", "10000000000000000000000"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["simulate", "bench"]),
       st.one_of(st.sampled_from(_SHOT_TEXTS), st.integers(-5, 10 ** 4).map(str),
                 st.floats(allow_nan=True, allow_infinity=True).map(repr)))
def test_shot_counts_exit_0_or_2_without_a_traceback(command, n0):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        flags = ([f"--n0={n0}"] if command == "simulate"
                 else [f"--n0-grid={n0}", "--trials", "2"])
        assert main([command, "--preset", "one_qubit_closed_incomplete", *flags,
                     "--out", out, "--quiet"]) in (0, 2)


# Each command's flags, by the names they take in its ``config:`` line.
_SOURCE = {"preset", "channels", "hamiltonians", "samples", "seed"}
_FLAGS = {
    "simulate": _SOURCE | {"state", "povm", "n0", "exact", "anchor", "out", "quiet"},
    "estimate": _SOURCE | {"state", "povm", "dataset", "method", "reg_scale", "version", "pure",
                           "out", "quiet"},
    "refine": _SOURCE | {"state", "povm", "dataset", "method", "reg_scale", "iters", "out",
                         "quiet"},
    "export-sos": _SOURCE | {"dataset", "pure", "out", "quiet"},
    "rank-check": _SOURCE | {"quiet"},
    "bench": {"preset", "seed", "exact", "n0_grid", "trials", "method", "reg_scale", "out",
              "quiet"},
}
_ALL_FLAGS = set().union(*_FLAGS.values())


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid d = 2 input files of every kind, a d = 4 state and detector, a
    file that is not JSON, and a path where no file is."""
    from jointtomo.serialize import save_povm, save_state
    root = tmp_path_factory.mktemp("inputs")
    sc = preset("one_qubit_closed_complete")
    paths = {kind: str(root / f"{kind}.json") for kind in
             ("state", "povm", "channels", "hamiltonians", "dataset")}
    save_state(sc.truth_state, paths["state"])
    save_povm(sc.truth_povm, paths["povm"])
    save_ensemble(sc.ensemble, paths["channels"])
    sc4 = preset("two_qubit_mixed_unitary")
    paths["state4"], paths["povm4"] = str(root / "state4.json"), str(root / "povm4.json")
    save_state(sc4.truth_state, paths["state4"])
    save_povm(sc4.truth_povm, paths["povm4"])
    with open(paths["hamiltonians"], "w") as fh:  # 5 Hamiltonians x 3 samples, as the dataset
        json.dump([{"d": 2, "h": _H, "dt_us": dt} for dt in (0.3, 0.5, 0.7, 1.1, 1.3)], fh)
    assert main(["simulate", "--preset", "one_qubit_closed_complete", "--n0", "1000",
                 "--out", paths["dataset"], "--quiet"]) == 0
    paths["garbage"] = str(root / "garbage.json")
    with open(paths["garbage"], "wb") as fh:
        fh.write(b"\xff{not json")
    paths["missing"] = str(root / "missing.json")
    # Processes the coherence-vector (v1) model does not describe: the pure
    # preset's, and 16 trace-preserving random channels, with exact data.
    paths["pure_dataset"], paths["tp"] = str(root / "pure.json"), str(root / "tp.json")
    paths["tp_dataset"] = str(root / "tp_ds.json")
    assert main(["simulate", "--preset", "one_qubit_random_pure", "--n0", "1000",
                 "--out", paths["pure_dataset"], "--quiet"]) == 0
    save_ensemble(ProcessEnsemble(tuple(
        make_named_channel("random_cp", d=2, rank=4, seed=seed, tp=True)
        for seed in range(16))), paths["tp"])
    assert main(["simulate", "--channels", paths["tp"], "--state", paths["state"],
                 "--povm", paths["povm"], "--exact", "--out", paths["tp_dataset"],
                 "--quiet"]) == 0
    return paths


# A run that reaches the command and then stops early (or, for rank-check,
# finishes), so that only its config line matters.
_CONFIG_RUNS = {
    "simulate": ["--preset", "one_qubit_closed_complete", "--n0", "0"],
    "estimate": ["--preset", "one_qubit_closed_complete", "--dataset", "{missing}"],
    "refine": ["--preset", "one_qubit_closed_complete", "--dataset", "{missing}"],
    "export-sos": ["--preset", "one_qubit_closed_complete", "--dataset", "{missing}"],
    "rank-check": ["--preset", "one_qubit_closed_complete"],
    "bench": ["--preset", "one_qubit_closed_complete", "--n0-grid", "abc"],
}


@pytest.mark.parametrize("command", sorted(_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(inputs, capsys, command):
    main([command, *(arg.format(**inputs) for arg in _CONFIG_RUNS[command]), "--quiet"])
    line = next(l for l in capsys.readouterr().err.splitlines() if l.startswith("config: "))
    assert set(json.loads(line[len("config: "):])) == _FLAGS[command] | {"command"}


_PRESET = ("--preset", "one_qubit_closed_complete")


@pytest.mark.parametrize("argv", [
    *[pytest.param((command, *_PRESET, "--dataset", "{dataset}", flag, *value),
                   id=f"{command}{flag}")
      for command in ("estimate", "refine", "export-sos")
      for flag, value in (("--n0", ["7"]), ("--exact", []))],
    pytest.param(("export-sos", "--channels", "{channels}", "--dataset", "{dataset}",
                  "--state", "{missing}"), id="export-sos--state"),
    pytest.param(("export-sos", "--channels", "{channels}", "--dataset", "{dataset}",
                  "--povm", "{missing}"), id="export-sos--povm"),
    pytest.param(("rank-check", *_PRESET, "--n0", "7"), id="rank-check--n0"),
    pytest.param(("rank-check", *_PRESET, "--exact"), id="rank-check--exact"),
    pytest.param(("rank-check", *_PRESET, "--out", "{out}"), id="rank-check--out"),
    pytest.param(("rank-check", "--channels", "{channels}", "--state", "{missing}"),
                 id="rank-check--state"),
    pytest.param(("rank-check", "--channels", "{channels}", "--povm", "{missing}"),
                 id="rank-check--povm"),
    *[pytest.param(("bench", *_PRESET, "--n0-grid", "1e3,1e4", "--trials", "2", flag, value),
                   id=f"bench{flag}")
      for flag, value in (("--n0", "5000"), ("--samples", "4"),
                          ("--hamiltonians", "{hamiltonians}"), ("--state", "{state}"))],
    pytest.param(("rank-check", "--pres", "one_qubit_closed_complete"), id="abbreviated-preset"),
    pytest.param(("simulate", *_PRESET, "--n", "100"), id="abbreviated-n0"),
    pytest.param(("bench", *_PRESET, "--n0-grid", "1e3,1e4", "--tri", "2"),
                 id="abbreviated-trials"),
    pytest.param(("rank-check", *_PRESET, "--samples", "4"), id="samples-with-preset"),
    pytest.param(("simulate", *_PRESET, "--samples", "4"), id="simulate-samples-with-preset"),
    pytest.param(("rank-check", "--channels", "{channels}", "--samples", "4"),
                 id="samples-with-channels"),
])
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys, inputs, argv):
    out = str(tmp_path / "out")
    argv = [arg.format(out=out, **inputs) for arg in argv]
    if "--out" not in argv and argv[0] != "rank-check":
        argv += ["--out", out]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["estimate", "refine"])
@pytest.mark.parametrize("truth", [("--state", "{state4}"),
                                   ("--state", "{state}", "--povm", "{povm4}")],
                         ids=["state-d4", "povm-d4"])
def test_truth_files_of_another_dimension_are_refused_before_writing(tmp_path, capsys, inputs,
                                                                     command, truth):
    out = tmp_path / "out"
    rc = main([command, "--channels", inputs["channels"], "--dataset", inputs["dataset"],
               *(arg.format(**inputs) for arg in truth), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: --state/--povm do not")
    assert not out.exists()


_PURE = ("--preset", "one_qubit_random_pure", "--dataset", "{pure_dataset}")
_TP = ("--channels", "{tp}", "--dataset", "{tp_dataset}")


@pytest.mark.parametrize("argv, process", [
    pytest.param(("refine", *_PURE), "process 1 (cp1)", id="refine-preset"),
    pytest.param(("estimate", *_PURE, "--version", "v1"), "process 1 (cp1)",
                 id="estimate-v1-preset"),
    pytest.param(("estimate", *_PURE, "--version", "v1", "--pure"), "process 1 (cp1)",
                 id="estimate-v1-pure-preset"),
    pytest.param(("export-sos", *_PURE), "process 1 (cp1)", id="export-sos-preset"),
    pytest.param(("estimate", *_TP), "process 1 (random_cp(2,4,0))", id="estimate-file"),
    pytest.param(("refine", *_TP), "process 1 (random_cp(2,4,0))", id="refine-file"),
    pytest.param(("export-sos", *_TP), "process 1 (random_cp(2,4,0))", id="export-sos-file"),
])
def test_processes_the_v1_model_does_not_describe_are_refused_before_writing(
        tmp_path, capsys, inputs, argv, process):
    out = tmp_path / "out"
    assert main([arg.format(**inputs) for arg in argv] + ["--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith(f"error: {process} is not generalized-unital, so the "
                          "coherence-vector (v1) model does not describe it")
    assert err.endswith("; use estimate --version v2 or export-sos --pure")
    assert not out.exists()
    # the natural-basis path the message points to takes the same processes
    fix = {"estimate": ["--version", "v2", "--method", "mp"], "export-sos": ["--pure"]}
    if argv[0] in fix:
        argv = [arg.format(**inputs) for arg in argv] + fix[argv[0]]
        assert main(argv + ["--out", str(out), "--quiet"]) == 0
        assert out.exists()


@pytest.mark.parametrize("k", [0, 3, 7])
def test_the_stacked_unital_scan_names_the_first_process_that_is_not_unital(
        tmp_path, capsys, inputs, k):
    """Unital channels with one amplitude damping at position k: the scan
    reads every channel's h-block in one pass and names process k + 1."""
    channels = [make_named_channel("bit_flip", p=p) for p in (0.1, 0.3, 0.6, 0.9)]
    channels += [make_named_channel("phase_flip", p=p) for p in (0.2, 0.7, 0.4, 0.5)]
    channels.insert(k, amplitude_damping(0.3))
    path, out = tmp_path / "channels.json", tmp_path / "out"
    save_ensemble(ProcessEnsemble(tuple(channels)), path)
    capsys.readouterr()
    assert main(["refine", "--channels", str(path), "--dataset", inputs["dataset"],
                 "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        f"error: process {k + 1} (amplitude_damping(0.3)) is not generalized-unital")
    assert not out.exists()
    assert main(["rank-check", "--channels", str(path)]) == 0
    assert (f"v1 model applies: no (process {k + 1} is not generalized-unital)"
            in capsys.readouterr().out)


# Value tokens per flag, valid ones and bad ones: negative, fractional, nan,
# words, huge.  The valid ones keep a run small.
_GOOD = {
    "preset": ["one_qubit_closed_complete", "one_qubit_closed_incomplete",
               "one_qubit_random_pure"],
    "samples": ["1", "3", "4"],
    "seed": ["0", "7"],
    "n0": ["100", "1000", str(2 ** 40)],
    "anchor": ["1", "3"],
    "method": ["ls", "plain_ls", "mp", "mp_inverse", "tikhonov"],
    "reg_scale": ["auto", "0.1"],
    "version": ["v1", "v2"],
    "iters": ["0", "3", "20"],
    "trials": ["1", "3"],
    "n0_grid": ["1e3", "1e3,1e4", "1e3,2000,1e5"],
}
_BAD = {
    "preset": ["nope", ""],
    "samples": ["0", "-1", "2.5", "nan", "abc"],
    "seed": ["-1", "1.5", "nan", "abc"],
    "n0": ["0", "-3", "2.5", "nan", "abc", "10000000000000000000000"],
    "anchor": ["0", "-1", "4", "99", "2.5", "abc"],
    "method": ["nope", ""],
    "reg_scale": ["0", "-1", "nan", "inf", "abc"],
    "version": ["v3"],
    "iters": ["-1", "2.5", "abc"],
    "trials": ["0", "-1", "2.5", "abc"],
    "n0_grid": ["0", "-5", "2.5", "nan", "abc", "", "1e3,", "1e3,abc,1e4"],
}
_SWITCHES = {"exact", "quiet", "pure"}
_FILE_FLAGS = ["state", "povm", "channels", "hamiltonians", "dataset"]
_FILE_KINDS = _FILE_FLAGS + ["state4", "povm4", "garbage", "missing"]
# Flags drawn always: the required ones, and those whose defaults (50
# trials, 4 grid points up to 1e6, 100 sweeps) would make a run slow.
_ALWAYS = {"bench": ["preset", "trials", "n0_grid"], "estimate": ["dataset"],
           "refine": ["dataset", "iters"], "export-sos": ["dataset"]}


@st.composite
def _command_lines(draw, inputs, out):
    """A command with a process source, some more of its own flags and at
    most one fault: one bad value or file, or one flag the command does not
    take."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    names = list(_ALWAYS.get(command, []))
    if command != "bench":
        names.append(draw(st.sampled_from(["preset", "channels", "hamiltonians"])))
    rest = sorted(flags - {"preset", "channels", "hamiltonians", "out"} - set(names))
    names += draw(st.lists(st.sampled_from(rest), unique=True, max_size=4))
    fault = draw(st.sampled_from([None, "value", "foreign"]))
    if fault == "foreign":
        names.append(draw(st.sampled_from(sorted(_ALL_FLAGS - flags))))
    bad = draw(st.sampled_from(names)) if fault == "value" else None
    argv = [command, "--out", out] if "out" in flags else [command]
    for name in names:
        if name in _SWITCHES:
            argv.append(_flag(name))
        elif name == "out":  # rank-check's one foreign flag that writes
            argv += ["--out", out]
        elif name in _FILE_FLAGS:
            kind = draw(st.sampled_from(_FILE_KINDS)) if name == bad else name
            argv += [_flag(name), inputs[kind]]
        else:
            value = draw(st.sampled_from((_BAD if name == bad else _GOOD)[name]))
            argv.append(f"{_flag(name)}={value}")
    return argv


def test_cli_fuzz_over_whole_flag_sets(inputs):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")

        @settings(max_examples=150, deadline=None)
        @given(_command_lines(inputs, out))
        def run(argv):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
            lines = err.getvalue().splitlines()
            assert rc in (0, 2, 3, 4), argv
            assert "Traceback" not in err.getvalue()
            if rc:
                assert not os.path.exists(out), argv
                assert lines[-1].startswith(("error:", "numerical degeneracy:", "i/o error:"))
            for written in (out, out + ".meta.json"):
                if os.path.exists(written):
                    os.remove(written)

        run()
