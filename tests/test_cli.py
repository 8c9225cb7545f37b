import json

import numpy as np
import pytest

from jointtomo import make_named_channel, preset, simulate_dataset
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


@pytest.mark.parametrize("command", [["estimate"], ["refine"], ["export-sos"],
                                     ["export-sos", "--pure"]])
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
    assert "regression matrix must be" in capsys.readouterr().err
    assert not out.exists()


def test_rank_check_preset(capsys):
    rc = run_cli("rank-check", "--preset", "one_qubit_closed_complete")
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank(B) = 9 of 9" in out
    assert "complete (v1): yes" in out
    assert "minimum Hamiltonians for d=2: 3 (n_min = 3)" in out


def test_rank_check_channel_files(tmp_path, capsys):
    flips = ProcessEnsemble(tuple(make_named_channel("bit_flip", p=p)
                                  for p in (0.1, 0.4, 0.8)))
    path = tmp_path / "flips.json"
    save_ensemble(flips, path)
    rc = run_cli("rank-check", "--channels", str(path))
    assert rc == 0
    out = capsys.readouterr().out
    assert "rank(B) = 2 of 9" in out
    rng = np.random.default_rng(0)
    tp = ProcessEnsemble(tuple(
        make_named_channel("random_cp", d=2, rank=4, seed=int(rng.integers(2 ** 32)), tp=True)
        for _ in range(20)))
    save_ensemble(tp, path)
    rc = run_cli("rank-check", "--channels", str(path))
    out = capsys.readouterr().out
    assert "rank(B_natural) = 13 <= bound 13" in out
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
