import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtomo import (MseTable, SosProblem, Stage1Config, ValidationError, estimate_joint_v1,
                       preset, simulate_dataset)
from jointtomo.bench import MseRow
from jointtomo.serialize import (
    channel_from_json,
    channel_to_json,
    dataset_from_json,
    dataset_to_json,
    load_dataset,
    load_ensemble,
    load_hamiltonians,
    load_povm,
    load_state,
    matrix_from_json,
    matrix_to_json,
    result_to_json,
    save_dataset,
    save_ensemble,
    save_povm,
    save_result,
    save_state,
)


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)
    with pytest.raises(ValidationError):
        matrix_from_json([[1.0, 2.0]])


def test_numpy_diagnostics_are_written_as_plain_json():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=1,
                          basis=sc.basis)
    est = replace(estimate_joint_v1(ds, sc.regression.b, sc.basis), diagnostics={
        "rank": np.int64(9), "cond": np.float64(2.5), "ok": np.bool_(True),
        "spread": np.array([[1.0, 2.0]]), "nested": {"s": (np.float32(0.5),)}})
    out = result_to_json(est)["diagnostics"]
    assert out == {"rank": 9, "cond": 2.5, "ok": True, "spread": [[1.0, 2.0]],
                   "nested": {"s": [0.5]}}
    assert [type(out[k]) for k in ("rank", "cond", "ok")] == [int, float, bool]
    assert json.loads(json.dumps(out)) == out


def test_channel_and_ensemble_roundtrip(tmp_path):
    sc = preset("one_qubit_closed_complete")
    ch = sc.ensemble.channels[0]
    back = channel_from_json(channel_to_json(ch))
    assert back.d == ch.d and back.label == ch.label
    assert np.array_equal(back.kraus, ch.kraus)
    with pytest.raises(ValidationError):
        channel_from_json({"d": 2})
    path = tmp_path / "ens.json"
    save_ensemble(sc.ensemble, path)
    loaded = load_ensemble(path)
    assert len(loaded) == len(sc.ensemble)
    assert all(np.array_equal(a.kraus, b.kraus)
               for a, b in zip(loaded.channels, sc.ensemble.channels))


def test_state_and_povm_roundtrip(tmp_path):
    sc = preset("one_qubit_closed_complete")
    save_state(sc.truth_state, tmp_path / "state.json")
    save_povm(sc.truth_povm, tmp_path / "povm.json")
    st = load_state(tmp_path / "state.json")
    pv = load_povm(tmp_path / "povm.json")
    assert np.array_equal(st.rho, sc.truth_state.rho)
    assert np.array_equal(pv.elements, sc.truth_povm.elements)


def test_dataset_roundtrip(tmp_path):
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 500, seed=3,
                          basis=sc.basis)
    data = dataset_to_json(ds)
    assert set(data) == {"y_hat", "x_a0_hat", "c_j0_hat", "x01_bar", "n0",
                         "tp_flags", "anchor_index"}
    back = dataset_from_json(data)
    assert np.array_equal(back.y_hat, ds.y_hat)
    assert back.total_copies == ds.total_copies
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    again = load_dataset(path)
    assert np.array_equal(again.y_hat, ds.y_hat)
    assert again.x01_bar == ds.x01_bar
    # anchor index is optional on import
    del data["anchor_index"]
    assert dataset_from_json(data).anchor_index == 1
    with pytest.raises(ValidationError):
        dataset_from_json({"y_hat": [[0.1]]})


def test_hamiltonian_file(tmp_path):
    import json
    h = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
    path = tmp_path / "h.json"
    path.write_text(json.dumps([{"d": 2, "h": h, "dt_us": 1.0}]))
    records = load_hamiltonians(path)
    assert len(records) == 1
    mat, dt = records[0]
    assert dt == 1.0
    assert np.allclose(mat, [[0, 0.5], [0.5, 0]])
    path.write_text(json.dumps([{"d": 2, "h": h}]))
    with pytest.raises(ValidationError):
        load_hamiltonians(path)
    nan_h = [[[0.0, 0.0], [float("nan"), 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
    upper_h = [[[0.0, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    huge_h = [[[1e308, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [0.0, 0.0]]]
    for record, message in (({"d": 3, "h": h, "dt_us": 1.0}, "must be 3x3"),
                            ({"d": 2, "h": upper_h, "dt_us": 1.0}, "H2 is not Hermitian"),
                            ({"d": 2, "h": huge_h, "dt_us": 1.0}, "H2 is not Hermitian"),
                            ({"d": 2.5, "h": h, "dt_us": 1.0}, "whole number"),
                            ({"d": 2, "h": nan_h, "dt_us": 1.0}, "non-finite"),
                            ({"d": 2, "h": h, "dt_us": 0.0}, "dt_us"),
                            ({"d": 2, "h": h, "dt_us": -1.0}, "dt_us"),
                            ({"d": 2, "h": h, "dt_us": "0.5"}, "dt_us must be a real"),
                            ({"d": 2, "h": h, "dt_us": True}, "dt_us must be a real"),
                            ({"d": 2, "h": h, "dt_us": float("inf")}, "dt_us")):
        path.write_text(json.dumps([{"d": 2, "h": h, "dt_us": 1.0}, record]))
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_hamiltonians(path)


@pytest.mark.parametrize("d", [2.7, "2", True, 2.0], ids=["fraction", "string", "bool", "float"])
def test_loaders_read_the_dimension_as_a_whole_number(tmp_path, d):
    sc = preset("one_qubit_closed_complete")
    paths = (tmp_path / "state.json", tmp_path / "povm.json", tmp_path / "ens.json")
    save_state(sc.truth_state, paths[0])
    save_povm(sc.truth_povm, paths[1])
    save_ensemble(sc.ensemble, paths[2])
    for path, loader in zip(paths, (load_state, load_povm, load_ensemble)):
        data = json.loads(path.read_text())
        for record in data if isinstance(data, list) else [data]:
            record["d"] = d
        path.write_text(json.dumps(data))
        if d == 2.0:  # a float with an integral value is a whole number
            assert loader(path) is not None
        else:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: .*whole number"):
                loader(path)


LOADERS = (load_ensemble, load_hamiltonians, load_state, load_povm, load_dataset)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("text", [
    "{bad", "", "\u00ff", "[[]]", "{}", "3", "null", '"text"',
    '{"d": 2, "rho": [[1, 0]], "elements": 7, "kraus": [[[1]]], "h": 1, "dt_us": "x"}',
    '[{"d": "two", "h": [], "dt_us": 1, "kraus": []}]',
    '{"y_hat": [[0.5]], "x_a0_hat": [], "c_j0_hat": 1, "x01_bar": "a", "n0": 1e400, '
    '"tp_flags": [true]}',
    '{"y_hat": [[0.5]], "x_a0_hat": [0.7], "c_j0_hat": [0.7], "x01_bar": 0.1, "n0": 2.5, '
    '"tp_flags": [true]}',
    # a Hamiltonian record whose h is 2x3, and one whose dt_us is NaN
    '[{"d": 2, "h": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]], "dt_us": 1.0}]',
    '[{"d": 2, "h": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]], "dt_us": NaN}]',
])
def test_loaders_refuse_malformed_files(tmp_path, loader, text):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="latin-1")
    with pytest.raises(ValidationError):
        loader(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True)
    | st.sampled_from(["d", "h", "rho", "kraus", "y_hat"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["d", "h", "dt_us", "rho", "elements", "kraus",
                                       "label", "y_hat", "x_a0_hat", "c_j0_hat",
                                       "x01_bar", "n0", "tp_flags", "anchor_index"]),
                      inner, max_size=6),
    max_leaves=24,
)


@settings(max_examples=60, deadline=None)
@given(data=_JSON)
def test_loaders_raise_only_validation_errors_on_fuzzed_json(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "in.json"
    path.write_text(json.dumps(data))
    for loader in LOADERS:
        try:
            loader(path)
        except ValidationError:
            pass


@pytest.mark.parametrize("save, what", [
    (save_ensemble, "ensemble must be a ProcessEnsemble"),
    (save_state, "state must be a DensityMatrix"),
    (save_povm, "povm must be a Povm"),
    (save_dataset, "dataset must be a MeasurementDataset"),
    (save_result, "result must be an EstimateResult"),
], ids=["ensemble", "state", "povm", "dataset", "result"])
def test_writers_refuse_a_wrong_record_before_opening_the_file(tmp_path, save, what):
    with pytest.raises(ValidationError, match=f"^{what}, got NoneType$"):
        save(None, tmp_path / "out.json")
    assert not list(tmp_path.iterdir())


def _result_with_an_object():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=3,
                          basis=sc.basis)
    est = estimate_joint_v1(ds, sc.regression.design, sc.basis)
    return replace(est, diagnostics={**est.diagnostics, "solver": object()})


@pytest.mark.parametrize("write, error", [
    (lambda path: save_result(_result_with_an_object(), path), ValidationError),
    (lambda path: MseTable(rows=(), scenario="x", metadata={"config": Stage1Config()})
     .write_metadata(path), ValidationError),
    (lambda path: MseTable(rows=(MseRow(10, "x", 0.0, 0.0, 0.0, 2),), scenario="x")
     .to_csv(path), ValueError),
    (lambda path: SosProblem(dim=2, m=2, variables=("x1",), objective={(2,): None})
     .write(path), TypeError),
], ids=["save_result", "write_metadata", "to_csv", "sos_write"])
def test_a_text_that_cannot_be_formed_leaves_no_file(tmp_path, write, error):
    """Each writer forms its whole text before the file is opened
    (``errors._write``); a result or metadata that JSON cannot hold is
    refused with a ValidationError."""
    with pytest.raises(error):
        write(tmp_path / "out")
    assert not list(tmp_path.iterdir())
