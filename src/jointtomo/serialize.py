"""JSON file formats for channels, datasets, states, and results.

Complex matrices are stored as nested arrays of ``[re, im]`` pairs.  Operator
bases are never serialized; they are rebuilt from the dimension.  A file that
is not JSON, or whose records lack a field or have the wrong shape, is
refused by the loaders with a ValidationError.
"""

import json

import numpy as np

from .basis import _skewed
from .channels import KrausChannel, ProcessEnsemble
from .errors import ValidationError, _array, _real, _whole
from .estimator import EstimateResult
from .measurement import DensityMatrix, MeasurementDataset, Povm

# What a malformed record raises while it is parsed: a missing key, a wrong
# type or shape, an infinite integer.
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


def _load(path, parse):
    """Parse the JSON file at ``path`` into an object with ``parse``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValidationError(f"{path}: not a JSON file: {exc}") from exc
    try:
        return parse(data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except _MALFORMED as exc:
        raise ValidationError(f"{path}: malformed record: {exc!r}") from exc


def matrix_to_json(a) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def matrix_from_json(data) -> np.ndarray:
    arr = _array(data, "matrix", dtype=float)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ValidationError(f"matrix must be nested [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def channel_to_json(ch: KrausChannel) -> dict:
    return {"d": ch.d, "kraus": [matrix_to_json(a) for a in ch.kraus], "label": ch.label}


def channel_from_json(data) -> KrausChannel:
    for key in ("d", "kraus"):
        if key not in data:
            raise ValidationError(f"channel record is missing field {key!r}")
    kraus = np.stack([matrix_from_json(a) for a in data["kraus"]])
    return KrausChannel(data["d"], kraus, label=str(data.get("label", "")))


def save_ensemble(ens: ProcessEnsemble, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([channel_to_json(ch) for ch in ens.channels], fh)


def _ensemble_from_json(data) -> ProcessEnsemble:
    if not isinstance(data, list):
        raise ValidationError("ensemble file must be a JSON array of channels")
    return ProcessEnsemble(tuple(channel_from_json(item) for item in data))


def load_ensemble(path) -> ProcessEnsemble:
    return _load(path, _ensemble_from_json)


def load_hamiltonians(path):
    """Hamiltonian records ``{"d": int, "h": matrix, "dt_us": real}``: ``h``
    a finite, Hermitian ``d x d`` matrix and ``dt_us`` a finite sampling
    interval > 0."""
    return _load(path, _hamiltonians_from_json)


def _hamiltonians_from_json(data) -> list:
    if isinstance(data, dict):
        data = [data]
    out = []
    for i, item in enumerate(data, start=1):
        for key in ("d", "h", "dt_us"):
            if key not in item:
                raise ValidationError(f"Hamiltonian record is missing field {key!r}")
        d = _whole(item["d"], "Hamiltonian dimension d")
        h, dt = matrix_from_json(item["h"]), _real(item["dt_us"], "dt_us")
        if h.shape != (d, d):
            raise ValidationError(f"Hamiltonian h must be {d}x{d}, got shape {h.shape}")
        if _skewed(h):
            raise ValidationError(f"Hamiltonian H{i} is not Hermitian")
        if dt <= 0.0:
            raise ValidationError(f"dt_us must be > 0, got {dt}")
        out.append((h, dt))
    return out


def save_state(state: DensityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d": state.d, "rho": matrix_to_json(state.rho)}, fh)


def load_state(path) -> DensityMatrix:
    return _load(path, lambda data: DensityMatrix(data["d"], matrix_from_json(data["rho"])))


def save_povm(povm: Povm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"d": povm.d, "elements": [matrix_to_json(p) for p in povm.elements]}, fh)


def load_povm(path) -> Povm:
    return _load(path, lambda data: Povm(
        data["d"], np.stack([matrix_from_json(p) for p in data["elements"]])))


def dataset_to_json(ds: MeasurementDataset) -> dict:
    return {
        "y_hat": ds.y_hat.tolist(),
        "x_a0_hat": ds.x_a0_hat.tolist(),
        "c_j0_hat": ds.c_j0_hat.tolist(),
        "x01_bar": ds.x01_bar,
        "n0": ds.n0,
        "tp_flags": [bool(f) for f in ds.tp_flags],
        "anchor_index": ds.anchor_index,
    }


def dataset_from_json(data) -> MeasurementDataset:
    for key in ("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar", "n0", "tp_flags"):
        if key not in data:
            raise ValidationError(f"dataset record is missing field {key!r}")
    return MeasurementDataset(
        y_hat=data["y_hat"],
        x_a0_hat=data["x_a0_hat"],
        c_j0_hat=data["c_j0_hat"],
        x01_bar=_real(data["x01_bar"], "x01_bar"),
        n0=data["n0"],
        tp_flags=data["tp_flags"],
        anchor_index=data.get("anchor_index", 1),
    )


def save_dataset(ds: MeasurementDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dataset_to_json(ds), fh)


def load_dataset(path) -> MeasurementDataset:
    return _load(path, dataset_from_json)


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def result_to_json(result: EstimateResult) -> dict:
    return {
        "rho_hat": matrix_to_json(result.rho_hat.rho),
        "povm_hat": [matrix_to_json(p) for p in result.povm_hat.elements],
        "rho_bar": matrix_to_json(result.rho_bar),
        "povm_bar": [matrix_to_json(p) for p in result.povm_bar],
        "diagnostics": _plain(result.diagnostics),
    }


def save_result(result: EstimateResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_json(result), fh)
