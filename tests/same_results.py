"""The "same results" reference: arrays a change to the package must reproduce.

Covers every preset (seed 0) at n0 in ``SHOTS``, with datasets drawn from the
seeds in ``SEEDS`` and one exact dataset, in that order along the first axis:

* ``{preset}.n{n0}.{field}``: the simulated datasets (``y_hat``, ``x_a0_hat``,
  ``c_j0_hat``, ``x01_bar``), stacked;
* ``{preset}.n{n0}.closed.{field}``: the closed-form estimate of each dataset
  in the preset's own basis (``rho_hat``, ``povm_hat``, ``rho_bar``,
  ``povm_bar``);
* ``{preset}.n{n0}.refined.{field}``: ``SWEEPS`` refinement sweeps from that
  estimate, on the coherence-vector presets only;
* ``{preset}.mse``: a ``MSE_TRIALS``-trial ``run_mse_experiment`` over
  ``SHOTS``, one row per grid point (N, mse_state, se_state, mse_povm,
  se_povm, trials);
* ``numpy_version``: the numpy the datasets were drawn with.

``tests/test_same_results.py`` re-draws the datasets and compares them
exactly, and recomputes everything else from the stored datasets.  To
rewrite the reference file, run from the repository root::

    PYTHONPATH=src python tests/same_results.py

and name in CHANGES.md every array that changed, and why.
"""

from pathlib import Path

import numpy as np

from jointtomo import (
    MeasurementDataset,
    PRESET_NAMES,
    estimate_joint_v1,
    estimate_joint_v2,
    preset,
    refine_alternating,
    run_mse_experiment,
    simulate_dataset,
)

PATH = Path(__file__).with_name("same_results.npz")
SHOTS = (1000, 100000)
SEEDS = (1, 2, 3)
SWEEPS = 20
MSE_TRIALS = 20
DATASET_FIELDS = ("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar")
ESTIMATE_FIELDS = ("rho_hat", "povm_hat", "rho_bar", "povm_bar")


def scenarios() -> dict:
    return {name: preset(name) for name in PRESET_NAMES}


def datasets(sc, n0: int) -> dict:
    """The stacked fields of the reference datasets of ``sc`` at ``n0``."""
    drawn = [simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seed=seed,
                              scale_observable=sc.anchor_index, basis=sc.basis)
             for seed in SEEDS]
    drawn.append(simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                                  scale_observable=sc.anchor_index, exact=True, basis=sc.basis))
    return {f: np.array([getattr(ds, f) for ds in drawn]) for f in DATASET_FIELDS}


def _fields(result) -> dict:
    return {"rho_hat": result.rho_hat.rho, "povm_hat": result.povm_hat.elements,
            "rho_bar": result.rho_bar, "povm_bar": result.povm_bar}


def estimates(sc, n0: int, stored: dict) -> dict:
    """The closed-form and refined estimates of the stored datasets of
    ``sc`` at ``n0``, keyed ``closed.{field}`` and ``refined.{field}``."""
    out = {}
    for t in range(len(stored["y_hat"])):
        ds = MeasurementDataset(*(stored[f][t] for f in DATASET_FIELDS), n0=n0,
                                tp_flags=sc.ensemble.tp_flags, anchor_index=sc.anchor_index)
        if sc.estimator == "v2":
            runs = {"closed": estimate_joint_v2(ds, sc.regression.design_natural, sc.stage1)}
        else:
            closed = estimate_joint_v1(ds, sc.regression.design, sc.basis, sc.stage1)
            runs = {"closed": closed, "refined": refine_alternating(
                ds, sc.regression.design, sc.basis, closed, iters=SWEEPS)}
        for stage, result in runs.items():
            for f, value in _fields(result).items():
                out.setdefault(f"{stage}.{f}", []).append(value)
    return {key: np.array(values) for key, values in out.items()}


def mse(sc) -> np.ndarray:
    table = run_mse_experiment(sc, SHOTS, trials=MSE_TRIALS, seed=0)
    return np.array([[r.n, r.mse_state, r.se_state, r.mse_povm, r.se_povm, r.trials]
                     for r in table.rows], dtype=float)


def reference() -> dict:
    """Every reference array, drawn and computed by the package as it is."""
    out = {"numpy_version": np.array(np.__version__)}
    for name, sc in scenarios().items():
        for n0 in SHOTS:
            stored = datasets(sc, n0)
            for key, value in {**stored, **estimates(sc, n0, stored)}.items():
                out[f"{name}.n{n0}.{key}"] = value
        out[f"{name}.mse"] = mse(sc)
    return out


if __name__ == "__main__":
    arrays = reference()
    np.savez_compressed(PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {PATH}")
