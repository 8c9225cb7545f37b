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

``tests/test_same_results.py`` re-draws the datasets and compares them,
and recomputes everything else from the stored datasets.  It and ``--diff``
compare by one rule, ``differences``: datasets to ``DATA_TOL`` absolute (one
shot more or less moves a frequency by 1/n0 >= 1e-5, so every draw must be
the same; the exact datasets' probabilities and the scale observable's
eigenvalues move by up to 2.3e-14 between BLAS kernels), estimates to
``TOL`` times their largest stored entry, or ``TOL`` absolute below 1, and
the Monte-Carlo rows to ``MSE_RTOL`` relative.  Over OpenBLAS's Haswell,
SkylakeX, Sandybridge and Nehalem kernels, with one and two threads, the
estimates moved by at most 2.1e-9 of their scale (the rough closed-form
state of the rank-cut preset) and the rows by 7.2e-9 relative.

From the repository root::

    PYTHONPATH=src python tests/same_results.py --diff

recomputes the reference and prints every stored array that differs by that
rule, with its largest difference and its scale; it writes nothing, and
exits 1 if any array differs.  Without ``--diff`` the script rewrites the
reference file: name in CHANGES.md every array that changed, and why.
"""

import sys
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
DATA_TOL = 1e-12
TOL = 1e-7
MSE_RTOL = 1e-6
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


def stored() -> dict:
    """The reference arrays as written."""
    with np.load(PATH) as z:
        return dict(z)


def differences(computed: dict, want: dict) -> list:
    """``(key, largest difference, scale)`` for each array of ``computed``
    that differs from the same key of ``want`` by the rule of its kind (the
    difference is ``"shape"`` when the shapes differ).  The scale is what the
    tolerance is relative to: 1 for a dataset, ``max(1, largest stored
    entry)`` for an estimate, and for the Monte-Carlo rows, which are
    compared entry by entry, their largest stored entry."""
    out = []
    for key, value in computed.items():
        if key == "numpy_version":
            continue
        ref, parts = want[key], key.split(".")
        if parts[-1] == "mse":
            scale, bound = np.abs(ref).max(), MSE_RTOL * np.abs(ref)
        elif len(parts) == 3:  # {preset}.n{n0}.{dataset field}
            scale, bound = 1.0, DATA_TOL
        else:
            scale = max(1.0, np.abs(ref).max())
            bound = TOL * scale
        if value.shape != ref.shape:
            out.append((key, "shape", scale))
        elif not np.all(np.abs(value - ref) <= bound):
            out.append((key, np.abs(value - ref).max(), scale))
    return out


if __name__ == "__main__":
    arrays = reference()
    if sys.argv[1:] == ["--diff"]:
        changed = differences(arrays, stored())
        for key, gap, scale in changed:
            print(f"{key}: largest difference {gap}, scale {scale:.6g}")
        print(f"{len(changed)} of {len(arrays) - 1} arrays differ from {PATH.name}")
        sys.exit(1 if changed else 0)
    np.savez_compressed(PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {PATH}")
