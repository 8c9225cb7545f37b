"""Every preset reproduces the stored reference results (``same_results.py``).

Datasets are re-drawn and compared to ``DATA_TOL`` absolute.  One shot more
or less moves a frequency by 1/n0 >= 1e-5, so every draw must be the same;
the exact datasets' probabilities and the scale observable's eigenvalues
move by up to 2.3e-14 between BLAS kernels.  Estimates are recomputed from
the stored datasets, and each array is compared to ``TOL`` times its largest
stored entry, or ``TOL`` absolute below 1.  The Monte-Carlo rows draw their
own datasets and are compared to ``MSE_RTOL`` relative.  Over OpenBLAS's
Haswell, SkylakeX, Sandybridge and Nehalem kernels, with one and two
threads, the estimates moved by at most 2.1e-9 of their scale (the rough
closed-form state of the rank-cut preset) and the rows by 7.2e-9 relative.
"""

import re
from functools import cache

import numpy as np
import pytest

import same_results as ref
from jointtomo import PRESET_NAMES

DATA_TOL = 1e-12
TOL = 1e-7
MSE_RTOL = 1e-6


@cache
def _stored() -> dict:
    with np.load(ref.PATH) as z:
        return dict(z)


@cache
def _scenarios() -> dict:
    return ref.scenarios()


def _releases() -> str:
    """Both numpy releases, for a failure of a test that draws: the stream
    of ``Generator.multinomial`` may change between releases."""
    return (f" (the reference was drawn with numpy {_stored()['numpy_version']}, this is numpy "
            f"{np.__version__}; if the release changed the draws, regenerate the reference "
            "with tests/same_results.py and name the changed arrays in CHANGES.md)")


def _differences(prefix: str, computed: dict, compare) -> list:
    """The keys of ``computed`` (each under ``prefix``) whose array differs
    from the stored one by ``compare``, with the largest difference of each."""
    stored, out = _stored(), []
    for key, value in computed.items():
        want = stored[f"{prefix}.{key}"]
        if value.shape != want.shape or not compare(value, want):
            gap = np.abs(value - want).max() if value.shape == want.shape else "shape"
            out.append(f"{prefix}.{key} (largest difference {gap})")
    return out


def test_the_reference_covers_every_preset_shot_count_and_stage():
    stored = _stored()
    for name in PRESET_NAMES:
        assert f"{name}.mse" in stored
        for n0 in ref.SHOTS:
            for f in ref.DATASET_FIELDS + tuple(f"closed.{f}" for f in ref.ESTIMATE_FIELDS):
                assert len(stored[f"{name}.n{n0}.{f}"]) == len(ref.SEEDS) + 1
            refined = f"{name}.n{n0}.refined.rho_hat" in stored
            assert refined == (_scenarios()[name].estimator == "v1")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_reference_datasets_are_drawn_again(name):
    sc = _scenarios()[name]
    close = lambda a, b: np.allclose(a, b, rtol=0.0, atol=DATA_TOL)
    for n0 in ref.SHOTS:
        changed = _differences(f"{name}.n{n0}", ref.datasets(sc, n0), close)
        assert not changed, f"datasets differ from the reference: {changed}{_releases()}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_estimates_of_the_reference_datasets_are_unchanged(name):
    sc, stored = _scenarios()[name], _stored()
    close = lambda a, b: np.abs(a - b).max() <= TOL * max(1.0, np.abs(b).max())
    for n0 in ref.SHOTS:
        prefix = f"{name}.n{n0}"
        datasets = {f: stored[f"{prefix}.{f}"] for f in ref.DATASET_FIELDS}
        changed = _differences(prefix, ref.estimates(sc, n0, datasets), close)
        assert not changed, f"estimates differ from the reference by {TOL} of scale: {changed}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_monte_carlo_run_is_unchanged(name):
    close = lambda a, b: np.allclose(a, b, rtol=MSE_RTOL, atol=0.0)
    changed = _differences(name, {"mse": ref.mse(_scenarios()[name])}, close)
    assert not changed, f"Monte-Carlo rows differ from the reference: {changed}{_releases()}"


def test_a_changed_draw_is_named_with_both_numpy_releases(monkeypatch):
    drawn = ref.datasets

    def shifted(sc, n0):
        fields = drawn(sc, n0)
        return {**fields, "x01_bar": fields["x01_bar"] + 1e-3}

    monkeypatch.setattr(ref, "datasets", shifted)
    monkeypatch.setattr(np, "__version__", "0.0.0")
    made = re.escape(str(_stored()["numpy_version"]))
    message = rf"n1000\.x01_bar .*numpy {made}, this is numpy 0\.0\.0"
    with pytest.raises(AssertionError, match=message):
        test_the_reference_datasets_are_drawn_again("one_qubit_closed_complete")
