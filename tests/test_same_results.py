"""Every preset reproduces the stored reference results (``same_results.py``).

Datasets are re-drawn and compared to the reference; estimates are
recomputed from the stored datasets, and the Monte-Carlo rows draw their own
datasets.  Each array is compared by ``same_results.differences``, whose
docstring states the tolerances and why.
"""

import re
from functools import cache

import numpy as np
import pytest

import same_results as ref
from jointtomo import PRESET_NAMES


@cache
def _stored() -> dict:
    return ref.stored()


@cache
def _scenarios() -> dict:
    return ref.scenarios()


def _releases() -> str:
    """Both numpy releases, for a failure of a test that draws: the stream
    of ``Generator.multinomial`` may change between releases."""
    return (f" (the reference was drawn with numpy {_stored()['numpy_version']}, this is numpy "
            f"{np.__version__}; if the release changed the draws, regenerate the reference "
            "with tests/same_results.py and name the changed arrays in CHANGES.md)")


def _differences(prefix: str, computed: dict) -> list:
    """The keys of ``computed`` (each under ``prefix``) whose array differs
    from the stored one, with the largest difference of each."""
    changed = ref.differences({f"{prefix}.{key}": v for key, v in computed.items()}, _stored())
    return [f"{key} (largest difference {gap})" for key, gap, _ in changed]


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
    for n0 in ref.SHOTS:
        changed = _differences(f"{name}.n{n0}", ref.datasets(sc, n0))
        assert not changed, f"datasets differ from the reference: {changed}{_releases()}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_estimates_of_the_reference_datasets_are_unchanged(name):
    sc, stored = _scenarios()[name], _stored()
    for n0 in ref.SHOTS:
        prefix = f"{name}.n{n0}"
        datasets = {f: stored[f"{prefix}.{f}"] for f in ref.DATASET_FIELDS}
        changed = _differences(prefix, ref.estimates(sc, n0, datasets))
        assert not changed, f"estimates differ from the reference by {ref.TOL} of scale: {changed}"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_monte_carlo_run_is_unchanged(name):
    changed = _differences(name, {"mse": ref.mse(_scenarios()[name])})
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
