import gc
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtomo import (
    DensityMatrix,
    MeasurementDataset,
    OperatorBasis,
    Povm,
    ProcessEnsemble,
    ValidationError,
    amplitude_damping,
    born_probabilities,
    build_basis,
    haar_unitary,
    ideal_statistics,
    make_named_channel,
    preset,
    sample_frequencies,
    simulate_dataset,
    simulate_datasets,
)
from jointtomo import bench, measurement
from jointtomo.bench import PRESET_NAMES
from jointtomo.measurement import DatasetStack, sampling_table

from random_states import random_density_matrix

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
ZBASIS = Povm(2, np.stack([KET0, KET1]))


def test_state_and_povm_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.array([[0.5, 0.3], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.diag([1.2, -0.2]))  # negative eigenvalue
    with pytest.raises(ValidationError):
        DensityMatrix(2, np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValidationError):
        Povm(2, np.stack([KET0, KET0]))  # does not sum to identity
    with pytest.raises(ValidationError):
        Povm(2, np.stack([1.5 * KET0, np.eye(2) - 1.5 * KET0]))  # negative element
    # the checks run on all elements at once and name the first that fails
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError, match="^element 1 is not Hermitian"):
        Povm(2, np.stack([KET0, KET1 + skew, KET1 - skew]))
    with pytest.raises(ValidationError, match="^element 2 has a negative eigenvalue"):
        Povm(2, np.stack([KET0, 1.5 * KET1, -0.5 * KET1]))


def test_born_probabilities_basics():
    assert np.allclose(born_probabilities(DensityMatrix(2, np.eye(2) / 2), ZBASIS), [0.5, 0.5])
    assert np.allclose(born_probabilities(DensityMatrix(2, KET0), ZBASIS), [1, 0])
    with pytest.raises(ValidationError):
        born_probabilities(DensityMatrix(2, KET0), preset("two_qubit_mixed_unitary").truth_povm)


def test_born_probabilities_sum_to_trace():
    rng = np.random.default_rng(0)
    sc = preset("one_qubit_closed_complete")
    for _ in range(10):
        rho = random_density_matrix(2, rng)
        p = born_probabilities(rho, sc.truth_povm)
        assert abs(p.sum() - 1.0) < 1e-12


def test_sample_frequencies_degenerate_and_concentration():
    assert np.allclose(sample_frequencies([1.0, 0.0], 100, 0), [1, 0])
    p_hat = sample_frequencies([0.5, 0.5], 10 ** 6, 1)
    assert np.max(np.abs(p_hat - 0.5)) < 0.005
    with pytest.raises(ValidationError):
        sample_frequencies([-0.1, 0.5], 100, 0)


def test_sample_frequencies_loss_outcome():
    rng = np.random.default_rng(2)
    sums = [sample_frequencies([0.5, 0.2], 10 ** 4, rng).sum() for _ in range(200)]
    assert all(s <= 1.0 + 1e-12 for s in sums)
    assert abs(np.mean(sums) - 0.7) < 0.01


def _small_scenario():
    rng = np.random.default_rng(3)
    u = haar_unitary(2, rng)
    ens = ProcessEnsemble((
        make_named_channel("unitary", u=u),
        make_named_channel("scaled", alpha=0.7, channel=make_named_channel("unitary", u=u)),
    ))
    state = random_density_matrix(2, rng)
    p1 = 0.5 * KET0
    povm = Povm(2, np.stack([p1, np.eye(2) - p1]))
    return ens, state, povm


def test_simulate_dataset_exact_mode():
    ens, state, povm = _small_scenario()
    ds = simulate_dataset(ens, state, povm, 100, seed=0, exact=True)
    basis = build_basis(2)
    for a, ch in enumerate(ens.channels):
        out = ch.apply(state.rho)
        assert np.allclose(ds.y_hat[a], born_probabilities(out, povm))
        assert np.isclose(ds.x_a0_hat[a], np.trace(out).real / np.sqrt(2))
    assert np.allclose(ds.c_j0_hat, [np.trace(p).real / np.sqrt(2) for p in povm.elements])
    x = np.real(np.trace(basis.omegas[1] @ state.rho))
    assert np.isclose(ds.x01_bar, x)


def test_simulate_dataset_copy_accounting():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 50, seed=0)
    assert np.all(ds.tp_flags)
    assert ds.total_copies == (len(sc.ensemble) + 2) * 50
    ens, state, povm = _small_scenario()
    ds = simulate_dataset(ens, state, povm, 50, seed=0)
    assert not np.all(ds.tp_flags)
    assert ds.total_copies == (2 * len(ens) + 2) * 50
    # trace-preserving rows carry the exact trace component
    assert ds.x_a0_hat[0] == pytest.approx(1 / np.sqrt(2), abs=0)


def test_simulate_dataset_deterministic():
    ens, state, povm = _small_scenario()
    a = simulate_dataset(ens, state, povm, 1000, seed=42)
    b = simulate_dataset(ens, state, povm, 1000, seed=42)
    assert np.array_equal(a.y_hat, b.y_hat)
    assert np.array_equal(a.x_a0_hat, b.x_a0_hat)
    assert np.array_equal(a.c_j0_hat, b.c_j0_hat)
    assert a.x01_bar == b.x01_bar
    c = simulate_dataset(ens, state, povm, 1000, seed=43)
    assert not np.array_equal(a.y_hat, c.y_hat)


def test_simulate_dataset_validation():
    ens, state, povm = _small_scenario()
    with pytest.raises(ValidationError):
        simulate_dataset(ens, state, povm, 0, seed=0)
    with pytest.raises(ValidationError):
        simulate_dataset(ens, state, povm, 10, seed=0, scale_observable=7)


def test_frequency_noise_variance():
    # single-configuration sampling noise within a factor 2 of p(1-p)/n0
    ens, state, povm = _small_scenario()
    p = born_probabilities(ens.channels[0].apply(state.rho), povm)
    n0 = 1000
    rng = np.random.default_rng(5)
    draws = np.stack([sample_frequencies(p, n0, rng) for _ in range(1000)])
    for j in range(2):
        var = np.var(draws[:, j] - p[j])
        expected = p[j] * (1 - p[j]) / n0
        assert expected / 2 < var < expected * 2


def test_target_noise_scales_inversely_with_copies():
    # Var(yhat - x_a0hat*c_j0hat) ~ 1/N: log-log slope -1 within 0.15
    from jointtomo.estimator import build_targets_v1

    ens, state, povm = _small_scenario()
    basis = build_basis(2)
    exact = simulate_dataset(ens, state, povm, 10, seed=0, exact=True)
    y_true = build_targets_v1(exact, basis)
    n_grid, variances = [], []
    for n0 in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        vals = []
        for t in range(300):
            ds = simulate_dataset(ens, state, povm, n0,
                                  seed=np.random.SeedSequence([6, n0, t]))
            vals.append(build_targets_v1(ds, basis)[1, 0] - y_true[1, 0])
        n_grid.append(ds.total_copies)
        variances.append(np.var(vals))
    slope = np.polyfit(np.log(n_grid), np.log(variances), 1)[0]
    assert abs(slope + 1.0) < 0.15


def test_loss_outcome_mass_matches_trace_deficit():
    ens, state, povm = _small_scenario()
    out = ens.channels[1].apply(state.rho)
    deficit = 1.0 - np.trace(out).real
    masses = []
    for t in range(300):
        ds = simulate_dataset(ens, state, povm, 1000, seed=np.random.SeedSequence([7, t]))
        masses.append(1.0 - ds.y_hat[1].sum())
    assert abs(np.mean(masses) - deficit) < 0.01


def test_dataset_subset():
    ens, state, povm = _small_scenario()
    ds = simulate_dataset(ens, state, povm, 100, seed=1)
    sub = ds.subset([1])
    assert sub.n_processes == 1
    assert np.array_equal(sub.y_hat[0], ds.y_hat[1])
    assert sub.tp_flags[0] == ds.tp_flags[1]
    assert sub.total_copies == (2 * 1 + 2) * 100


def test_stacked_born_probabilities_match_per_matrix_calls():
    rng = np.random.default_rng(11)
    rhos = np.stack([0.8 * random_density_matrix(2, rng).rho for _ in range(6)])
    povm = Povm(2, np.stack([0.5 * KET0, np.eye(2) - 0.5 * KET0]))
    stacked = born_probabilities(rhos, povm)
    assert stacked.shape == (6, 2)
    for row, rho in zip(stacked, rhos):
        assert np.max(np.abs(row - born_probabilities(rho, povm))) < 1e-15
    with pytest.raises(ValidationError):
        born_probabilities(np.zeros((2, 2, 2, 2)), povm)


def test_simulate_exact_matches_per_channel_born_probabilities():
    rng = np.random.default_rng(12)
    unitary = make_named_channel("unitary", u=haar_unitary(2, rng))
    ens = ProcessEnsemble((
        unitary, make_named_channel("bit_flip", p=0.2), amplitude_damping(0.3),
        make_named_channel("random_cp", d=2, rank=4, seed=3),
        make_named_channel("scaled", alpha=0.6, channel=unitary)))
    state = random_density_matrix(2, rng)
    ds = simulate_dataset(ens, state, ZBASIS, 100, seed=0, exact=True)
    for a, ch in enumerate(ens.channels):
        out = ch.apply(state.rho)
        assert np.max(np.abs(ds.y_hat[a] - born_probabilities(out, ZBASIS))) < 1e-15
        tr = np.trace(out).real if not ch.is_trace_preserving else 1.0
        assert ds.x_a0_hat[a] == pytest.approx(tr / np.sqrt(2), abs=1e-15)


def test_batched_sampling_matches_a_per_row_loop_on_tp_ensembles():
    # one 2-D multinomial takes the stream row by row, as one call per row does
    sc = preset("one_qubit_closed_complete")
    for n0 in (1000, 100000):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seed=8,
                              basis=sc.basis)
        rng = np.random.default_rng(8)
        rows = [sample_frequencies(born_probabilities(ch.apply(sc.truth_state.rho),
                                                      sc.truth_povm), n0, rng)
                for ch in sc.ensemble.channels]
        assert np.array_equal(ds.y_hat, np.stack(rows))
        q = np.real(np.einsum("jii->j", sc.truth_povm.elements)) / 2
        assert np.array_equal(ds.c_j0_hat, np.sqrt(2) * sample_frequencies(q, n0, rng))
    p = np.array([[0.2, 0.3], [0.7, 0.4]])
    with pytest.raises(ValidationError):
        sample_frequencies(p, 10, 0)  # the second row sums above 1
    with pytest.raises(ValidationError):
        sample_frequencies(np.array([0.2, np.nan]), 10, 0)


@pytest.mark.parametrize("field,value", [
    ("y_hat", np.nan), ("y_hat", np.inf), ("y_hat", -0.3),
    ("x_a0_hat", np.nan), ("x_a0_hat", -0.1),
    ("c_j0_hat", np.inf), ("c_j0_hat", -0.2),
    ("x01_bar", np.nan),
    # right length, wrong shape: a column where a vector belongs
    ("x_a0_hat", "column"), ("tp_flags", "column"), ("c_j0_hat", "column"),
    # every entry 1e308: the row sums would overflow
    ("y_hat", "huge"),
])
def test_dataset_rejects_bad_frequencies(field, value):
    good = dict(y_hat=np.array([[0.4, 0.5], [0.3, 0.6]]), x_a0_hat=np.full(2, 0.7),
                c_j0_hat=np.array([0.7, 0.7]), x01_bar=0.1, n0=10,
                tp_flags=np.ones(2, dtype=bool))
    MeasurementDataset(**good)
    bad = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in good.items()}
    if field == "x01_bar":
        bad[field] = value
    elif isinstance(value, str):
        bad[field] = np.full_like(bad[field], 1e308) if value == "huge" else bad[field][:, None]
    else:
        bad[field].flat[0] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError):
            MeasurementDataset(**bad)


def test_dataset_refuses_frequencies_that_are_not_a_matrix():
    for y_hat in (np.full(2, 0.4), np.full((2, 2, 1), 0.4), 0.4):
        with pytest.raises(ValidationError, match="must be an L x M matrix"):
            MeasurementDataset(y_hat=y_hat, x_a0_hat=np.full(2, 0.7), c_j0_hat=np.full(2, 0.7),
                               x01_bar=0.1, n0=10, tp_flags=np.ones(2, dtype=bool))


def _one_pass_simulation(sc, n0, seed, exact):
    """The protocol in one pass, as ``simulate_dataset`` ran it before the
    ideal statistics were split off: evolve, sample the process rows, then
    the survival counts, the trace components and the scale observable."""
    d, sqd = sc.d, np.sqrt(sc.d)
    rng = np.random.default_rng(seed)
    rho_out = sc.ensemble.apply(sc.truth_state.rho)
    p = born_probabilities(rho_out, sc.truth_povm)
    y_hat = p if exact else sample_frequencies(p, n0, rng)
    x_a0 = np.full(len(sc.ensemble), 1.0 / sqd)
    lossy = ~sc.ensemble.tp_flags
    if np.any(lossy):
        survival = np.clip(np.real(np.trace(rho_out[lossy], axis1=1, axis2=2)), 0.0, 1.0)
        x_a0[lossy] = (survival if exact else rng.binomial(n0, survival) / float(n0)) / sqd
    q = np.real(np.einsum("jii->j", sc.truth_povm.elements)) / d
    c_j0 = sqd * (q if exact else sample_frequencies(q, n0, rng))
    lam, vecs = np.linalg.eigh(sc.basis.omegas[sc.anchor_index])
    probs = np.clip(np.real(np.einsum("ik,ij,jk->k", vecs.conj(), sc.truth_state.rho, vecs)),
                    0.0, None)
    probs = probs / probs.sum()
    weights = probs if exact else sample_frequencies(probs, n0, rng)
    return y_hat, x_a0, c_j0, float(np.dot(lam, weights))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_split_simulation_matches_the_one_pass_protocol(name):
    sc = preset(name)
    for exact in (False, True):
        for n0 in (1000, 100000):
            seed = np.random.SeedSequence([sc.seed, 3, n0])
            y, x_a0, c_j0, x01 = _one_pass_simulation(sc, n0, seed, exact)
            ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seed=seed,
                                  scale_observable=sc.anchor_index, exact=exact, basis=sc.basis)
            assert np.array_equal(ds.y_hat, y)
            assert np.array_equal(ds.x_a0_hat, x_a0)
            assert np.array_equal(ds.c_j0_hat, c_j0)
            assert ds.x01_bar == x01


def test_ideal_statistics_are_shared_safely():
    sc = preset("one_qubit_random_pure")
    ideal = ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, basis=sc.basis)
    with pytest.raises(ValueError):
        ideal.probabilities[0, 0] = 0.5  # read-only, shared by every trial
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10, exact=True,
                          basis=sc.basis)
    ds.y_hat[0, 0] = 0.0  # an exact dataset owns its copy
    assert ideal.probabilities[0, 0] != 0.0
    # other inputs read their own record, never this one
    other = preset("one_qubit_closed_complete")
    for args, kwargs in [
        ((other.ensemble, sc.truth_state, sc.truth_povm), {}),
        ((sc.ensemble, random_density_matrix(2, 0), sc.truth_povm), {}),
        ((sc.ensemble, sc.truth_state, other.truth_povm), {}),
        ((sc.ensemble, sc.truth_state, sc.truth_povm), {"scale_observable": 2}),
    ]:
        record = ideal_statistics(*args, basis=sc.basis, **kwargs)
        assert record is not ideal
        ds = simulate_dataset(*args, 10, exact=True, basis=sc.basis, **kwargs)
        assert np.array_equal(ds.y_hat, record.probabilities)
        assert ds.x01_bar == np.dot(record.scale_eigenvalues, record.scale_probabilities)
    with pytest.raises(ValidationError):
        ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, scale_observable=4)
    # a basis of another dimension
    qutrit = build_basis(3)
    with pytest.raises(ValidationError, match="basis is for d=3"):
        ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, basis=qutrit)
    with pytest.raises(ValidationError, match="basis is for d=3"):
        simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10, basis=qutrit)


@pytest.mark.parametrize("index,accepted", [(True, False), ("1", False), (1.5, False),
                                             (1.0, True)])
@pytest.mark.parametrize("simulated", [False, True])
def test_the_scale_observable_index_is_read_as_a_whole_number(index, accepted, simulated):
    sc = preset("one_qubit_random_pure")
    truth = (sc.ensemble, sc.truth_state, sc.truth_povm)
    read = ((lambda: simulate_dataset(*truth, 10, scale_observable=index, basis=sc.basis))
            if simulated else
            (lambda: ideal_statistics(*truth, scale_observable=index, basis=sc.basis)))
    if accepted:
        assert read().anchor_index == 1 and type(read().anchor_index) is int
    else:
        with pytest.raises(ValidationError, match="must be a whole number"):
            read()


@pytest.mark.parametrize("field,value", [
    ("n0", 0), ("n0", -5), ("anchor_index", 0), ("anchor_index", -2),
    ("n0", 2.5), ("anchor_index", 1.5),
])
def test_dataset_rejects_bad_shot_count_and_anchor(field, value):
    good = dict(y_hat=np.array([[0.4, 0.5], [0.3, 0.6]]), x_a0_hat=np.full(2, 0.7),
                c_j0_hat=np.array([0.7, 0.7]), x01_bar=0.1, n0=10,
                tp_flags=np.ones(2, dtype=bool), anchor_index=3)
    MeasurementDataset(**good)
    with pytest.raises(ValidationError):
        MeasurementDataset(**{**good, field: value})


def test_ideal_statistics_tables_are_read_only_and_checked():
    sc = preset("one_qubit_random_pure")  # lossy processes: the tables carry a loss mass
    ideal = ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, basis=sc.basis)
    tables = {
        "outcome_table": ideal.probabilities,
        "trace_table": ideal.trace_probabilities,
        "scale_table": ideal.scale_probabilities,
    }
    for name, probabilities in tables.items():
        table = getattr(ideal, name)
        assert not table.flags.writeable, name
        with pytest.raises(ValueError):
            table[..., 0] = 0.5
        assert np.array_equal(table, sampling_table(probabilities))
        assert np.allclose(table.sum(axis=-1), 1.0, rtol=0.0, atol=1e-15)
        assert np.array_equal(table[..., :-1] > 0, probabilities > 0)
    assert np.max(1.0 - ideal.probabilities.sum(axis=1)) > 0.01
    for array in (ideal.probabilities, ideal.survival, ideal.trace_probabilities,
                  ideal.scale_eigenvalues, ideal.scale_probabilities):
        assert not array.flags.writeable


_GOOD_DATASET = dict(y_hat=np.array([[0.4, 0.5], [0.3, 0.6]]), x_a0_hat=np.full(2, 0.7),
                     c_j0_hat=np.array([0.7, 0.7]), x01_bar=0.1, n0=10,
                     tp_flags=np.ones(2, dtype=bool))
# Every entry point that takes a shot count, as a function of that count.
_SHOT_COUNT_USERS = {
    "sample_frequencies": lambda n0: sample_frequencies([0.5, 0.2], n0, 0),
    "simulate_dataset": lambda n0: simulate_dataset(*_small_scenario(), n0, seed=0),
    "simulate_datasets": lambda n0: simulate_datasets(*_small_scenario(), n0, [0, 1]),
    "MeasurementDataset": lambda n0: MeasurementDataset(**{**_GOOD_DATASET, "n0": n0}),
    "shot_grid": lambda n0: bench._shot_grid([n0]),
}


@pytest.mark.parametrize("n0", [0, -3, 2.7, 2.5, np.float64(1000.7), np.nan, np.inf, "10",
                                None, True])
@pytest.mark.parametrize("user", sorted(_SHOT_COUNT_USERS))
def test_shot_counts_are_whole_numbers_of_at_least_one(user, n0):
    with pytest.raises(ValidationError):
        _SHOT_COUNT_USERS[user](n0)


@pytest.mark.parametrize("n0", [7, np.int64(7), np.int32(7), np.uint8(7), 7.0])
def test_shot_counts_accept_integer_types(n0):
    assert sample_frequencies([0.5, 0.5], n0, 0).sum() == pytest.approx(1.0, abs=1e-15)
    for ds in (_SHOT_COUNT_USERS["simulate_dataset"](n0),
               _SHOT_COUNT_USERS["MeasurementDataset"](n0)):
        assert ds.n0 == 7 and type(ds.n0) is int
    assert bench._shot_grid([n0, 10 ** 3]) == [7, 1000]


def _stack_error(build, d, stack):
    """The message ``build(d, stack)`` raises, or None."""
    try:
        build(d, stack)
    except ValidationError as exc:
        return str(exc)
    return None


def _valid_states(rng, t, d):
    g = rng.normal(size=(t, d, d)) + 1j * rng.normal(size=(t, d, d))
    rho = g @ g.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _valid_povms(rng, t, m, d):
    g = rng.normal(size=(t, m, d, d)) + 1j * rng.normal(size=(t, m, d, d))
    a = g @ g.conj().swapaxes(-1, -2) + 0.1 * np.eye(d)
    w, v = np.linalg.eigh(a.sum(axis=1))
    root = (v / np.sqrt(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return root[:, None] @ a @ root[:, None]


def _corrupt_state(rho, kind):
    d = len(rho)
    if kind == "nonfinite":
        out = rho.copy()
        out[0, d - 1] = np.nan
        return out
    if kind == "skew":
        return rho + 0.1 * (np.eye(d, k=1) - np.eye(d, k=-1))
    if kind == "negative":
        _, vecs = np.linalg.eigh(rho)
        spectrum = np.zeros(d)
        spectrum[:2] = (-0.5, 1.5)
        return (vecs * spectrum) @ vecs.conj().T
    return 1.2 * rho  # wrong trace


def _corrupt_povm(elements, kind, j):
    out = elements.copy()
    m, d = elements.shape[:2]
    other = (j + 1) % m
    if kind == "nonfinite":
        out[j, 0, 0] = np.inf
    elif kind == "skew":
        out[j] = out[j] + 0.1 * (np.eye(d, k=1) - np.eye(d, k=-1))
    elif kind == "negative":
        shift = np.linalg.eigvalsh(out[j])[0] + 0.2
        out[j] = out[j] - shift * np.eye(d)
        out[other] = out[other] + shift * np.eye(d)  # the sum stays the identity
    else:
        out = 1.1 * out  # the sum is not the identity
    return out


def _nonfinite_last(corruption) -> bool:
    """Sort key: a non-finite entry goes in after the other corruptions, so
    that no corruption computes with it."""
    return corruption[1] == "nonfinite"


_STACK_CASES = st.tuples(
    st.integers(0, 2 ** 32 - 1),  # seed
    st.integers(1, 5),  # T
    st.integers(2, 3),  # d
    st.integers(2, 4),  # M
    st.lists(st.tuples(st.integers(0, 4),
                       st.sampled_from(["skew", "negative", "trace", "nonfinite"]),
                       st.integers(0, 3)), max_size=2),  # (member, corruption, element)
)


@settings(max_examples=60, deadline=None)
@given(_STACK_CASES)
def test_stacked_state_check_is_the_constructor_on_every_member(case):
    warnings.simplefilter("error", RuntimeWarning)  # a non-finite member warns nowhere
    seed, t, d, _, corruptions = case
    rho = _valid_states(np.random.default_rng(seed), t, d)
    for k, kind, _ in sorted(corruptions, key=_nonfinite_last):
        rho[k % t] = _corrupt_state(rho[k % t], kind)
    messages = [_stack_error(lambda d, r: DensityMatrix(d, r), d, r) for r in rho]
    failing = [msg for msg in messages if msg is not None]
    if failing:
        # the stack raises what the constructor raises for its first failing member
        assert _stack_error(DensityMatrix.checked, d, rho) == failing[0]
        return
    stacked = DensityMatrix.checked(d, rho)
    assert stacked.shape == (t, d, d)
    for state, r in zip(stacked, rho):
        assert np.array_equal(state, DensityMatrix(d, r).rho)


@settings(max_examples=60, deadline=None)
@given(_STACK_CASES)
def test_stacked_povm_check_is_the_constructor_on_every_member(case):
    warnings.simplefilter("error", RuntimeWarning)  # a non-finite member warns nowhere
    seed, t, d, m, corruptions = case
    elements = _valid_povms(np.random.default_rng(seed), t, m, d)
    for k, kind, j in sorted(corruptions, key=_nonfinite_last):
        elements[k % t] = _corrupt_povm(elements[k % t], kind, j % m)
    messages = [_stack_error(lambda d, e: Povm(d, e), d, e) for e in elements]
    failing = [msg for msg in messages if msg is not None]
    if failing:
        assert _stack_error(Povm.checked, d, elements) == failing[0]
        return
    stacked = Povm.checked(d, elements)
    assert stacked.shape == (t, m, d, d)
    for povm, e in zip(stacked, elements):
        assert np.array_equal(povm, Povm(d, e).elements)


def test_stacked_checks_name_the_first_failing_member():
    rng = np.random.default_rng(5)
    rho = _valid_states(rng, 4, 2)
    rho[1] = _corrupt_state(rho[1], "trace")
    rho[2] = _corrupt_state(rho[2], "skew")
    with pytest.raises(ValidationError, match=r"^state trace is 1\.2, not 1$"):
        DensityMatrix.checked(2, rho)
    elements = _valid_povms(rng, 3, 3, 2)
    elements[2] = _corrupt_povm(elements[2], "skew", 0)
    elements[1] = _corrupt_povm(elements[1], "negative", 2)
    with pytest.raises(ValidationError, match="^element 2 has a negative eigenvalue"):
        Povm.checked(2, elements)
    # within the first failing detector, the first failing element
    two_negative = np.stack([np.eye(2) / 2, np.diag([0.8, -0.3]), np.diag([-0.3, 0.8])])
    skew = 0.1 * (np.eye(2, k=1) - np.eye(2, k=-1))
    two_skewed = np.stack([np.eye(2) / 2, np.eye(2) / 4 + skew, np.eye(2) / 4 - skew])
    for member, message in ((two_negative, "^element 1 has a negative eigenvalue"),
                            (two_skewed, "^element 1 is not Hermitian")):
        with pytest.raises(ValidationError, match=message):
            Povm.checked(2, np.stack([elements[0], member]))
        with pytest.raises(ValidationError, match=message):
            Povm(2, member)
    with pytest.raises(ValidationError, match="stack of states"):
        DensityMatrix.checked(2, rho[0])
    with pytest.raises(ValidationError, match="stack of detectors"):
        Povm.checked(2, elements[0])
    assert DensityMatrix.checked(2, np.zeros((0, 2, 2))).shape == (0, 2, 2)
    # The dimension is read as the constructors read it.
    with pytest.raises(ValidationError, match="^state dimension must be a whole number"):
        DensityMatrix.checked("2", np.eye(2)[None] / 2)
    with pytest.raises(ValidationError, match="^detector dimension must be a whole number"):
        Povm.checked("2", np.eye(2)[None, None])
    with pytest.raises(ValidationError, match="^state dimension must be >= 1"):
        DensityMatrix.checked(0, np.zeros((1, 0, 0)))
    assert np.array_equal(DensityMatrix.checked(2.0, rho[:1]), DensityMatrix.checked(2, rho[:1]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_states_and_detectors_refuse_non_finite_entries(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match="^state has a non-finite entry$"):
            DensityMatrix(2, np.full((2, 2), value))
        with pytest.raises(ValidationError, match="^element 0 has a non-finite entry$"):
            Povm(2, np.full((2, 2, 2), value))
        rho = np.eye(2, dtype=complex) / 2
        rho[1, 0] = value
        with pytest.raises(ValidationError, match="^state has a non-finite entry$"):
            DensityMatrix(2, rho)
        elements = np.stack([KET0, KET1.copy()])
        elements[1, 1, 1] = value
        with pytest.raises(ValidationError, match="^element 1 has a non-finite entry$"):
            Povm(2, elements)
        # a non-finite member after a failing one: the first failing member is named
        stack = np.stack([np.diag([0.6, 0.6]), np.full((2, 2), value)])
        with pytest.raises(ValidationError, match="^state trace is 1.2, not 1$"):
            DensityMatrix.checked(2, stack)
        with pytest.raises(ValidationError, match="^state has a non-finite entry$"):
            DensityMatrix.checked(2, stack[::-1])


@pytest.mark.parametrize("call", [
    lambda: sample_frequencies([], 10, 0),
    lambda: sampling_table(np.zeros((3, 0))),
    lambda: sampling_table(np.zeros((0, 3))),
    lambda: sampling_table(0.5),
], ids=["sample-empty", "table-no-outcomes", "table-no-rows", "table-scalar"])
def test_sampling_refuses_an_empty_probability_array(call):
    with pytest.raises(ValidationError, match="need at least one outcome"):
        call()


@pytest.mark.parametrize("call", [
    lambda: sampling_table(np.full((2, 2), 1e308)),
    lambda: sample_frequencies(np.full(3, 1e308), 10, 0),
    lambda: sampling_table([[0.2, 0.3], [1.5, 0.0]]),
], ids=["table-huge", "sample-huge", "table-entry-above-one"])
def test_sampling_refuses_a_probability_above_one_before_summing(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError, match=r"^probability .* > 1$"):
            call()


def _dataset_error(build, **fields):
    """The message ``build(**fields)`` raises, or None."""
    try:
        build(**fields)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("field,value", [
    ("y_hat", np.nan), ("y_hat", np.inf), ("y_hat", -0.3), ("y_hat", 0.9), ("y_hat", 1e308),
    ("x_a0_hat", np.nan), ("x_a0_hat", -0.1),
    ("c_j0_hat", np.inf), ("c_j0_hat", -0.2),
    ("x01_bar", np.nan), ("x01_bar", -np.inf),
    ("x_a0_hat", "column"), ("tp_flags", "column"), ("c_j0_hat", "column"),
    ("n0", 0), ("n0", 2.5), ("anchor_index", 0), ("anchor_index", 1.5),
])
def test_stack_check_is_the_dataset_check_on_every_member(field, value):
    """A stack of three datasets whose middle one is bad (or, for a shape
    or a shared field, all of them) raises what that dataset raises."""
    bad = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in _GOOD_DATASET.items()}
    if field in ("n0", "anchor_index", "x01_bar"):
        bad[field] = value
    elif isinstance(value, str):
        bad[field] = bad[field][:, None]
    else:
        bad[field].flat[0] = value
    message = _dataset_error(MeasurementDataset, **bad)
    assert message is not None
    members = [bad] * 3 if isinstance(value, str) else [_GOOD_DATASET, bad, _GOOD_DATASET]
    per_dataset = ("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar")
    stacked = {k: np.stack([np.asarray(m[k]) for m in members]) for k in per_dataset}
    shared = {k: bad[k] for k in ("n0", "tp_flags", "anchor_index") if k in bad}
    assert _dataset_error(DatasetStack, **stacked, **shared) == message
    stack = DatasetStack.of([MeasurementDataset(**_GOOD_DATASET)] * 2)
    for name in per_dataset:
        np.testing.assert_array_equal(getattr(stack, name),
                                      np.stack([np.asarray(_GOOD_DATASET[name])] * 2))


def test_a_stack_refuses_datasets_of_different_protocols():
    good = MeasurementDataset(**_GOOD_DATASET)
    for change, what in ((dict(n0=20), "copy count"), (dict(anchor_index=2), "anchor index"),
                         (dict(tp_flags=np.array([True, False])), "trace flags"),
                         (dict(y_hat=good.y_hat[:1], x_a0_hat=good.x_a0_hat[:1],
                               tp_flags=good.tp_flags[:1]), "frequency shape")):
        other = MeasurementDataset(**{**_GOOD_DATASET, **change})
        with pytest.raises(ValidationError, match=f"share their {what}"):
            DatasetStack.of([good, other])
    with pytest.raises(ValidationError, match="at least one dataset"):
        DatasetStack.of([])
    with pytest.raises(ValidationError, match="needs 2 entries"):
        DatasetStack(y_hat=np.stack([good.y_hat] * 2), x_a0_hat=good.x_a0_hat[None],
                     c_j0_hat=np.stack([good.c_j0_hat] * 2), x01_bar=[0.1, 0.1], n0=10,
                     tp_flags=good.tp_flags)


def test_a_subset_and_a_single_stack_are_views_that_are_not_checked_again(monkeypatch):
    from jointtomo import measurement
    sc = preset("one_qubit_random_pure")  # lossy: a subset keeps the trace flags aligned
    datasets = [simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=t,
                                 basis=sc.basis) for t in range(3)]
    stack = DatasetStack.of(datasets)
    checks = []
    original = measurement._checked_datasets
    monkeypatch.setattr(measurement, "_checked_datasets",
                        lambda *args: checks.append(args) or original(*args))
    idx = [4, 0, 9]
    sub = stack.subset(idx)
    for k, ds in enumerate(datasets):
        alone = ds.subset(idx)
        for name in ("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar"):
            np.testing.assert_array_equal(getattr(sub, name)[k], getattr(alone, name))
        assert np.array_equal(alone.tp_flags, sub.tp_flags)
        assert alone.total_copies == sub.total_copies == (2 * 3 + 2) * 100
        one = ds.as_stack()
        assert len(one) == 1 and np.shares_memory(one.y_hat, ds.y_hat)
        assert one.total_copies == ds.total_copies and one.x01_bar[0] == ds.x01_bar
    assert checks == []
    with pytest.raises(ValidationError, match="process indices"):
        stack.subset([[0, 1]])


@pytest.mark.parametrize("n0", [2 ** 63, 2 ** 63 + 1, 10 ** 22, 1e300])
def test_sampled_draws_refuse_more_shots_than_the_sampler_takes(n0):
    sc = preset("one_qubit_random_pure")  # lossy processes: a binomial draw as well
    truth = (sc.ensemble, sc.truth_state, sc.truth_povm)
    message = "a sampled draw takes at most 9223372036854775807 shots"
    with pytest.raises(ValidationError, match=message):
        simulate_dataset(*truth, n0, basis=sc.basis)
    with pytest.raises(ValidationError, match=message):
        simulate_datasets(*truth, n0, [0, 1], basis=sc.basis)
    with pytest.raises(ValidationError, match=message):
        sample_frequencies([0.3, 0.7], n0, 0)
    # exact simulations, and datasets, keep any whole count
    exact = simulate_dataset(*truth, n0, exact=True, basis=sc.basis)
    assert exact.n0 == n0
    assert DatasetStack.of([exact, exact]).n0 == n0


def test_the_largest_sampled_shot_count_still_draws():
    sc = preset("one_qubit_random_pure")
    n0 = 2 ** 63 - 1
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seed=1,
                          basis=sc.basis)
    assert ds.n0 == n0 and np.isfinite(ds.y_hat).all()
    ideal = ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, basis=sc.basis)
    assert np.abs(ds.y_hat - ideal.probabilities).max() < 1e-6
    assert sample_frequencies([0.3, 0.7], n0, 0).shape == (2,)


def _counted_apply(monkeypatch) -> list:
    """Counts the stacked evolutions ``ideal_statistics`` computes from."""
    calls, apply = [], ProcessEnsemble.apply

    def counted(self, rho):
        calls.append(self)
        return apply(self, rho)

    monkeypatch.setattr(ProcessEnsemble, "apply", counted)
    return calls


def test_a_truths_statistics_are_computed_once_for_many_datasets(monkeypatch):
    """The 72 simulations of a fit workload's pool."""
    sc = preset("two_qubit_mixed_unitary_incomplete")
    calls = _counted_apply(monkeypatch)
    for k in range(36):
        for i, n0 in enumerate((1000, 100000)):
            simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                             seed=np.random.SeedSequence([1, i, k]),
                             scale_observable=sc.anchor_index, basis=sc.basis)
    assert calls == [sc.ensemble]
    (kept,) = measurement._memo(sc.ensemble)
    assert kept[0] is ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm,
                                       basis=sc.basis)
    assert calls == [sc.ensemble]


def test_a_changed_truth_anchor_or_basis_makes_a_new_record(monkeypatch):
    sc = preset("one_qubit_random_pure")
    truth = (sc.ensemble, sc.truth_state, sc.truth_povm)
    first = ideal_statistics(*truth, basis=sc.basis)
    calls = _counted_apply(monkeypatch)
    assert ideal_statistics(*truth, basis=sc.basis) is first
    assert ideal_statistics(*truth) is first  # no basis is build_basis(d), the same object
    assert calls == []
    # a truth array written in place is compared by value: a new record,
    # and the first one again once the array is restored
    for array, changed in ((sc.truth_state.rho, np.eye(2) / 2.0),
                           (sc.truth_povm.elements, sc.truth_povm.elements[::-1].copy())):
        kept = array.copy()
        array[...] = changed
        record = ideal_statistics(*truth, basis=sc.basis)
        assert record is not first
        fresh = ideal_statistics(sc.ensemble, DensityMatrix(2, sc.truth_state.rho.copy()),
                                 Povm(2, sc.truth_povm.elements.copy()), basis=sc.basis)
        assert np.array_equal(record.probabilities, fresh.probabilities)
        assert not np.array_equal(record.probabilities, first.probabilities)
        array[...] = kept
        assert ideal_statistics(*truth, basis=sc.basis) is first
    other_anchor = ideal_statistics(*truth, scale_observable=2, basis=sc.basis)
    assert other_anchor is not first and other_anchor.anchor_index == 2
    other_basis = ideal_statistics(*truth, basis=OperatorBasis(2, sc.basis.omegas.copy()))
    assert other_basis is not first
    assert np.array_equal(other_basis.probabilities, first.probabilities)
    assert len(calls) == 6


def test_a_fifth_truth_evicts_the_least_recently_used_record():
    sc = preset("one_qubit_random_pure")
    states = [random_density_matrix(2, seed) for seed in range(measurement._MEMO_SIZE + 1)]

    def stats(state):
        return ideal_statistics(sc.ensemble, state, sc.truth_povm, basis=sc.basis)

    records = [stats(state) for state in states[:-1]]
    assert stats(states[0]) is records[0]  # now the most recently used
    stats(states[-1])  # evicts states[1]'s record
    assert stats(states[0]) is records[0]
    assert stats(states[2]) is records[2]
    assert stats(states[1]) is not records[1]


def test_the_records_are_kept_per_ensemble_and_freed_with_it():
    sc = preset("one_qubit_random_pure")
    first = ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, basis=sc.basis)
    # another ensemble's records never evict this ensemble's
    for seed in range(measurement._MEMO_SIZE + 1):
        other = preset("one_qubit_random_pure", seed=seed + 1)
        ideal_statistics(other.ensemble, other.truth_state, other.truth_povm, basis=other.basis)
    assert ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, basis=sc.basis) is first
    # nothing outside the ensemble holds its records
    ens = ProcessEnsemble(sc.ensemble.channels)
    record = weakref.ref(ideal_statistics(ens, sc.truth_state, sc.truth_povm, basis=sc.basis))
    ensemble = weakref.ref(ens)
    del ens
    gc.collect()
    assert ensemble() is None and record() is None


def test_a_refused_input_is_never_kept():
    sc = preset("one_qubit_random_pure")
    truth = (sc.ensemble, sc.truth_state, sc.truth_povm)
    first = ideal_statistics(*truth, basis=sc.basis)
    kept = [id(entry[0]) for entry in measurement._memo(sc.ensemble)]
    elements = sc.truth_povm.elements.copy()
    sc.truth_povm.elements[0] *= -1.0
    for call, message in [
        (lambda: ideal_statistics(*truth, basis=sc.basis), "negative Born probability"),
        (lambda: simulate_dataset(*truth, 10, basis=sc.basis), "negative Born probability"),
        (lambda: ideal_statistics(*truth, scale_observable=4), "scale observable index"),
        (lambda: ideal_statistics(*truth, basis=build_basis(3)), "basis is for d=3"),
        (lambda: ideal_statistics(sc.ensemble, random_density_matrix(3, 0), sc.truth_povm),
         "dimensions must agree"),
    ]:
        for _ in range(2):
            with pytest.raises(ValidationError, match=message):
                call()
    assert [id(entry[0]) for entry in measurement._memo(sc.ensemble)] == kept
    sc.truth_povm.elements[...] = elements
    assert ideal_statistics(*truth, basis=sc.basis) is first


@pytest.mark.parametrize("position, what", [(0, "ensemble must be a ProcessEnsemble"),
                                            (1, "truth state must be a DensityMatrix"),
                                            (2, "truth detector must be a Povm")])
@pytest.mark.parametrize("bare", [False, True], ids=["None", "array"])
def test_a_record_argument_of_the_wrong_type_is_refused_by_name(position, what, bare):
    sc = preset("one_qubit_random_pure")
    truth = [sc.ensemble, sc.truth_state, sc.truth_povm]
    ideal_statistics(*truth, basis=sc.basis)
    kept = [id(entry[0]) for entry in measurement._memo(sc.ensemble)]
    truth[position] = (sc.ensemble.kraus_stack, sc.truth_state.rho,
                       sc.truth_povm.elements)[position] if bare else None
    for call in (lambda: ideal_statistics(*truth, basis=sc.basis),
                 lambda: simulate_dataset(*truth, 10, basis=sc.basis)):
        with pytest.raises(ValidationError, match=what):
            call()
    assert [id(entry[0]) for entry in measurement._memo(sc.ensemble)] == kept


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_simulated_stack_is_the_single_dataset_draws(monkeypatch, name, threaded, exact):
    """Member t of ``simulate_datasets`` is ``simulate_dataset`` on seed t,
    bit for bit, whether or not the outcome draws run on two threads; also
    when the threads switch every microsecond."""
    monkeypatch.setattr(measurement, "THREADED_DRAW_ROWS", 1 if threaded else 10 ** 9)
    sc = preset(name)
    truth = (sc.ensemble, sc.truth_state, sc.truth_povm)
    for t, n0, switch_s in ((2, 1000, None), (3, 100000, None), (51, 1000, None),
                            (51, 1000, 1e-6)):
        seeds = [np.random.SeedSequence([5, k]) for k in range(t)]
        threads, interval = threading.active_count(), sys.getswitchinterval()
        try:
            if switch_s:
                sys.setswitchinterval(switch_s)
            stack = simulate_datasets(*truth, n0, seeds, scale_observable=sc.anchor_index,
                                      exact=exact, basis=sc.basis)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == threads
        assert isinstance(stack, DatasetStack) and len(stack) == t and stack.n0 == n0
        for k, seed in enumerate(seeds):
            ds = simulate_dataset(*truth, n0, seed=seed, scale_observable=sc.anchor_index,
                                  exact=exact, basis=sc.basis)
            for field in ("y_hat", "x_a0_hat", "c_j0_hat", "x01_bar"):
                np.testing.assert_array_equal(getattr(stack, field)[k], getattr(ds, field))
            np.testing.assert_array_equal(stack.tp_flags, ds.tp_flags)
            assert stack.anchor_index == ds.anchor_index


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_simulated_stack_starts_a_thread_only_for_sampled_draws_of_large_ensembles(
        monkeypatch, name):
    sc = preset(name)
    truth = (sc.ensemble, sc.truth_state, sc.truth_povm)
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: starts.append(self) or start(self))
    for seeds, exact in (([1], False), ([1, 2, 3], True), ([1, 2, 3], False)):
        simulate_datasets(*truth, 1000, seeds, scale_observable=sc.anchor_index, exact=exact,
                          basis=sc.basis)
    assert len(starts) == (len(sc.ensemble) >= measurement.THREADED_DRAW_ROWS)


def test_a_simulated_stack_needs_a_stream_per_dataset():
    truth = _small_scenario()
    with pytest.raises(ValidationError, match="at least one dataset"):
        simulate_datasets(*truth, 100, [])
    generator, bits = np.random.default_rng(1), np.random.PCG64(2)
    for seeds in ([generator, generator], [bits, 3, bits]):
        with pytest.raises(ValidationError, match="a bit generator each"):
            simulate_datasets(*truth, 100, seeds)
    with pytest.raises(ValidationError, match="seed"):
        simulate_datasets(*truth, 100, [0, -1])


def _draws_that_fail(fails) -> list:
    """Stand-ins for generators in ``_outcome_draws``: draw ``t`` returns
    zero counts, or raises ``ValueError("trial t")`` when ``fails(t,
    on_worker)``.  Each thread's first draw waits until the other thread
    has taken one too, so both threads draw, whatever the scheduler does."""
    caller, barrier, seen = threading.current_thread(), threading.Barrier(2), threading.local()

    class Draw:
        def __init__(self, t):
            self.t = t

        def multinomial(self, n0, table):
            if not getattr(seen, "drawn", False):
                seen.drawn = True
                barrier.wait(timeout=60)
            if fails(self.t, threading.current_thread() is not caller):
                raise ValueError(f"trial {self.t}")
            return np.zeros(table.shape, dtype=np.int64)

    return [Draw(t) for t in range(20)]


@pytest.mark.parametrize("share", ["worker", "both"])
def test_a_failed_outcome_draw_raises_the_lowest_failing_trial(monkeypatch, share):
    monkeypatch.setattr(measurement, "THREADED_DRAW_ROWS", 1)
    raised = []

    def fails(t, on_worker):
        if on_worker or share == "both":
            raised.append(t)
            return True
        return False

    threads = threading.active_count()
    with pytest.raises(ValueError) as caught:
        measurement._outcome_draws(np.full((2, 3), 1 / 3), 10, _draws_that_fail(fails))
    assert threading.active_count() == threads
    assert str(caught.value) == f"trial {min(raised)}"
    # Each thread took one of the first two draws before either failed.
    assert sorted(raised) == ([0, 1] if share == "both" else raised) and raised[0] in (0, 1)
    assert len(raised) == (2 if share == "both" else 1)
