import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from jointtomo import (
    DatasetStack,
    DegeneracyError,
    DensityMatrix,
    FactoredDesign,
    KrausChannel,
    KroneckerFactorization,
    MeasurementDataset,
    MseRow,
    MseTable,
    OperatorBasis,
    Povm,
    ProcessEnsemble,
    SosProblem,
    Stage1Config,
    TomographyError,
    ValidationError,
    amplitude_damping,
    build_basis,
    build_regression_matrices,
    build_targets_v1,
    combine_state_estimates,
    correct_povm,
    correct_state,
    devectorize,
    estimate_joint_v1,
    estimate_joint_v2,
    export_sos_problem,
    factor_design,
    fit_loglog_slope,
    fix_scale_v1,
    from_coords,
    haar_unitary,
    hamiltonian_generator,
    ideal_statistics,
    in_physical_set,
    k_coefficients,
    load_sos_problem,
    make_named_channel,
    nearest_kronecker,
    numerical_rank,
    pauli,
    pauli_sandwich_processes,
    preset,
    project_pure,
    rearrange,
    refine_alternating,
    sample_frequencies,
    simulate_dataset,
    stage1_solve,
    to_coords,
    transfer_matrix,
    vectorize,
)
from jointtomo import bench
from jointtomo.bench import PRESET_NAMES
from jointtomo.estimator import (ANCHOR_RTOL, KRON_TIE_RTOL, KRON_ZERO_RTOL, POVM_SINGULAR_RTOL,
                                 _clip_negative, _physical_povms, _physical_states, _solved,
                                 _top_eigenvectors)
from jointtomo.measurement import COMPLETENESS_TOL, PSD_TOL
from jointtomo.serialize import load_dataset, save_dataset

from random_states import random_density_matrix

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)


def _frequencies_only(y):
    """A dataset with the L x M frequencies ``y`` and placeholder
    calibrations, which the natural-basis estimator does not read."""
    l, m = y.shape
    return MeasurementDataset(y_hat=y, x_a0_hat=np.zeros(l), c_j0_hat=np.zeros(m),
                              x01_bar=0.0, n0=1, tp_flags=np.ones(l, dtype=bool))


def test_stage1_config_validation():
    with pytest.raises(ValidationError):
        Stage1Config(method="newton")
    with pytest.raises(ValidationError):
        Stage1Config(method="tikhonov", reg_scale=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            Stage1Config(method="tikhonov", reg_scale=bad)
    cfg = Stage1Config(method="tikhonov").resolved(total_copies=200)
    assert cfg.reg_scale == pytest.approx(0.5)


def test_build_targets_rules():
    basis = build_basis(2)
    c0 = np.array([0.4, 0.6]) * np.sqrt(2)
    # trace-preserving row: background is c0/sqrt(d), regardless of x_a0
    ds = MeasurementDataset(
        y_hat=np.array([[0.4, 0.6], [0.3, 0.5]]),
        x_a0_hat=np.array([1 / np.sqrt(2), 0.5]),
        c_j0_hat=c0, x01_bar=0.1, n0=10, tp_flags=np.array([True, False]),
    )
    y = build_targets_v1(ds, basis)
    assert np.allclose(y[0], [0.0, 0.0], atol=1e-12)
    assert np.allclose(y[1], np.array([0.3, 0.5]) - 0.5 * c0)


def test_build_targets_exact_identity():
    # noiseless targets equal vec(E_a)^T (x0 kron C_j) entrywise
    rng = np.random.default_rng(0)
    basis = build_basis(2)
    chans = [make_named_channel("scaled", alpha=a,
                                channel=make_named_channel("unitary", u=haar_unitary(2, rng)))
             for a in (0.6, 0.8, 1.0)]
    ens = ProcessEnsemble(tuple(chans))
    state = random_density_matrix(2, rng)
    p1 = 0.5 * KET0
    povm = Povm(2, np.stack([p1, np.eye(2) - p1]))
    ds = simulate_dataset(ens, state, povm, 10, seed=0, exact=True)
    reg = build_regression_matrices(ens, basis)
    y = build_targets_v1(ds, basis)
    x0 = to_coords(state.rho, basis)[1:]
    cs = to_coords(povm.elements, basis)[:, 1:]
    for j, c in enumerate(cs):
        assert np.allclose(y[:, j], reg.b @ np.kron(x0, c), atol=1e-12)


def test_build_targets_maximally_mixed_truth():
    basis = build_basis(2)
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, DensityMatrix(2, np.eye(2) / 2), sc.truth_povm,
                          10, seed=0, exact=True)
    assert np.max(np.abs(build_targets_v1(ds, basis))) < 1e-12


def test_stage1_identity_matrix_all_methods():
    y = np.array([0.3, -0.2, 0.5])
    b = np.eye(3)
    for cfg in (Stage1Config(), Stage1Config(method="mp_inverse"),
                Stage1Config(method="tikhonov", reg_scale=0.0)):
        assert np.allclose(stage1_solve(b, y, cfg), y)


def test_stage1_exact_consistency():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10, seed=0,
                          exact=True, basis=sc.basis)
    y = build_targets_v1(ds, sc.basis)
    z = stage1_solve(reg.b, y, Stage1Config())
    x0 = to_coords(sc.truth_state.rho, sc.basis)[1:]
    for j, c in enumerate(to_coords(sc.truth_povm.elements, sc.basis)[:, 1:]):
        assert np.linalg.norm(z[:, j] - np.kron(x0, c)) < 1e-10


def test_stage1_rank_deficient_paths():
    rng = np.random.default_rng(1)
    b = np.outer(rng.normal(size=4), rng.normal(size=3))  # rank 1
    y = rng.normal(size=4)
    with pytest.raises(DegeneracyError):
        stage1_solve(b, y, Stage1Config())
    z = stage1_solve(b, y, Stage1Config(method="mp_inverse"))
    # oracle: minimum-norm least squares through an explicit SVD pseudoinverse
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    keep = s > 1e-8 * s[0]
    z_oracle = vh[keep].T @ ((u[:, keep].T @ y) / s[keep])
    assert np.allclose(z, z_oracle, atol=1e-12)
    with pytest.raises(ValidationError):
        stage1_solve(b, y, Stage1Config(method="tikhonov"))  # unresolved auto scale


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stage1_refuses_an_unfactorable_matrix_as_the_estimators_do(bad):
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=1,
                          basis=sc.basis)
    b = np.array(sc.regression.b)
    b[0, 0] = bad
    raised = []
    for call in (lambda: stage1_solve(b, build_targets_v1(ds, sc.basis), Stage1Config()),
                 lambda: estimate_joint_v1(ds, b, sc.basis)):
        with pytest.raises(DegeneracyError) as err:
            call()
        raised.append((type(err.value), str(err.value)))
    assert raised[0] == raised[1] == (DegeneracyError,
                                      "[stage1] regression matrix has a non-finite entry")
    with pytest.raises(ValidationError, match=r"^\[stage1\] regression matrix must be 2-D"):
        stage1_solve(np.float64(2.0), np.ones(3), Stage1Config())


def test_rearrange_identities():
    rng = np.random.default_rng(2)
    x, c = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(rearrange(np.kron(x, c), 3, 3), np.outer(x, c))
    z = rng.normal(size=9)
    lhs = np.linalg.norm(z - np.kron(x, c))
    rhs = np.linalg.norm(rearrange(z, 3, 3) - np.outer(x, c))
    assert abs(lhs - rhs) < 1e-14
    assert np.array_equal(rearrange(np.arange(6), 2, 3), [[0, 1, 2], [3, 4, 5]])
    with pytest.raises(ValidationError):
        rearrange(np.arange(7), 2, 3)


def test_nearest_kronecker_exact_and_noisy():
    rng = np.random.default_rng(3)
    x, c = rng.normal(size=3), rng.normal(size=3)
    fac = nearest_kronecker(np.kron(x, c), 3, 3)
    assert fac.residual < 1e-12
    assert np.linalg.norm(np.kron(fac.left, fac.right) - np.kron(x, c)) < 1e-12
    z = np.kron(x, c) + 0.05 * rng.normal(size=9)
    fac = nearest_kronecker(z, 3, 3)
    s = np.linalg.svd(rearrange(z, 3, 3), compute_uv=False)
    assert abs(fac.residual - np.sqrt(np.sum(s[1:] ** 2))) < 1e-12
    assert abs(fac.residual - np.linalg.norm(z - np.kron(fac.left, fac.right))) < 1e-12


def test_nearest_kronecker_degenerate_cases():
    with pytest.raises(DegeneracyError):
        nearest_kronecker(np.zeros(9), 3, 3)
    fac1 = nearest_kronecker(vectorize(np.eye(2)).astype(float), 2, 2)
    fac2 = nearest_kronecker(vectorize(np.eye(2)).astype(float), 2, 2)
    assert fac1.degenerate_tie
    assert np.array_equal(fac1.left, fac2.left)


def test_nearest_kronecker_reads_integers_as_floats():
    z = np.kron([1, 2, 0], [3, -1, 2])
    assert z.dtype.kind == "i"
    ints, floats = nearest_kronecker(z, 3, 3), nearest_kronecker(z.astype(float), 3, 3)
    assert ints.left.dtype == ints.right.dtype == float
    assert np.array_equal(ints.left, floats.left) and np.array_equal(ints.right, floats.right)


@pytest.mark.parametrize("rows, cols", [(4, 6), (3, 5), (7, 2)], ids=["even", "odd", "tall"])
@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_nearest_kronecker_factors_single_precision_in_double(dtype, rows, cols):
    """A float32 or complex64 stack is factored as the double-precision
    read of its values, bit for bit, and its zero member is refused alike."""
    rng = np.random.default_rng(37)
    z = rng.normal(size=(3, rows * cols)) + (1j * rng.normal(size=(3, rows * cols))
                                            if dtype is np.complex64 else 0)
    z = z.astype(dtype)
    wide = z.astype(np.complex128 if dtype is np.complex64 else np.float64)
    single, double = nearest_kronecker(z, rows, cols), nearest_kronecker(wide, rows, cols)
    assert single.left.dtype == double.left.dtype == wide.dtype
    for field in ("left", "right", "residual", "degenerate_tie"):
        assert np.array_equal(getattr(single, field), getattr(double, field)), field
    product = np.einsum("ki,kj->kij", single.left, single.right).reshape(z.shape)
    assert np.linalg.norm(product - wide, axis=1) == pytest.approx(single.residual, rel=1e-9)
    z[1] = 0
    with pytest.raises(DegeneracyError, match="numerically zero") as err:
        nearest_kronecker(z, rows, cols)
    assert err.value.refused.tolist() == [False, True, False]


# Where a quantity that the test computes by another route than the package
# lies within this share of its threshold, either verdict is right.  For the
# Kronecker zero test (s0 <= KRON_ZERO_RTOL max(1, ||Z||)) both routes, the SVD
# and the Gram's top eigenvalue, compute s0 to a few ulps: they differed by at
# most 7 ulps of the threshold on 10^5 inputs up to 5 x 5 placed at it.
_ROUNDOFF_BAND = 16 * np.finfo(float).eps


def _kronecker_against_the_svd(z, lead, rows, cols):
    """Check ``nearest_kronecker(z, rows, cols)`` against ``np.linalg.svd``,
    and return the SVD's zero verdicts and where they lie outside the band,
    both over the stack's leading axes.  Outside the band the zero verdict
    and the ``refused`` mask must be the SVD's; a matrix inside it may be
    refused or factored."""
    mat = z.reshape(*lead, rows, cols)
    u, s, vh = np.linalg.svd(mat)
    top = s[..., 0]
    norm = np.linalg.norm(mat, axis=(-2, -1))
    threshold = KRON_ZERO_RTOL * np.maximum(1.0, norm)
    zero = np.asarray(top <= threshold)
    sure = np.asarray(np.abs(top - threshold) > _ROUNDOFF_BAND * threshold)
    try:
        fac = nearest_kronecker(z, rows, cols)
    except DegeneracyError as err:
        assert "numerically zero" in str(err)
        assert np.array_equal(np.asarray(err.refused)[sure], zero[sure])
        return zero, sure
    assert not np.any(zero & sure), "a matrix the SVD finds zero was factored"
    assert fac.left.shape == (*lead, rows) and fac.right.shape == (*lead, cols)
    # the top singular value, ||left|| ||right||, to roundoff in its square
    s0 = np.linalg.norm(fac.left, axis=-1) * np.linalg.norm(fac.right, axis=-1)
    assert np.all(np.abs(s0 ** 2 - top ** 2) <= 1e-12 * top ** 2)
    residual = np.sqrt(np.sum(s[..., 1:] ** 2, axis=-1))
    assert np.all(np.abs(fac.residual - residual) <= 1e-12 * np.maximum(1.0, norm))
    rank1 = fac.left[..., :, None] * fac.right[..., None, :]
    assert np.all(np.abs(np.linalg.norm(mat - rank1, axis=(-2, -1)) - fac.residual)
                  <= 1e-12 * np.maximum(1.0, norm))
    # where the top value stands apart, its rank-1 term is unique
    second = s[..., 1] if s.shape[-1] > 1 else np.zeros_like(top)
    apart = top ** 2 - second ** 2 >= 1e-3 * top ** 2
    svd_rank1 = top[..., None, None] * u[..., :, :1] * vh[..., :1, :]
    gap = np.linalg.norm(rank1 - svd_rank1, axis=(-2, -1))
    assert np.all(gap[apart] <= 1e-10 * top[apart])
    assert not np.any(fac.degenerate_tie & (top - second > 1e-10 * top))
    return zero, sure


def _kronecker_case(z1):
    """A complex 4 x 2 rearrangement, every entry 9.7e-56 but ``z1``: a
    matrix whose top singular value is ``|z1|``."""
    values = np.zeros((8, 2))
    values[:, 0] = 9.7e-56
    values[1] = z1.real, z1.imag
    return ([], 4, 2, True), values


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 5), st.integers(1, 5),
                 st.booleans()).flatmap(lambda case: st.tuples(st.just(case), arrays(
                     float, (*case[0], case[1] * case[2], 2), elements=_FINITE))))
# s0 an ulp above the threshold by the SVD, refused by the Gram route
@example(_kronecker_case(9.995254228554546e-13 - 3.080469226636558e-14j))
# s0 on the threshold by the SVD, an ulp above it by the Gram route
@example(_kronecker_case(-8.916577585175291e-13 + 4.5271010776820046e-13j))
def test_nearest_kronecker_matches_the_svd(case):
    """The Gram route against ``np.linalg.svd``: real and complex, square and
    not, one matrix or a stack of them."""
    (lead, rows, cols, cplx), values = case
    z = values[..., 0] + 1j * values[..., 1] if cplx else values[..., 0]
    _kronecker_against_the_svd(z, lead, rows, cols)


def test_nearest_kronecker_matches_the_svd_at_the_edges_of_its_band():
    """1000 matrices whose top singular value is placed within a few ulps of
    either edge of the band, or at the threshold: real and complex, 1 x 1 to
    5 x 5, dense or one entry over a 9.7e-56 background."""
    rng = np.random.default_rng(36)
    eps = np.finfo(float).eps
    band = _ROUNDOFF_BAND / eps
    offsets = np.concatenate([side * (band + np.arange(-4, 5)) for side in (-1, 1)] + [[0.0]])
    counts = np.zeros(3, dtype=int)  # surely zero, within the band, surely not zero
    for i in range(1000):
        rows, cols = rng.integers(1, 6, size=2)
        mat = rng.normal(size=(rows, cols)) + (1j * rng.normal(size=(rows, cols)) if i % 2 else 0)
        if i % 4 >= 2:
            one = mat.flat[0]
            mat = np.full((rows, cols), 9.7e-56, dtype=mat.dtype)
            mat.flat[rng.integers(rows * cols)] = one
        top = np.linalg.svd(mat, compute_uv=False)[0]
        mat = mat * (KRON_ZERO_RTOL / top * (1.0 + rng.choice(offsets) * eps))
        zero, sure = _kronecker_against_the_svd(mat.reshape(-1), [], rows, cols)
        counts[0 if zero and sure else 2 if sure else 1] += 1
    assert np.all(counts >= 100), counts


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_nearest_kronecker_is_exact_on_exact_data(cplx):
    """An exact Kronecker product leaves a residual of roundoff, at every
    scale; ``sqrt(||Z||^2 - s0^2)`` would leave about ``sqrt(eps) ||Z||``."""
    rng = np.random.default_rng(29)
    for scale in (1e-6, 1.0, 1e6):
        x, c = rng.normal(size=(2, 20, 5)), rng.normal(size=(2, 20, 7))
        x, c = (x[0] + 1j * x[1], c[0] + 1j * c[1]) if cplx else (x[0], c[0])
        z = scale * (x[:, :, None] * c[:, None, :]).reshape(20, -1)
        for rows, cols in ((5, 7), (7, 5)):
            zz = z if rows == 5 else z.reshape(20, 5, 7).swapaxes(1, 2).reshape(20, -1)
            fac = nearest_kronecker(zz, rows, cols)
            norm = np.linalg.norm(zz, axis=-1)
            assert np.all(fac.residual <= 1e-14 * norm)
            product = (fac.left[:, :, None] * fac.right[:, None, :]).reshape(20, -1)
            assert np.all(np.linalg.norm(product - zz, axis=-1) <= 1e-14 * norm)
            assert not fac.degenerate_tie.any()


def test_nearest_kronecker_flags_a_tie_and_refuses_a_zero_member_by_its_mask():
    rng = np.random.default_rng(30)
    spread = np.kron(rng.normal(size=3), rng.normal(size=3)) + 0.1 * rng.normal(size=9)
    tied = vectorize(np.eye(3)).astype(float)
    fac = nearest_kronecker(np.stack([spread, tied, 1j * tied]), 3, 3)
    assert fac.degenerate_tie.tolist() == [False, True, True]
    with pytest.raises(DegeneracyError, match="numerically zero") as err:
        nearest_kronecker(np.stack([[spread, np.zeros(9)], [tied, spread]]), 3, 3)
    assert err.value.refused.tolist() == [[False, True], [False, False]]


def _planted(rng, rows, cols, ratio, cplx):
    """A ``rows x cols`` matrix with ``s1 / s0 = ratio``, the other singular
    values below half of ``s1``, at a random scale; ``ratio`` None is zero."""
    n = min(rows, cols)
    if ratio is None:
        return np.zeros((rows, cols), dtype=complex if cplx else float)

    def orthonormal(m):
        x = rng.normal(size=(m, n)) + (1j * rng.normal(size=(m, n)) if cplx else 0.0)
        return np.linalg.qr(x)[0]

    s = np.zeros(n)
    s[0] = 1.0
    s[1:] = ratio * np.concatenate([[1.0], rng.uniform(0.0, 0.5, size=n - 2)])[:n - 1]
    return 10.0 ** rng.uniform(-3, 3) * (orthonormal(rows) * s) @ orthonormal(cols).conj().T


def _eigh_verdicts(mats):
    """The rule of the full eigendecomposition on a stack of rearrangements:
    the zero and tie verdicts, and the top eigenvector of the Gram on the
    smaller side."""
    rows, cols = mats.shape[-2:]
    a = mats if rows <= cols else mats.swapaxes(-1, -2)
    w, v = np.linalg.eigh(a @ a.conj().swapaxes(-1, -2))
    s = np.sqrt(np.maximum(w[..., ::-1], 0.0))
    zero = s[..., 0] <= KRON_ZERO_RTOL * np.maximum(1.0, np.linalg.norm(mats, axis=(-2, -1)))
    tie = s[..., 0] - s[..., 1] <= KRON_TIE_RTOL * s[..., 0]
    return zero, tie, v[..., -1]


_RATIOS = (0.0, 0.3, 0.9, 0.99, 0.9999, 1.0, None)  # s1 / s0; None is a zero matrix


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 20), st.integers(0, 3), st.booleans(), st.booleans(),
       st.lists(st.sampled_from(_RATIOS), min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
def test_the_squaring_route_keeps_the_eigendecomposition_verdicts(side, extra, wide, cplx,
                                                                  ratios, seed):
    """Planted gaps from none to a tie, real and complex, with zero members:
    the zero and tie verdicts are the full eigendecomposition's, and where
    ``s1 / s0 <= 0.99`` so is the vector, up to its phase."""
    rng = np.random.default_rng(seed)
    rows, cols = (side, side + extra) if wide else (side + extra, side)
    mats = np.stack([_planted(rng, rows, cols, r, cplx) for r in ratios])
    zero, tie, vec = _eigh_verdicts(mats)
    apart = np.array([r is not None and r <= 0.99 for r in ratios])
    if zero.any():
        with pytest.raises(DegeneracyError, match="numerically zero") as err:
            nearest_kronecker(mats.reshape(len(mats), -1), rows, cols)
        assert np.array_equal(err.value.refused, zero)
        if zero.all():
            return
        mats, tie, vec, apart = mats[~zero], tie[~zero], vec[~zero], apart[~zero]
    fac = nearest_kronecker(mats.reshape(len(mats), -1), rows, cols)
    assert np.array_equal(fac.degenerate_tie, tie)
    u = fac.left if rows <= cols else fac.right
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    overlap = np.einsum("ki,ki->k", vec.conj(), u)
    phase = (overlap / np.abs(overlap))[:, None]
    assert np.all(np.linalg.norm(u - vec * phase, axis=-1)[apart] <= 1e-12)


@pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
def test_each_member_of_a_mixed_stack_is_its_stack_of_one(cplx):
    """A fast, a slow, a near-tied, a tied and a zero member: each lane of
    the stacked route, and each factorization, equals its stack of one."""
    rng = np.random.default_rng(37)
    ratios = (0.1, 0.99, 0.9999, 1.0, None)
    mats = np.stack([_planted(rng, 6, 8, r, cplx) for r in ratios])
    g = mats @ mats.conj().swapaxes(-1, -2)
    tr = np.trace(g, axis1=1, axis2=2).real
    vecs, tie = _top_eigenvectors(g, tr)
    assert tie.tolist() == [False, False, False, True, True]  # a zero Gram reads as tied
    for k in range(len(g)):
        one_vec, one_tie = _top_eigenvectors(g[k:k + 1], tr[k:k + 1])
        assert np.array_equal(one_vec[0], vecs[k]) and one_tie[0] == tie[k]
    z = mats.reshape(len(mats), -1)
    with pytest.raises(DegeneracyError, match="numerically zero") as err:
        nearest_kronecker(z, 6, 8)
    assert err.value.refused.tolist() == [False, False, False, False, True]
    fac = nearest_kronecker(z[:-1], 6, 8)
    # converged and eigh lanes alike: the largest-magnitude entry is real and positive
    pivot = fac.left[np.arange(len(fac.left)), np.abs(fac.left).argmax(axis=1)]
    assert np.all(pivot.real > 0) and np.all(np.abs(pivot.imag) <= 1e-15 * pivot.real)
    for k in range(len(z) - 1):
        one = nearest_kronecker(z[k:k + 1], 6, 8)
        for field in ("left", "right", "residual", "degenerate_tie"):
            assert np.array_equal(getattr(one, field)[0], getattr(fac, field)[k]), (k, field)


@pytest.mark.parametrize("n0", [1000, 100000])
def test_stage1_matrices_take_no_eigendecomposition_but_ties_and_zeros_do(monkeypatch, n0):
    """The 150 stage-1 matrices of a 50-trial two-qubit Monte-Carlo block
    all converge by squaring; a tied and a zero matrix added to them take
    one ``eigh``, of those two Grams alone."""
    sc = preset("two_qubit_mixed_unitary")
    stacks, factor = [], nearest_kronecker

    def spy(z, rows, cols):
        stacks.append(np.array(z))
        return factor(z, rows, cols)

    monkeypatch.setattr("jointtomo.estimator.nearest_kronecker", spy)
    bench.run_mse_experiment(sc, [n0], trials=50, seed=37)
    monkeypatch.undo()
    (z,) = stacks
    assert z.shape == (50, 3, 225)
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    fac = nearest_kronecker(z, 15, 15)
    assert calls == [] and not fac.degenerate_tie.any()
    mats = z.reshape(-1, 15, 15)
    tied, zero = np.eye(15), np.zeros((15, 15))
    g = np.concatenate([mats, [tied, zero]]) @ np.concatenate([mats, [tied, zero]]).swapaxes(1, 2)
    _, tie = _top_eigenvectors(g, np.trace(g, axis1=1, axis2=2))
    assert len(calls) == 1 and np.array_equal(calls[0], g[-2:])
    assert tie.tolist() == [False] * 150 + [True, True]  # a zero Gram reads as tied


def _povm_reference(povm_bar):
    """The detector correction of a stack written out: ``S^{-1/2}`` from
    ``eigh(S)`` of each clipped element sum ``S``, applied to the clipped
    elements.  Returns the renormalized elements (before the final check;
    placeholders where ``S`` is singular) and which sums are not singular,
    an eigenvalue above ``POVM_SINGULAR_RTOL * ||S||``."""
    clipped = _clip_negative(povm_bar)
    s = clipped.sum(axis=-3)
    w, v = np.linalg.eigh(s)
    standing = w[..., 0] > POVM_SINGULAR_RTOL * np.linalg.norm(s, axis=(-2, -1))
    w = np.where(standing[..., None], w, 1.0)
    inv_sqrt = ((v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))[..., None, :, :]
    return inv_sqrt @ clipped @ inv_sqrt, standing


def test_a_singular_detector_is_refused_by_its_mask_after_two_decompositions(monkeypatch):
    rng = np.random.default_rng(31)
    rough = rng.normal(size=(3, 3, 2, 2, 2)) @ np.array([1.0, 1j])
    rough = np.eye(2) / 3.0 + 0.05 * (rough + rough.conj().swapaxes(-1, -2))
    # clipped, this detector's sum is diag(1, 0): singular
    singular = np.array([np.diag([0.6, -0.2]), np.diag([0.4, -0.1]), np.zeros((2, 2))])
    calls, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    out = _physical_povms(rough)
    assert len(calls) == 2  # the elements' clip and the sums
    expected, standing = _povm_reference(rough)
    assert standing.all() and np.array_equal(out, Povm.checked(2, expected))

    stack = rough.copy()
    stack[1] = singular
    calls.clear()
    with pytest.raises(DegeneracyError, match="^element sum is singular$") as err:
        _physical_povms(stack)
    assert len(calls) == 2  # nothing is decomposed again
    assert err.value.refused.tolist() == [False, True, False]


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.just(d),
    arrays(float, st.tuples(st.integers(2, 4), st.just(d), st.just(d), st.just(2)),
           elements=st.floats(-1.0, 1.0, allow_nan=False, width=64)),
    arrays(float, (d, 2), elements=st.floats(-1.0, 1.0, allow_nan=False, width=64)),
    st.integers(0, 18))))
def test_a_detector_is_refused_exactly_when_its_sum_is_singular_and_kept_bit_for_bit(case):
    d, values, direction, tilt = case
    rough = values[..., 0] + 1j * values[..., 1]
    v = direction[:, 0] + 1j * direction[:, 1]
    if np.linalg.norm(v) > 0.1:
        # fold the elements into the complement of v, then tilt them back by
        # 10^-tilt, which puts the least eigenvalue of S near the threshold
        q = np.eye(d) - np.outer(v, v.conj()) / np.vdot(v, v).real
        rough = q @ rough @ q + 10.0 ** -tilt * rough
    expected, standing = _povm_reference(rough[None])
    if not standing[0]:
        with pytest.raises(DegeneracyError, match="^element sum is singular$") as err:
            _physical_povms(rough[None])
        assert err.value.refused.tolist() == [True]
        return
    complete = np.linalg.norm(expected[0].sum(axis=0) - np.eye(d)) <= COMPLETENESS_TOL * d
    try:
        out = _physical_povms(rough[None])
    except DegeneracyError as exc:
        assert not complete and exc.refused.tolist() == [True]
        return
    assert complete
    assert np.array_equal(out, Povm.checked(d, expected))


def test_fix_scale_gauge_invariance():
    rng = np.random.default_rng(4)
    x, c = rng.normal(size=3), rng.normal(size=3)
    fac = nearest_kronecker(np.kron(x, c), 3, 3)
    x1, c1 = fix_scale_v1(fac, x[0])
    assert np.allclose(x1, x) and np.allclose(c1, c)
    # global sign flip of the factors is absorbed
    flipped = type(fac)(left=-fac.left, right=-fac.right, residual=fac.residual)
    x2, c2 = fix_scale_v1(flipped, x[0])
    assert np.allclose(x2, x1) and np.allclose(c2, c1)
    # (q, 1/q) rescaling of the factors is absorbed
    scaled = type(fac)(left=5.0 * fac.left, right=fac.right / 5.0, residual=fac.residual)
    x3, c3 = fix_scale_v1(scaled, x[0])
    assert np.allclose(x3, x1) and np.allclose(c3, c1)


def test_fix_scale_degenerate_anchor():
    fac = nearest_kronecker(np.kron(np.array([0.0, 1.0, 0.0]), np.ones(3)), 3, 3)
    with pytest.raises(DegeneracyError):
        fix_scale_v1(fac, 0.3)
    fac = nearest_kronecker(np.kron(np.array([1.0, 1.0, 0.0]), np.ones(3)), 3, 3)
    with pytest.raises(DegeneracyError):
        fix_scale_v1(fac, 0.0)


def test_combine_state_estimates():
    cands = [np.array([1.0, 2.0]), np.array([1.0, 2.0])]
    assert np.allclose(combine_state_estimates(cands), [1, 2])
    cands = [np.array([1.0, 0.0]), np.array([3.0, 2.0])]
    assert np.allclose(combine_state_estimates(cands), [2, 1])


def test_correct_state_cases():
    rho = np.diag([0.7, 0.3]).astype(complex)
    assert np.allclose(correct_state(rho).rho, rho)
    hat = correct_state(np.diag([1.1, -0.1]))
    assert np.allclose(np.linalg.eigvalsh(hat.rho), [0.0, 1.0], atol=1e-12)
    hat = correct_state(np.diag([0.7, 0.4, -0.1]))
    assert np.allclose(sorted(np.linalg.eigvalsh(hat.rho)), [0.0, 0.35, 0.65], atol=1e-12)
    with pytest.raises(ValidationError):
        correct_state(np.array([[1.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("d", [2, 3])
def test_correct_state_is_optimal_projection(d):
    # oracle: constrained quadratic minimization over same-eigenvector corrections
    rng = np.random.default_rng(5 + d)
    for _ in range(5):
        lam = rng.normal(size=d)
        lam = lam - (lam.sum() - 1.0) / d  # trace 1, possibly negative entries
        u = haar_unitary(d, rng)
        rho_bar = (u * lam) @ u.conj().T
        hat = correct_state(rho_bar)
        res = minimize(
            lambda v: np.sum((v - lam) ** 2),
            np.full(d, 1.0 / d),
            constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0}],
            bounds=[(0.0, 1.0)] * d,
            method="SLSQP",
        )
        best = (u * res.x) @ u.conj().T
        assert np.linalg.norm(hat.rho - rho_bar) <= np.linalg.norm(best - rho_bar) + 1e-6


def test_correct_povm_cases():
    sc = preset("one_qubit_closed_complete")
    out = correct_povm(sc.truth_povm.elements)
    assert np.max(np.abs(out.elements - sc.truth_povm.elements)) < 1e-12
    out = correct_povm(np.stack([1.2 * KET0, 1.2 * (np.eye(2) - KET0)]))
    assert np.allclose(out.elements[0], KET0, atol=1e-12)
    assert np.allclose(out.elements[1], np.eye(2) - KET0, atol=1e-12)
    elems = np.stack([np.diag([1.05, -0.05]), np.diag([-0.05, 1.05]).astype(complex)])
    out = correct_povm(elems)
    assert np.linalg.norm(out.elements.sum(axis=0) - np.eye(2)) < 1e-12
    assert min(np.linalg.eigvalsh(p)[0] for p in out.elements) > -1e-12
    assert np.array_equal(_physical_povms(elems[None])[0], out.elements)


def test_single_corrections_refuse_stacks_and_are_the_stacked_ones():
    rng = np.random.default_rng(11)
    g = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    h = g + g.conj().swapaxes(-1, -2)
    h -= np.trace(h, axis1=1, axis2=2)[:, None, None] * np.eye(3) / 3
    rho_bar = np.eye(3) / 3 + 0.2 * h  # unit trace; some members not PSD
    assert (np.linalg.eigvalsh(rho_bar)[:, 0] < 0).any()
    povm_bar = np.stack([np.eye(3) / 2 + 0.3 * h[:3], np.eye(3) / 2 + 0.3 * h[3:]], axis=1)
    states = _physical_states(rho_bar)
    povms = _physical_povms(povm_bar)
    for k in range(6):
        assert np.array_equal(correct_state(rho_bar[k]).rho, states[k])
    for k in range(3):
        assert np.array_equal(correct_povm(povm_bar[k]).elements, povms[k])
    with pytest.raises(ValidationError, match=r"got shape \(6, 3, 3\)$"):
        correct_state(rho_bar)
    with pytest.raises(ValidationError, match=r"got shape \(3, 2, 3, 3\)$"):
        correct_povm(povm_bar)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_corrections_refuse_non_finite_estimates(value):
    rho = np.full((2, 2), value)
    elements = np.full((2, 2, 2), value)
    stack = np.stack([np.stack([KET0, np.eye(2) - KET0]), elements])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for call in (lambda: correct_state(rho),
                     lambda: _physical_states(np.stack([KET0, rho]))):
            with pytest.raises(ValidationError, match="^state estimate has a non-finite entry$"):
                call()
        for call in (lambda: correct_povm(elements), lambda: _physical_povms(stack)):
            with pytest.raises(ValidationError,
                               match="^detector estimate has a non-finite entry$"):
                call()


def test_estimate_v1_exact_recovery():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=0,
                          exact=True, basis=sc.basis)
    res = estimate_joint_v1(ds, reg.b, sc.basis)
    assert np.linalg.norm(res.rho_bar - sc.truth_state.rho) < 1e-8
    assert np.linalg.norm(res.rho_hat.rho - sc.truth_state.rho) < 1e-8
    assert np.sqrt(np.sum(np.abs(res.povm_bar - sc.truth_povm.elements) ** 2)) < 1e-7
    assert res.diagnostics["rank_b"] == 9
    assert max(res.diagnostics["stage1_residuals"]) < 1e-10


def test_estimate_v1_exact_mode_candidates_agree():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=0,
                          exact=True, basis=sc.basis)
    res = estimate_joint_v1(ds, reg.b, sc.basis)
    assert res.diagnostics["state_candidate_spread"] < 1e-10


def test_stage1_singular_regularized_system():
    b = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegeneracyError):
        stage1_solve(b, np.array([1.0, 1.0]), Stage1Config(method="tikhonov", reg_scale=0.0))


def test_correct_povm_refuses_a_singular_element_sum():
    with pytest.raises(DegeneracyError, match="^element sum is singular$") as err:
        correct_povm(np.zeros((2, 2, 2), dtype=complex))
    assert err.value.refused.tolist() == [True]


def test_estimate_v2_degenerate_scale_error():
    # a traceless state factor cannot pin the complex gauge
    traceless = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    p = np.eye(2, dtype=complex)
    z = np.kron(vectorize(traceless), vectorize(p.T))
    y = np.eye(16) @ z  # rows of an identity design reproduce z exactly
    with pytest.raises(DegeneracyError) as err:
        estimate_joint_v2(_frequencies_only(y.real[:, None] @ np.ones((1, 1))), np.eye(16),
                          Stage1Config(method="mp_inverse"))
    assert "trace" in str(err.value)


def test_estimate_v1_maximally_mixed_truth_degenerates():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, DensityMatrix(2, np.eye(2) / 2), sc.truth_povm,
                          100, seed=0, exact=True, basis=sc.basis)
    with pytest.raises(DegeneracyError) as err:
        estimate_joint_v1(ds, reg.b, sc.basis)
    assert "kronecker" in str(err.value)


def test_estimate_v2_exact_recovery():
    sc = preset("one_qubit_random_pure")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=0,
                          exact=True, basis=sc.basis)
    res = estimate_joint_v2(ds, reg.b_natural)
    assert np.linalg.norm(res.rho_bar - sc.truth_state.rho) < 1e-7
    assert np.sqrt(np.sum(np.abs(res.povm_bar - sc.truth_povm.elements) ** 2)) < 1e-7


def test_estimate_v2_candidate_normalization_kills_gauge():
    # the (c a, b / c) ambiguity of a factor pair disappears after the
    # trace normalization step used on every candidate
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng).rho
    p = 0.5 * np.eye(2) + 0.1 * np.array([[0, 1], [1, 0]])
    a, b = vectorize(rho), vectorize(p.T)
    for c in (1.7, -0.3 + 1.1j, 1j):
        t = np.trace(devectorize(c * a))
        rho_c = devectorize(c * a) / t
        p_c = (devectorize(b / c) * t).T
        assert np.linalg.norm(rho_c - rho) < 1e-12
        assert np.linalg.norm(p_c - p) < 1e-12


def test_estimate_v2_hermitian_trace_one_candidate_passthrough():
    # symmetrize-and-normalize is the identity on a Hermitian unit-trace input
    rho = np.diag([0.3, 0.7]).astype(complex)
    sym = (rho + rho.conj().T) / 2
    assert np.allclose(sym / np.trace(sym).real, rho)


def test_project_pure():
    rho = np.outer([1, 1j], [1, -1j]) / 2
    out = project_pure(DensityMatrix(2, rho))
    assert np.linalg.norm(out.rho - rho) < 1e-12
    out = project_pure(DensityMatrix(2, np.diag([0.9, 0.1])))
    assert np.allclose(out.rho, np.diag([1.0, 0.0]), atol=1e-12)
    out = project_pure(DensityMatrix(2, np.eye(2) / 2))
    assert np.linalg.matrix_rank(out.rho) == 1
    out2 = project_pure(DensityMatrix(2, np.eye(2) / 2))
    assert np.array_equal(out.rho, out2.rho)


def test_estimates_always_physical_under_heavy_noise():
    sc = preset("one_qubit_closed_incomplete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    for t in range(25):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 40,
                              seed=np.random.SeedSequence([8, t]), basis=sc.basis)
        try:
            res = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
        except DegeneracyError:
            continue
        assert np.linalg.eigvalsh(res.rho_hat.rho)[0] >= -1e-10
        assert abs(np.trace(res.rho_hat.rho).real - 1) < 1e-10
        assert np.linalg.norm(res.povm_hat.elements.sum(axis=0) - np.eye(2)) < 1e-10
        for p in res.povm_hat.elements:
            assert np.linalg.eigvalsh(p)[0] >= -1e-10


def _timed_estimate(l_count, rng):
    basis = build_basis(2)
    chans = tuple(make_named_channel("unitary", u=haar_unitary(2, rng)) for _ in range(l_count))
    ens = ProcessEnsemble(chans)
    reg = build_regression_matrices(ens, basis)
    state = random_density_matrix(2, np.random.default_rng(0))
    p1 = 0.5 * KET0
    povm = Povm(2, np.stack([p1, np.eye(2) - p1]))
    ds = simulate_dataset(ens, state, povm, 1000, seed=0, basis=basis)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        estimate_joint_v1(ds, reg.b, basis)
        best = min(best, time.perf_counter() - t0)
    return best


def test_estimate_cost_scales_mildly_with_process_count():
    rng = np.random.default_rng(9)
    t_small = _timed_estimate(1500, rng)
    t_large = _timed_estimate(6000, rng)
    # linear-in-L contract, with generous headroom for timer noise
    assert t_large <= 12 * t_small + 0.05


def _design(kind, rows, cols, rank, rng):
    """A ``rows x cols`` test design of the given rank, real or complex, and
    two target columns."""
    def draw(*size):
        g = rng.normal(size=size)
        return g if kind == "real" else g + 1j * rng.normal(size=size)
    return draw(rows, rank) @ draw(rank, cols), draw(rows, 2)


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape", [(40, 9, 9), (40, 16, 3), (6, 16, 6)],
                         ids=["tall-full-rank", "rank-deficient", "wide"])
def test_factored_stage1_matches_direct_solves(kind, shape):
    rng = np.random.default_rng([sum(shape), kind == "complex"])
    b, y = _design(kind, *shape, rng)
    design = factor_design(b)
    assert isinstance(design, FactoredDesign) and factor_design(design) is design
    assert design.rank == shape[2]
    full_rank = shape[2] == shape[1]
    for target in (y, y[:, 0]):
        # Moore-Penrose: numpy's pinv with the same cutoff
        z_mp = stage1_solve(design, target, Stage1Config(method="mp_inverse"))
        assert _rel(z_mp, np.linalg.pinv(b, rcond=1e-8) @ target) < 1e-10
        # Tikhonov: the regularized normal equations
        lam = 0.3
        z_tk = stage1_solve(design, target, Stage1Config(method="tikhonov", reg_scale=lam))
        gram = b.conj().T @ b + lam * np.eye(b.shape[1])
        assert _rel(z_tk, np.linalg.solve(gram, b.conj().T @ target)) < 1e-10
        if full_rank:
            z_ls = stage1_solve(design, target, Stage1Config())
            assert _rel(z_ls, np.linalg.lstsq(b, target, rcond=None)[0]) < 1e-10
            z_0 = stage1_solve(design, target, Stage1Config(method="tikhonov", reg_scale=0.0))
            assert _rel(z_0, z_ls) < 1e-10
        else:
            with pytest.raises(DegeneracyError):
                stage1_solve(design, target, Stage1Config())
            with pytest.raises(DegeneracyError):
                stage1_solve(design, target, Stage1Config(method="tikhonov", reg_scale=0.0))
        # a raw matrix is factored on the spot and gives the same solution
        assert np.array_equal(stage1_solve(b, target, Stage1Config(method="mp_inverse")), z_mp)


@pytest.fixture(scope="module")
def factored_presets():
    """Every preset's scenario, with the designs of both bases factored once."""
    scenarios = {name: preset(name) for name in PRESET_NAMES}
    return {name: (sc, sc.regression.design, sc.regression.design_natural)
            for name, sc in scenarios.items()}


def _target_columns(stack: DatasetStack, basis, natural: bool) -> np.ndarray:
    """A stack's ``(L, T M)`` stage-1 columns in one basis."""
    y = stack.y_hat.astype(complex) if natural else build_targets_v1(stack, basis)
    return y.transpose(1, 0, 2).reshape(stack.n_processes, -1)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_stage1_residual_from_the_coefficients_is_the_direct_one(name, factored_presets):
    """The residual ``_solved`` takes from ``U^H y`` matches ``||y - B z||``
    to 1e-10 ||y|| per column, for every method in both bases, on noisy
    and exact data and a rank-deficient design with a tiny Tikhonov scale;
    ``stage1_solve`` returns ``_solved``'s ``z`` bit for bit."""
    sc, design, natural = factored_presets[name]
    stacks = [DatasetStack.of(
        simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seed=int(n0) + t,
                         scale_observable=sc.anchor_index, basis=sc.basis) for t in range(3))
        for n0 in (2, 1000, 100000)]
    stacks.append(simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, exact=True,
                                   scale_observable=sc.anchor_index, basis=sc.basis).as_stack())
    solved = 0
    for stack in stacks:
        configs = [Stage1Config(), Stage1Config("mp_inverse"),
                   Stage1Config("tikhonov").resolved(stack.total_copies),
                   Stage1Config("tikhonov", reg_scale=1e-12)]
        for basis_design, is_natural in ((design, False), (natural, True)):
            cols = _target_columns(stack, sc.basis, is_natural)
            for config in configs:
                if config.method == "plain_ls" and not basis_design.full_column_rank:
                    with pytest.raises(DegeneracyError):
                        _solved(basis_design, cols, config)
                    continue
                for y in (cols, cols[:, 0]):
                    z, residuals = _solved(basis_design, y, config)
                    direct = np.linalg.norm(y - basis_design.b @ z, axis=0)
                    assert np.all(np.abs(residuals - direct)
                                  <= 1e-10 * np.linalg.norm(y, axis=0))
                    assert np.array_equal(stage1_solve(basis_design, y, config), z)
                    solved += 1
    assert solved >= 4 * 2 * 3 * 2


def test_estimators_accept_a_factored_design():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=4,
                          basis=sc.basis)
    raw = estimate_joint_v1(ds, reg.b, sc.basis)
    factored = estimate_joint_v1(ds, factor_design(reg.b), sc.basis)
    assert np.array_equal(raw.rho_bar, factored.rho_bar)
    assert raw.diagnostics["rank_b"] == reg.rank_b
    scp = preset("one_qubit_random_pure")
    regp = build_regression_matrices(scp.ensemble, scp.basis)
    dsp = simulate_dataset(scp.ensemble, scp.truth_state, scp.truth_povm, 1000, seed=4)
    raw = estimate_joint_v2(dsp, regp.b_natural)
    factored = estimate_joint_v2(dsp, factor_design(regp.b_natural))
    assert np.array_equal(raw.rho_bar, factored.rho_bar)
    assert raw.diagnostics["rank_b"] == regp.rank_b_natural
    with pytest.raises(ValidationError):
        estimate_joint_v1(ds, factor_design(reg.b[:-1]), sc.basis)


def test_estimate_v1_refuses_a_complex_design():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=4,
                          basis=sc.basis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning before the refusal
        for b in (reg.b * 1j, factor_design(reg.b * 1j), reg.b.astype(complex)):
            with pytest.raises(ValidationError, match="must be real"):
                estimate_joint_v1(ds, b, sc.basis)


def test_lapack_failure_is_a_stage_labelled_degeneracy(monkeypatch):
    # NaN in the design makes its SVD fail
    b = np.eye(16)
    b[0, 0] = np.nan
    with pytest.raises(DegeneracyError) as err:
        estimate_joint_v2(_frequencies_only(np.full((16, 2), 0.25)), b,
                          Stage1Config(method="mp_inverse"))
    assert str(err.value).startswith("[stage1]")
    # valid inputs reach the Kronecker stage, whose eigendecomposition is
    # made to fail there: the first outcome's rearrangement is I / 4, a tied
    # Gram, which the squaring route leaves to eigh
    design = factor_design(np.eye(16))
    y = np.full((16, 2), 0.25)
    y[:, 0] = np.eye(4).reshape(-1) / 4.0

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(DegeneracyError) as err:
        estimate_joint_v2(_frequencies_only(y), design, Stage1Config(method="mp_inverse"))
    assert str(err.value).startswith("[kronecker]")


def test_targets_refuse_an_anchor_beyond_the_basis():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=5,
                          basis=sc.basis)
    build_targets_v1(replace(ds, anchor_index=3), sc.basis)
    with pytest.raises(ValidationError):
        build_targets_v1(replace(ds, anchor_index=4), sc.basis)
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    with pytest.raises(ValidationError):
        estimate_joint_v1(replace(ds, anchor_index=99), reg.b, sc.basis)


def test_estimators_take_a_measurement_dataset_only():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=6,
                          basis=sc.basis)
    for bad in (ds.y_hat, ds.y_hat.tolist(), ds.as_stack()):
        with pytest.raises(ValidationError, match="need a MeasurementDataset"):
            estimate_joint_v2(bad, sc.regression.design_natural, Stage1Config("tikhonov"))
        with pytest.raises(ValidationError, match="need a MeasurementDataset"):
            estimate_joint_v1(bad, sc.regression.design, sc.basis)


def test_estimators_accept_list_valued_designs():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=6,
                          basis=sc.basis)
    listed = estimate_joint_v1(ds, reg.b.tolist(), sc.basis)
    assert np.array_equal(listed.rho_bar, estimate_joint_v1(ds, reg.b, sc.basis).rho_bar)
    scp = preset("one_qubit_random_pure")
    regp = build_regression_matrices(scp.ensemble, scp.basis)
    dsp = simulate_dataset(scp.ensemble, scp.truth_state, scp.truth_povm, 1000, seed=6)
    listed = estimate_joint_v2(dsp, regp.b_natural.tolist())
    assert np.array_equal(listed.rho_bar, estimate_joint_v2(dsp, regp.b_natural).rho_bar)


def test_correction_kernels_match_the_per_matrix_corrections():
    from jointtomo.estimator import _clip_negative, _nearest_density
    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        for _ in range(20):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2.0
            rho = h - (np.trace(h).real - 1.0) / d * np.eye(d)  # unit trace, often not PSD
            nearest = _nearest_density(rho)  # DensityMatrix then symmetrizes it
            assert np.array_equal((nearest + nearest.conj().T) / 2.0, correct_state(rho).rho)
            stack = np.stack([rho, h, np.eye(d) / d])
            for p, clipped in zip(stack, _clip_negative(stack)):
                vals, vecs = np.linalg.eigh(p)
                assert np.array_equal(clipped, (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T)


def _assert_same_estimate(a, b, rtol=1e-12):
    """Two results agree: the estimates to ``rtol`` relative, the
    diagnostics key by key."""
    for x, y in ((a.rho_hat.rho, b.rho_hat.rho), (a.povm_hat.elements, b.povm_hat.elements),
                 (a.rho_bar, b.rho_bar), (a.povm_bar, b.povm_bar)):
        assert _rel(x, y) < rtol
    assert a.diagnostics.keys() == b.diagnostics.keys()
    for key, value in a.diagnostics.items():
        other = b.diagnostics[key]
        if key == "kron_ties" or not isinstance(value, (list, float)):
            assert value == other, key
        else:
            assert np.allclose(value, other, rtol=1e-10, atol=1e-14), key


def _single(sc, ds, design, config):
    """The single-dataset estimate the preset's experiment scores."""
    if sc.estimator == "v2":
        result = estimate_joint_v2(ds, design, config)
        return replace(result, rho_hat=project_pure(result.rho_hat)) if sc.pure else result
    return estimate_joint_v1(ds, design, sc.basis, config)


def _stack_results(sc, datasets, design, config=None):
    """Per dataset, the result of estimating the datasets as one stack, as
    the scenario's experiment does; None for each dataset it refuses (all of
    them when it refuses the whole stack)."""
    try:
        est = bench._estimate_block(sc, DatasetStack.of(datasets), design, config or sc.stage1)
    except DegeneracyError:
        return [None] * len(datasets)
    return est.results()


@pytest.mark.parametrize("n0", [10 ** 3, 10 ** 5])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_stack_matches_the_single_dataset_estimators(name, n0):
    sc = preset(name)
    design = sc.regression.design_natural if sc.estimator == "v2" else sc.regression.design
    datasets = [simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                                 seed=np.random.SeedSequence([21, n0, t]), basis=sc.basis)
                for t in range(5)]
    for config in (sc.stage1, Stage1Config("mp_inverse"), Stage1Config("tikhonov")):
        for ds, result in zip(datasets, _stack_results(sc, datasets, design, config)):
            if result is None:
                with pytest.raises(DegeneracyError):
                    _single(sc, ds, design, config)
                continue
            _assert_same_estimate(result, _single(sc, ds, design, config))


def test_a_degenerate_dataset_in_a_stack_is_one_failure():
    sc = preset("one_qubit_closed_complete")
    datasets = [simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=t,
                                 basis=sc.basis) for t in range(5)]
    datasets[2] = replace(datasets[2], x01_bar=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = _stack_results(sc, datasets, sc.regression.design)
    assert [r is None for r in results] == [False, False, True, False, False]
    with pytest.raises(DegeneracyError) as err:
        estimate_joint_v1(datasets[2], sc.regression.design, sc.basis)
    assert str(err.value).startswith("[scale] measured anchor value is zero")
    clean = _stack_results(sc, datasets[:2] + datasets[3:], sc.regression.design)
    for result, alone in zip(results[:2] + results[3:], clean):
        _assert_same_estimate(result, alone)

    scp = preset("one_qubit_random_pure")
    datasets = [simulate_dataset(scp.ensemble, scp.truth_state, scp.truth_povm, 1000, seed=t,
                                 basis=scp.basis) for t in range(4)]
    datasets[0] = replace(datasets[0], y_hat=np.zeros_like(datasets[0].y_hat))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = _stack_results(scp, datasets, scp.regression.design_natural)
    assert [r is None for r in results] == [True, False, False, False]
    with pytest.raises(DegeneracyError) as err:
        estimate_joint_v2(datasets[0], scp.regression.design_natural)
    assert str(err.value).startswith("[kronecker] rearranged matrix is numerically zero")
    clean = _stack_results(scp, datasets[1:], scp.regression.design_natural)
    for result, alone in zip(results[1:], clean):
        _assert_same_estimate(result, alone)


def test_datasets_refused_at_two_stages_leave_their_neighbours_unchanged():
    sc = preset("one_qubit_closed_complete")
    design = sc.regression.design
    datasets = [simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=t,
                                 basis=sc.basis) for t in range(8)]
    clean = _stack_results(sc, datasets, design)
    # refused at the scale fix, and (targets exactly zero) at the Kronecker factor
    datasets[1] = replace(datasets[1], x01_bar=0.0)
    flat = np.outer(np.full(len(sc.ensemble), 1.0 / np.sqrt(sc.d)), datasets[5].c_j0_hat)
    datasets[5] = replace(datasets[5], y_hat=flat)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = _stack_results(sc, datasets, design)
    assert [k for k, r in enumerate(results) if r is None] == [1, 5]
    for k, message in ((1, "[scale] measured anchor value is zero"),
                       (5, "[kronecker] rearranged matrix is numerically zero")):
        with pytest.raises(DegeneracyError) as err:
            estimate_joint_v1(datasets[k], design, sc.basis)
        assert str(err.value).startswith(message)
    for k in (0, 2, 3, 4, 6, 7):
        _assert_same_estimate(results[k], clean[k])


def _simplex_reference(v, total=1.0):
    """The textbook projection of one vector: the threshold at the last
    sorted entry that stays above it."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(u) + 1)
    k = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[k - 1] / k, 0.0)


def _hermitian_unit_trace(values, d):
    """Hermitian unit-trace matrices built from ``(T, 2 d d)`` real draws."""
    g = values[:, :d * d].reshape(-1, d, d) + 1j * values[:, d * d:].reshape(-1, d, d)
    h = (g + g.conj().swapaxes(1, 2)) / 2.0
    return h - ((np.trace(h, axis1=1, axis2=2).real - 1.0) / d)[:, None, None] * np.eye(d)


_FINITE = st.floats(-3.0, 3.0, allow_nan=False, width=64)


@settings(max_examples=60, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=_FINITE))
def test_stacked_simplex_projection_matches_the_rows(v):
    from jointtomo.estimator import _project_simplex
    out = _project_simplex(v)
    for row, projected in zip(v, out):
        assert np.array_equal(projected, _project_simplex(row))
        assert np.allclose(projected, _simplex_reference(row), rtol=0.0, atol=1e-12)
        assert abs(projected.sum() - 1.0) < 1e-12 and projected.min() >= 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.just(d), arrays(float, st.tuples(st.integers(1, 4), st.just(2 * d * d)),
                       elements=_FINITE))))
def test_correct_state_is_idempotent_and_stacks(case):
    d, values = case
    rho_bar = _hermitian_unit_trace(values, d)
    once = _physical_states(rho_bar)
    twice = _physical_states(once)
    for first, second, rough in zip(once, twice, rho_bar):
        assert np.allclose(second, first, rtol=0.0, atol=1e-12)
        assert np.allclose(first, correct_state(rough).rho, rtol=0.0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(
    st.just(d), arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 4), st.just(d),
                                        st.just(d), st.just(2)),
                       elements=st.floats(-1.0, 1.0, allow_nan=False, width=64)))))
def test_correct_povm_gives_valid_povms_or_refuses(case):
    d, values = case
    stack = values[..., 0] + 1j * values[..., 1]
    alone = []
    for elements in stack:
        try:
            alone.append(correct_povm(elements))
        except DegeneracyError:
            alone.append(None)
    try:
        povms = _physical_povms(stack)
    except DegeneracyError:
        assert any(p is None for p in alone)  # refused only with a refused detector in it
        return
    for povm, single in zip(povms, alone):
        # the package takes this norm by another route: the band allows for it
        assert (np.linalg.norm(povm.sum(axis=0) - np.eye(d))
                <= COMPLETENESS_TOL * d * (1.0 + _ROUNDOFF_BAND))
        assert min(np.linalg.eigvalsh(p)[0] for p in povm) >= -PSD_TOL
        assert np.allclose(povm, single.elements, rtol=0.0, atol=1e-12)


def _estimate_or_stage(estimate):
    """An estimate's result, or the stage label of the error refusing it."""
    try:
        return estimate()
    except TomographyError as exc:
        return str(exc).split("]")[0] + "]"


def _assert_moved_alike(moved, base, tol, outcomes=None):
    """``moved`` is ``base`` with its detector elements in the order
    ``outcomes`` (unchanged if None), to ``tol`` relative to the larger of 1
    and each matrix's largest entry; or both are refused by the same stage."""
    if isinstance(base, str) or isinstance(moved, str):
        assert moved == base
        return
    order = slice(None) if outcomes is None else outcomes
    for got, want in ((moved.rho_hat.rho, base.rho_hat.rho), (moved.rho_bar, base.rho_bar),
                      (moved.povm_hat.elements, base.povm_hat.elements[order]),
                      (moved.povm_bar, base.povm_bar[order])):
        assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_permuting_processes_or_outcomes_moves_the_estimates_alike(name):
    sc = preset(name)
    reg, config = sc.regression, Stage1Config("mp_inverse")
    processes = np.random.default_rng(5).permutation(len(sc.ensemble))
    outcomes = np.roll(np.arange(sc.truth_povm.m), 1)
    estimators = {
        "v1": (lambda ds, b: estimate_joint_v1(ds, b, sc.basis, config), reg.design),
        "v2": (lambda ds, b: estimate_joint_v2(ds, b, config), reg.design_natural),
    }
    for version, (estimate, design) in estimators.items():
        permuted = factor_design(design.b[processes])
        # Moore-Penrose on this preset's rank-deficient B amplifies roundoff:
        # reordering its rows moves the v1 estimate by up to about 1e-9 of its
        # largest entry (every other case stays within 1e-13).
        tol = 1e-8 if (name, version) == ("two_qubit_mixed_unitary_incomplete", "v1") else 1e-12
        for seed in range(1, 6):
            ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=seed,
                                  basis=sc.basis)
            relabelled = replace(ds, y_hat=ds.y_hat[:, outcomes], c_j0_hat=ds.c_j0_hat[outcomes])
            base = _estimate_or_stage(lambda: estimate(ds, design))
            _assert_moved_alike(_estimate_or_stage(lambda: estimate(ds.subset(processes), permuted)),
                                base, tol)
            _assert_moved_alike(_estimate_or_stage(lambda: estimate(relabelled, design)),
                                base, tol, outcomes)


_MARGIN = st.floats(1.0 + 1e-6, 10.0)  # a trace's multiple of the refusal threshold


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.lists(_MARGIN, min_size=12, max_size=12))
def test_v2_scale_fix_gives_unit_traces_just_above_its_refusal(d, t, m, seed, margins):
    """Every candidate the natural basis's scale fix passes has unit trace, and
    so has the Hermitian part of their mean: that is why the mean state needs
    no near-zero-trace refusal of its own."""
    from jointtomo.estimator import _fix_scale_v2
    rng = np.random.default_rng(seed)
    shape = (t, m, d * d)

    def draw():
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # the state factor's traceless part, plus a trace of ANCHOR_RTOL * margin times its norm
    eye = np.eye(d).ravel()
    w = draw()
    w -= (w @ eye / d)[..., None] * eye
    r = ANCHOR_RTOL * np.resize(margins, (t, m))
    size = r * np.linalg.norm(w, axis=-1) / np.sqrt(1.0 - r * r / d)
    phase = np.exp(2j * np.pi * rng.random((t, m)))
    left = (w + (size * phase / d)[..., None] * eye) * rng.uniform(1e-3, 1e3, (t, m, 1))
    fac = KroneckerFactorization(left, draw(), np.zeros((t, m)), np.zeros((t, m, d * d)))
    candidates, _, anchors = _fix_scale_v2(fac, d)
    assert np.abs(np.trace(candidates, axis1=-2, axis2=-1) - 1.0).max() <= 1e-9
    mean = candidates.mean(axis=1)
    hermitian = (mean + mean.conj().swapaxes(-1, -2)) / 2.0
    assert np.abs(np.trace(hermitian, axis1=-2, axis2=-1) - 1.0).max() <= 1e-9
    assert np.all(anchors > ANCHOR_RTOL * np.linalg.norm(left, axis=-1))


def _raw_error_inputs():
    sc = preset("one_qubit_closed_complete")
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=1,
                          basis=sc.basis)
    return sc, sc.regression, ds


def _simulate(scale_observable):
    sc = preset("one_qubit_closed_complete")
    return simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=1,
                            scale_observable=scale_observable, basis=sc.basis)


def _estimate_object_design(version):
    sc, reg, ds = _raw_error_inputs()
    if version == "v2":
        return estimate_joint_v2(ds, reg.b_natural.astype(object))
    if version == "v1":
        return estimate_joint_v1(ds, reg.b.astype(object), sc.basis)
    init = estimate_joint_v1(ds, reg.design, sc.basis)
    return refine_alternating(ds, reg.b.astype(object), sc.basis, init)


def _export_object_design(pure, path):
    sc, reg, ds = _raw_error_inputs()
    b = reg.b_natural if pure else reg.b
    return export_sos_problem(ds, b.astype(object), sc.basis, path, pure=pure)


def _ideal(scale_observable):
    sc = preset("one_qubit_closed_complete")
    return ideal_statistics(sc.ensemble, sc.truth_state, sc.truth_povm, scale_observable)


def _factors_of_a_stack():
    sc, reg, ds = _raw_error_inputs()
    z = stage1_solve(reg.design, build_targets_v1(ds, sc.basis), Stage1Config())
    return nearest_kronecker(z.T, 3, 3)


_OBJECT = "regression matrix must be numeric, got dtype object"
_HUGE_SKEW = np.array([[1e308, 1e308], [-1e308, 0.0]])
_HUGE_FULL, _HUGE_DIAGONAL = np.full((2, 2), 1e308), np.diag([1e308, -1e308])
_BEYOND = "has an entry beyond 1e+30 in magnitude"
_RECORD = dict(y_hat=[[0.4, 0.5], [0.3, 0.6]], x_a0_hat=[0.7, 0.7], c_j0_hat=[0.7, 0.7],
               x01_bar=0.1, n0=10, tp_flags=[True, True])


def _complex_factors():
    fac = _factors_of_a_stack()
    return replace(fac, left=fac.left * 1j)


def _tilted_basis() -> OperatorBasis:
    """The qubit basis with its x element times ``exp(4e-10 i)``: orthonormal,
    and Hermitian within the basis check's 1e-9, yet not Hermitian."""
    omegas = np.array(build_basis(2).omegas)
    omegas[1] *= np.exp(4e-10j)
    return OperatorBasis(2, omegas)


# The Hadamard channel, which maps the x coordinate onto z.
_HADAMARD = make_named_channel("unitary", u=(pauli("x") + pauli("z")) / np.sqrt(2))
_RESIDUE = "transfer matrix has imaginary residue 4.000e-10"


# A path that is not a str or an os.PathLike; as a file descriptor it is not open.
_FD = 987654
_NOT_A_PATH = "path must be a str or an os.PathLike, got "


def _mse_table(mse_state):
    return MseTable(rows=tuple(MseRow(n, mse, 0.0, 1.0, 0.0, 2)
                               for n, mse in zip((10, 100, 1000), mse_state)), scenario="x")


@pytest.mark.parametrize("call, message", [
    (lambda tmp: _simulate(1.5), "scale observable index must be a whole number, got 1.5"),
    (lambda tmp: _simulate(True), "scale observable index must be a whole number, got True"),
    (lambda tmp: _simulate("1"), "scale observable index must be a whole number, got '1'"),
    (lambda tmp: _ideal(2.5), "scale observable index must be a whole number, got 2.5"),
    (lambda tmp: Stage1Config("tikhonov", reg_scale="1"),
     "regularization scale must be a real number, got '1'"),
    (lambda tmp: Stage1Config("tikhonov", reg_scale=1j),
     "regularization scale must be a real number, got 1j"),
    (lambda tmp: Stage1Config("tikhonov", reg_scale=True),
     "regularization scale must be a real number, got True"),
    (lambda tmp: _estimate_object_design("v1"), f"[stage1] {_OBJECT}"),
    (lambda tmp: _estimate_object_design("v2"), f"[stage1] {_OBJECT}"),
    (lambda tmp: _estimate_object_design("refine"), f"[refine] {_OBJECT}"),
    (lambda tmp: factor_design(np.eye(3).astype(object)), _OBJECT),
    (lambda tmp: _export_object_design(False, tmp / "p.sos"), _OBJECT),
    (lambda tmp: _export_object_design(True, tmp / "p.sos"), _OBJECT),
    (lambda tmp: stage1_solve(np.eye(3), "abc", Stage1Config()),
     "targets must be numeric, got dtype <U3"),
    (lambda tmp: stage1_solve(np.eye(3), np.ones((3, 2, 2)), Stage1Config()),
     "targets must be 1-D or 2-D, got shape (3, 2, 2)"),
    (lambda tmp: fix_scale_v1(_factors_of_a_stack(), 0.5, anchor=3),
     "anchor must index the factor's 3 coordinates, got 3"),
    (lambda tmp: stage1_solve(np.eye(3), [1.0, np.nan, 0.0], Stage1Config()),
     "targets has a non-finite entry"),
    (lambda tmp: factor_design([[1.0, 2.0], [3.0]]),
     "regression matrix must be a rectangular array of numbers"),
    (lambda tmp: to_coords(_HUGE_SKEW, build_basis(2)), "matrix is not Hermitian"),
    (lambda tmp: from_coords([1j, 0, 0, 0], build_basis(2)),
     "coordinate vector must be real, got dtype complex128"),
    (lambda tmp: in_physical_set(np.array([1j, 0, 0]), build_basis(2)),
     "coherence vector must be real, got dtype complex128"),
    (lambda tmp: DensityMatrix(2, [["0.5", "0"], ["0", "0.5"]]),
     "state must be numeric, got dtype <U3"),
    (lambda tmp: Povm(2, [[[1, 0], [0, 1]], [[0, None], [0, 0]]]),
     "elements must be numeric, got dtype object"),
    (lambda tmp: MeasurementDataset(**{**_RECORD, "y_hat": [["0.4", "0.5"], ["0.3", "0.6"]]}),
     "y_hat must be numeric, got dtype <U3"),
    (lambda tmp: MeasurementDataset(**{**_RECORD, "x01_bar": "0.1"}),
     "x01_bar must be numeric, got dtype <U3"),
    (lambda tmp: DatasetStack(np.array([_RECORD["y_hat"]]) * 1j, [[0.7, 0.7]], [[0.7, 0.7]],
                              [0.1], 10, [True, True]),
     "y_hat must be real, got dtype complex128"),
    (lambda tmp: MeasurementDataset(**{**_RECORD, "c_j0_hat": [0.7e200, 0.7e200]}),
     f"c_j0_hat {_BEYOND}"),
    (lambda tmp: MeasurementDataset(**{**_RECORD, "x_a0_hat": [0.7, 0.7e200]}),
     f"x_a0_hat {_BEYOND}"),
    (lambda tmp: MeasurementDataset(**{**_RECORD, "x01_bar": -1e200}), f"x01_bar {_BEYOND}"),
    (lambda tmp: DatasetStack(np.array([_RECORD["y_hat"]] * 2), [[0.7, 0.7]] * 2,
                              [[0.7, 0.7], [0.7, 0.7e200]], [0.1, 0.1], 10, [True, True]),
     f"c_j0_hat {_BEYOND}"),
    (lambda tmp: sample_frequencies(["0.5", "0.5"], 10, 0),
     "probabilities must be numeric, got dtype <U3"),
    (lambda tmp: sample_frequencies([0.5, 0.5], 10, "x"), "seed must be a whole number, got 'x'"),
    (lambda tmp: k_coefficients([[np.nan, 0.0], [0.0, 1.0]]), "matrix has a non-finite entry"),
    (lambda tmp: nearest_kronecker(np.full(4, np.nan), 2, 2), "vector has a non-finite entry"),
    (lambda tmp: rearrange(np.ones(4), "2", 2), "rows must be a whole number, got '2'"),
    (lambda tmp: fix_scale_v1(_complex_factors(), 0.5),
     "state factor must be real, got dtype complex128"),
    (lambda tmp: fix_scale_v1(np.ones(3), 0.5), "need a KroneckerFactorization, got ndarray"),
    (lambda tmp: combine_state_estimates([]), "need at least one state estimate, got shape (0,)"),
    (lambda tmp: correct_state(np.ones((2, 3))), "state estimate must be square, got shape (2, 3)"),
    (lambda tmp: project_pure(np.ones(3)), "state must be square, got shape (3,)"),
    (lambda tmp: numerical_rank(np.full((2, 2), np.inf)), "matrix has a non-finite entry"),
    (lambda tmp: pauli_sandwich_processes(np.zeros((2, 3)), pauli("x"), 0.1),
     "V1 must be square, got shape (2, 3)"),
    (lambda tmp: correct_state(_HUGE_FULL), f"state estimate {_BEYOND}"),
    (lambda tmp: correct_state(_HUGE_DIAGONAL), f"state estimate {_BEYOND}"),
    (lambda tmp: k_coefficients(_HUGE_FULL), f"matrix {_BEYOND}"),
    (lambda tmp: k_coefficients(_HUGE_DIAGONAL), f"matrix {_BEYOND}"),
    (lambda tmp: combine_state_estimates([_HUGE_FULL] * 2), f"state estimate {_BEYOND}"),
    (lambda tmp: combine_state_estimates([_HUGE_DIAGONAL] * 2), f"state estimate {_BEYOND}"),
    (lambda tmp: transfer_matrix(_HADAMARD, _tilted_basis()), _RESIDUE),
    (lambda tmp: build_regression_matrices(ProcessEnsemble((_HADAMARD,)),
                                           _tilted_basis()).b, _RESIDUE),
    (lambda tmp: transfer_matrix(KrausChannel(2, np.eye(2)[None]), build_basis(3)),
     "dimension mismatch: channel 2, basis 3"),
    (lambda tmp: hamiltonian_generator(np.diag([1.0, -1.0, 0.0]), build_basis(2)),
     "Hamiltonian must be a 2 x 2 matrix for this basis, got shape (3, 3)"),
    (lambda tmp: amplitude_damping(1.5), "damping rate must be in [0, 1], got 1.5"),
    (lambda tmp: pauli_sandwich_processes(np.diag([1, 1j]), pauli("x"), 0.1),
     "V1 must be Hermitian"),
    (lambda tmp: stage1_solve(np.eye(3), np.ones(2), Stage1Config()),
     "target length 2 does not match 3 rows"),
    (lambda tmp: correct_state(np.eye(2)), "state estimate has trace 2, expected 1"),
    (lambda tmp: estimate_joint_v2(_raw_error_inputs()[2], np.ones((5, 15)), Stage1Config()),
     "superoperator matrix has 15 columns, not a fourth power"),
    (lambda tmp: DensityMatrix(2, np.eye(3) / 3), "state must be 2x2, got (3, 3)"),
    (lambda tmp: Povm(2, np.stack([np.eye(3) / 2] * 2)),
     "elements must have shape (M, 2, 2), got (2, 3, 3)"),
    (lambda tmp: fit_loglog_slope(_mse_table([1.0, float("nan"), 0.01])),
     "table contains MSE values that are not positive and finite"),
    (lambda tmp: fit_loglog_slope(_mse_table([1.0, 0.0, 0.01])),
     "table contains MSE values that are not positive and finite"),
    (lambda tmp: load_dataset(_FD), _NOT_A_PATH + "int"),
    (lambda tmp: save_dataset(MeasurementDataset(**_RECORD), bytes(tmp / "ds.json")),
     _NOT_A_PATH + "bytes"),
    (lambda tmp: load_sos_problem(_FD), _NOT_A_PATH + "int"),
    (lambda tmp: SosProblem(1, 1, ("x",), {(1,): 1.0}).write(_FD), _NOT_A_PATH + "int"),
    (lambda tmp: _mse_table([1.0, 0.1, 0.01]).to_csv(_FD), _NOT_A_PATH + "int"),
    (lambda tmp: _mse_table([1.0, 0.1, 0.01]).write_metadata(bytes(tmp / "m.json")),
     _NOT_A_PATH + "bytes"),
    (lambda tmp: amplitude_damping([[1, 2], [3]]),
     "damping rate must be a real number, got [[1, 2], [3]]"),
], ids=["scale-fraction", "scale-bool", "scale-string", "ideal-scale-fraction",
        "reg-scale-string", "reg-scale-complex", "reg-scale-bool", "v1-object-design",
        "v2-object-design", "refine-object-design", "factor-object-design",
        "export-object-design", "export-pure-object-design", "stage1-string-targets",
        "stage1-3d-targets", "scale-fix-anchor-outside", "stage1-nan-targets",
        "factor-ragged-design", "to-coords-huge-skew", "from-coords-complex",
        "physical-set-complex", "state-strings", "povm-object", "dataset-string-frequencies",
        "dataset-string-x01", "stack-complex-frequencies", "dataset-huge-c_j0",
        "dataset-huge-x_a0", "dataset-huge-x01", "stack-huge-c_j0", "sample-string-probabilities",
        "sample-string-seed", "k-coefficients-nan", "kronecker-nan", "rearrange-string-rows",
        "scale-fix-complex-factor", "scale-fix-not-a-factorization", "combine-empty",
        "correct-state-not-square", "project-pure-vector", "rank-inf", "sandwich-2x3",
        "correct-state-huge", "correct-state-huge-diagonal", "k-coefficients-huge",
        "k-coefficients-huge-diagonal", "combine-huge", "combine-huge-diagonal",
        "transfer-basis-residue", "regression-basis-residue", "transfer-dimension",
        "generator-shape", "damping-range", "sandwich-not-hermitian",
        "stage1-target-length", "correct-state-trace", "v2-columns", "state-shape",
        "povm-shape", "fit-nan-mse", "fit-zero-mse", "load-int-path", "save-bytes-path",
        "sos-load-int-path", "sos-write-int-path", "csv-int-path", "metadata-bytes-path",
        "damping-ragged"])
def test_library_inputs_are_refused_with_validation_errors(tmp_path, call, message):
    with pytest.raises(ValidationError) as err:
        call(tmp_path)
    assert str(err.value) == message


def test_numeric_inputs_of_every_kind_stay_accepted():
    for dtype in (bool, int, float, complex):
        assert factor_design(np.eye(3, dtype=dtype)).rank == 3
    for value in (1, 0.5, np.float64(2.0), 0):
        assert Stage1Config("tikhonov", reg_scale=value).reg_scale is value
    assert _simulate(1.0).anchor_index == 1
