import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtomo import (
    DatasetStack,
    DegeneracyError,
    DensityMatrix,
    KrausChannel,
    MeasurementDataset,
    OperatorBasis,
    Povm,
    ProcessEnsemble,
    Stage1Config,
    ValidationError,
    build_basis,
    build_regression_matrices,
    build_targets_v1,
    coherence_to_state,
    correct_povm,
    correct_state,
    estimate_joint_v1,
    export_sos_problem,
    factor_design,
    from_coords,
    haar_unitary,
    in_physical_set,
    k_coefficients,
    load_sos_problem,
    povm_membership,
    preset,
    random_density_matrix,
    refine_alternating,
    simulate_dataset,
    to_coords,
    vectorize,
)
from jointtomo.basis import _from_coords, _to_coords
from jointtomo.channels import FactoredDesign
from jointtomo.estimator import _clip_negative, _nearest_density
from jointtomo.refine import (
    _ball,
    _clipped,
    _detector_normal_equations,
    _in_ball,
    _min_norm_solve,
    _on_simplex,
    _outside,
    _packing,
    _projected,
    _state_normal_equations,
)
from jointtomo.serialize import result_to_json
from jointtomo.sos import poly_eval


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_k_coefficients_simple_cases():
    cert = k_coefficients(np.eye(2) / 2)
    assert np.allclose(cert.k, [1.0, 1.0, 0.25])
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        cert = k_coefficients(np.outer(psi, psi.conj()))
        assert abs(cert.k[1] - 1.0) < 1e-12
        assert np.max(np.abs(cert.k[2:])) < 1e-12
    with pytest.raises(ValidationError):
        k_coefficients(np.array([[0, 1], [0, 0]]))


def test_k2_is_bloch_ball_for_qubits():
    basis = build_basis(2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.normal(size=3) * 0.4
        k2 = k_coefficients(coherence_to_state(x, basis)).k[2]
        assert (k2 >= 0) == (np.dot(x, x) <= 0.5 + 1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_k_matches_characteristic_polynomial(d):
    # oracle: numpy characteristic polynomial of the eigenvalues
    rng = np.random.default_rng(1 + d)
    for _ in range(100):
        rho = random_hermitian(rng, d)
        cert = k_coefficients(rho)
        coeffs = np.poly(np.linalg.eigvalsh(rho))  # det(tI - rho) coefficients
        expected = np.array([(-1.0) ** p * coeffs[p] for p in range(d + 1)])
        assert np.max(np.abs(cert.k - expected)) < 1e-10


def test_k_coefficients_of_large_matrices_are_scaled_not_overflowed():
    """Past d = 9 the powers of a matrix near the magnitude bound overflow;
    the recursion runs on the matrix scaled to entries <= 1 instead, and a
    coefficient beyond the float range is refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (np.full((10, 10), 1e30), np.full((12, 12), 1e30), np.diag(np.full(10, 1e30))):
            k = k_coefficients(big).k
            assert np.isfinite(k).all() and k[1] == pytest.approx(np.trace(big))
        assert k[-1] == pytest.approx(1e300)  # the product of the ten eigenvalues
        with pytest.raises(ValidationError, match="beyond the float range"):
            k_coefficients(np.diag(np.full(12, 1e30)))  # 1e360
        # Scaled, the recursion still gives the characteristic polynomial.
        rng = np.random.default_rng(20)
        for _ in range(20):
            rho = random_hermitian(rng, 10)
            rho *= 1e3 / np.abs(rho).max()
            coeffs = np.poly(np.linalg.eigvalsh(rho))
            expected = np.array([(-1.0) ** p * coeffs[p] for p in range(11)])
            assert np.all(np.abs(k_coefficients(rho).k - expected) <= 1e-9 * np.abs(expected))


def test_in_physical_set_cases():
    basis = build_basis(2)
    assert in_physical_set(np.zeros(3), basis)
    assert not in_physical_set(np.array([0.8, 0.0, 0.0]), basis)
    # boundary state in d=3: one zero eigenvalue makes k_3 vanish
    basis3 = build_basis(3)
    rng = np.random.default_rng(2)
    u = haar_unitary(3, rng)
    rho = (u * np.array([0.6, 0.4, 0.0])) @ u.conj().T
    x = to_coords(rho, basis3)[1:]
    assert in_physical_set(x, basis3)
    assert abs(k_coefficients(coherence_to_state(x, basis3)).k[3]) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_membership_agrees_with_eigenvalue_test(d):
    basis = build_basis(d)
    rng = np.random.default_rng(3 + d)
    agree = 0
    for _ in range(1000):
        x = rng.normal(size=d * d - 1) * rng.uniform(0.05, 0.8)
        member = in_physical_set(x, basis)
        eig_ok = np.linalg.eigvalsh(coherence_to_state(x, basis))[0] >= -1e-9
        agree += member == eig_ok
    assert agree == 1000


def test_povm_membership():
    basis = build_basis(2)
    c = to_coords(np.eye(2) / 3, basis)
    assert povm_membership(c[0], c[1:], basis)
    bad = to_coords(np.diag([0.5, -0.05]).astype(complex), basis)
    assert not povm_membership(bad[0], bad[1:], basis)
    assert povm_membership(0.0, np.zeros(3), basis)
    assert not povm_membership(0.0, np.array([0.2, 0.0, 0.0]), basis)


def _incomplete_setup():
    sc = preset("one_qubit_closed_incomplete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    return sc, reg


def test_refine_fixed_point_at_truth():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=0,
                          exact=True, basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis)
    out = refine_alternating(ds, reg.b, sc.basis, init, iters=20)
    assert np.linalg.norm(out.rho_hat.rho - init.rho_hat.rho) < 1e-7
    assert np.max(np.abs(out.povm_hat.elements - init.povm_hat.elements)) < 1e-7
    assert out.diagnostics["final_objective"] < 1e-15
    # The rough pair is physical here, so correcting it leaves the objective.
    scale = np.linalg.norm(build_targets_v1(ds, sc.basis)) ** 2
    assert (abs(out.diagnostics["corrected_objective"] - out.diagnostics["final_objective"])
            <= 1e-20 * scale)


def test_refine_objective_monotone():
    cases = [
        ("one_qubit_closed_incomplete", "mp_inverse", 10, 60),
        ("one_qubit_closed_complete", "plain_ls", 4, 40),
        ("two_qubit_mixed_unitary_incomplete", "mp_inverse", 2, 15),
    ]
    for name, method, seeds, iters in cases:
        sc = preset(name)
        reg = build_regression_matrices(sc.ensemble, sc.basis)
        for t in range(seeds):
            ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4,
                                  seed=np.random.SeedSequence([4, t]), basis=sc.basis)
            init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method=method))
            out = refine_alternating(ds, reg.b, sc.basis, init, iters=iters)
            tr = out.diagnostics["objective_trajectory"]
            assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))
            assert (out.diagnostics["final_objective"]
                    <= out.diagnostics["initial_objective"] + 1e-12)


def test_refine_beats_mp_inverse_on_incomplete_data():
    sc, reg = _incomplete_setup()
    wins = 0
    for t in range(50):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 5,
                              seed=np.random.SeedSequence([5, t]), basis=sc.basis)
        mp = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
        ref = refine_alternating(ds, reg.b, sc.basis, mp, iters=100)
        e_mp = (np.linalg.norm(mp.rho_hat.rho - sc.truth_state.rho) ** 2
                + np.sum(np.abs(mp.povm_hat.elements - sc.truth_povm.elements) ** 2))
        e_ref = (np.linalg.norm(ref.rho_hat.rho - sc.truth_state.rho) ** 2
                 + np.sum(np.abs(ref.povm_hat.elements - sc.truth_povm.elements) ** 2))
        wins += e_ref <= e_mp
    assert wins >= 40


def test_refine_outputs_physical():
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=6,
                          basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    out = refine_alternating(ds, reg.b, sc.basis, init, iters=40)
    assert np.linalg.eigvalsh(out.rho_hat.rho)[0] >= -1e-10
    assert np.linalg.norm(out.povm_hat.elements.sum(axis=0) - np.eye(2)) < 1e-10


def _kron_refine_reference(ds, b, basis, init, iters=100, rel_tol=1e-10):
    """The Kronecker-built sweep that the tensor form replaced, kept as the
    reference: the detector block solves the eliminated (L M) x n (M - 1)
    system, the state block stacks one ``b @ kron(I, c_j)`` per outcome, and
    the objective sums one ``b @ kron(x, c_j)`` residual per outcome."""
    def objective(x, cs):
        return float(sum(np.linalg.norm(y[:, j] - b @ np.kron(x, cs[j])) ** 2
                         for j in range(len(cs))))

    def project_povm(c0, c):
        p = from_coords(np.concatenate(([c0], c)), basis)
        vals, vecs = np.linalg.eigh(p)
        clipped = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
        return to_coords(clipped, basis)[1:]

    def project_state(x):
        rho = correct_state(coherence_to_state(x, basis)).rho
        return to_coords(rho, basis)[1:]

    n = basis.n_traceless
    y = build_targets_v1(ds, basis)
    x = to_coords(init.rho_hat.rho, basis)[1:]
    cs = [to_coords(p, basis)[1:] for p in init.povm_hat.elements]
    m = len(cs)
    anchor = ds.anchor_index - 1
    c0s = ds.c_j0_hat
    l = y.shape[0]
    obj = objective(x, cs)
    trajectory = [obj]
    rhs_all = np.concatenate([y[:, j] for j in range(m)])
    eye = np.eye(n)
    accepted, stop_reason = 0, "max_iters"
    for _ in range(iters):
        g = b @ np.kron(x[:, None], eye)
        a = np.zeros((l * m, n * (m - 1)))
        for j in range(m - 1):
            a[j * l:(j + 1) * l, j * n:(j + 1) * n] = g
        a[(m - 1) * l:, :] = -np.tile(g, (1, m - 1))
        u, *_ = np.linalg.lstsq(a, rhs_all, rcond=None)
        cs_new = [u[j * n:(j + 1) * n] for j in range(m - 1)]
        cs_new.append(-np.sum(cs_new, axis=0))
        cs_new = [project_povm(c0s[j], cs_new[j]) for j in range(m)]
        a_x = np.vstack([b @ np.kron(eye, c[:, None]) for c in cs_new])
        free = [i for i in range(n) if i != anchor]
        rhs = rhs_all - a_x[:, anchor] * ds.x01_bar
        sol, *_ = np.linalg.lstsq(a_x[:, free], rhs, rcond=None)
        x_new = np.empty(n)
        x_new[anchor] = ds.x01_bar
        x_new[free] = sol
        x_new = project_state(x_new)
        new_obj = objective(x_new, cs_new)
        if new_obj > obj * (1.0 + 1e-12) + 1e-15:
            stop_reason = "rejected"
            break
        x, cs = x_new, cs_new
        accepted += 1
        improved = obj - new_obj
        obj = new_obj
        trajectory.append(obj)
        if improved <= rel_tol * max(trajectory[0], 1e-300):
            stop_reason = "converged"
            break
    rho_bar = coherence_to_state(x, basis)
    povm_bar = from_coords(np.column_stack([c0s, np.stack(cs)]), basis)
    rho_hat, povm_hat = correct_state(rho_bar), correct_povm(povm_bar)
    return rho_hat, povm_hat, {"objective_trajectory": trajectory,
                               "sweeps_accepted": accepted, "stop_reason": stop_reason}


V1_PRESETS = ("one_qubit_closed_complete", "one_qubit_closed_incomplete",
              "two_qubit_mixed_unitary", "two_qubit_mixed_unitary_incomplete")


def _assert_matches_the_kronecker_sweep(ds, b, basis, init, iters):
    """``iters`` <= 2 sweeps, which run before any Anderson step, equal the
    Kronecker-built sweep: the sweep map itself."""
    out = refine_alternating(ds, b, basis, init, iters=iters)
    rho_ref, povm_ref, diag_ref = _kron_refine_reference(ds, b, basis, init, iters=iters)
    diag = out.diagnostics
    assert diag["sweeps_accepted"] == diag_ref["sweeps_accepted"]
    assert diag["stop_reason"] == diag_ref["stop_reason"]
    assert np.max(np.abs(out.rho_hat.rho - rho_ref.rho)) < 1e-12
    assert np.max(np.abs(out.povm_hat.elements - povm_ref.elements)) < 1e-12
    new, ref = np.array(diag["objective_trajectory"]), np.array(diag_ref["objective_trajectory"])
    assert np.all(np.abs(new - ref) <= 1e-10 * np.abs(ref))


@pytest.mark.parametrize("name", V1_PRESETS)
def test_tensor_form_matches_the_kronecker_sweep(name):
    sc = preset(name)
    b = build_regression_matrices(sc.ensemble, sc.basis).b
    for n0 in (10 ** 3, 10 ** 5):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                              seed=np.random.SeedSequence([12, n0]),
                              scale_observable=sc.anchor_index, basis=sc.basis)
        init = estimate_joint_v1(ds, b, sc.basis, sc.stage1)
        for iters in (1, 2):
            _assert_matches_the_kronecker_sweep(ds, b, sc.basis, init, iters)


def test_centred_solve_is_the_minimum_norm_eliminated_solution():
    rng = np.random.default_rng(13)
    l, n, m = 20, 6, 4
    g = rng.normal(size=(l, 3)) @ rng.normal(size=(3, n))  # rank 3 < n
    assert np.linalg.matrix_rank(g) == 3
    y = rng.normal(size=(l, m))
    c, *_ = np.linalg.lstsq(g, y - y.mean(axis=1, keepdims=True), rcond=None)
    # The eliminated system: unknowns c_1 .. c_{M-1}, and c_M = -sum of them.
    a = np.zeros((l * m, n * (m - 1)))
    for j in range(m - 1):
        a[j * l:(j + 1) * l, j * n:(j + 1) * n] = g
    a[(m - 1) * l:, :] = -np.tile(g, (1, m - 1))
    u, *_ = np.linalg.lstsq(a, y.T.ravel(), rcond=None)
    blocks = u.reshape(m - 1, n).T
    expected = np.column_stack([blocks, -blocks.sum(axis=1)])
    assert np.max(np.abs(c - expected)) < 1e-12
    assert np.max(np.abs(c.sum(axis=1))) < 1e-12


def test_min_norm_solve_matches_lstsq():
    rng = np.random.default_rng(17)
    a = rng.normal(size=(60, 8))
    t = rng.normal(size=(60, 3))
    expected, *_ = np.linalg.lstsq(a, t, rcond=None)
    got = _min_norm_solve(a.T @ a, a.T @ t, len(a))
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))
    # The rank-3 G of the centred-solve test: the same minimum-norm columns.
    rng = np.random.default_rng(13)
    l, n, m = 20, 6, 4
    g = rng.normal(size=(l, 3)) @ rng.normal(size=(3, n))
    y = rng.normal(size=(l, m))
    y_centred = y - y.mean(axis=1, keepdims=True)
    expected, *_ = np.linalg.lstsq(g, y_centred, rcond=None)
    got = _min_norm_solve(g.T @ g, g.T @ y_centred, l)
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))
    # An all-zero Gram (G = 0, a zero state) gives zeros, without a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _min_norm_solve(np.zeros((n, n)), np.zeros((n, m)), l)
    assert got.shape == (n, m) and not np.any(got)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("rank", [None, 5], ids=["full-rank", "rank-deficient"])
def test_moments_give_the_blocks_normal_equations(m, rank):
    """The state block's stacked normal equations, and the detector block's
    ``G^T G`` and ``G^T (Y - ybar)`` for ``G = x . B3``, from the design's
    packed moments."""
    rng = np.random.default_rng(19 + m)
    l, n = 40, 4
    b = (rng.normal(size=(l, n * n)) if rank is None
         else rng.normal(size=(l, rank)) @ rng.normal(size=(rank, n * n)))
    y = rng.normal(size=(l, m))
    c = rng.normal(size=(n, m))
    design = factor_design(b)
    # The stacked state matrix: one b @ kron(I, c_j) block per outcome.
    a_x = np.vstack([b @ np.kron(np.eye(n), c[:, [j]]) for j in range(m)])
    packed, rhs = _state_normal_equations(design.moments, (b.T @ y).reshape(n, -1), c)
    gram = packed[_packing(n)[1]]
    x = rng.normal(size=n)
    g = np.einsum("i,aik->ak", x, b.reshape(l, n, n))
    y_centred = y - y.mean(axis=1, keepdims=True)
    detector = _detector_normal_equations(design._detector_moments,
                                          (b.T @ y_centred).reshape(n, -1), x)
    for got, expected in ((gram, a_x.T @ a_x), (rhs, a_x.T @ y.T.ravel()),
                          (detector[0], g.T @ g), (detector[1], g.T @ y_centred)):
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _eigen_min_norm_solve(gram, rhs, rows):
    """The eigen-solve that ``_min_norm_solve`` falls back to: eigenvalues at
    or below ``max(rows, n) eps lam_max`` count as zero."""
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > max(rows, len(vals)) * np.finfo(float).eps * max(vals[-1], 0.0)
    kept = vecs[:, keep]
    return (kept / vals[keep]) @ (kept.T @ rhs)


@st.composite
def _tall_matrices(draw):
    """``(kind, A)``: ``A`` (rows x n) with singular values spread over a
    drawn condition number, from 1 to 10 (well-conditioned) or from 10 to
    1e14, or rank-deficient, zero, or with its Gram's smallest eigenvalue
    within a factor of 4 of the solve's cutoff."""
    kind = draw(st.sampled_from(["well-conditioned", "conditioned", "rank-deficient", "zero",
                                 "near-cutoff"]))
    n = draw(st.integers(2 if kind == "near-cutoff" else 1, 8))
    rows = draw(st.integers(n, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = np.linalg.qr(rng.normal(size=(rows, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    if kind.endswith("conditioned"):
        well = kind == "well-conditioned"
        log_cond = draw(st.floats(0.0, 1.0) if well else st.floats(1.0, 14.0))
        s = np.logspace(0.0, -log_cond, n)
    elif kind == "rank-deficient":
        s = np.concatenate((np.ones(draw(st.integers(0, n - 1))), np.zeros(n)))[:n]
    elif kind == "zero":
        s = np.zeros(n)
    else:
        s = np.ones(n)
        s[-1] = np.sqrt(max(rows, n) * np.finfo(float).eps * draw(st.floats(0.25, 4.0)))
    return kind, (u * s) @ v.T


def _solve_and_path(gram, rhs, rows):
    """``_min_norm_solve``'s solution, with RuntimeWarnings as errors, and
    whether it took the eigen-solve (one ``eigh``) rather than the direct
    solve.  The solution is None when that ``eigh`` does not converge, as on
    a Gram with an infinite entry."""
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(np.linalg, "eigh", counted)
        try:
            got = _min_norm_solve(gram, rhs, rows)
        except np.linalg.LinAlgError:
            assert calls == [1]
            return None, True
    assert calls in ([], [1])
    return got, bool(calls)


@settings(max_examples=150, deadline=None)
@given(_tall_matrices(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_min_norm_solve_matches_the_eigen_solve(case, m, seed):
    """Over drawn Grams, the solve matches the eigen-solve's minimum-norm
    solution; a well-conditioned Gram takes the direct path and a singular,
    zero or near-cutoff one the eigen-solve."""
    kind, a = case
    t = np.random.default_rng(seed).normal(size=(len(a), m))
    gram, rhs = a.T @ a, a.T @ t
    expected = _eigen_min_norm_solve(gram, rhs, len(a))
    got, eigen = _solve_and_path(gram, rhs, len(a))
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-10 * np.max(np.abs(expected),
                                                                          initial=0.0)
    if kind == "well-conditioned":
        assert not eigen
    elif kind != "conditioned":
        assert eigen


def test_min_norm_solve_certifies_only_well_conditioned_positive_grams():
    """The direct solve is kept only for a Gram that its certificate proves
    positive definite with no eigenvalue to cut; there it matches ``lstsq``
    to 1e-13, also on a Gram scaled to 1e300 (without an overflow warning).
    Every other Gram takes the eigen-solve: rank-deficient, near-singular
    (condition number 1e10), zero, non-finite, and symmetric indefinite,
    including one whose trace and inverse's trace are both positive."""
    rng = np.random.default_rng(23)
    a = rng.normal(size=(60, 8))
    t = rng.normal(size=(60, 3))
    expected, *_ = np.linalg.lstsq(a, t, rcond=None)
    for scale in (1.0, 1e300):
        got, eigen = _solve_and_path(scale * (a.T @ a), scale * (a.T @ t), len(a))
        assert not eigen
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    rank_deficient = rng.normal(size=(60, 3)) @ rng.normal(size=(3, 8))
    near_singular = (q * np.logspace(0.0, -5.0, 8)) @ q.T  # the Gram's condition is 1e10
    grams = {"rank-deficient": rank_deficient.T @ rank_deficient,
             "near-singular": near_singular.T @ near_singular,
             "zero": np.zeros((8, 8))}
    for name, gram in grams.items():
        got, eigen = _solve_and_path(gram, a.T @ t, len(a))
        assert eigen, name
        expected = _eigen_min_norm_solve(gram, a.T @ t, len(a))
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-10 * np.max(
            np.abs(expected), initial=0.0), name
    for bad in (np.nan, np.inf):
        for i, j in ((2, 5), (3, 3)):
            gram = a.T @ a
            gram[i, j] = gram[j, i] = bad
            assert _solve_and_path(gram, a.T @ t, len(a))[1], (bad, i, j)
    # Indefinite: eigenvalues (10, 10, 10, -20) give tr = 10 and
    # tr(inverse) = 0.25, a product of 2.5; and drawn spectra with one or
    # more negative eigenvalues.
    q4 = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    spectra = [np.array([10.0, 10.0, 10.0, -20.0])] + [
        np.concatenate((-10.0 ** rng.uniform(-6.0, 1.0, k), 10.0 ** rng.uniform(-1.0, 1.0, 4 - k)))
        for k in (1, 1, 2, 3)]
    for vals in spectra:
        gram = (q4 * vals) @ q4.T
        got, eigen = _solve_and_path(gram, rng.normal(size=(4, 2)), 60)
        assert eigen, vals


def test_moments_are_formed_once_per_design_record(monkeypatch):
    """The record's packed moments, their detector weighting and its rotated
    tensor layout are each formed once per design record, on the first
    refinement, and are read-only."""
    import jointtomo.channels as channels
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=16,
                          basis=sc.basis)
    config = Stage1Config(method="mp_inverse")
    formed = {"moments": [], "_detector_moments": [], "_rotated": []}
    for name, record in formed.items():
        cached = FactoredDesign.__dict__[name]

        def counted(design, form=cached.func, record=record):
            record.append(design)
            return form(design)

        monkeypatch.setattr(cached, "func", counted)
    monkeypatch.setattr(channels, "_memo", [])
    # Two refinements on one record.
    design = reg.design
    init = estimate_joint_v1(ds, design, sc.basis, config)
    first = refine_alternating(ds, design, sc.basis, init)
    second = refine_alternating(ds, design, sc.basis, init)
    assert formed == {"moments": [design], "_detector_moments": [design], "_rotated": [design]}
    assert first.diagnostics == second.diagnostics
    # Two on a raw matrix: both reach the memo entry the estimate made.
    b = np.array(reg.b)
    init = estimate_joint_v1(ds, b, sc.basis, config)
    for _ in range(2):
        refine_alternating(ds, b, sc.basis, init)
    (entry,) = channels._memo
    for name, record in formed.items():
        assert len(record) == 2 and record[1] is entry
        array = getattr(entry, name)
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    # The layouts hold the design: u^T G for G = x . B3 from the rotated
    # tensor, min(L, n^2) rows, and the packed moments' sizes (n(n+1)/2
    # square, 120 x 120 at d = 4).
    n = sc.basis.n_traceless
    x = np.random.default_rng(3).normal(size=n)
    b3 = entry.b.reshape(-1, n, n)
    rotated = (x @ entry._rotated).reshape(-1, n)
    assert rotated.shape == (min(entry.shape), n)
    assert np.allclose(rotated, entry.u.T @ np.einsum("i,aik->ak", x, b3), rtol=0.0, atol=1e-13)
    assert entry.moments.shape == (n * (n + 1) // 2,) * 2


@st.composite
def _hermitian_stacks(draw):
    """``(kind, A)``: one d x d Hermitian matrix or an ``(M, d, d)`` stack, d
    in {2, 3, 4}, each with a drawn spectrum on a drawn scale: positive
    definite, indefinite, with its smallest eigenvalue within 1e-9 of zero
    on either side, exactly singular positive semidefinite (a positive block
    padded with zero rows and columns, or zero), or with one NaN entry."""
    kind = draw(st.sampled_from(["definite", "indefinite", "near-zero", "singular", "nan"]))
    d = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.sampled_from([None, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(m or 1):
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        vals = scale * rng.uniform(0.1, 1.0, d)
        if kind == "indefinite" and (not mats or rng.random() < 0.5):
            vals[0] = -scale * 10.0 ** rng.uniform(-10.0, 0.0)
        elif kind == "near-zero":
            vals[0] = scale * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15.0, -9.0)
        k = d
        if kind == "singular":
            k = int(rng.integers(0, d))  # the rank
        q = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        a = np.zeros((d, d), dtype=complex)
        a[:k, :k] = (q * vals[:k]) @ q.conj().T
        mats.append((a + a.conj().T) / 2.0)
    a = np.stack(mats) if m else mats[0]
    if kind == "nan":
        i, j = rng.integers(0, d, size=2)
        a[..., i, j] = a[..., j, i] = np.nan
    return kind, a


def _gate(a, basis, ball):
    """Whether the stack ``a`` passes ``_outside``, with the inscribed-ball
    pre-gate or without it (every ball radius negative)."""
    rows = _to_coords(a, basis).reshape(-1, basis.d ** 2)
    radii = _ball(rows[:, 0], basis.d) if ball else [-1.0] * len(rows)
    return _outside(rows, radii, basis._real_embedding.reshape(len(basis.omegas), -1)) is None


@settings(max_examples=300, deadline=None)
@given(_hermitian_stacks(), st.booleans())
def test_positivity_gate_matches_the_smallest_eigenvalue(case, ball):
    """The gate turns away every stack with an eigenvalue below -1e-12 of its
    matrix's norm (or a NaN entry) and lets through every stack whose
    eigenvalues all lie above +1e-12 of their matrix's norm; on a matrix
    that is singular to roundoff it may say either, but must answer.  The
    same holds with the inscribed-ball pre-gate in front."""
    kind, a = case
    basis = build_basis(a.shape[-1])
    inside = _gate(a, basis, ball)
    assert isinstance(inside, bool)
    if kind == "nan":
        assert not inside
        return
    mats = a.reshape(-1, *a.shape[-2:])
    norms = np.linalg.norm(mats, axis=(-2, -1))
    smallest = np.linalg.eigvalsh(mats)[:, 0]
    if np.any(smallest < -1e-12 * norms):
        assert not inside
    elif np.all(smallest > 1e-12 * norms):
        assert inside


@st.composite
def _near_the_ball(draw):
    """``(d, A)``: a stack of Hermitian matrices ``r_0 / sqrt(d) I + T``
    with ``T`` traceless, its spectrum drawn or the extreme one
    ``(-(d - 1), 1, .., 1)`` (for which the ball is tight), its norm within
    a factor of 1.1 of the ball's radius on either side, ``r_0`` of either
    sign, on a drawn scale; or with one NaN entry."""
    d = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        r0 = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([1.0, 1.0, 1.0, -1.0])
        vals = (np.concatenate(([-(d - 1.0)], np.ones(d - 1))) if rng.random() < 0.5
                else rng.normal(size=d))
        vals -= vals.mean()
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        t = (q * vals) @ q.conj().T
        radius = abs(r0) * np.sqrt(d / (d - 1.0) - 1.0)  # ||r||^2 - r0^2 at the ball's edge
        t *= radius * rng.uniform(0.9, 1.1) / max(np.linalg.norm(t), 1e-300)
        mats.append(r0 / np.sqrt(d) * np.eye(d) + (t + t.conj().T) / 2.0)
    a = np.stack(mats)
    if draw(st.booleans()) and draw(st.booleans()):
        a[0, 0, 0] = np.nan
    return d, a


@settings(max_examples=300, deadline=None)
@given(_near_the_ball())
def test_ball_pre_gate_admits_only_positive_blocks(case):
    """The inscribed-ball test admits no stack with an eigenvalue below
    roundoff (-1e-12 of the matrix's norm), and no stack with a NaN entry."""
    d, a = case
    basis = build_basis(d)
    rows = _to_coords(a, basis)
    if not _in_ball(rows, _ball(rows[:, 0], d)):
        return
    assert np.isfinite(a).all()
    norms = np.linalg.norm(a, axis=(-2, -1))
    assert np.all(np.linalg.eigvalsh(a)[:, 0] >= -1e-12 * norms)


def test_ball_pre_gate_admits_the_inscribed_ball():
    """The maximally mixed state, the scaled identity and a state just inside
    the ball pass the pre-gate; a trace coordinate that is not positive
    never does."""
    for d in (2, 3, 4):
        basis = build_basis(d)
        state = np.eye(d) / d
        state[0, 1] = state[1, 0] = 0.999 / (d * np.sqrt(2.0 * (d - 1)))
        rows = _to_coords(np.stack([np.eye(d) / d, 3.0 * np.eye(d), state]), basis)
        assert _in_ball(rows, _ball(rows[:, 0], d))
        assert not _in_ball(-rows, _ball(-rows[:, 0], d))
        assert not _in_ball(0.0 * rows, _ball(0.0 * rows[:, 0], d))


@st.composite
def _hermitian_spectra(draw):
    """``(d, A)``: a stack of 1 to 3 Hermitian d x d matrices of norm about 1,
    d in {2, 3, 4}, each with eigenvalues drawn from a set of two values
    (so that some are degenerate) or drawn freely, of either sign."""
    d = draw(st.sampled_from([2, 3, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(draw(st.integers(1, 3))):
        vals = (rng.choice(rng.normal(size=2), size=d) if rng.random() < 0.5
                else rng.normal(size=d))
        q = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
        a = (q * vals) @ q.conj().T
        mats.append((a + a.conj().T) / 2.0)
    return d, np.stack(mats)


@settings(max_examples=200, deadline=None)
@given(_hermitian_spectra())
def test_embedding_projections_are_the_estimators_projections(case):
    """The projections taken on the real embedding give the coordinates of
    the estimator's complex kernels to 1e-13: the eigenvalue clip of
    ``_clip_negative``, and, on unit-trace matrices, ``_nearest_density``."""
    d, a = case
    basis = build_basis(d)
    embedding = basis._real_embedding.reshape(d * d, -1)

    def embedded(mats):
        return (_to_coords(mats, basis) @ embedding).reshape(len(mats), 2 * d, 2 * d)

    clipped = _projected(embedded(a), embedding, _clipped)
    assert np.max(np.abs(clipped - _to_coords(_clip_negative(a), basis))) <= 1e-13
    unit = a + ((1.0 - np.trace(a, axis1=-2, axis2=-1).real) / d)[:, None, None] * np.eye(d)
    nearest = _projected(embedded(unit), embedding, _on_simplex)
    assert np.max(np.abs(nearest - _to_coords(_nearest_density(unit), basis))) <= 1e-13


def test_projections_run_exactly_on_the_blocks_outside_their_sets(monkeypatch):
    """Each sweep's detector and state blocks are recorded as the positivity
    gate sees them; the clip and the density projection must see exactly the
    blocks the gate turns away, which include every block with a negative
    eigenvalue and no block whose smallest eigenvalue lies above roundoff."""
    import jointtomo.refine as refine
    sc = preset("two_qubit_mixed_unitary_incomplete")
    b = build_regression_matrices(sc.ensemble, sc.basis).b
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=2,
                          scale_observable=sc.anchor_index, basis=sc.basis)
    init = estimate_joint_v1(ds, b, sc.basis, sc.stage1)
    gated, seen = [], {_clipped: [], _on_simplex: []}

    def recorded_gate(rows, ball, embedding, gate=refine._outside):
        outside = gate(rows, ball, embedding)
        # the sweep rewrites its coordinate rows in place: keep a copy
        gated.append((_from_coords(rows.copy(), sc.basis), outside))
        return outside

    def recorded_projection(mats, embedding, spectrum, project=refine._projected):
        seen[spectrum].append(mats)
        return project(mats, embedding, spectrum)

    monkeypatch.setattr(refine, "_outside", recorded_gate)
    monkeypatch.setattr(refine, "_projected", recorded_projection)
    refine_alternating(ds, b, sc.basis, init)
    # The detector's blocks are its M = 3 elements, the state's one matrix.
    for count, spectrum in ((3, _clipped), (1, _on_simplex)):
        blocks = [(p, outside) for p, outside in gated if len(p) == count]
        outside = [mats for _, mats in blocks if mats is not None]
        # This draw has sweeps of every kind, so a gate that always or never
        # projects, or projects the wrong blocks, is caught.
        assert 0 < len(outside) < len(blocks)
        assert len(seen[spectrum]) == len(outside) and all(
            a is e for a, e in zip(seen[spectrum], outside))
        for p, mats in blocks:
            inside = mats is None
            if not inside:
                # the gate hands the projection the block's real embeddings
                embedding = sc.basis._real_embedding.reshape(len(sc.basis.omegas), -1)
                expected = (_to_coords(p, sc.basis) @ embedding).reshape(mats.shape)
                assert np.allclose(mats, expected, rtol=0.0, atol=1e-12)
            smallest = (np.linalg.eigvalsh(p)[:, 0] / np.linalg.norm(p, axis=(-2, -1))).min()
            if smallest < 0.0:
                assert not inside
            elif smallest > 1e-12:
                assert inside


def test_refine_makes_no_least_squares_call(monkeypatch):
    sc = preset("two_qubit_mixed_unitary_incomplete")
    b = build_regression_matrices(sc.ensemble, sc.basis).b
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 3, seed=18,
                          scale_observable=sc.anchor_index, basis=sc.basis)
    init = estimate_joint_v1(ds, b, sc.basis, sc.stage1)
    plain = refine_alternating(ds, b, sc.basis, init)
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    patched = refine_alternating(ds, b, sc.basis, init)
    assert calls == []
    assert patched.diagnostics["sweeps_accepted"] > 0
    assert np.array_equal(patched.rho_hat.rho, plain.rho_hat.rho)
    assert np.array_equal(patched.povm_hat.elements, plain.povm_hat.elements)
    assert patched.diagnostics == plain.diagnostics


def test_corrected_objective_is_the_objective_of_the_returned_pair():
    sc, reg = _incomplete_setup()
    moved = 0
    for seed in range(5):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=seed,
                              basis=sc.basis)
        init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
        result = refine_alternating(ds, reg.b, sc.basis, init)
        diag = result.diagnostics
        y = build_targets_v1(ds, sc.basis)
        x = to_coords(result.rho_hat.rho, sc.basis)[1:]
        direct = sum(
            np.linalg.norm(y[:, j] - reg.b @ np.kron(x, to_coords(p, sc.basis)[1:])) ** 2
            for j, p in enumerate(result.povm_hat.elements))
        assert abs(diag["corrected_objective"] - direct) <= 1e-10 * direct
        moved += diag["corrected_objective"] > diag["final_objective"] * (1 + 1e-6)
    # On at least one of these draws the correction moves the refined point.
    assert moved >= 1


def test_refine_reports_why_it_stopped():
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=14,
                          basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    capped = refine_alternating(ds, reg.b, sc.basis, init, iters=2, rel_tol=0.0)
    assert capped.diagnostics["stop_reason"] == "max_iters"
    assert capped.diagnostics["sweeps_accepted"] == 2
    none = refine_alternating(ds, reg.b, sc.basis, init, iters=0)
    assert none.diagnostics["stop_reason"] == "max_iters"
    assert none.diagnostics["objective_trajectory"] == [none.diagnostics["initial_objective"]]
    done = refine_alternating(ds, reg.b, sc.basis, init, rel_tol=1e-3)
    assert done.diagnostics["stop_reason"] == "converged"
    assert done.diagnostics["sweeps_accepted"] < 100
    # At 100 shots the projections undo the third sweep's gain on this draw.
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=0,
                          basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    undone = refine_alternating(ds, reg.b, sc.basis, init)
    assert undone.diagnostics["stop_reason"] == "rejected"
    assert undone.diagnostics["sweeps_accepted"] == 2
    assert _kron_refine_reference(ds, reg.b, sc.basis, init)[2]["stop_reason"] == "rejected"


def test_refine_converges_on_incomplete_data():
    """The plain sweep needs 1459 sweeps to reach this dataset's optimum
    (2.82595048e-5; a moment relaxation certifies 2.82595045e-5 as its
    global optimum).  The accelerated refinement stops converged there
    within its default 100."""
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 5, seed=1,
                          scale_observable=sc.anchor_index, basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, sc.stage1)
    diag = refine_alternating(ds, reg.b, sc.basis, init).diagnostics
    assert diag["stop_reason"] == "converged" and diag["sweeps_accepted"] <= 100
    *_, plain = _kron_refine_reference(ds, reg.b, sc.basis, init, iters=3000, rel_tol=1e-13)
    assert plain["stop_reason"] == "converged"
    optimum = plain["objective_trajectory"][-1]
    assert abs(diag["final_objective"] - optimum) <= 1e-6 * optimum


def test_sweeps_run_counts_every_sweep_evaluated():
    """``sweeps_run`` counts the accepted sweeps, a rejected last one, and
    every extrapolated sweep that was discarded; up to two sweeps no
    extrapolation runs.  It serializes as a plain int."""
    sc, reg = _incomplete_setup()
    discarded = 0
    for seed in range(1, 11):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=seed,
                              scale_observable=sc.anchor_index, basis=sc.basis)
        init = estimate_joint_v1(ds, reg.b, sc.basis, sc.stage1)
        for iters in (0, 1, 2, 100):
            result = refine_alternating(ds, reg.b, sc.basis, init, iters=iters)
            diag = result.diagnostics
            run, accepted = diag["sweeps_run"], diag["sweeps_accepted"]
            extra = run - accepted - (diag["stop_reason"] == "rejected")
            assert type(run) is int and extra >= 0
            if iters <= 2:
                assert extra == 0
            discarded += extra
    assert discarded > 0
    assert type(result_to_json(result)["diagnostics"]["sweeps_run"]) is int


def test_a_program_with_a_coefficient_that_is_not_real_is_refused(tmp_path):
    """A d = 3 basis whose traceless elements carry the phase 4.99e-10
    passes the basis check (Hermitian to 1e-9), but the state's ball
    inequality ``k_3`` then has a coefficient of 0.707 whose imaginary part
    is 1.06e-9, beyond the exporter's 1e-9 test: refused, and not written."""
    d = 3
    omegas = np.array(build_basis(d).omegas)
    omegas[1:] *= np.exp(4.99e-10j)
    basis = OperatorBasis(d, omegas)
    ens = ProcessEnsemble((KrausChannel(d, np.eye(d)[None]),))
    ds = simulate_dataset(ens, DensityMatrix(d, np.eye(d) / d),
                          Povm(d, np.stack([np.eye(d) / 2] * 2)), 100, seed=1,
                          basis=build_basis(d))
    path = tmp_path / "p.sos"
    with pytest.raises(ValidationError, match=r"^polynomial coefficient \(0\.70710678\d*\+1\.05\d*e-09j\) "
                                              r"is not real$"):
        export_sos_problem(ds, np.zeros((1, (d * d - 1) ** 2)), basis, path)
    assert not path.exists()


def test_designs_and_targets_beyond_the_magnitude_bound_are_refused(tmp_path):
    """A design whose Gram would overflow is refused where the refinement
    and the exporter form that Gram, targets beyond the bound are refused by
    the refinement, and a dataset with an anchor coordinate or a trace
    frequency beyond it by its own check, so every objective the refinement
    evaluates is finite."""
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=15,
                          basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    path = tmp_path / "p.sos"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e160, 1e300):
            with pytest.raises(ValidationError, match="regression matrix has an entry beyond"):
                refine_alternating(ds, reg.b * scale, sc.basis, init)
            with pytest.raises(ValidationError, match="regression matrix has an entry beyond"):
                export_sos_problem(ds, reg.b * scale, sc.basis, path)
            assert not path.exists()
        with pytest.raises(ValidationError, match="c_j0_hat has an entry beyond"):
            replace(ds, c_j0_hat=ds.c_j0_hat * 1e160)
        # in-bound fields whose product, the lossy background, is not
        huge = replace(ds, x_a0_hat=np.full(ds.n_processes, 1e20), c_j0_hat=ds.c_j0_hat * 1e20,
                       tp_flags=np.zeros(ds.n_processes, dtype=bool))
        with pytest.raises(ValidationError, match="targets has an entry beyond"):
            refine_alternating(huge, reg.b, sc.basis, init)
        for anchor in (1e160, -1e160):
            with pytest.raises(ValidationError, match="x01_bar has an entry beyond"):
                refine_alternating(replace(ds, x01_bar=anchor), reg.b, sc.basis, init)


def test_refine_validates_its_inputs():
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=15,
                          basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a complex design raises no ComplexWarning first
        for b in (reg.b[:-1], reg.b[:, :-1], reg.b * 1j, factor_design(reg.b * 1j),
                  reg.b.astype(complex)):
            with pytest.raises(ValidationError):
                refine_alternating(ds, b, sc.basis, init)
        # A non-finite design cannot be factored: a degeneracy, not a LinAlgError.
        for bad in (np.inf, np.nan):
            b = np.array(reg.b)
            b[0, 0] = bad
            with pytest.raises(DegeneracyError, match=r"^\[refine\]"):
                refine_alternating(ds, b, sc.basis, init)
    for kwargs in ({"iters": -1}, {"rel_tol": float("nan")}, {"rel_tol": -1e-10}):
        with pytest.raises(ValidationError):
            refine_alternating(ds, reg.b, sc.basis, init, **kwargs)
    raw = refine_alternating(ds, reg.b, sc.basis, init, iters=5)
    factored = refine_alternating(ds, factor_design(reg.b), sc.basis, init, iters=5)
    assert np.array_equal(raw.rho_hat.rho, factored.rho_hat.rho)
    assert raw.diagnostics == factored.diagnostics


@pytest.mark.parametrize("bad", [
    pytest.param(lambda ds, init: {"init": replace(init, povm_hat=Povm(2, np.stack(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)))}, id="two-outcome init"),
    pytest.param(lambda ds, init: {"iters": 2.5}, id="fractional iters"),
    pytest.param(lambda ds, init: {"iters": float("inf")}, id="infinite iters"),
    pytest.param(lambda ds, init: {"iters": True}, id="bool iters"),
    pytest.param(lambda ds, init: {"rel_tol": "a"}, id="non-numeric rel_tol"),
    pytest.param(lambda ds, init: {"rel_tol": float("inf")}, id="infinite rel_tol"),
    pytest.param(lambda ds, init: {"ds": ds.as_stack()}, id="dataset stack"),
    pytest.param(lambda ds, init: {"init": None}, id="missing init"),
])
def test_refine_refuses_malformed_arguments(bad):
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=15,
                          basis=sc.basis)
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    with pytest.raises(ValidationError):
        refine_alternating(**{"ds": ds, "b": reg.b, "basis": sc.basis, "init": init,
                              **bad(ds, init)})


def _truth_values(sc):
    x = to_coords(sc.truth_state.rho, sc.basis)[1:]
    cs = [to_coords(p, sc.basis)[1:] for p in sc.truth_povm.elements]
    return np.concatenate([x] + cs)


def test_export_objective_fidelity(tmp_path):
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=7,
                          basis=sc.basis)
    path = tmp_path / "problem.sos"
    prob = export_sos_problem(ds, reg.b, sc.basis, path)
    vals = _truth_values(sc)
    y = build_targets_v1(ds, sc.basis)
    x = to_coords(sc.truth_state.rho, sc.basis)[1:]
    direct = sum(
        np.linalg.norm(y[:, j] - reg.b @ np.kron(x, to_coords(p, sc.basis)[1:])) ** 2
        for j, p in enumerate(sc.truth_povm.elements)
    )
    assert abs(prob.evaluate_objective(vals) - direct) < 1e-10
    # the written file carries the same polynomials
    loaded = load_sos_problem(path)
    assert abs(loaded.evaluate_objective(vals) - direct) < 1e-10
    assert loaded.variables == prob.variables
    header = path.read_text().splitlines()[:6]
    assert any("-gamma" in line for line in header)


def test_export_qubit_constraint_set(tmp_path):
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=8,
                          basis=sc.basis)
    prob = export_sos_problem(ds, reg.b, sc.basis, tmp_path / "p.sos")
    names = [n for n, _ in prob.inequalities]
    assert names == ["state_ball_p2", "povm1_ball_p2", "povm2_ball_p2", "povm3_ball_p2"]
    polys = dict(prob.inequalities)
    nv = len(prob.variables)
    ball = polys["state_ball_p2"]
    assert ball[(0,) * nv] == pytest.approx(0.5)
    for i in range(3):
        key = tuple(2 if k == i else 0 for k in range(nv))
        assert ball[key] == pytest.approx(-1.0)
    assert len(ball) == 4
    for j in range(3):
        pball = polys[f"povm{j + 1}_ball_p2"]
        assert pball[(0,) * nv] == pytest.approx(ds.c_j0_hat[j] ** 2)
        for k in range(3):
            key = tuple(2 if i == 3 + 3 * j + k else 0 for i in range(nv))
            assert pball[key] == pytest.approx(-1.0)
    # completeness equalities plus the pinned anchor
    eq_names = [n for n, _ in prob.equalities]
    assert eq_names == ["completeness_1", "completeness_2", "completeness_3", "anchor"]
    anchor = dict(prob.equalities)["anchor"]
    assert anchor[(0,) * nv] == pytest.approx(-ds.x01_bar)


def test_export_trivial_dataset_gives_pure_quadratic(tmp_path):
    # zero targets with an identity regression matrix: the objective reduces to
    # sum_j ||x kron C_j||^2
    basis = build_basis(2)
    c0 = np.full(2, np.sqrt(2) / 2)
    y = np.tile(c0 / np.sqrt(2), (9, 1))
    ds = MeasurementDataset(y_hat=y, x_a0_hat=np.full(9, 1 / np.sqrt(2)), c_j0_hat=c0,
                            x01_bar=0.1, n0=10, tp_flags=np.ones(9, dtype=bool))
    prob = export_sos_problem(ds, np.eye(9), basis, tmp_path / "t.sos")
    rng = np.random.default_rng(9)
    for _ in range(5):
        vals = rng.normal(size=9)
        x, c1, c2 = vals[:3], vals[3:6], vals[6:9]
        expected = np.sum(np.kron(x, c1) ** 2) + np.sum(np.kron(x, c2) ** 2)
        assert abs(prob.evaluate_objective(vals) - expected) < 1e-10


def test_export_pure_mode(tmp_path):
    sc = preset("one_qubit_random_pure")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=10,
                          basis=sc.basis)
    with pytest.raises(ValidationError):
        export_sos_problem(ds, reg.b, sc.basis, tmp_path / "x.sos", pure=True)
    prob = export_sos_problem(ds, reg.b_natural, sc.basis, tmp_path / "pure.sos", pure=True)
    eq_names = [n for n, _ in prob.equalities]
    assert "state_unit_norm" in eq_names
    assert not any(n.startswith("state") for n, _ in prob.inequalities)
    # objective at the truth equals the raw natural-basis residual
    psi = np.linalg.eigh(sc.truth_state.rho)[1][:, -1]
    vals = np.concatenate([psi.real, psi.imag, *to_coords(sc.truth_povm.elements, sc.basis)])
    from jointtomo import vectorize
    direct = sum(
        np.linalg.norm(ds.y_hat[:, j] - reg.b_natural
                       @ np.kron(vectorize(sc.truth_state.rho), vectorize(p.T))) ** 2
        for j, p in enumerate(sc.truth_povm.elements)
    )
    assert abs(prob.evaluate_objective(vals) - direct) < 1e-10
    # unit-norm equality vanishes at the truth amplitudes
    norm_poly = dict(prob.equalities)["state_unit_norm"]
    assert abs(poly_eval(norm_poly, vals)) < 1e-12


def test_export_dimension_guard(tmp_path):
    sc = preset("two_qubit_mixed_unitary_incomplete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 100, seed=11,
                          basis=sc.basis)
    with pytest.raises(ValidationError):
        export_sos_problem(ds, reg.b, sc.basis, tmp_path / "big.sos")


@pytest.mark.parametrize("pure", [False, True], ids=["coordinate", "pure"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_export_refuses_a_non_finite_design(tmp_path, pure, bad):
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 3, seed=12,
                          basis=sc.basis)
    b = np.array(reg.b_natural if pure else reg.b)
    b[0, 0] = bad
    path = tmp_path / "bad.sos"
    with pytest.raises(ValidationError, match="non-finite"):
        export_sos_problem(ds, b, sc.basis, path, pure=pure)
    assert not path.exists()


def test_export_refuses_a_complex_coordinate_design(tmp_path):
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 3, seed=12,
                          basis=sc.basis)
    path = tmp_path / "complex.sos"
    for b in (reg.b * 1j, reg.b.astype(complex)):
        with pytest.raises(ValidationError, match="must be real"):
            export_sos_problem(ds, b, sc.basis, path)
    assert not path.exists()


@pytest.mark.parametrize("pure", [False, True], ids=["coordinate", "pure"])
def test_export_takes_a_measurement_dataset_only(tmp_path, pure):
    sc = preset("one_qubit_random_pure" if pure else "one_qubit_closed_incomplete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 3, seed=12,
                          basis=sc.basis)
    path = tmp_path / "stack.sos"
    for bad in (ds.as_stack(), DatasetStack.of([ds, ds]), {"y_hat": ds.y_hat}):
        with pytest.raises(ValidationError, match="need a MeasurementDataset"):
            export_sos_problem(bad, reg.b_natural if pure else reg.b, sc.basis, path, pure=pure)
    assert not path.exists()


@pytest.mark.parametrize("pure", [False, True], ids=["coordinate", "pure"])
def test_export_takes_a_factored_design(tmp_path, pure):
    sc = preset("one_qubit_random_pure" if pure else "one_qubit_closed_incomplete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 3, seed=12,
                          basis=sc.basis)
    raw = export_sos_problem(ds, reg.b_natural if pure else reg.b, sc.basis,
                             tmp_path / "raw.sos", pure=pure)
    factored = export_sos_problem(ds, reg.design_natural if pure else reg.design, sc.basis,
                                  tmp_path / "factored.sos", pure=pure)
    assert factored == raw
    assert (tmp_path / "factored.sos").read_text() == (tmp_path / "raw.sos").read_text()


def _qutrit_setup(seed=5, n_channels=12):
    """A d=3 ensemble of Haar-random unitary channels with a random truth."""
    rng = np.random.default_rng(seed)
    basis = build_basis(3)
    ens = ProcessEnsemble(tuple(KrausChannel(3, haar_unitary(3, rng)[None])
                                for _ in range(n_channels)))
    u = haar_unitary(3, rng)
    povm = Povm(3, np.stack([np.outer(u[:, k], u[:, k].conj()) for k in range(3)]))
    state = random_density_matrix(3, rng)
    ds = simulate_dataset(ens, state, povm, 10 ** 4, seed=seed, basis=basis)
    return ens, basis, ds


@pytest.mark.parametrize("case", ["qubit", "qubit_pure", "qutrit"])
def test_export_objective_matches_the_residual_at_random_points(tmp_path, case):
    if case == "qutrit":
        ens, basis, ds = _qutrit_setup()
    else:
        sc = preset("one_qubit_random_pure" if case == "qubit_pure"
                    else "one_qubit_closed_complete")
        ens, basis = sc.ensemble, sc.basis
        ds = simulate_dataset(ens, sc.truth_state, sc.truth_povm, 10 ** 4, seed=12,
                              basis=basis)
    reg = build_regression_matrices(ens, basis)
    pure = case == "qubit_pure"
    b = reg.b_natural if pure else reg.b
    prob = export_sos_problem(ds, b, basis, tmp_path / "p.sos", pure=pure)
    d, n, m = basis.d, basis.n_traceless, ds.n_outcomes
    rng = np.random.default_rng(13)
    for _ in range(5):
        vals = rng.normal(size=len(prob.variables)) * 0.5
        if pure:
            psi = vals[:d] + 1j * vals[d:2 * d]
            rho = np.outer(psi, psi.conj())
            cs = vals[2 * d:].reshape(m, d * d)
            z = [np.kron(vectorize(rho), vectorize(np.tensordot(c, basis.omegas, 1).T))
                 for c in cs]
            y = ds.y_hat
        else:
            cs = vals[n:].reshape(m, n)
            z = [np.kron(vals[:n], c) for c in cs]
            y = build_targets_v1(ds, basis)
        direct = sum(np.linalg.norm(y[:, j] - b @ z[j]) ** 2 for j in range(m))
        assert abs(prob.evaluate_objective(vals) - direct) <= 1e-10 * direct
    if case == "qutrit":
        # the state positivity polynomials hold inside the state set
        x = to_coords(random_density_matrix(3, rng).rho, basis)[1:]
        vals = np.concatenate([x, rng.normal(size=n * m)])
        balls = dict(prob.inequalities)
        for p in (2, 3):
            assert poly_eval(balls[f"state_ball_p{p}"], vals) >= 0.0


def test_export_objective_is_the_refined_objective(tmp_path):
    sc, reg = _incomplete_setup()
    for seed in range(5):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=seed,
                              basis=sc.basis)
        init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
        result = refine_alternating(ds, reg.b, sc.basis, init)
        prob = export_sos_problem(ds, reg.b, sc.basis, tmp_path / f"p{seed}.sos")
        vals = np.concatenate([to_coords(result.rho_bar, sc.basis)[1:]]
                              + [to_coords(p, sc.basis)[1:] for p in result.povm_bar])
        final = result.diagnostics["final_objective"]
        assert abs(prob.evaluate_objective(vals) - final) <= 1e-10 * final


@pytest.mark.parametrize("text", [
    "dim 2\nM 2\nvars a\nEQ e\n1.0 1\n",  # no OBJECTIVE section
    "dim 2\nM 2\nvars a\n1.0 1\nOBJECTIVE\n1.0 0\n",  # coefficient before any section
    "dim 2\nM 2\nvars a\nOBJECTIVE\nabc 1\n",  # non-numeric coefficient
    "dim two\nM 2\nvars a\nOBJECTIVE\n1.0 0\n",  # non-numeric dim
    "OBJECTIVE\n1.0\n",  # no headers
    "dim 2\nM 2\nvars a b\nOBJECTIVE\n1.0 1\n",  # one exponent for two variables
])
def test_malformed_program_file_is_refused(tmp_path, text):
    path = tmp_path / "bad.sos"
    path.write_text(text)
    with pytest.raises(ValidationError) as excinfo:
        load_sos_problem(path)
    assert str(path) in str(excinfo.value)


def test_tensor_form_matches_when_targets_do_not_sum_to_zero():
    # Frequencies summing to 1 with measured trace components summing to
    # sqrt(d) make the targets of every process sum to 0 over the outcomes,
    # so the centring is then a no-op; a lossy detector breaks that.
    sc, reg = _incomplete_setup()
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=16,
                          basis=sc.basis)
    ds = replace(ds, y_hat=ds.y_hat * np.linspace(0.9, 0.97, ds.n_processes)[:, None])
    assert np.min(np.abs(build_targets_v1(ds, sc.basis).sum(axis=1))) > 1e-2
    init = estimate_joint_v1(ds, reg.b, sc.basis, Stage1Config(method="mp_inverse"))
    for iters in (1, 2):
        _assert_matches_the_kronecker_sweep(ds, reg.b, sc.basis, init, iters)
