"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.  Monte-Carlo criteria use fixed
seeds, so the whole suite is deterministic.
"""

import time

import numpy as np
import pytest

from jointtomo import (
    KrausChannel,
    ProcessEnsemble,
    Stage1Config,
    build_basis,
    build_regression_matrices,
    build_targets_v1,
    change_of_basis,
    coherence_to_state,
    correct_povm,
    correct_state,
    discretize_hamiltonian,
    estimate_joint_v1,
    estimate_joint_v2,
    export_sos_problem,
    fit_loglog_slope,
    haar_unitary,
    hamiltonian_generator,
    in_physical_set,
    k_coefficients,
    make_named_channel,
    nearest_kronecker,
    numerical_rank,
    preset,
    project_pure,
    rearrange,
    run_method_comparison,
    run_mse_experiment,
    simulate_dataset,
    to_coords,
    vectorize,
)
from jointtomo.bench import MseRow, MseTable

GRID = [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6]


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_complete_scenario_mse_scaling():
    t0 = time.time()
    sc = preset("one_qubit_closed_complete")
    table = run_mse_experiment(sc, GRID, trials=50, seed=0)
    s_state, _, r2_state = fit_loglog_slope(table, "mse_state")
    s_povm, _, r2_povm = fit_loglog_slope(table, "mse_povm")
    elapsed = time.time() - t0
    ok = (-1.2 <= s_state <= -0.8 and -1.2 <= s_povm <= -0.8
          and r2_state > 0.95 and r2_povm > 0.95
          and table.failures == 0 and elapsed < 120.0)
    ok = ok and np.all(np.diff(table.column("mse_state")) < 0)
    report(1, ok, f"state slope {s_state:.3f} (r2 {r2_state:.3f}), "
                  f"detector slope {s_povm:.3f} (r2 {r2_povm:.3f}), {elapsed:.1f} s")


def test_criterion_02_pipeline_exactness():
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000, seed=0,
                          exact=True, basis=sc.basis)
    res = estimate_joint_v1(ds, reg.b, sc.basis)
    err_state = np.linalg.norm(res.rho_bar - sc.truth_state.rho)
    err_povm = float(np.sum([np.linalg.norm(p - q) for p, q
                             in zip(res.povm_bar, sc.truth_povm.elements)]))
    ok = err_state < 1e-7 and err_povm < 1e-7
    report(2, ok, f"noiseless pre-correction errors: state {err_state:.2e}, "
                  f"detector {err_povm:.2e}")


def test_criterion_03_incomplete_scenario_regularization():
    sc = preset("one_qubit_closed_incomplete")
    tables = run_method_comparison(
        sc, GRID, trials=50, seed=0,
        configs=[("mp", Stage1Config(method="mp_inverse"), None),
                 ("tik", Stage1Config(method="tikhonov"), None)],
    )
    s_state, _, _ = fit_loglog_slope(tables["mp"], "mse_state")
    s_povm, _, _ = fit_loglog_slope(tables["mp"], "mse_povm")
    mp6, tik6 = tables["mp"].rows[-1], tables["tik"].rows[-1]
    ok = (s_state > -0.3 and s_povm > -0.3
          and tik6.mse_state <= mp6.mse_state and tik6.mse_povm <= mp6.mse_povm)
    report(3, ok, f"MP slopes {s_state:.3f}/{s_povm:.3f} (flat), Tikhonov at N0=1e6: "
                  f"state {tik6.mse_state:.3e} <= {mp6.mse_state:.3e}, "
                  f"detector {tik6.mse_povm:.3e} <= {mp6.mse_povm:.3e}")


def test_criterion_04_pure_state_scenario():
    sc = preset("one_qubit_random_pure")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    rows = []
    all_rank_one = True
    for i, n0 in enumerate(GRID):
        errs_s, errs_p = [], []
        n_total = None
        for t in range(50):
            ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                                  seed=np.random.SeedSequence([sc.seed, 0, i, t]),
                                  basis=sc.basis)
            n_total = ds.total_copies
            res = estimate_joint_v2(ds, reg.b_natural)
            pure = project_pure(res.rho_hat)
            evals = np.linalg.eigvalsh(pure.rho)
            all_rank_one &= abs(evals[-1] - 1.0) < 1e-10 and np.all(np.abs(evals[:-1]) < 1e-10)
            errs_s.append(np.linalg.norm(pure.rho - sc.truth_state.rho) ** 2)
            errs_p.append(float(np.sum(np.abs(res.povm_hat.elements
                                              - sc.truth_povm.elements) ** 2)))
        rows.append(MseRow(n=n_total, mse_state=float(np.mean(errs_s)),
                           se_state=float(np.std(errs_s, ddof=1) / np.sqrt(len(errs_s))),
                           mse_povm=float(np.mean(errs_p)),
                           se_povm=float(np.std(errs_p, ddof=1) / np.sqrt(len(errs_p))),
                           trials=len(errs_s)))
    table = MseTable(rows=tuple(rows), scenario=sc.name)
    slope, _, r2 = fit_loglog_slope(table, "mse_state")
    ok = -1.2 <= slope <= -0.8 and all_rank_one
    report(4, ok, f"pure-state MSE slope {slope:.3f} (r2 {r2:.3f}), "
                  f"rank-1 on every trial: {all_rank_one}")


def test_criterion_05_two_qubit_mixed_unitary():
    sc = preset("two_qubit_mixed_unitary")
    table = run_mse_experiment(sc, GRID, trials=20, seed=0)
    s_state, _, r2_state = fit_loglog_slope(table, "mse_state")
    s_povm, _, r2_povm = fit_loglog_slope(table, "mse_povm")
    ok = (-1.25 <= s_state <= -0.75 and -1.25 <= s_povm <= -0.75
          and table.failures == 0)
    report(5, ok, f"two-qubit slopes: state {s_state:.3f} (r2 {r2_state:.3f}), "
                  f"detector {s_povm:.3f} (r2 {r2_povm:.3f})")


def test_criterion_06_real_conjugation_superoperator():
    worst = 0.0
    rng = np.random.default_rng(6)
    for d in (2, 3):
        u = change_of_basis(build_basis(d))
        for _ in range(100):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = u @ np.kron(a.conj(), a) @ u.conj().T
            worst = max(worst, float(np.max(np.abs(m.imag))))
    ok = worst < 1e-10
    report(6, ok, f"max imaginary entry of U (A* kron A) U^dag over 200 draws: {worst:.2e}")


def _random_channel_mix(rng, d):
    kind = rng.integers(3)
    if kind == 0:
        u1, u2 = haar_unitary(d, rng), haar_unitary(d, rng)
        w = rng.uniform(0.2, 0.8)
        return KrausChannel(d, np.stack([np.sqrt(w) * u1, np.sqrt(1 - w) * u2]))
    if kind == 1:
        return make_named_channel(
            "scaled", alpha=rng.uniform(0.3, 1.0),
            channel=make_named_channel("unitary", u=haar_unitary(d, rng)))
    return make_named_channel("random_cp", d=d, rank=d * d, seed=int(rng.integers(2 ** 32)))


def test_criterion_07_generalized_unital_equivalence():
    from jointtomo import is_generalized_unital

    mismatches = 0
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for _ in range(200):
            ch = _random_channel_mix(rng, d)
            flag, _ = is_generalized_unital(ch)
            image = np.einsum("kij,klj->il", ch.kraus, ch.kraus.conj())
            alpha = np.trace(image).real / d
            direct = bool(np.linalg.norm(image - alpha * np.eye(d)) <= 1e-8)
            mismatches += flag != direct
    ok = mismatches == 0
    report(7, ok, f"h-block verdict vs direct Kraus-image test: {mismatches} mismatches in 400")


def test_criterion_08_rank_bounds():
    rng = np.random.default_rng(8)
    tp = ProcessEnsemble(tuple(
        make_named_channel("random_cp", d=2, rank=4, seed=int(rng.integers(2 ** 32)), tp=True)
        for _ in range(20)))
    rank_tp = build_regression_matrices(tp, build_basis(2)).rank_b_natural
    q_ok = True
    for d in (2, 3):
        basis = build_basis(d)
        for _ in range(5):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (g + g.conj().T) / 2
            h -= np.trace(h) / d * np.eye(d)
            qs = discretize_hamiltonian(hamiltonian_generator(h, basis), 0.9, 8)
            stack = np.stack([vectorize(q) for q in qs])
            q_ok &= numerical_rank(stack) <= d * d - d + 1
    flip_ranks = []
    for kind in ("bit_flip", "phase_flip"):
        ens = ProcessEnsemble(tuple(make_named_channel(kind, p=p)
                                    for p in (0.05, 0.2, 0.45, 0.6, 0.85)))
        reg = build_regression_matrices(ens, build_basis(2))
        flip_ranks.append((reg.rank_b, reg.rank_b_natural))
    ok = rank_tp <= 13 and q_ok and all(r == (2, 2) for r in flip_ranks)
    report(8, ok, f"rank(B_natural)={rank_tp} <= 13 for 20 TP channels; "
                  f"sampling-stack ceiling holds: {q_ok}; flip ranks {flip_ranks}")


def test_criterion_09_semialgebraic_correctness():
    rng = np.random.default_rng(9)
    worst = 0.0
    for d in (2, 3, 4):
        for _ in range(100):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = (g + g.conj().T) / 2
            cert = k_coefficients(rho)
            coeffs = np.poly(np.linalg.eigvalsh(rho))
            expected = np.array([(-1.0) ** p * coeffs[p] for p in range(d + 1)])
            worst = max(worst, float(np.max(np.abs(cert.k - expected))))
    agree = 0
    total = 0
    for d in (2, 3):
        basis = build_basis(d)
        for _ in range(1000):
            x = rng.normal(size=d * d - 1) * rng.uniform(0.05, 0.8)
            member = in_physical_set(x, basis)
            eig_ok = bool(np.linalg.eigvalsh(coherence_to_state(x, basis))[0] >= -1e-9)
            agree += member == eig_ok
            total += 1
    ok = worst < 1e-10 and agree == total
    report(9, ok, f"k_p vs characteristic coefficients: max dev {worst:.2e}; "
                  f"membership agreement {agree}/{total}")


def test_criterion_10_nearest_kronecker_optimality():
    rng = np.random.default_rng(10)
    worst_dev = 0.0
    beaten = 0
    for _ in range(100):
        x, c = rng.normal(size=3), rng.normal(size=3)
        z = np.kron(x, c) + rng.normal(scale=0.1, size=9)
        fac = nearest_kronecker(z, 3, 3)
        s = np.linalg.svd(rearrange(z, 3, 3), compute_uv=False)
        worst_dev = max(worst_dev, abs(fac.residual - np.sqrt(np.sum(s[1:] ** 2))))
        for _ in range(10):
            left = fac.left + rng.normal(scale=0.05, size=3)
            right = fac.right + rng.normal(scale=0.05, size=3)
            if np.linalg.norm(z - np.kron(left, right)) < fac.residual - 1e-12:
                beaten += 1
    ok = worst_dev < 1e-10 and beaten == 0
    report(10, ok, f"residual identity max dev {worst_dev:.2e}; "
                   f"perturbed factorizations better in {beaten}/1000 tries")


def test_criterion_11_correction_validity():
    rng = np.random.default_rng(11)
    physical = True
    for _ in range(500):
        d = int(rng.integers(2, 5))
        lam = rng.normal(size=d)
        lam -= (lam.sum() - 1.0) / d
        u = haar_unitary(d, rng)
        hat = correct_state((u * lam) @ u.conj().T)
        physical &= np.linalg.eigvalsh(hat.rho)[0] >= -1e-10
        physical &= abs(np.trace(hat.rho).real - 1.0) < 1e-10
    for _ in range(500):
        d = 2
        base = preset("one_qubit_closed_complete").truth_povm.elements
        noise = rng.normal(size=base.shape) + 1j * rng.normal(size=base.shape)
        noise = (noise + noise.conj().transpose(0, 2, 1)) / 2
        rough = base + 0.2 * noise / np.linalg.norm(noise)
        out = correct_povm(rough)
        physical &= float(np.linalg.norm(out.elements.sum(axis=0) - np.eye(d))) < 1e-10
        physical &= min(float(np.linalg.eigvalsh(p)[0]) for p in out.elements) >= -1e-10

    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    worst_ratio = 0.0
    for t in range(50):
        ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 1000,
                              seed=np.random.SeedSequence([11, t]), basis=sc.basis)
        res = estimate_joint_v1(ds, reg.b, sc.basis)
        pre_s = np.linalg.norm(res.rho_bar - sc.truth_state.rho)
        post_s = np.linalg.norm(res.rho_hat.rho - sc.truth_state.rho)
        pre_p = np.sqrt(np.sum(np.abs(res.povm_bar - sc.truth_povm.elements) ** 2))
        post_p = np.sqrt(np.sum(np.abs(res.povm_hat.elements - sc.truth_povm.elements) ** 2))
        if pre_s > 1e-12:
            worst_ratio = max(worst_ratio, post_s / pre_s)
        if pre_p > 1e-12:
            worst_ratio = max(worst_ratio, post_p / pre_p)
    ok = physical and worst_ratio <= 3.0
    report(11, ok, f"1000 adversarial corrections all physical: {physical}; "
                   f"worst post/pre error ratio {worst_ratio:.3f} <= 3")


def test_criterion_12_sos_export_fidelity(tmp_path):
    sc = preset("one_qubit_closed_complete")
    reg = build_regression_matrices(sc.ensemble, sc.basis)
    ds = simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, 10 ** 4, seed=12,
                          basis=sc.basis)
    prob = export_sos_problem(ds, reg.b, sc.basis, tmp_path / "p.sos")
    x = to_coords(sc.truth_state.rho, sc.basis)[1:]
    cs = [to_coords(p, sc.basis)[1:] for p in sc.truth_povm.elements]
    vals = np.concatenate([x] + cs)
    y = build_targets_v1(ds, sc.basis)
    direct = sum(np.linalg.norm(y[:, j] - reg.b @ np.kron(x, cs[j])) ** 2 for j in range(3))
    dev = abs(prob.evaluate_objective(vals) - direct)

    names = [n for n, _ in prob.inequalities]
    expected_names = ["state_ball_p2"] + [f"povm{j + 1}_ball_p2" for j in range(3)]
    nv = len(prob.variables)
    polys = dict(prob.inequalities)
    ball = polys.get("state_ball_p2", {})
    state_ball_ok = (ball.get((0,) * nv) == pytest.approx(0.5)
                     and all(ball.get(tuple(2 if k == i else 0 for k in range(nv)))
                             == pytest.approx(-1.0) for i in range(3))
                     and len(ball) == 4)
    povm_ok = all(
        polys[f"povm{j + 1}_ball_p2"].get((0,) * nv) == pytest.approx(ds.c_j0_hat[j] ** 2)
        for j in range(3)
    )
    ok = dev < 1e-10 and names == expected_names and state_ball_ok and povm_ok
    report(12, ok, f"objective at truth matches direct residual to {dev:.2e}; "
                   f"constraints are the state ball plus {len(names) - 1} detector balls")
