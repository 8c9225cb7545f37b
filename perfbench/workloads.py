"""Workloads of the jointtomo benchmark.

A workload builds its inputs from the workload seed alone, checks the
package's outputs before anything is timed (``gate``, run in a process of its
own so that its memory is not counted with the workload's), and then runs a fixed
list of ``rounds`` over and over until the run's time is up.  The first pass
gives the accuracy figures, call counts and refinement statistics, so these
repeat exactly for a given seed however long a run measures.  Every step is
timed on every pass, calibrated by the reference kernel timed around its
round (see ``reference``), and keeps its fastest calibrated time.

The scenario presets keep their canonical draw (preset seed 0, as in the
acceptance tests); the workload seed drives the shot noise.
"""

import copy
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import jointtomo as jt
import reference

# The ends of the shot range the workloads span.
N0_GRID = (1_000, 100_000)
# Trials per run_mse_experiment call: the default of ``jointtomo bench
# --trials``.  Each call builds B once, so this sets how many trials share
# one build.
MC_TRIALS = 50
# With exact data Tikhonov's automatic scale 100/N is the only error left;
# at this shot count it is far below the exactness tolerance.
EXACT_N0 = 10 ** 15
EXACT_TOL = 1e-20
# refine_alternating's own defaults, passed explicitly so that the sweep
# accounting below knows them.
REFINE_ITERS = 100
REFINE_REL_TOL = 1e-10
WARMUP_SWEEPS = 2
# Informationally complete preset sharing an incomplete preset's probe family
# and truth; exact data can only be reproduced exactly on the former.
COMPLETE_SIBLING = {
    "one_qubit_closed_incomplete": "one_qubit_closed_complete",
    "two_qubit_mixed_unitary_incomplete": "two_qubit_mixed_unitary",
}


@dataclass
class Tally:
    """What the passes of one run produced."""

    trials: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # part -> step key -> fastest time over passes, in calibrated seconds
    best: dict = field(default_factory=dict)
    step_trials: dict = field(default_factory=dict)
    refine_sweeps: list = field(default_factory=list)
    refine_attempts: list = field(default_factory=list)
    refine_hit_iters: int = 0
    # (preset, grid index) -> [sum of state sq. error, sum of povm sq. error, count, N]
    errors: dict = field(default_factory=dict)
    complete_cases: set = field(default_factory=set)
    reference_s: list = field(default_factory=list)
    wall_s: float = 0.0
    _pending: list = field(default_factory=list)

    def time_step(self, key, seconds: float, trials: int = 0, part: str = "step") -> None:
        """Record a wall time; it is calibrated when the round closes."""
        self._pending.append((part, key, seconds))
        if part == "step":
            self.step_trials[key] = trials

    def close_round(self, ref_before: float, ref_after: float) -> None:
        """Calibrate the round's times by the reference kernel timed around it."""
        self.reference_s.append(ref_after)
        scale = reference.NOMINAL_S / ((ref_before + ref_after) / 2.0)
        for part, key, seconds in self._pending:
            best = self.best.setdefault(part, {})
            best[key] = min(seconds * scale, best.get(key, math.inf))
        self._pending.clear()

    def trials_per_s(self) -> float:
        """Trials of one pass over the sum of the steps' fastest times; NaN
        (an incorrect result) when no step completed."""
        steps = self.best.get("step")
        return sum(self.step_trials.values()) / sum(steps.values()) if steps else math.nan

    def add_error(self, sc, i: int, state_sq, povm_sq, count, n_total):
        acc = self.errors.setdefault((sc.name, i), [0.0, 0.0, 0, n_total])
        acc[0] += state_sq * count
        acc[1] += povm_sq * count
        acc[2] += count
        if sc.expect_complete:
            self.complete_cases.add(sc.name)

    def mse_xn(self) -> tuple:
        """Geometric mean over (case, grid point) of pooled MSE times total
        copies N, for state and detector; NaN when a point has no estimate."""
        if not self.errors:
            return math.nan, math.nan
        logs_s, logs_p = [], []
        for sum_s, sum_p, count, n_total in self.errors.values():
            if count == 0 or not (sum_s > 0 and sum_p > 0):
                return math.nan, math.nan
            logs_s.append(math.log(sum_s / count * n_total))
            logs_p.append(math.log(sum_p / count * n_total))
        return math.exp(sum(logs_s) / len(logs_s)), math.exp(sum(logs_p) / len(logs_p))

    def check_consistency(self) -> None:
        """On informationally complete presets, where the error shrinks like
        1/N, pooled MSE must fall from the smallest to the largest shot count."""
        last = len(N0_GRID) - 1
        for case in sorted(self.complete_cases):
            lo, hi = self.errors.get((case, 0)), self.errors.get((case, last))
            if not lo or not hi or lo[2] == 0 or hi[2] == 0:
                continue
            for k, what in ((0, "state"), (1, "detector")):
                if not hi[k] / hi[2] < lo[k] / lo[2]:
                    self.problems.append(
                        f"{case}: pooled {what} MSE does not fall from n0={N0_GRID[0]} "
                        f"to n0={N0_GRID[last]}")


def _sq_errors(sc, rho_hat, povm_hat) -> tuple:
    s = float(np.linalg.norm(rho_hat.rho - sc.truth_state.rho) ** 2)
    p = float(np.sum(np.abs(povm_hat.elements - sc.truth_povm.elements) ** 2))
    return s, p


def _validated(sc, rho_hat, povm_hat) -> str:
    """Empty when both estimates are validated objects that re-validate."""
    if not isinstance(rho_hat, jt.DensityMatrix) or not isinstance(povm_hat, jt.Povm):
        return f"estimate types {type(rho_hat).__name__}/{type(povm_hat).__name__}"
    try:
        jt.DensityMatrix(sc.d, rho_hat.rho)
        jt.Povm(sc.d, povm_hat.elements)
    except jt.ValidationError as exc:
        return f"estimate fails validation: {exc}"
    return ""


def _exactness_problems(name: str, config) -> list:
    """An exact-data run on the preset (or its complete sibling) must
    reconstruct the truth to within EXACT_TOL."""
    target = COMPLETE_SIBLING.get(name, name)
    sc = jt.preset(target)
    table = jt.run_mse_experiment(sc, [EXACT_N0], trials=2, exact=True, config=config)
    problems = []
    if table.failures:
        problems.append(f"{target}: exact run refused {table.failures} trials")
    for row in table.rows:
        if not (row.mse_state < EXACT_TOL and row.mse_povm < EXACT_TOL):
            problems.append(f"{target}: exact-data MSE {row.mse_state:.3e}/{row.mse_povm:.3e}"
                            f" is not below {EXACT_TOL:g}")
    return problems


def _b_bytes(sc) -> tuple:
    """Bytes of B computed from its shape: both regression matrices as
    built, and the one a stage-1 solve of the preset's estimator reads."""
    real = len(sc.ensemble) * sc.basis.n_traceless ** 2 * 8
    natural = len(sc.ensemble) * sc.d ** 4 * 16
    return real + natural, natural if sc.estimator == "v2" else real


def _seed_for(seed: int, k: int) -> int:
    return int(seed) * 100_000 + int(k)


class MonteCarlo:
    """Closed loop of ``run_mse_experiment`` calls: round ``k`` makes one
    call per case, at grid point ``k mod len(N0_GRID)``.  ``rounds`` is a
    multiple of ``len(N0_GRID)``, so a pass weights every grid point alike.
    A run makes at least ``min_passes`` passes, so that each step has a
    fastest time to report."""

    def __init__(self, name, why, cases, rounds, min_passes):
        self.name, self.why = name, why
        self.cases = tuple(cases)  # (preset name, Stage1Config or None)
        self.rounds = rounds
        self.min_passes = min_passes

    def setup(self, seed: int) -> dict:
        scenarios = [jt.preset(name) for name, _ in self.cases]
        # Warm-up: one small call per case, which also builds B once.
        for sc, (_, config) in zip(scenarios, self.cases):
            jt.run_mse_experiment(sc, N0_GRID[:1], trials=2, seed=_seed_for(seed, 99_999),
                                  config=config)
        return {"seed": int(seed), "scenarios": scenarios}

    def gate(self, seed: int) -> list:
        problems = []
        for name, config in self.cases:
            problems += _exactness_problems(name, config)
            # The estimates the experiment scores are validated objects.
            sc = jt.preset(name)
            reg = jt.build_regression_matrices(sc.ensemble, sc.basis)
            ds = jt.simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, N0_GRID[0],
                                     seed=int(seed), scale_observable=sc.anchor_index,
                                     basis=sc.basis)
            config = config or sc.stage1
            if sc.estimator == "v2":
                est = jt.estimate_joint_v2(ds, reg.b_natural, config)
                if sc.pure:
                    est = replace(est, rho_hat=jt.project_pure(est.rho_hat))
            else:
                est = jt.estimate_joint_v1(ds, reg.b, sc.basis, config)
            problem = _validated(sc, est.rho_hat, est.povm_hat)
            if problem:
                problems.append(f"{name}: {problem}")
        return problems

    def run_round(self, ctx, k: int, tally: Tally, first: bool) -> None:
        """Round ``k``: one ``run_mse_experiment`` call per case, at grid
        point ``k mod len(N0_GRID)``; ``first`` marks the first pass, which
        is scored."""
        clock = time.perf_counter
        i = k % len(N0_GRID)
        for case, (sc, (_, config)) in enumerate(zip(ctx["scenarios"], self.cases)):
            t0 = clock()
            table = jt.run_mse_experiment(sc, [N0_GRID[i]], trials=MC_TRIALS,
                                          seed=_seed_for(ctx["seed"], k), config=config)
            tally.time_step((k, case), clock() - t0, trials=MC_TRIALS)
            tally.trials += MC_TRIALS
            tally.failed += table.failures
            (row,) = table.rows
            if row.trials + table.failures != MC_TRIALS:
                tally.problems.append(f"{sc.name}: trial count does not add up")
            if row.trials and not (math.isfinite(row.mse_state) and math.isfinite(row.mse_povm)):
                tally.failed += row.trials
                tally.problems.append(f"{sc.name}: non-finite MSE at n0={N0_GRID[i]}")
            elif first and row.trials:
                tally.add_error(sc, i, row.mse_state, row.mse_povm, row.trials, row.n)

    def b_bytes(self, ctx) -> tuple:
        sizes = [_b_bytes(sc) for sc in ctx["scenarios"]]
        return sum(built for built, _ in sizes), sum(solve for _, solve in sizes) / len(sizes)


class Fit:
    """One dataset at a time: ``estimate_joint_v1`` then ``refine_alternating``,
    on datasets simulated during set-up; one fit per round."""

    min_passes = 2  # so that each fit has a fastest time to report

    def __init__(self, name, why, preset_name, per_grid_point):
        self.name, self.why = name, why
        self.preset_name = preset_name
        self.per_grid_point = per_grid_point
        self.rounds = per_grid_point * len(N0_GRID)

    def setup(self, seed: int) -> dict:
        sc = jt.preset(self.preset_name)
        reg = jt.build_regression_matrices(sc.ensemble, sc.basis)
        pool = []
        for k in range(self.per_grid_point):
            for i, n0 in enumerate(N0_GRID):
                ds = jt.simulate_dataset(
                    sc.ensemble, sc.truth_state, sc.truth_povm, n0,
                    seed=np.random.SeedSequence([int(seed), i, k]),
                    scale_observable=sc.anchor_index, basis=sc.basis)
                pool.append((i, ds))
        # Warm-up with a fixed number of sweeps, so that set-up time does not
        # depend on how fast the first dataset converges.
        est = jt.estimate_joint_v1(copy.deepcopy(pool[0][1]), reg.b, sc.basis, sc.stage1)
        jt.refine_alternating(copy.deepcopy(pool[0][1]), reg.b, sc.basis, est,
                              iters=WARMUP_SWEEPS, rel_tol=0.0)
        return {"seed": int(seed), "scenario": sc, "b": reg.b, "pool": pool}

    def gate(self, seed: int) -> list:
        stage1 = jt.preset(self.preset_name).stage1
        problems = _exactness_problems(self.preset_name, stage1)
        # Refinement must keep an exact reconstruction exact.
        sc = jt.preset(COMPLETE_SIBLING.get(self.preset_name, self.preset_name))
        reg = jt.build_regression_matrices(sc.ensemble, sc.basis)
        ds = jt.simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, N0_GRID[0],
                                 exact=True, scale_observable=sc.anchor_index, basis=sc.basis)
        est = jt.estimate_joint_v1(ds, reg.b, sc.basis, stage1)
        ref = jt.refine_alternating(ds, reg.b, sc.basis, est)
        s, p = _sq_errors(sc, ref.rho_hat, ref.povm_hat)
        if not (s < EXACT_TOL and p < EXACT_TOL):
            problems.append(f"{sc.name}: refined exact-data MSE {s:.3e}/{p:.3e}")
        problem = _validated(sc, ref.rho_hat, ref.povm_hat)
        if problem:
            problems.append(f"{sc.name}: {problem}")
        return problems

    def run_round(self, ctx, k: int, tally: Tally, first: bool) -> None:
        """Round ``k``: fit dataset ``k``; ``first`` marks the scored pass."""
        sc, b = ctx["scenario"], ctx["b"]
        i, ds = ctx["pool"][k]
        ds = copy.deepcopy(ds)  # a repeat must not find anything cached on the dataset
        clock = time.perf_counter
        tally.trials += 1
        t0 = clock()
        try:
            est = jt.estimate_joint_v1(ds, b, sc.basis, sc.stage1)
            t1 = clock()
            ref = jt.refine_alternating(ds, b, sc.basis, est, iters=REFINE_ITERS,
                                        rel_tol=REFINE_REL_TOL)
            t2 = clock()
        except jt.TomographyError:
            tally.failed += 1  # counted by stage in the traced run
            return
        tally.time_step(k, t2 - t0, trials=1)
        tally.time_step(k, t1 - t0, part="estimate")
        tally.time_step(k, t2 - t1, part="refine")
        problem = _validated(sc, ref.rho_hat, ref.povm_hat)
        s, p = _sq_errors(sc, ref.rho_hat, ref.povm_hat)
        if problem or not (math.isfinite(s) and math.isfinite(p)):
            tally.failed += 1
            tally.problems.append(f"dataset {k}: {problem or 'non-finite MSE'}")
        elif first:
            self._count_sweeps(ref, tally)
            tally.add_error(sc, i, s, p, 1, ds.total_copies)

    @staticmethod
    def _count_sweeps(ref, tally: Tally) -> None:
        """Accepted sweeps versus sweeps run, from the refinement's objective
        trajectory; skipped when the result no longer carries one."""
        diagnostics = getattr(ref, "diagnostics", None)
        if not isinstance(diagnostics, dict) or "objective_trajectory" not in diagnostics:
            return
        trajectory = diagnostics["objective_trajectory"]
        accepted = len(trajectory) - 1
        stopped_by_tol = accepted >= 1 and (trajectory[-2] - trajectory[-1]
                                            <= REFINE_REL_TOL * max(trajectory[0], 1e-300))
        hit_iters = accepted == REFINE_ITERS
        tally.refine_sweeps.append(accepted)
        tally.refine_attempts.append(accepted if hit_iters or stopped_by_tol else accepted + 1)
        tally.refine_hit_iters += hit_iters

    def b_bytes(self, ctx) -> tuple:
        return _b_bytes(ctx["scenario"])


WORKLOADS = {
    w.name: w for w in (
        MonteCarlo(
            "mc_d4",
            "d=4, L=900 Monte-Carlo: per-process loops and full-B solves dominate",
            cases=[("two_qubit_mixed_unitary", None)], rounds=2, min_passes=3),
        MonteCarlo(
            "mc_d2",
            "d=2, L<=17 Monte-Carlo over v1, v2 and Tikhonov: per-call overhead dominates",
            cases=[("one_qubit_closed_complete", None),
                   ("one_qubit_random_pure", None),
                   ("one_qubit_closed_incomplete", jt.Stage1Config("tikhonov"))],
            rounds=12, min_passes=2),
        Fit(
            "fit_d4_incomplete",
            "latency of one estimate+refine fit on pre-simulated rank-deficient d=4 data",
            preset_name="two_qubit_mixed_unitary_incomplete", per_grid_point=36),
    )
}
