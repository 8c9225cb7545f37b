"""Scenario presets and the MSE-versus-copies experiment harness.

Each preset rebuilds its probe ensemble, truth state and truth detector
deterministically from ``(name, seed)``.  The harness repeats simulate and
estimate cycles over a grid of per-configuration shot counts, recording
squared Frobenius errors of state and detector together with standard errors
of the mean, and fits the log-log slope against the total number of input
copies.

The trial loop works on blocks of trials as arrays: each block is one
``DatasetStack`` of datasets drawn from checked tables, so not checked
again, estimated as one stack per case, and scored
from the stacked estimates; a failure is counted from the stack's
``refused`` mask, and no dataset is estimated a second time.  A block of an
ensemble of at least ``measurement.THREADED_DRAW_ROWS`` processes is drawn
as one stack (``simulate_datasets``), whose outcome draws run on two
threads; every trial keeps its own stream, so the datasets are those of one
``simulate_dataset`` call per trial, bit for bit.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import OperatorBasis, build_basis, to_coords
from .channels import (ProcessEnsemble, RegressionMatrices, _sampled_unitary_channels,
                       build_regression_matrices, closed_system_channels, factor_design,
                       haar_unitary, make_named_channel, pauli)
from .errors import DegeneracyError, ValidationError, _items, _new, _record, _whole, _write
from .estimator import Stage1Config, StackEstimates, _estimates_v1, _estimates_v2, _pure
from .measurement import (THREADED_DRAW_ROWS, DatasetStack, DensityMatrix, Povm, _process_indices,
                          _stack_fields, simulate_dataset, simulate_datasets)

# Stream keys for the deterministic random draws.  Complete/incomplete
# variants of one experiment share a stream so they see the same truth and
# (where applicable) the same probe family; the trailing salts pin one fixed,
# well-conditioned representative draw per family.
_DRAW_KEYS = {
    "one_qubit_closed_complete": (1, 17, 3),
    "one_qubit_closed_incomplete": (1, 17, 3),
    "one_qubit_random_pure": (3, 17, 0),
    "two_qubit_mixed_unitary": (4, 17, 0),
    "two_qubit_mixed_unitary_incomplete": (4, 17, 0),
}
PRESET_NAMES = tuple(_DRAW_KEYS)
# Anchor coordinate must carry a reasonable share of the coherence vector for
# the scale-fixing division to be well conditioned.
_ANCHOR_FRACTION = 0.15
# Trials estimated as one stack.  A fixed block bounds the memory a run holds
# at once, whatever its trial count.
TRIAL_BLOCK = 50


@dataclass(frozen=True)
class Scenario:
    """A fully specified experiment, reproducible from (name, seed).  The
    truth's statistics are kept on the ensemble, by ``ideal_statistics``."""

    name: str
    seed: int
    basis: OperatorBasis
    ensemble: ProcessEnsemble
    truth_state: DensityMatrix
    truth_povm: Povm
    estimator: str = "v1"
    stage1: Stage1Config = Stage1Config()
    anchor_index: int = 1
    expect_complete: bool = True
    pure: bool = False

    @property
    def d(self) -> int:
        return self.basis.d

    @cached_property
    def regression(self) -> RegressionMatrices:
        """The ensemble's design record, built on first use and kept, so its
        factorizations are also computed at most once per scenario."""
        return build_regression_matrices(self.ensemble, self.basis)


def _draw_state(rng, basis, eigenvalues, need_anchor: bool, anchor_index: int) -> DensityMatrix:
    d = basis.d
    for _ in range(256):
        v = haar_unitary(d, rng)
        rho = (v * np.asarray(eigenvalues)) @ v.conj().T
        if not need_anchor:
            return DensityMatrix(d, rho)
        x = to_coords(rho, basis)[1:]
        if abs(x[anchor_index - 1]) >= _ANCHOR_FRACTION * np.linalg.norm(x):
            return DensityMatrix(d, rho)
    raise DegeneracyError("could not draw a state with a usable anchor coordinate")


def _draw_povm(rng, d: int, spectra) -> Povm:
    elements = []
    for spectrum in spectra:
        u = haar_unitary(d, rng)
        elements.append((u * np.asarray(spectrum)) @ u.conj().T)
    return Povm(d, np.stack(elements + [np.eye(d) - sum(elements)]))


def _random_traceless_hermitian(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2.0
    return h - np.trace(h) / d * np.eye(d)


def preset(name: str, seed: int = 0) -> Scenario:
    """Build one of the named experiment presets.

    * ``one_qubit_closed_complete``: five Hamiltonians
      (sx+sy)/2, (sx-sy)/2, (sy+sz)/2, (sy-sz)/2, (sz+sx)/2 sampled at
      dt = 1 for n = 3 steps; truth spectrum (0.1, 0.9); three-outcome
      detector with spectra (0.4, 0.1) and (0.5, 0.1).
    * ``one_qubit_closed_incomplete``: first three of those Hamiltonians,
      n = 2, Moore-Penrose stage-1 default.
    * ``one_qubit_random_pure``: 17 random non-trace-preserving channels with
      a pure truth state, estimated in the natural basis.
    * ``two_qubit_mixed_unitary``: 30 random Hamiltonian pairs mixed with
      weights (0.3, 0.7), n = 30 sampling steps each; truth spectrum
      (0.1, 0.2, 0.3, 0.4); detector spectra (0.1, 0.1, 0.1, 0.3) and
      (0.1, 0.1, 0.1, 0.5).
    * ``two_qubit_mixed_unitary_incomplete``: first 10 of those pairs.

    ``seed`` must be a whole number >= 0.
    """
    if _record(name, str, "preset name") not in _DRAW_KEYS:
        raise ValidationError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    seed = _whole(seed, "seed", 0)
    base, *salt = _DRAW_KEYS[name]
    rng = np.random.default_rng(np.random.SeedSequence([base, seed, *salt]))
    complete = not name.endswith("_incomplete")
    pure = name == "one_qubit_random_pure"

    if name.startswith("one_qubit_closed"):
        hams = [
            (pauli("x") + pauli("y")) / 2.0,
            (pauli("x") - pauli("y")) / 2.0,
            (pauli("y") + pauli("z")) / 2.0,
            (pauli("y") - pauli("z")) / 2.0,
            (pauli("z") + pauli("x")) / 2.0,
        ]
        channels = closed_system_channels([(h, 1.0) for h in (hams if complete else hams[:3])],
                                          n=3 if complete else 2)
        spectrum, detector = (0.1, 0.9), [(0.4, 0.1), (0.5, 0.1)]
    elif pure:
        channels = [make_named_channel("random_cp", d=2, rank=4,
                                       seed=int(rng.integers(2 ** 62)), label=f"cp{i + 1}")
                    for i in range(17)]
        spectrum, detector = (1.0, 0.0), [(0.4, 0.1), (0.5, 0.1)]
    else:
        pairs = [
            (_random_traceless_hermitian(rng, 4), _random_traceless_hermitian(rng, 4))
            for _ in range(30)
        ]
        groups = [(pair, 1.0) for pair in (pairs if complete else pairs[:10])]
        channels = _sampled_unitary_channels(groups, (0.3, 0.7), n=30, prefix="pair")
        spectrum, detector = (0.1, 0.2, 0.3, 0.4), [(0.1, 0.1, 0.1, 0.3), (0.1, 0.1, 0.1, 0.5)]
    basis = build_basis(len(spectrum))
    return Scenario(
        name=name, seed=seed, basis=basis, ensemble=ProcessEnsemble(tuple(channels)),
        truth_state=_draw_state(rng, basis, spectrum, need_anchor=not pure, anchor_index=1),
        truth_povm=_draw_povm(rng, basis.d, detector),
        estimator="v2" if pure else "v1", pure=pure,
        stage1=Stage1Config() if complete else Stage1Config(method="mp_inverse"),
        expect_complete=complete,
    )


@dataclass(frozen=True)
class MseRow:
    n: int
    mse_state: float
    se_state: float
    mse_povm: float
    se_povm: float
    trials: int


@dataclass(frozen=True)
class MseTable:
    rows: tuple
    scenario: str
    failures: int = 0
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        """Every row's field ``name``, one of ``MseRow``'s fields."""
        fields = tuple(MseRow.__dataclass_fields__)
        if _record(name, str, "column") not in fields:
            raise ValidationError(f"column must be one of {fields}, got {name!r}")
        return np.array([getattr(row, name) for row in self.rows])

    def to_csv(self, path) -> None:
        lines = ["N,mse_state,se_state,mse_povm,se_povm,trials"]
        for r in self.rows:
            lines.append(f"{r.n},{r.mse_state:.17g},{r.se_state:.17g},"
                         f"{r.mse_povm:.17g},{r.se_povm:.17g},{r.trials}")
        _write(path, "\n".join(lines) + "\n")

    def write_metadata(self, path) -> None:
        """The metadata as JSON text (``serialize._json_text``), formed first."""
        from .serialize import _json_text  # the file formats load on first use, not on import
        _write(path, _json_text(self.metadata, indent=2))


def _estimate_block(sc: Scenario, stack: DatasetStack, design,
                    config: Stage1Config) -> StackEstimates:
    """The estimates the scenario scores for a stack of datasets; a pure
    scenario's are their pure-state variant (``_pure``)."""
    if sc.estimator != "v2":
        return _estimates_v1(stack, design, sc.basis, config)
    est = _estimates_v2(stack, design, config)
    return _pure(est) if sc.pure else est


def _sq_errors(sc: Scenario, rho: np.ndarray, povm: np.ndarray) -> tuple:
    """Squared Frobenius errors of a stack of states and of a stack of
    detectors, as two stacked reductions."""
    rho = rho - sc.truth_state.rho
    povm = povm - sc.truth_povm.elements
    return ((rho.real ** 2 + rho.imag ** 2).sum(axis=(1, 2)),
            (povm.real ** 2 + povm.imag ** 2).sum(axis=(1, 2, 3)))


def _mse_row(n_total: int, *errs) -> MseRow:
    """The row of the state and detector error lists: each list's mean and
    the standard error of that mean, NaN where too few trials survived."""
    k = len(errs[0])
    stats = [(float(np.mean(e)) if k else float("nan"),
              float(np.std(e, ddof=1) / np.sqrt(k)) if k >= 2 else float("nan")) for e in errs]
    return MseRow(n_total, *stats[0], *stats[1], trials=k)


def _shot_grid(n0_grid) -> list:
    """The shot grid as a list of ints, refused unless it is non-empty,
    strictly increasing and made of whole shot counts >= 1."""
    grid = [_whole(v, "shot count", 1) for v in _items(n0_grid, "the shot grid")]
    if not grid:
        raise ValidationError("the shot grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("the shot grid must be strictly increasing")
    return grid


def _words(n: int) -> list:
    """The words numpy's ``SeedSequence`` reads from the entropy entry ``n``,
    a whole number >= 0: its little-endian 32-bit words, at least one."""
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def _run_trials(sc: Scenario, n0_grid, trials, seed, exact: bool, cases) -> list:
    """Simulate, estimate and score every case on shared datasets.

    Reads what both runners take alike: ``n0_grid`` (``_shot_grid``), and
    ``trials``, ``seed`` and the scenario's seed as whole numbers >= 2, >= 0
    and >= 0, once per call.
    ``cases`` is a sequence of ``(Stage1Config, process_indices)``; indices
    other than None (int arrays checked by ``_process_indices``) restrict
    both the datasets and the regression matrix.
    The full design is the scenario's cached record (``sc.regression``), a
    process subset is factored once per case, and every trial reads the
    truth's statistics kept on the ensemble (``ideal_statistics``); a second
    call on the same scenario builds, factors and computes nothing.
    Trial ``t`` at grid index ``i`` draws from the stream
    ``(scenario seed, seed, i, t)``, one simulation per trial.  Its
    ``SeedSequence`` is given those four numbers as the uint32 words numpy
    reads from the list ``[sc.seed, seed, i, t]`` (``_words``; the first
    three once per grid point), so the stream is that list's.  The trials
    are drawn in blocks of ``TRIAL_BLOCK`` into one ``DatasetStack`` per
    block; a process subset is an index on its process axis.  A block of
    an ensemble of at least ``THREADED_DRAW_ROWS`` processes is drawn by
    ``simulate_datasets``, which runs the sampled outcome draws, one row per
    process, on the calling thread and one worker joined before it returns;
    those multinomials release the GIL, so the two threads overlap them.
    A smaller block keeps one ``simulate_dataset`` call per trial, stacked
    as ``DatasetStack.of`` stacks them but not checked again, since each
    was drawn from checked tables, as ``simulate_datasets``' are: there a
    draw is too short to pay for a thread (the README's crossover table),
    and the benchmark's per-layer trace reads that loop as one
    ``simulate_dataset`` call per trial.  Either way member ``t`` is the
    dataset ``simulate_dataset`` draws from trial ``t``'s stream, bit for
    bit.
    Each case estimates the block as one stack and scores the stacked
    estimates directly.  A dataset a step refuses is one failure of its own
    case, counted from the stack's ``refused`` mask and not estimated again,
    and leaves the other trials' estimates as they are; a step that refuses
    the whole stack fails every trial of the block.  Returns one
    ``MseTable`` per case, its metadata holding the keys every table
    records; a runner adds its own.
    """
    n0_grid = _shot_grid(n0_grid)
    trials = _whole(trials, "trials", 2)
    seed = _whole(seed, "seed", 0)
    scenario_seed = _whole(sc.seed, "scenario seed", 0)
    full = sc.regression.design_natural if sc.estimator == "v2" else sc.regression.design
    designs = [full if idx is None else factor_design(full.b[idx])
               for _, idx in cases]
    rows, failures = [[] for _ in cases], [0] * len(cases)
    for i, n0 in enumerate(n0_grid):
        errs, copies = [([], []) for _ in cases], [0] * len(cases)
        stream = _words(scenario_seed) + _words(seed) + _words(i)
        for start in range(0, trials, TRIAL_BLOCK):
            seeds = [np.random.SeedSequence(np.array(stream + _words(t), dtype=np.uint32))
                     for t in range(start, min(start + TRIAL_BLOCK, trials))]
            if len(sc.ensemble) < THREADED_DRAW_ROWS:
                block = _new(DatasetStack, **_stack_fields([
                    simulate_dataset(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seed=s,
                                     scale_observable=sc.anchor_index, exact=exact,
                                     basis=sc.basis)
                    for s in seeds]))
            else:
                block = simulate_datasets(sc.ensemble, sc.truth_state, sc.truth_povm, n0, seeds,
                                          scale_observable=sc.anchor_index, exact=exact,
                                          basis=sc.basis)
            for c, (config, idx) in enumerate(cases):
                stack = block if idx is None else block.subset(idx)
                copies[c] = stack.total_copies
                try:
                    est = _estimate_block(sc, stack, designs[c], config)
                except DegeneracyError:
                    failures[c] += len(stack)
                    continue
                failures[c] += int(est.refused.sum())
                kept = ~est.refused
                if kept.any():
                    for err, block_err in zip(errs[c], _sq_errors(sc, est.rho_hat[kept],
                                                                  est.povm_hat[kept])):
                        err.extend(block_err.tolist())
        for c in range(len(cases)):
            rows[c].append(_mse_row(copies[c], *errs[c]))
    return [MseTable(rows=tuple(r), scenario=sc.name, failures=f, metadata={
        "scenario": sc.name, "scenario_seed": sc.seed, "run_seed": seed, "n0_grid": n0_grid,
        "trials": trials, "method": config.method, "reg_scale": config.reg_scale, "failures": f,
    }) for r, f, (config, _) in zip(rows, failures, cases)]


def run_mse_experiment(
    sc: Scenario,
    n0_grid,
    trials: int,
    seed: int = 0,
    exact: bool = False,
    config: Stage1Config = None,
) -> MseTable:
    """Monte-Carlo MSE of the reconstruction over a shot-count grid.

    Per grid point, runs ``trials`` (a whole number >= 2) independent
    simulate-and-estimate cycles with seeds derived from (scenario seed, run
    seed, grid index, trial index); ``seed`` must be a whole number >= 0.
    Estimator degeneracies are counted as failures, not dropped silently;
    the per-row trial count reports the successes.  A ``sc`` that is not a
    Scenario, or a ``config`` other than None that is not a Stage1Config, is
    refused by name.
    """
    _record(sc, Scenario, "scenario")
    if config is not None:
        _record(config, Stage1Config, "config")
    (table,) = _run_trials(sc, n0_grid, trials, seed, exact, [(config or sc.stage1, None)])
    table.metadata.update(exact=exact, estimator=sc.estimator, n_processes=len(sc.ensemble),
                          d=sc.d)
    return table


def run_method_comparison(
    sc: Scenario,
    n0_grid,
    trials: int,
    configs,
    seed: int = 0,
) -> dict:
    """Paired comparison of stage-1 configurations on shared datasets.

    ``configs`` is a sequence of ``(label, Stage1Config, process_indices)``;
    ``process_indices=None`` uses the full ensemble, anything else restricts
    both the dataset and the regression matrix to those processes so that
    informationally complete and incomplete variants can share one draw.
    Process indices must be distinct whole numbers in ``0..L-1``, at least
    one; others are refused before any design is indexed.  Labels must be
    unique, since they key the returned tables.  ``seed`` is read as
    ``run_mse_experiment`` reads it.  A ``sc`` that is not a Scenario,
    ``configs`` that are not such triples, or a config that is not a
    Stage1Config, is refused by name.
    """
    _record(sc, Scenario, "scenario")
    try:
        configs = [(label, _record(config, Stage1Config, "config"), indices)
                   for label, config, indices in configs]
    except (TypeError, ValueError):
        raise ValidationError("configs must be a sequence of (label, Stage1Config, "
                              "process_indices) triples") from None
    labels = [label for label, _, _ in configs]
    if len(set(labels)) != len(labels):
        raise ValidationError(f"config labels must be unique, got {labels}")
    cases = [(config, None if indices is None else _process_indices(indices, len(sc.ensemble)))
             for _, config, indices in configs]
    tables = _run_trials(sc, n0_grid, trials, seed, False, cases)
    for label, (_, indices), table in zip(labels, cases, tables):
        table.metadata.update(label=label,
                              process_indices=None if indices is None else indices.tolist())
    return dict(zip(labels, tables))


def fit_loglog_slope(table: MseTable, column: str = "mse_state"):
    """Ordinary least squares of log(mse) on log(N); returns (slope, intercept, r2).
    A ``table`` that is not an MseTable is refused by name."""
    _record(table, MseTable, "table")
    if not isinstance(column, str) or column not in ("mse_state", "mse_povm"):
        raise ValidationError(f"column must be mse_state or mse_povm, got {column!r}")
    if len(table.rows) < 3:
        raise ValidationError("need at least 3 rows to fit a slope")
    mse = table.column(column)
    if not np.all((mse > 0) & np.isfinite(mse)):  # before the logarithm, which warns on zero
        raise ValidationError("table contains MSE values that are not positive and finite")
    x = np.log(table.column("n").astype(float))
    y = np.log(mse)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)
