"""States, detectors, Born statistics, and the finite-shot data protocol.

A full dataset for one experiment holds, per process a and outcome j, the
empirical frequencies ``y_hat[a, j]`` of applying the unknown detector to the
evolved unknown state, plus three auxiliary calibrations:

* ``x_a0_hat[a]``: trace of the output state over sqrt(d), measured with the
  identity operator on non-trace-preserving processes and fixed to exactly
  1/sqrt(d) otherwise,
* ``c_j0_hat[j]``: detector trace components, measured on the maximally mixed
  state,
* ``x01_bar``: one coherence coordinate of the input state, measured directly
  through the matching basis observable to pin the scale of the bilinear
  reconstruction.

Every configuration consumes ``n0`` state copies; the grand total is
``(2L+2) n0`` when any process loses trace and ``(L+2) n0`` otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorBasis, build_basis
from .channels import ProcessEnsemble
from .errors import ValidationError

PSD_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A valid quantum state: Hermitian, PSD, unit trace (to tolerance)."""

    d: int
    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (self.d, self.d):
            raise ValidationError(f"state must be {self.d}x{self.d}, got {rho.shape}")
        if np.linalg.norm(rho - rho.conj().T) > 1e-9 * max(1.0, np.linalg.norm(rho)):
            raise ValidationError("state is not Hermitian")
        rho = (rho + rho.conj().T) / 2.0
        if float(np.linalg.eigvalsh(rho)[0]) < -PSD_TOL:
            raise ValidationError("state has a negative eigenvalue beyond tolerance")
        if abs(float(np.real(np.trace(rho))) - 1.0) > PSD_TOL:
            raise ValidationError(f"state trace is {np.real(np.trace(rho)):.12g}, not 1")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class Povm:
    """A detector: Hermitian PSD elements summing to the identity."""

    d: int
    elements: np.ndarray

    def __post_init__(self):
        elements = np.asarray(self.elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1:] != (self.d, self.d):
            raise ValidationError(
                f"elements must have shape (M, {self.d}, {self.d}), got {elements.shape}"
            )
        adjoint = elements.conj().transpose(0, 2, 1)
        skew = np.linalg.norm(elements - adjoint, axis=(1, 2))
        bad = skew > 1e-9 * np.maximum(1.0, np.linalg.norm(elements, axis=(1, 2)))
        if np.any(bad):
            raise ValidationError(f"element {np.argmax(bad)} is not Hermitian")
        elements = (elements + adjoint) / 2.0
        bad = np.linalg.eigvalsh(elements)[:, 0] < -PSD_TOL
        if np.any(bad):
            raise ValidationError(
                f"element {np.argmax(bad)} has a negative eigenvalue beyond tolerance")
        if np.linalg.norm(elements.sum(axis=0) - np.eye(self.d)) > 1e-10 * self.d:
            raise ValidationError("elements do not sum to the identity")
        object.__setattr__(self, "elements", elements)

    @property
    def m(self) -> int:
        return len(self.elements)


def born_probabilities(state, povm: Povm) -> np.ndarray:
    """Outcome probabilities ``Tr(P_j rho)``.

    Accepts a DensityMatrix or a raw (possibly sub-normalized) matrix, so it
    also serves for outputs of trace-decreasing processes.  A stack of raw
    matrices, shape ``(L, d, d)``, gives one row of probabilities per matrix.
    """
    rho = state.rho if isinstance(state, DensityMatrix) else np.asarray(state, dtype=complex)
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (povm.d, povm.d):
        raise ValidationError(f"dimension mismatch: state {rho.shape}, detector d={povm.d}")
    p = np.real(np.einsum("jik,...ki->...j", povm.elements, rho))
    if np.min(p) < -1e-12:
        raise ValidationError(f"negative Born probability {np.min(p):.3e}")
    return np.clip(p, 0.0, None)


def sample_frequencies(p: np.ndarray, n0: int, rng) -> np.ndarray:
    """One multinomial draw of ``n0`` shots over the given outcomes.

    Probability mass missing from ``sum(p) < 1`` goes to an implicit loss
    outcome that is dropped from the returned frequency vector.  A matrix of
    probabilities is one independent draw per row, taken from the stream in
    row order, exactly as one call per row would take them.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValidationError("probabilities must be finite")
    if np.min(p) < -1e-12:
        raise ValidationError(f"negative probability {np.min(p):.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total > 1.0 + 1e-9):
        raise ValidationError(f"probabilities sum to {np.max(total):.12g} > 1")
    rng = np.random.default_rng(rng)
    full = np.concatenate([p, np.maximum(1.0 - total, 0.0)], axis=-1)
    counts = rng.multinomial(int(n0), full / full.sum(axis=-1, keepdims=True))
    return counts[..., :-1] / float(n0)


def _check_frequencies(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} has a non-finite entry")
    if values.size and np.min(values) < 0.0:
        raise ValidationError(f"{name} has a negative frequency {np.min(values):.3e}")


def frequency_matrix(y_hat) -> np.ndarray:
    """Measured frequencies as a float L x M matrix, refused unless every
    entry is finite and non-negative and no row sums above 1."""
    y = np.asarray(y_hat, dtype=float)
    if y.ndim != 2:
        raise ValidationError(f"y_hat must be an L x M matrix, got shape {y.shape}")
    _check_frequencies("y_hat", y)
    if np.any(y.sum(axis=1) > 1.0 + 1e-9):
        raise ValidationError("a frequency row sums above 1")
    return y


@dataclass(frozen=True)
class MeasurementDataset:
    """Frequencies and calibration estimates from one experiment run."""

    y_hat: np.ndarray
    x_a0_hat: np.ndarray
    c_j0_hat: np.ndarray
    x01_bar: float
    n0: int
    tp_flags: np.ndarray
    anchor_index: int = 1
    exact: bool = field(default=False, compare=False)

    def __post_init__(self):
        y = frequency_matrix(self.y_hat)
        object.__setattr__(self, "y_hat", y)
        object.__setattr__(self, "x_a0_hat", np.asarray(self.x_a0_hat, dtype=float))
        object.__setattr__(self, "c_j0_hat", np.asarray(self.c_j0_hat, dtype=float))
        object.__setattr__(self, "tp_flags", np.asarray(self.tp_flags, dtype=bool))
        if len(self.x_a0_hat) != y.shape[0] or len(self.tp_flags) != y.shape[0]:
            raise ValidationError("per-process fields must have length L")
        if len(self.c_j0_hat) != y.shape[1]:
            raise ValidationError("c_j0_hat must have length M")
        for name in ("x_a0_hat", "c_j0_hat"):
            _check_frequencies(name, getattr(self, name))
        if not np.isfinite(self.x01_bar):
            raise ValidationError(f"x01_bar must be finite, got {self.x01_bar}")
        if self.n0 < 1:
            raise ValidationError(f"need at least one shot per configuration, got n0={self.n0}")
        if self.anchor_index < 1:
            raise ValidationError(f"anchor index must be >= 1, got {self.anchor_index}")

    @property
    def n_processes(self) -> int:
        return self.y_hat.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.y_hat.shape[1]

    @property
    def total_copies(self) -> int:
        l = self.n_processes
        factor = (2 * l + 2) if not np.all(self.tp_flags) else (l + 2)
        return int(factor * self.n0)

    def subset(self, indices) -> "MeasurementDataset":
        """Restrict to a subset of processes (used for paired comparisons)."""
        idx = np.asarray(indices, dtype=int)
        return MeasurementDataset(
            y_hat=self.y_hat[idx],
            x_a0_hat=self.x_a0_hat[idx],
            c_j0_hat=self.c_j0_hat,
            x01_bar=self.x01_bar,
            n0=self.n0,
            tp_flags=self.tp_flags[idx],
            anchor_index=self.anchor_index,
            exact=self.exact,
        )


@dataclass(frozen=True)
class IdealStatistics:
    """The noiseless statistics of one (ensemble, truth, scale observable).

    They depend on neither the shot count nor the random stream, so a
    Monte-Carlo study computes them once (``ideal_statistics``) and passes
    them to every ``simulate_dataset`` call.  ``probabilities`` are the Born
    probabilities after each process, ``survival`` the output traces (read on
    lossy processes only), ``trace_probabilities`` the detector's outcomes on
    the maximally mixed state, and ``scale_eigenvalues``/``scale_probabilities``
    the spectrum of the scale observable and its outcome probabilities on the
    truth.  The inputs they were computed from are kept, so a mismatched pair
    is refused.
    """

    ensemble: ProcessEnsemble
    truth_state: DensityMatrix
    truth_povm: Povm
    anchor_index: int
    probabilities: np.ndarray
    survival: np.ndarray
    trace_probabilities: np.ndarray
    scale_eigenvalues: np.ndarray
    scale_probabilities: np.ndarray


def ideal_statistics(
    ens: ProcessEnsemble,
    truth_state: DensityMatrix,
    truth_povm: Povm,
    scale_observable: int = 1,
    basis: OperatorBasis = None,
) -> IdealStatistics:
    """Every probability the data-collection protocol samples from.

    ``scale_observable`` selects which basis operator Omega_k is measured on
    the input state to pin the reconstruction scale.
    """
    if ens.d != truth_state.d or ens.d != truth_povm.d:
        raise ValidationError("ensemble, state and detector dimensions must agree")
    if basis is None:
        basis = build_basis(ens.d)
    if not 1 <= scale_observable <= basis.n_traceless:
        raise ValidationError(
            f"scale observable index must be in 1..{basis.n_traceless}, got {scale_observable}"
        )
    # All processes in one stacked pass: outputs, then their probabilities.
    rho_out = ens.apply(truth_state.rho)
    p = born_probabilities(rho_out, truth_povm)
    survival = np.clip(np.real(np.trace(rho_out, axis1=1, axis2=2)), 0.0, 1.0)
    q = np.real(np.einsum("jii->j", truth_povm.elements)) / ens.d
    omega = basis.omegas[scale_observable]
    lam, vecs = np.linalg.eigh(omega)
    probs = np.clip(np.real(np.einsum("ik,ij,jk->k", vecs.conj(), truth_state.rho, vecs)), 0.0, None)
    arrays = (p, survival, q, lam, probs / probs.sum())
    for a in arrays:
        a.setflags(write=False)
    return IdealStatistics(ens, truth_state, truth_povm, int(scale_observable), *arrays)


def simulate_dataset(
    ens: ProcessEnsemble,
    truth_state: DensityMatrix,
    truth_povm: Povm,
    n0: int,
    seed=0,
    scale_observable: int = 1,
    exact: bool = False,
    basis: OperatorBasis = None,
    ideal: IdealStatistics = None,
) -> MeasurementDataset:
    """Simulate the full data-collection protocol with ``n0`` shots per setup.

    ``scale_observable`` selects which basis operator Omega_k is measured on
    the input state to pin the reconstruction scale; its eigenbasis statistics
    are sampled with ``n0`` shots like every other configuration.  ``exact``
    bypasses all sampling and records the ideal values (a simulation switch
    for pipeline-exactness checks, not a physical claim).  ``ideal`` is the
    ``ideal_statistics`` of these same inputs, computed once for many calls;
    without it they are computed here.  Either way the draws are the same.
    """
    if ideal is None:
        ideal = ideal_statistics(ens, truth_state, truth_povm, scale_observable, basis)
    elif not (ideal.ensemble is ens and ideal.truth_state is truth_state
              and ideal.truth_povm is truth_povm and ideal.anchor_index == scale_observable):
        raise ValidationError("ideal statistics were computed for other inputs")
    if n0 < 1:
        raise ValidationError(f"need at least one shot, got n0={n0}")
    rng = np.random.default_rng(seed)
    sqd = np.sqrt(ens.d)

    # One draw per process row, then the lossy processes' survival counts.
    p = ideal.probabilities
    y_hat = p.copy() if exact else sample_frequencies(p, n0, rng)
    x_a0 = np.full(len(ens), 1.0 / sqd)
    lossy = ~ens.tp_flags
    if np.any(lossy):
        survival = ideal.survival[lossy]
        x_a0[lossy] = (survival if exact else rng.binomial(int(n0), survival) / float(n0)) / sqd

    # Detector trace components from the maximally mixed probe state.
    q = ideal.trace_probabilities
    c_j0 = sqd * (q if exact else sample_frequencies(q, n0, rng))

    # Scale observable measured projectively in its own eigenbasis.
    probs = ideal.scale_probabilities
    weights = probs if exact else sample_frequencies(probs, n0, rng)
    x01 = float(np.dot(ideal.scale_eigenvalues, weights))

    return MeasurementDataset(
        y_hat=y_hat,
        x_a0_hat=x_a0,
        c_j0_hat=c_j0,
        x01_bar=x01,
        n0=int(n0),
        tp_flags=ens.tp_flags,
        anchor_index=ideal.anchor_index,
        exact=exact,
    )


def random_density_matrix(d: int, rng) -> DensityMatrix:
    """Full-rank random state from a Ginibre matrix."""
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(d, rho / np.real(np.trace(rho)))
