"""Closed-form joint reconstruction of a state and a detector.

The pipeline has four steps, run once per detector outcome j:

1. assemble regression targets from the measured frequencies and the
   calibration estimates,
2. solve the linear system ``B z_j = Y_j`` by plain least squares, the
   Moore-Penrose inverse, or Tikhonov regularization.  B depends only on the
   probe processes, so its economy SVD ``B = U S V^dag`` is computed once per
   design (``channels.factor_design``; ``RegressionMatrices.design`` and
   ``design_natural`` hold it for an ensemble, and the ensemble's ranks and
   completeness verdicts are read off that same factorization) and every
   solve applies it: ``z = V diag(f(s)) U^dag Y`` with the method's filter
   factors ``f``, one pair of matrix products for all outcomes together,
3. factor each ``z_j`` as a Kronecker product of a state vector and a
   detector vector through the rank-1 SVD of its rearrangement, fix its
   scale, and average the state candidates,
4. correct the reconstructed matrices onto the physical sets (eigenvalue
   simplex projection for the state; clip-and-renormalize for the detector).

Steps 2-4 are shared by two bases.  The coherence-vector version regresses
background-subtracted targets for generalized-unital processes and fixes the
scale with the separately measured anchor coordinate; the natural-basis
version regresses raw frequencies on the stacked superoperators of arbitrary
processes and fixes the scale by unit trace.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    OperatorBasis,
    PovmCoordinates,
    StateCoordinates,
    coords_to_povm_element,
    coords_to_state,
    devectorize,
)
from .channels import FactoredDesign, factor_design
from .errors import DegeneracyError, TomographyError, ValidationError
from .measurement import DensityMatrix, MeasurementDataset, Povm, frequency_matrix

STAGE1_METHODS = ("plain_ls", "mp_inverse", "tikhonov")
# |anchor coordinate| below this fraction of the factor norm is treated as a
# degenerate anchor rather than producing a huge rescale.
ANCHOR_RTOL = 1e-6


@dataclass(frozen=True)
class Stage1Config:
    """Linear-solve settings for step 2.

    ``reg_scale`` is the Tikhonov matrix scale (D = reg_scale * I); None means
    "resolve to 100 / N from the dataset's copy count" at estimation time.
    """

    method: str = "plain_ls"
    reg_scale: float = None

    def __post_init__(self):
        if self.method not in STAGE1_METHODS:
            raise ValidationError(f"method must be one of {STAGE1_METHODS}, got {self.method!r}")
        if self.reg_scale is not None and not (np.isfinite(self.reg_scale)
                                               and self.reg_scale >= 0):
            raise ValidationError(
                f"regularization scale must be finite and >= 0, got {self.reg_scale}")

    def resolved(self, total_copies: int) -> "Stage1Config":
        if self.method != "tikhonov" or self.reg_scale is not None:
            return self
        return Stage1Config(method=self.method, reg_scale=100.0 / float(total_copies))


@dataclass(frozen=True)
class KroneckerFactorization:
    """Best rank-1 Kronecker factorization ``z ~ left kron right``."""

    left: np.ndarray
    right: np.ndarray
    residual: float
    singular_values: np.ndarray
    degenerate_tie: bool = False


@dataclass(frozen=True)
class EstimateResult:
    """Reconstructed state and detector with per-stage diagnostics."""

    rho_hat: DensityMatrix
    povm_hat: Povm
    rho_bar: np.ndarray
    povm_bar: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage, labeling any package error with its stage.

    A failed LAPACK routine (an SVD that does not converge, a singular
    solve) is a numerical degeneracy of that stage.
    """
    try:
        return fn(*args, **kwargs)
    except TomographyError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"[{name}] {exc}") from exc


def build_targets_v1(ds: MeasurementDataset, basis: OperatorBasis) -> np.ndarray:
    """Regression targets: frequencies minus the trace-component background.

    For trace-preserving processes the background is ``c_j0 / sqrt(d)``;
    otherwise the measured ``x_a0`` replaces the exact ``1/sqrt(d)``.
    """
    if ds.y_hat.shape[1] != len(ds.c_j0_hat):
        raise ValidationError("dataset is missing detector trace estimates")
    if ds.anchor_index > basis.n_traceless:
        raise ValidationError(
            f"anchor index must be in 1..{basis.n_traceless}, got {ds.anchor_index}")
    x_a0 = np.where(ds.tp_flags, 1.0 / np.sqrt(basis.d), ds.x_a0_hat)
    return ds.y_hat - np.outer(x_a0, ds.c_j0_hat)


def stage1_solve(b, y: np.ndarray, config: Stage1Config) -> np.ndarray:
    """Solve ``min || y - B z ||`` by the configured method.

    ``b`` is a FactoredDesign or a raw matrix, which is factored here.
    ``y`` may be a vector or a matrix of stacked targets (one column per
    outcome); the solution has matching shape.  Each method is a filter on
    the singular values: ``plain_ls`` inverts them all and refuses a
    rank-deficient B, ``mp_inverse`` inverts those above ``RANK_RTOL * s[0]``
    and drops the rest, and ``tikhonov`` applies ``s / (s^2 + reg_scale)``,
    refusing ``reg_scale = 0`` on a rank-deficient B.
    """
    y = np.asarray(y)
    if y.shape[0] != np.shape(b)[0]:
        raise ValidationError(f"target length {y.shape[0]} does not match {np.shape(b)[0]} rows")
    if config.method == "tikhonov" and config.reg_scale is None:
        raise ValidationError("tikhonov needs a concrete reg_scale (or resolve via dataset)")
    design = factor_design(b)
    s, full_rank = design.s, design.full_column_rank
    if config.method == "plain_ls":
        if not full_rank:
            raise DegeneracyError(
                "regression matrix is rank deficient; use mp_inverse or tikhonov"
            )
        f = 1.0 / s
    elif config.method == "mp_inverse":
        f = np.zeros_like(s)
        f[:design.rank] = 1.0 / s[:design.rank]
    else:
        if config.reg_scale == 0.0 and not full_rank:
            raise DegeneracyError("regularized normal matrix is singular: B is rank deficient")
        f = s / (s * s + config.reg_scale)
    coef = design.u.conj().T @ y
    coef = coef * (f if y.ndim == 1 else f[:, None])
    return design.vh.conj().T @ coef


def rearrange(z: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape ``z`` so that ``||z - x kron c|| == ||rearrange(z) - x c^T||``."""
    z = np.asarray(z)
    if z.size != rows * cols:
        raise ValidationError(f"cannot rearrange length {z.size} into {rows}x{cols}")
    return z.reshape(rows, cols)


def nearest_kronecker(z: np.ndarray, rows: int, cols: int) -> KroneckerFactorization:
    """Best approximation of ``z`` by ``left kron right`` (top SVD triplet).

    The factorization is unique only up to ``(q left, right / q)``; ties in
    the top singular value are resolved by taking the first triplet and
    flagged in the result.
    """
    mat = rearrange(z, rows, cols)
    u, s, vh = np.linalg.svd(mat)
    if s[0] <= 1e-12 * max(1.0, float(np.linalg.norm(z))):
        raise DegeneracyError("rearranged matrix is numerically zero; no rank-1 factor")
    left = np.sqrt(s[0]) * u[:, 0]
    right = np.sqrt(s[0]) * vh[0, :]
    residual = float(np.sqrt(max(np.sum(s[1:] ** 2), 0.0)))
    tie = bool(len(s) > 1 and (s[0] - s[1]) <= 1e-12 * s[0])
    return KroneckerFactorization(
        left=left, right=right, residual=residual, singular_values=s, degenerate_tie=tie
    )


def fix_scale_v1(fac: KroneckerFactorization, x01_bar: float, tol: float = ANCHOR_RTOL,
                 anchor: int = 0):
    """Resolve the Kronecker scale ambiguity with the measured anchor coordinate.

    Returns the rescaled pair ``(x_bar, c_bar)`` with
    ``x_bar[anchor] == x01_bar`` and ``x_bar kron c_bar`` unchanged.
    """
    pivot = float(fac.left[anchor])
    if abs(pivot) <= tol * np.linalg.norm(fac.left):
        raise DegeneracyError(
            f"anchor coordinate {pivot:.3e} is too small relative to the factor; "
            "choose a different anchor observable"
        )
    if x01_bar == 0.0:
        raise DegeneracyError("measured anchor value is zero; the scale cannot be fixed")
    ratio = x01_bar / pivot
    return np.asarray(fac.left, float) * ratio, np.asarray(fac.right, float) / ratio


def combine_state_estimates(candidates) -> np.ndarray:
    """Merge the per-outcome state estimates by their arithmetic mean."""
    return np.stack([np.asarray(c) for c in candidates]).mean(axis=0)


def _project_simplex(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection of a real vector onto the simplex of sum ``total``."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(u) + 1)
    k = idx[u - css / idx > 0][-1]
    tau = css[k - 1] / k
    return np.maximum(v - tau, 0.0)


def _nearest_density(rho: np.ndarray) -> np.ndarray:
    """The density matrix nearest to a Hermitian unit-trace matrix.

    Keeps the eigenvectors and replaces the eigenvalues by their Euclidean
    projection onto the probability simplex; a matrix that is already PSD
    is only divided by its trace.  Inputs are not checked.
    """
    rho = (rho + rho.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] >= 0.0:
        return rho / float(np.real(np.trace(rho)))
    return (vecs * _project_simplex(vals)) @ vecs.conj().T


def _clip_negative(elements: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of matrices ``(..., d, d)`` and clip the negative
    eigenvalues of each to zero, one stacked ``eigh`` for all."""
    elements = (elements + elements.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(elements)
    return (vecs * np.maximum(vals, 0.0)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def correct_state(rho_bar: np.ndarray, trace_tol: float = 1e-6) -> DensityMatrix:
    """Nearest density matrix to a Hermitian unit-trace estimate.

    Keeps the eigenvectors and replaces the eigenvalues by their Euclidean
    projection onto the probability simplex, which is the global Frobenius
    projection onto the set of density matrices.
    """
    rho_bar = np.asarray(rho_bar, dtype=complex)
    if np.linalg.norm(rho_bar - rho_bar.conj().T) > 1e-9 * max(1.0, np.linalg.norm(rho_bar)):
        raise ValidationError("state estimate must be Hermitian before correction")
    tr = float(np.real(np.trace(rho_bar)))
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError(f"state estimate has trace {tr:.6g}, expected 1")
    rho = _nearest_density(rho_bar)
    return DensityMatrix(rho.shape[0], rho)


def correct_povm(elements, eps_scale: float = 1e-8, info: dict = None) -> Povm:
    """Map rough detector estimates onto a valid POVM.

    Each element is symmetrized and its negative eigenvalues are clipped to
    zero; the clipped set is then renormalized as
    ``S^{-1/2} P_j S^{-1/2}`` with ``S`` the element sum.  If clipping leaves
    ``S`` singular, ``eps_scale * ||S|| * I`` is added first (recorded in
    ``info`` when a dict is supplied).
    """
    elements = np.asarray(elements, dtype=complex)
    d = elements.shape[-1]
    clipped = _clip_negative(elements)
    s = clipped.sum(axis=0)
    s_norm = float(np.linalg.norm(s))
    eps_used = 0.0
    if np.linalg.eigvalsh(s)[0] <= eps_scale * s_norm:
        eps_used = eps_scale * s_norm
        s = s + eps_used * np.eye(d)
        if np.linalg.eigvalsh(s)[0] <= 0.0:
            raise DegeneracyError("element sum is singular beyond the epsilon repair")
    w, v = np.linalg.eigh(s)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    out = np.einsum("ij,kjl,lm->kim", inv_sqrt, clipped, inv_sqrt)
    if np.linalg.norm(out.sum(axis=0) - np.eye(d)) > 1e-10 * d:
        # a direction with (numerically) no clipped mass cannot be renormalized
        raise DegeneracyError("element sum is singular beyond the epsilon repair")
    if info is not None:
        info["povm_epsilon"] = eps_used
    return Povm(d, out)


def _corrected(rho_bar: np.ndarray, povm_bar: np.ndarray, diagnostics: dict) -> EstimateResult:
    """Correct a rough pair onto the physical sets and package the result.

    ``diagnostics`` is extended by the correction distances and the POVM
    epsilon repair.
    """
    info = {}
    rho_hat = _stage("correct", correct_state, rho_bar)
    povm_hat = _stage("correct", correct_povm, povm_bar, info=info)
    diagnostics = {
        **diagnostics,
        "state_correction_distance": float(np.linalg.norm(rho_hat.rho - rho_bar)),
        "povm_correction_distance": float(np.linalg.norm(povm_hat.elements - povm_bar)),
        "povm_epsilon": info.get("povm_epsilon", 0.0),
    }
    return EstimateResult(rho_hat=rho_hat, povm_hat=povm_hat, rho_bar=rho_bar,
                          povm_bar=povm_bar, diagnostics=diagnostics)


def _reconstruct(y: np.ndarray, design: FactoredDesign, config: Stage1Config, side: int,
                 rescale, assemble) -> EstimateResult:
    """The pipeline shared by both bases, after the targets ``y`` are formed.

    Solves stage 1 with the factored design, factors every outcome's column
    as a ``side x side`` Kronecker pair, averages the state candidates and
    corrects the result.  The representation supplies the rest: ``rescale(j, fac)`` fixes outcome
    ``j``'s scale and returns ``(state candidate, detector candidate, anchor
    value)``, and ``assemble(state, detector candidates)`` returns the rough
    matrices ``(rho_bar, povm_bar)``.
    """
    z = _stage("stage1", stage1_solve, design, y, config)
    facs, scaled = [], []
    for j in range(y.shape[1]):
        facs.append(_stage("kronecker", nearest_kronecker, z[:, j], side, side))
        scaled.append(_stage("scale", rescale, j, facs[-1]))
    candidates, detectors, anchors = zip(*scaled)
    mean = combine_state_estimates(candidates)
    rho_bar, povm_bar = _stage("scale", assemble, mean, detectors)

    spread = np.stack(candidates) - mean
    diagnostics = {
        "method": config.method,
        "reg_scale": config.reg_scale,
        "rank_b": design.rank,
        "stage1_residuals": [float(np.linalg.norm(r)) for r in (y - design.b @ z).T],
        "kron_residuals": [f.residual for f in facs],
        "kron_ties": [f.degenerate_tie for f in facs],
        "anchor_values": list(anchors),
        "state_candidate_spread": float(np.max(np.linalg.norm(
            spread.reshape(len(spread), -1), axis=1))) if len(spread) > 1 else 0.0,
    }
    return _corrected(rho_bar, povm_bar, diagnostics)


def estimate_joint_v1(
    ds: MeasurementDataset,
    b,
    basis: OperatorBasis,
    config: Stage1Config = Stage1Config(),
) -> EstimateResult:
    """Full coherence-vector reconstruction from one dataset.

    ``b`` stacks the transfer e-blocks of the (generalized-unital) probe
    processes, one vectorized block per row, as any array-like matrix or as
    its ``factor_design`` record, which a raw matrix is turned into here.
    Each outcome's scale is fixed by the measured anchor coordinate; its
    anchor value is that coordinate of the unscaled state factor.
    """
    n = basis.n_traceless
    design = _stage("stage1", factor_design, b)
    if design.shape != (ds.n_processes, n * n):
        raise ValidationError(
            f"regression matrix must be {ds.n_processes}x{n * n}, got {design.shape}")
    config = config.resolved(ds.total_copies)
    anchor = ds.anchor_index - 1

    def rescale(j, fac):
        x_bar, c_bar = fix_scale_v1(fac, ds.x01_bar, anchor=anchor)
        return x_bar, c_bar, float(fac.left[anchor])

    def assemble(x0, c_bars):
        rho_bar = coords_to_state(StateCoordinates(1.0 / np.sqrt(basis.d), x0), basis)
        povm_bar = np.stack([
            coords_to_povm_element(PovmCoordinates(c0, c), basis)
            for c0, c in zip(ds.c_j0_hat, c_bars)
        ])
        return rho_bar, povm_bar

    y = _stage("targets", build_targets_v1, ds, basis)
    return _reconstruct(y, design, config, n, rescale, assemble)


def estimate_joint_v2(
    ds,
    b_natural,
    config: Stage1Config = Stage1Config(),
    total_copies: int = None,
) -> EstimateResult:
    """Natural-basis reconstruction for arbitrary (not necessarily
    generalized-unital) processes.

    ``b_natural`` is any array-like matrix or its ``factor_design`` record.
    ``ds`` may be a full MeasurementDataset (only its raw frequencies are
    used) or a plain L x M frequency matrix, which is checked as a dataset's
    frequencies are (``frequency_matrix``).  Per outcome, the complex rank-1
    factorization yields a candidate pair ``(vec(rho), vec(P_j^T))`` whose
    joint complex scale is fixed by normalizing the state candidate to unit
    trace; the detector candidate absorbs the inverse factor.  The anchor
    value of an outcome is the modulus of that trace.
    """
    if isinstance(ds, MeasurementDataset):
        y_hat = ds.y_hat
        total_copies = ds.total_copies
    else:
        y_hat = _stage("targets", frequency_matrix, ds)
    design = _stage("stage1", factor_design, b_natural)
    d4 = design.shape[1]
    d = int(round(d4 ** 0.25))
    if d ** 4 != d4:
        raise ValidationError(f"superoperator matrix has {d4} columns, not a fourth power")
    if config.method == "tikhonov" and config.reg_scale is None and total_copies is None:
        raise ValidationError("tikhonov auto-scale needs the total copy count")
    config = config.resolved(total_copies)

    def rescale(j, fac):
        rho_tilde = devectorize(fac.left)
        tr = complex(np.trace(rho_tilde))
        if abs(tr) <= 1e-6 * max(np.linalg.norm(fac.left), 1e-30):
            raise DegeneracyError(f"state candidate {j} has near-zero trace {tr:.3e}")
        p_tilde = devectorize(fac.right).T * tr
        return rho_tilde / tr, (p_tilde + p_tilde.conj().T) / 2.0, abs(tr)

    def assemble(rho_tilde, povm_parts):
        rho_sym = (rho_tilde + rho_tilde.conj().T) / 2.0
        tr = float(np.real(np.trace(rho_sym)))
        if abs(tr) < 1e-6:
            raise DegeneracyError(f"symmetrized state has near-zero trace {tr:.3e}")
        return rho_sym / tr, np.stack(povm_parts)

    return _reconstruct(y_hat.astype(complex), design, config, d * d, rescale, assemble)


def project_pure(state: DensityMatrix, info: dict = None) -> DensityMatrix:
    """Rank-1 projection onto the dominant eigenvector.

    Degenerate top eigenvalues are resolved deterministically by the
    eigendecomposition order; the tie is reported through ``info``.
    """
    vals, vecs = np.linalg.eigh(state.rho)
    if info is not None:
        info["eigenvalue_tie"] = bool(
            len(vals) > 1 and vals[-1] - vals[-2] <= 1e-12 * max(abs(vals[-1]), 1.0)
        )
    v = vecs[:, -1]
    return DensityMatrix(state.d, np.outer(v, v.conj()))
