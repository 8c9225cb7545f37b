"""Closed-form joint reconstruction of a state and a detector.

The pipeline runs on a stack of T datasets at once (a ``DatasetStack``, read
as arrays; the copy count, anchor and resolved stage-1 settings once per
stack); a single estimate is the stack T = 1.  It has four steps:

1. assemble regression targets from the measured frequencies and the
   calibration estimates, one ``(T, L, M)`` expression for the stack,
2. solve the linear system ``B z = Y`` by plain least squares, the
   Moore-Penrose inverse, or Tikhonov regularization.  B depends only on the
   probe processes, so its economy SVD ``B = U S V^dag`` is computed once per
   design (``channels.factor_design``, which keeps the factors of the last
   few raw matrices for the process; ``RegressionMatrices.design`` and
   ``design_natural`` hold it for an ensemble, and the ensemble's ranks and
   completeness verdicts are read off that same factorization) and every
   solve applies it: ``z = V diag(f(s)) U^dag Y`` with the method's filter
   factors ``f``, one pair of matrix products for the ``T M`` target columns
   of every outcome of every dataset,
3. factor each column of ``z`` as a Kronecker product of a state vector and
   a detector vector through the rank-1 SVD of its rearrangement (one
   stacked SVD for all ``T M`` columns), fix the scales (vectorized), and
   average each dataset's state candidates,
4. correct the reconstructed matrices onto the physical sets (eigenvalue
   simplex projection for the state; clip-and-renormalize for the detector),
   with one stacked eigendecomposition for the T states and one for the
   ``T M`` detector elements, and one stacked check of each.

The result is a ``StackEstimates`` record of arrays: the ``(T, d, d)`` states,
the ``(T, M, d, d)`` detectors, the diagnostics and a ``refused`` mask.
``EstimateResult`` objects are built only for callers that ask for one
dataset's result (``StackEstimates.results``; ``estimate_joint_v1``/``v2``
are the stack T = 1 of a ``MeasurementDataset``).

Steps 2-4 are shared by two bases.  The coherence-vector version regresses
background-subtracted targets for generalized-unital processes and fixes the
scale with the separately measured anchor coordinate; the natural-basis
version regresses raw frequencies on the stacked superoperators of arbitrary
processes and fixes the scale by unit trace.

A step that refuses some datasets of a stack says which (the ``refused``
mask of its DegeneracyError); they leave the stack there, and the step runs
again on the rest, so one degenerate dataset never costs the others their
estimates.  The stacked pass reports a refused dataset in its mask only;
estimating that dataset alone raises the step's error.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorBasis, _from_coords, coherence_to_state
from .channels import FactoredDesign, factor_design
from .errors import DegeneracyError, TomographyError, ValidationError
from .measurement import (
    DatasetStack,
    DensityMatrix,
    MeasurementDataset,
    Povm,
    _new,
)

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
    """Best rank-1 Kronecker factorization ``z ~ left kron right``.

    For a stack of vectors ``z`` every field carries the stack's leading
    axes, ``residual`` and ``degenerate_tie`` as arrays.
    """

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


@dataclass(frozen=True)
class StackEstimates:
    """The estimates of a stack of T datasets, as arrays led by the dataset
    axis.

    ``rho_hat`` ``(T, d, d)`` and ``povm_hat`` ``(T, M, d, d)`` are checked
    states and detectors, corrected from the rough ``rho_bar`` and
    ``povm_bar``.  ``refused`` marks the datasets a step refused; their
    entries are copies of a standing dataset's, placeholders that pass every
    check.  ``diagnostics`` maps each name to one value the stack shares or
    to an array with one entry per dataset.
    """

    rho_hat: np.ndarray
    povm_hat: np.ndarray
    rho_bar: np.ndarray
    povm_bar: np.ndarray
    refused: np.ndarray
    diagnostics: dict

    def results(self) -> list:
        """Per dataset its EstimateResult, or None where a step refused it."""
        d = self.rho_hat.shape[-1]
        per_dataset = {k: v.tolist() for k, v in self.diagnostics.items()
                       if isinstance(v, np.ndarray)}
        return [
            None if bad else EstimateResult(
                rho_hat=_new(DensityMatrix, d=d, rho=self.rho_hat[k]),
                povm_hat=_new(Povm, d=d, elements=self.povm_hat[k]),
                rho_bar=self.rho_bar[k], povm_bar=self.povm_bar[k],
                diagnostics={name: per_dataset[name][k] if name in per_dataset else value
                             for name, value in self.diagnostics.items()})
            for k, bad in enumerate(self.refused.tolist())
        ]


def _stage(name: str, fn, *args, **kwargs):
    """Run one pipeline stage, labeling any package error with its stage.

    A failed LAPACK routine (an SVD that does not converge, a singular
    solve) is a numerical degeneracy of that stage.
    """
    try:
        return fn(*args, **kwargs)
    except DegeneracyError as exc:
        raise DegeneracyError(f"[{name}] {exc}", refused=exc.refused) from exc
    except TomographyError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError(f"[{name}] {exc}") from exc


def _lanewise(name: str, refused: np.ndarray, inputs, fn, *args, **kwargs):
    """``_stage`` over a stack of datasets, some of which it may refuse.

    ``refused`` marks the datasets refused so far.  Before the stage runs,
    each of them takes the first standing dataset's entries of ``inputs``
    (the arrays, led by the dataset axis, that the stage reads; changed in
    place), so that it passes wherever that dataset does.  A DegeneracyError
    whose ``refused`` mask (over the stack's leading axes, the datasets
    first) names standing datasets marks them, and the stage runs again.  It
    raises when it refuses every dataset, or none that was standing.
    """
    while True:
        if refused.any():
            keep = np.flatnonzero(~refused)[0]
            for a in inputs:
                a[refused] = a[keep]
        try:
            return _stage(name, fn, *args, **kwargs)
        except DegeneracyError as exc:
            if exc.refused is None:
                raise
            grown = refused | np.reshape(exc.refused, (len(refused), -1)).any(axis=1)
            if grown.all() or np.array_equal(grown, refused):
                raise
            refused |= grown


def build_targets_v1(ds, basis: OperatorBasis) -> np.ndarray:
    """Regression targets: frequencies minus the trace-component background.

    For trace-preserving processes the background is ``c_j0 / sqrt(d)``;
    otherwise the measured ``x_a0`` replaces the exact ``1/sqrt(d)``.
    ``ds`` is a MeasurementDataset, whose targets are an L x M matrix, or a
    DatasetStack, whose targets are one ``(T, L, M)`` expression.
    """
    if ds.y_hat.shape[-1] != ds.c_j0_hat.shape[-1]:
        raise ValidationError("dataset is missing detector trace estimates")
    if ds.anchor_index > basis.n_traceless:
        raise ValidationError(
            f"anchor index must be in 1..{basis.n_traceless}, got {ds.anchor_index}")
    x_a0 = np.where(ds.tp_flags, 1.0 / np.sqrt(basis.d), ds.x_a0_hat)
    return ds.y_hat - x_a0[..., :, None] * ds.c_j0_hat[..., None, :]


def stage1_solve(b, y: np.ndarray, config: Stage1Config) -> np.ndarray:
    """Solve ``min || y - B z ||`` by the configured method.

    ``b`` is a FactoredDesign or a raw matrix, which ``factor_design``
    factors once per process.
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
    """Reshape ``z`` so that ``||z - x kron c|| == ||rearrange(z) - x c^T||``.

    Leading axes of ``z`` are a stack of vectors, each rearranged alike.
    """
    z = np.atleast_1d(np.asarray(z))
    if z.shape[-1] != rows * cols:
        raise ValidationError(f"cannot rearrange length {z.shape[-1]} into {rows}x{cols}")
    return z.reshape(*z.shape[:-1], rows, cols)


def nearest_kronecker(z: np.ndarray, rows: int, cols: int) -> KroneckerFactorization:
    """Best approximation of ``z`` by ``left kron right`` (top SVD triplet).

    The factorization is unique only up to ``(q left, right / q)``; ties in
    the top singular value are resolved by taking the first triplet and
    flagged in the result.  Leading axes of ``z`` are a stack of vectors,
    factored by one stacked SVD: every field of the result then carries
    those axes, and the stack is refused if any of its matrices is zero
    (the error's ``refused`` mask says which).
    """
    mat = rearrange(z, rows, cols)
    u, s, vh = np.linalg.svd(mat)
    top = s[..., 0]
    zero = top <= 1e-12 * np.maximum(1.0, np.linalg.norm(mat, axis=(-2, -1)))
    if np.any(zero):
        raise DegeneracyError("rearranged matrix is numerically zero; no rank-1 factor",
                              refused=zero)
    root = np.sqrt(top)[..., None]
    residual = np.sqrt(np.sum(s[..., 1:] ** 2, axis=-1))
    if s.shape[-1] > 1:
        tie = top - s[..., 1] <= 1e-12 * top
    else:
        tie = np.zeros(top.shape, dtype=bool)
    if mat.ndim == 2:
        residual, tie = float(residual), bool(tie)
    return KroneckerFactorization(
        left=root * u[..., :, 0], right=root * vh[..., 0, :], residual=residual,
        singular_values=s, degenerate_tie=tie,
    )


def fix_scale_v1(fac: KroneckerFactorization, x01_bar, tol: float = ANCHOR_RTOL,
                 anchor: int = 0):
    """Resolve the Kronecker scale ambiguity with the measured anchor coordinate.

    Returns the rescaled pair ``(x_bar, c_bar)`` with
    ``x_bar[anchor] == x01_bar`` and ``x_bar kron c_bar`` unchanged.  A
    stacked factorization is rescaled factor by factor, with ``x01_bar``
    broadcast against its leading axes; the stack is refused if any factor
    is (the error's ``refused`` mask says which).
    """
    left = np.asarray(fac.left, float)
    pivot = left[..., anchor]
    small = np.abs(pivot) <= tol * np.linalg.norm(left, axis=-1)
    x01_bar = np.broadcast_to(x01_bar, pivot.shape)
    zero = x01_bar == 0.0
    if np.any(small):
        raise DegeneracyError(
            f"anchor coordinate {pivot[small][0]:.3e} is too small relative to the factor; "
            "choose a different anchor observable", refused=small | zero,
        )
    if np.any(zero):
        raise DegeneracyError("measured anchor value is zero; the scale cannot be fixed",
                              refused=zero)
    ratio = (x01_bar / pivot)[..., None]
    return left * ratio, np.asarray(fac.right, float) / ratio


def combine_state_estimates(candidates) -> np.ndarray:
    """Merge the per-outcome state estimates by their arithmetic mean.

    The mean runs over the first axis, the outcomes; any further axes (a
    stack of datasets, then the candidates' own) are kept.
    """
    return np.asarray(candidates).mean(axis=0)


def _project_simplex(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    """Euclidean projection of real vectors onto the simplex of sum ``total``,
    one vector along the last axis of ``v``.

    With ``u`` sorted in descending order, the threshold is the largest of
    ``(u_1 + .. + u_k - total) / k`` over k; it is attained at the last k
    whose ``u_k`` exceeds it.
    """
    u = np.sort(v, axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - total
    tau = (css / np.arange(1, u.shape[-1] + 1)).max(axis=-1, keepdims=True)
    return np.maximum(v - tau, 0.0)


def _nearest_density(rho: np.ndarray) -> np.ndarray:
    """The density matrices nearest to Hermitian unit-trace matrices ``(..., d, d)``.

    Keeps the eigenvectors and replaces the eigenvalues by their Euclidean
    projection onto the probability simplex; a matrix that is already PSD
    is only divided by its trace.  Inputs are not checked.
    """
    rho = (rho + rho.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    psd = vals[..., :1, None] >= 0.0
    n_psd = np.count_nonzero(psd)
    if n_psd < psd.size:
        projected = (vecs * _project_simplex(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        if n_psd == 0:
            return projected
    scaled = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return scaled if n_psd == psd.size else np.where(psd, scaled, projected)


def _clip_negative(elements: np.ndarray) -> np.ndarray:
    """Symmetrize a stack of matrices ``(..., d, d)`` and clip the negative
    eigenvalues of each to zero, one stacked ``eigh`` for all."""
    elements = (elements + elements.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = np.linalg.eigh(elements)
    return (vecs * np.maximum(vals, 0.0)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def correct_state(rho_bar: np.ndarray, trace_tol: float = 1e-6):
    """Nearest density matrix to a Hermitian unit-trace estimate.

    Keeps the eigenvectors and replaces the eigenvalues by their Euclidean
    projection onto the probability simplex, which is the global Frobenius
    projection onto the set of density matrices.  A stack ``(T, d, d)`` of
    estimates is corrected with one stacked eigendecomposition and gives a
    list of T states, checked as states by one stacked pass
    (``DensityMatrix.stack``), not T constructor calls; it is refused if any
    of its estimates is, and if any has a non-finite entry.
    """
    rho = _nearest_states(np.asarray(rho_bar, dtype=complex), trace_tol)
    d = rho.shape[-1]
    return DensityMatrix(d, rho) if rho.ndim == 2 else DensityMatrix.stack(d, rho)


def _nearest_states(rho_bar: np.ndarray, trace_tol: float = 1e-6) -> np.ndarray:
    """``correct_state``'s projection of finite, Hermitian, unit-trace
    estimates ``(..., d, d)``, with its input checks but not the output's."""
    if not np.isfinite(rho_bar).all():
        raise ValidationError("state estimate has a non-finite entry")
    defect = np.linalg.norm(rho_bar - rho_bar.conj().swapaxes(-1, -2), axis=(-2, -1))
    if np.any(defect > 1e-9 * np.maximum(1.0, np.linalg.norm(rho_bar, axis=(-2, -1)))):
        raise ValidationError("state estimate must be Hermitian before correction")
    tr = np.real(np.trace(rho_bar, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0) > trace_tol
    if np.any(off):
        raise ValidationError(f"state estimate has trace {tr[off][0]:.6g}, expected 1")
    return _nearest_density(rho_bar)


def correct_povm(elements, eps_scale: float = 1e-8, info: dict = None):
    """Map rough detector estimates onto a valid POVM.

    Each element is symmetrized and its negative eigenvalues are clipped to
    zero; the clipped set is then renormalized as
    ``S^{-1/2} P_j S^{-1/2}`` with ``S`` the element sum.  If clipping leaves
    ``S`` singular, ``eps_scale * ||S|| * I`` is added first (recorded in
    ``info`` when a dict is supplied).  A stack ``(T, M, d, d)`` of detectors
    is corrected with stacked eigendecompositions and gives a list of T
    POVMs, checked as detectors by one stacked pass (``Povm.stack``), not T
    constructor calls, with one ``povm_epsilon`` per detector in ``info``;
    it is refused if any of its detectors is (the error's ``refused`` mask
    says which), and if any has a non-finite entry.
    """
    out, eps_used = _nearest_povms(np.asarray(elements, dtype=complex), eps_scale)
    if info is not None:
        info["povm_epsilon"] = eps_used if eps_used.ndim else float(eps_used)
    d = out.shape[-1]
    return Povm(d, out) if out.ndim == 3 else Povm.stack(d, out)


def _nearest_povms(elements: np.ndarray, eps_scale: float = 1e-8) -> tuple:
    """``correct_povm``'s map of finite detector estimates ``(..., M, d, d)``,
    without the output's check: the elements and the epsilon added per
    detector."""
    if not np.isfinite(elements).all():
        raise ValidationError("detector estimate has a non-finite entry")
    d = elements.shape[-1]
    eye = np.eye(d)
    clipped = _clip_negative(elements)
    s = clipped.sum(axis=-3)
    floor = eps_scale * np.linalg.norm(s, axis=(-2, -1))
    eps_used = np.where(np.linalg.eigvalsh(s)[..., 0] <= floor, floor, 0.0)
    w, v = np.linalg.eigh(s + eps_used[..., None, None] * eye)
    singular = w[..., 0] <= 0.0
    if np.any(singular):
        raise DegeneracyError("element sum is singular beyond the epsilon repair",
                              refused=singular)
    inv_sqrt = ((v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))[..., None, :, :]
    out = inv_sqrt @ clipped @ inv_sqrt
    # a direction with (numerically) no clipped mass cannot be renormalized
    singular = np.linalg.norm(out.sum(axis=-3) - eye, axis=(-2, -1)) > 1e-10 * d
    if np.any(singular):
        raise DegeneracyError("element sum is singular beyond the epsilon repair",
                              refused=singular)
    return out, eps_used


def _physical_states(rho_bar: np.ndarray) -> np.ndarray:
    """A stack ``(T, d, d)`` of rough states corrected and checked as states."""
    return DensityMatrix.checked(rho_bar.shape[-1], _nearest_states(rho_bar))


def _physical_povms(povm_bar: np.ndarray) -> tuple:
    """A stack ``(T, M, d, d)`` of rough detectors corrected and checked as
    detectors, with the epsilon repair of each."""
    out, eps_used = _nearest_povms(povm_bar)
    return Povm.checked(out.shape[-1], out), eps_used


def _corrected(rho_bar: np.ndarray, povm_bar: np.ndarray, diagnostics: dict,
               refused: np.ndarray = None) -> StackEstimates:
    """Correct a stack of rough pairs onto the physical sets.

    ``rho_bar`` is ``(T, d, d)`` and ``povm_bar`` is ``(T, M, d, d)``;
    ``refused`` marks the pairs refused before (none if omitted) and gains
    those refused here.  ``diagnostics`` (see ``StackEstimates``) gains the
    correction distances (two stacked norms) and the POVM epsilon repair,
    one per pair.
    """
    t = len(rho_bar)
    if refused is None:
        refused = np.zeros(t, dtype=bool)
    rho = _stage("correct", _physical_states, rho_bar)
    povm, eps = _lanewise("correct", refused, [povm_bar], _physical_povms, povm_bar)
    return StackEstimates(rho, povm, rho_bar, povm_bar, refused, {
        **diagnostics,
        "state_correction_distance": np.linalg.norm((rho - rho_bar).reshape(t, -1), axis=1),
        "povm_correction_distance": np.linalg.norm((povm - povm_bar).reshape(t, -1), axis=1),
        "povm_epsilon": eps,
    })


def _reconstruct(y: np.ndarray, design: FactoredDesign, config: Stage1Config, side: int,
                 rescale, assemble, lane_inputs=()) -> StackEstimates:
    """The pipeline shared by both bases, after the targets are formed.

    ``y`` stacks the ``(L, M)`` targets of T datasets as ``(T, L, M)``.
    Solves stage 1 for all ``T M`` columns with the factored design, factors
    every column as a ``side x side`` Kronecker pair by one stacked SVD,
    averages each dataset's state candidates and corrects the results.  The
    representation supplies the rest: ``rescale(facs)`` fixes the scales of
    the ``(T, M)`` stack of factorizations and returns ``(state candidates,
    detector candidates, anchor values)``, each with leading axes ``(T, M)``,
    and ``assemble(states, detector candidates)`` returns the rough matrices
    ``(rho_bar, povm_bar)`` of the T datasets from their mean states.
    ``lane_inputs`` are the per-dataset arrays (led by the dataset axis)
    that ``rescale`` reads besides the factorizations; refused datasets'
    entries are overwritten in them.
    Returns the stack's estimates, with the datasets a step refused marked
    (see ``_lanewise``); a step that refuses every dataset raises its
    stage-labelled error.
    """
    t, l, m = y.shape
    cols = y.transpose(1, 0, 2).reshape(l, t * m)
    z = _stage("stage1", stage1_solve, design, cols, config)
    residuals = np.linalg.norm(cols - design.b @ z, axis=0).reshape(t, m)
    z = z.T.reshape(t, m, -1)
    refused = np.zeros(t, dtype=bool)
    facs = _lanewise("kronecker", refused, [z], nearest_kronecker, z, side, side)
    candidates, detectors, anchors = _lanewise(
        "scale", refused, [facs.left, facs.right, *lane_inputs], rescale, facs)
    mean = combine_state_estimates(candidates.swapaxes(0, 1))
    rho_bar, povm_bar = _lanewise("scale", refused, [mean], assemble, mean, detectors)

    spread = np.linalg.norm((candidates - mean[:, None]).reshape(t, m, -1), axis=-1).max(axis=1)
    return _corrected(rho_bar, povm_bar, {
        "method": config.method,
        "reg_scale": config.reg_scale,
        "rank_b": design.rank,
        "stage1_residuals": residuals,
        "kron_residuals": facs.residual,
        "kron_ties": facs.degenerate_tie,
        "anchor_values": anchors,
        "state_candidate_spread": spread if m > 1 else np.zeros(t),
    }, refused)


def _one_stack(ds) -> DatasetStack:
    """A MeasurementDataset as a stack of one; anything else is refused."""
    if not isinstance(ds, MeasurementDataset):
        raise ValidationError(f"need a MeasurementDataset, got {type(ds).__name__}")
    return ds.as_stack()


def _estimates_v1(stack: DatasetStack, b, basis: OperatorBasis,
                  config: Stage1Config) -> StackEstimates:
    """Coherence-vector reconstruction of a stack of datasets."""
    n = basis.n_traceless
    design = _stage("stage1", factor_design, b)
    l = stack.n_processes
    if design.shape != (l, n * n):
        raise ValidationError(f"regression matrix must be {l}x{n * n}, got {design.shape}")
    config = config.resolved(stack.total_copies)
    anchor = stack.anchor_index - 1
    x01_bar = stack.x01_bar[:, None].copy()  # a refused dataset's entry is overwritten
    c0 = stack.c_j0_hat

    def rescale(facs):
        x_bar, c_bar = fix_scale_v1(facs, x01_bar, anchor=anchor)
        return x_bar, c_bar, facs.left[..., anchor]

    def assemble(x0, c_bars):
        return (coherence_to_state(x0, basis),
                _from_coords(np.concatenate([c0[..., None], c_bars], axis=-1), basis))

    y = _stage("targets", build_targets_v1, stack, basis)
    return _reconstruct(y, design, config, n, rescale, assemble, [x01_bar])


def estimate_joint_v1(
    ds: MeasurementDataset,
    b,
    basis: OperatorBasis,
    config: Stage1Config = Stage1Config(),
) -> EstimateResult:
    """Full coherence-vector reconstruction from one dataset.

    ``b`` stacks the transfer e-blocks of the (generalized-unital) probe
    processes, one vectorized block per row, as any array-like matrix or as
    its ``factor_design`` record, which a raw matrix is turned into here
    (factored once per process).
    Each outcome's scale is fixed by the measured anchor coordinate; its
    anchor value is that coordinate of the unscaled state factor.
    """
    (result,) = _estimates_v1(_one_stack(ds), b, basis, config).results()
    return result


def _estimates_v2(stack: DatasetStack, b_natural, config: Stage1Config) -> StackEstimates:
    """Natural-basis reconstruction of a stack of datasets, from their raw
    frequencies."""
    design = _stage("stage1", factor_design, b_natural)
    d4 = design.shape[1]
    d = int(round(d4 ** 0.25))
    if d ** 4 != d4:
        raise ValidationError(f"superoperator matrix has {d4} columns, not a fourth power")
    config = config.resolved(stack.total_copies)

    def rescale(facs):
        # devectorize is column-major: vec(A) reshaped row-major is A^T
        rho_tilde = facs.left.reshape(*facs.left.shape[:-1], d, d).swapaxes(-1, -2)
        tr = np.trace(rho_tilde, axis1=-2, axis2=-1)
        small = np.abs(tr) <= 1e-6 * np.maximum(np.linalg.norm(facs.left, axis=-1), 1e-30)
        if np.any(small):
            t, j = np.argwhere(small)[0]
            raise DegeneracyError(
                f"state candidate {j} has near-zero trace {complex(tr[t, j]):.3e}",
                refused=small)
        p_tilde = facs.right.reshape(*facs.right.shape[:-1], d, d) * tr[..., None, None]
        return (rho_tilde / tr[..., None, None],
                (p_tilde + p_tilde.conj().swapaxes(-1, -2)) / 2.0, np.abs(tr))

    def assemble(rho_tilde, povm_parts):
        rho_sym = (rho_tilde + rho_tilde.conj().swapaxes(-1, -2)) / 2.0
        tr = np.real(np.trace(rho_sym, axis1=-2, axis2=-1))
        small = np.abs(tr) < 1e-6
        if np.any(small):
            raise DegeneracyError(f"symmetrized state has near-zero trace {tr[small][0]:.3e}",
                                  refused=small)
        return rho_sym / tr[..., None, None], povm_parts

    return _reconstruct(stack.y_hat.astype(complex), design, config, d * d, rescale, assemble)


def estimate_joint_v2(
    ds: MeasurementDataset,
    b_natural,
    config: Stage1Config = Stage1Config(),
) -> EstimateResult:
    """Natural-basis reconstruction for arbitrary (not necessarily
    generalized-unital) processes.

    ``b_natural`` is any array-like matrix or its ``factor_design`` record.
    Only the dataset's raw frequencies and its copy count (for Tikhonov's
    automatic scale) are used.  Per outcome, the complex rank-1
    factorization yields a candidate pair ``(vec(rho), vec(P_j^T))`` whose
    joint complex scale is fixed by normalizing the state candidate to unit
    trace; the detector candidate absorbs the inverse factor.  The anchor
    value of an outcome is the modulus of that trace.
    """
    (result,) = _estimates_v2(_one_stack(ds), b_natural, config).results()
    return result


def project_pure(state, info: dict = None):
    """Rank-1 projection onto the dominant eigenvector.

    Degenerate top eigenvalues are resolved deterministically by the
    eigendecomposition order; the tie is reported through ``info``.
    ``state`` may also be an array stack ``(..., d, d)`` of density
    matrices: it is projected by one stacked eigendecomposition, the
    projectors come back as an array, and ``info`` gets one tie flag per
    matrix.
    """
    single = isinstance(state, DensityMatrix)
    vals, vecs = np.linalg.eigh(state.rho if single else np.asarray(state))
    if info is not None:
        if vals.shape[-1] > 1:
            tie = vals[..., -1] - vals[..., -2] <= 1e-12 * np.maximum(np.abs(vals[..., -1]), 1.0)
        else:
            tie = np.zeros(vals.shape[:-1], dtype=bool)
        info["eigenvalue_tie"] = bool(tie) if single else tie
    v = vecs[..., :, -1]
    projectors = v[..., :, None] * v[..., None, :].conj()
    return DensityMatrix(state.d, projectors) if single else projectors
