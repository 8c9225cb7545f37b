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
   of every outcome of every dataset, read in place from targets laid out
   ``(L, T, M)``.  The residuals ``||Y - B z||`` come from the coefficients
   ``U^dag Y`` of that same solve (``_solved``), not from a product with B,
3. factor each column of ``z`` as a Kronecker product of a state vector and
   a detector vector through the top singular triplet of its rearrangement
   (one stacked ``eigh`` of the rearrangements' Gram matrices for all
   ``T M`` columns), fix the scales (vectorized), and average each dataset's
   state candidates,
4. correct the reconstructed matrices onto the physical sets (eigenvalue
   simplex projection for the state; clip-and-renormalize for the detector),
   with one stacked eigendecomposition for the T states, one for the
   ``T M`` detector elements and one for their T sums, and one stacked check
   of each (``correct_state``/``correct_povm`` are this step on one estimate).

The result is a ``StackEstimates`` record of arrays: the ``(T, d, d)`` states,
the ``(T, M, d, d)`` detectors, the diagnostics and a ``refused`` mask.
``EstimateResult`` objects are built only for callers that ask for one
dataset's result (``StackEstimates.results``; ``estimate_joint_v1``/``v2``
are the stack T = 1 of a ``MeasurementDataset``).

Each basis writes steps 2-4 straight through from the steps they share:
``_factors`` (stage 1 and the Kronecker factors), its own scale fix, the
outcome mean (``_mean_state``) and ``_corrected``.  The coherence-vector
version regresses background-subtracted targets for generalized-unital
processes and fixes the scale with the measured anchor coordinate
(``fix_scale_v1``); the natural-basis version regresses raw frequencies on
the stacked superoperators of arbitrary processes and fixes the scale by
unit trace (``_fix_scale_v2``), so its mean state has unit trace already.

The coherence-vector program is stated here once for every solver of it:
its input contract (``_targets_v1``: a real ``L x n^2`` design and the
``[targets]``-labelled targets) and its coordinate maps
(``coherence_to_state`` for states, ``_elements_from_coords`` for detector
elements).  The closed form below and ``refine.refine_alternating`` call
all three; the coordinate program of ``sos.export_sos_problem`` calls the
contract.

A step that refuses some datasets of a stack says which (the ``refused``
mask of its DegeneracyError); they leave the stack there, and the step runs
again on the rest, so one degenerate dataset never costs the others their
estimates.  The stacked pass reports a refused dataset in its mask only;
estimating that dataset alone raises the step's error.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorBasis, _from_coords, _skewed, coherence_to_state
from .channels import FactoredDesign, factor_design
from .errors import (DegeneracyError, TomographyError, ValidationError, _array, _bounded, _new,
                     _real, _record, _whole)
from .measurement import COMPLETENESS_TOL, DatasetStack, DensityMatrix, MeasurementDataset, Povm

STAGE1_METHODS = ("plain_ls", "mp_inverse", "tikhonov")
# |anchor coordinate| below this fraction of the factor norm is treated as a
# degenerate anchor rather than producing a huge rescale: v1's anchor
# coordinate, and v2's anchor, the trace of the state factor.
ANCHOR_RTOL = 1e-6
# v2's anchor test reads the factor norm as at least this, so that the test
# is absolute for a factor whose norm is below it.
_ANCHOR_NORM_FLOOR = 1e-30
# A state estimate's trace may differ from 1 by this much before correction.
STATE_TRACE_TOL = 1e-6
# A clipped detector's element sum S with an eigenvalue <= this * ||S|| is singular.
POVM_SINGULAR_RTOL = 1e-8
# A rearranged matrix Z whose top singular value is at most this times
# max(1, ||Z||) is numerically zero, and has no rank-1 factor.
KRON_ZERO_RTOL = 1e-12
# Top two singular values closer than this share of the top one are tied.
KRON_TIE_RTOL = 1e-12
# A stage-1 residual whose square is below this share of ||y||^2 lost its
# digits to cancellation in ||y||^2 - ||c||^2, and is formed from B z directly.
_CANCELLATION_RTOL = 1e-8


@dataclass(frozen=True)
class Stage1Config:
    """Linear-solve settings for step 2.

    ``reg_scale`` is the Tikhonov matrix scale (D = reg_scale * I), a real
    number (not a bool) kept as given; None means "resolve to 100 / N from
    the dataset's copy count" at estimation time.
    """

    method: str = "plain_ls"
    reg_scale: float = None

    def __post_init__(self):
        if self.method not in STAGE1_METHODS:
            raise ValidationError(f"method must be one of {STAGE1_METHODS}, got {self.method!r}")
        if self.reg_scale is not None and _real(self.reg_scale, "regularization scale") < 0:
            raise ValidationError(f"regularization scale must be >= 0, got {self.reg_scale}")

    def resolved(self, total_copies: int) -> "Stage1Config":
        if self.method != "tikhonov" or self.reg_scale is not None:
            return self
        return Stage1Config(method=self.method, reg_scale=100.0 / float(total_copies))


@dataclass(frozen=True)
class KroneckerFactorization:
    """Best rank-1 Kronecker factorization ``z ~ left kron right``.

    For a stack of vectors ``z`` every field carries the stack's leading
    axes, ``residual`` and ``degenerate_tie`` as arrays.

    ``singular_values`` are the square roots of the Gram matrix's
    eigenvalues, clipped at zero, in descending order (``nearest_kronecker``
    takes no SVD).  The top one and the gap to the second, which the
    tie test reads, are as accurate as an SVD's; a value far below the top
    one carries an absolute error of about ``sqrt(eps)`` times it, so the
    residual is computed directly rather than from the trailing values.
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
    DatasetStack, whose targets are one ``(T, L, M)`` expression, written in
    stage 1's ``(L, T, M)`` memory order and returned as its transposed view;
    any other ``ds``, or a ``basis`` that is not an OperatorBasis, is refused
    by name.
    """
    _record(ds, (MeasurementDataset, DatasetStack), "dataset")
    _record(basis, OperatorBasis, "basis")
    if ds.anchor_index > basis.n_traceless:
        raise ValidationError(
            f"anchor index must be in 1..{basis.n_traceless}, got {ds.anchor_index}")
    x_a0 = np.where(ds.tp_flags, 1.0 / np.sqrt(basis.d), ds.x_a0_hat).swapaxes(0, -1)
    y = ds.y_hat.swapaxes(0, -2)
    out = np.empty(y.shape)
    for j in range(y.shape[-1]):  # by outcome: a broadcast over the short M axis runs slower
        np.subtract(y[..., j], x_a0 * ds.c_j0_hat[..., j], out=out[..., j])
    return out.swapaxes(0, -2)


def stage1_solve(b, y: np.ndarray, config: Stage1Config) -> np.ndarray:
    """Solve ``min || y - B z ||`` by the configured method.

    ``b`` is a FactoredDesign or a raw matrix, which ``factor_design``
    factors once per process; a raw matrix that cannot be factored is
    refused as the estimators refuse it, with a ``[stage1]`` error.
    ``y`` may be a vector or a matrix of stacked targets (one column per
    outcome); the solution has matching shape.  Each method is a filter on
    the singular values: ``plain_ls`` inverts them all and refuses a
    rank-deficient B, ``mp_inverse`` inverts those above ``RANK_RTOL * s[0]``
    and drops the rest, and ``tikhonov`` applies ``s / (s^2 + reg_scale)``,
    refusing ``reg_scale = 0`` on a rank-deficient B.  This is the checked
    form of ``_solved``, whose ``z`` it returns.
    """
    _record(config, Stage1Config, "config")
    y = _array(y, "targets", (1, 2))
    design = _stage("stage1", factor_design, b)
    if y.shape[0] != design.shape[0]:
        raise ValidationError(f"target length {y.shape[0]} does not match {design.shape[0]} rows")
    if config.method == "tikhonov" and config.reg_scale is None:
        raise ValidationError("tikhonov needs a concrete reg_scale (or resolve via dataset)")
    return _solved(design, y, config)[0]


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """The squared norms of the columns of ``a`` (of ``a`` itself if 1-D)."""
    return (a.real ** 2 + a.imag ** 2).sum(axis=0) if np.iscomplexobj(a) else (a * a).sum(axis=0)


def _solved(design: FactoredDesign, y: np.ndarray, config: Stage1Config) -> tuple:
    """Stage 1 on checked inputs: the solution ``z`` of ``stage1_solve`` and
    the residual norms ``||y - B z||`` of its columns.

    With ``c = U^H y`` and the filter factors ``f``, ``z = V (f c)``, and
    the residual comes from the same coefficients:
    ``||y - B z||^2 = ||y||^2 - ||c||^2 + ||(1 - s f) c||^2``, since ``U``
    has orthonormal columns.  That is one formula for every method, real or
    complex, and no second product with B.  A column whose squared form
    falls below ``_CANCELLATION_RTOL ||y||^2`` has lost its digits to
    cancellation, so its residual is formed directly, which keeps exact data
    exact.
    """
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
    rest = 1.0 - s * f  # the share of each coefficient the solve leaves in the residual
    if y.ndim == 2:
        f, rest = f[:, None], rest[:, None]
    c = design.u.conj().T @ y
    z = design.vh.conj().T @ (c * f)
    y_sq = _sq_norms(y)
    res_sq = y_sq - _sq_norms(c) + _sq_norms(rest * c)
    residuals = np.sqrt(np.maximum(res_sq, 0.0))
    near = res_sq < _CANCELLATION_RTOL * y_sq
    if np.any(near):
        if y.ndim == 1:
            residuals = np.linalg.norm(y - design.b @ z)
        else:
            residuals[near] = np.linalg.norm(y[:, near] - design.b @ z[:, near], axis=0)
    return z, residuals


def rearrange(z: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Reshape ``z`` so that ``||z - x kron c|| == ||rearrange(z) - x c^T||``.

    Leading axes of ``z`` are a stack of vectors, each rearranged alike.
    """
    z = np.atleast_1d(_array(z, "vector"))
    rows, cols = _whole(rows, "rows", 1), _whole(cols, "columns", 1)
    if z.shape[-1] != rows * cols:
        raise ValidationError(f"cannot rearrange length {z.shape[-1]} into {rows}x{cols}")
    return z.reshape(*z.shape[:-1], rows, cols)


def nearest_kronecker(z: np.ndarray, rows: int, cols: int) -> KroneckerFactorization:
    """Best approximation of ``z`` by ``left kron right`` (top SVD triplet).

    The top triplet comes from one stacked ``eigh`` of the Gram matrix
    ``A A^H`` on the smaller side of the rearrangement ``A`` (``A^T``
    is factored when ``A`` has more rows than columns): its top eigenvector
    ``u0`` is the left singular vector, ``u0^H A`` is ``s0`` times the right
    one, and the residual is formed directly as ``||A - u0 (u0^H A)||``, so
    it stays exact on exact data.  A tie is read from the second eigenvalue.

    The factorization is unique only up to ``(q left, right / q)``, a sign
    or phase included; ties in the top singular value are resolved by the
    eigendecomposition's order and flagged in the result.  Leading axes of
    ``z`` are a stack of vectors, factored by one stacked ``eigh``: every
    field of the result then carries those axes, and the stack is refused if
    any of its matrices is zero (the error's ``refused`` mask says which).
    """
    mat = rearrange(z, rows, cols)
    if mat.dtype.kind not in "fc":
        mat = mat.astype(float)
    a = mat if rows <= cols else mat.swapaxes(-1, -2)
    a_h = a.swapaxes(-1, -2)
    if np.iscomplexobj(a):
        a_h = a_h.conj()
    w, vecs = np.linalg.eigh(a @ a_h)
    s = np.sqrt(np.maximum(w[..., ::-1], 0.0))
    top = s[..., 0]
    zero = top <= KRON_ZERO_RTOL * np.maximum(1.0, np.linalg.norm(mat, axis=(-2, -1)))
    if np.any(zero):
        raise DegeneracyError("rearranged matrix is numerically zero; no rank-1 factor",
                              refused=zero)
    u0 = vecs[..., :, -1]
    row = (u0.conj()[..., None, :] @ a)[..., 0, :]
    residual = np.linalg.norm(a - u0[..., :, None] * row[..., None, :], axis=(-2, -1))
    if s.shape[-1] > 1:
        tie = top - s[..., 1] <= KRON_TIE_RTOL * top
    else:
        tie = np.zeros(top.shape, dtype=bool)
    if mat.ndim == 2:
        residual, tie = float(residual), bool(tie)
    root = np.sqrt(top)[..., None]
    left, right = root * u0, row / root
    if rows > cols:
        left, right = right, left
    return KroneckerFactorization(left=left, right=right, residual=residual,
                                  singular_values=s, degenerate_tie=tie)


def fix_scale_v1(fac: KroneckerFactorization, x01_bar, anchor: int = 0):
    """Resolve the Kronecker scale ambiguity with the measured anchor coordinate.

    Returns the rescaled pair ``(x_bar, c_bar)`` with
    ``x_bar[anchor] == x01_bar`` and ``x_bar kron c_bar`` unchanged.  A
    factor whose anchor coordinate is at most ``ANCHOR_RTOL`` times its norm
    is refused, as is a zero ``x01_bar``; ``anchor`` must index the factor's
    coordinates.  A stacked factorization is rescaled factor by factor, with
    ``x01_bar`` broadcast against its leading axes; the stack is refused if
    any factor is (the error's ``refused`` mask says which).
    """
    if not isinstance(fac, KroneckerFactorization):
        raise ValidationError(f"need a KroneckerFactorization, got {type(fac).__name__}")
    left = _array(fac.left, "state factor", dtype=float)
    anchor = _whole(anchor, "anchor")
    if not 0 <= anchor < left.shape[-1]:
        raise ValidationError(
            f"anchor must index the factor's {left.shape[-1]} coordinates, got {anchor}")
    pivot = left[..., anchor]
    small = np.abs(pivot) <= ANCHOR_RTOL * np.linalg.norm(left, axis=-1)
    x01_bar = np.broadcast_to(_array(x01_bar, "x01_bar", dtype=float), pivot.shape)
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
    return left * ratio, _array(fac.right, "detector factor", dtype=float) / ratio


def _fix_scale_v2(fac: KroneckerFactorization, d: int) -> tuple:
    """Resolve the complex Kronecker scale of a ``(T, M)`` stack of factors
    ``vec(rho) kron vec(P_j^T)`` by unit trace: the unit-trace state
    candidates ``(T, M, d, d)``, the Hermitian parts of the detector
    candidates (which absorb the trace) and the traces' moduli.  A trace at
    most ``ANCHOR_RTOL`` times its factor's norm is refused (the error's mask)."""
    # devectorize is column-major: vec(A) reshaped row-major is A^T
    rho_tilde = fac.left.reshape(*fac.left.shape[:-1], d, d).swapaxes(-1, -2)
    tr = np.trace(rho_tilde, axis1=-2, axis2=-1)
    small = np.abs(tr) <= ANCHOR_RTOL * np.maximum(np.linalg.norm(fac.left, axis=-1),
                                                   _ANCHOR_NORM_FLOOR)
    if np.any(small):
        t, j = np.argwhere(small)[0]
        raise DegeneracyError(f"state candidate {j} has near-zero trace {complex(tr[t, j]):.3e}",
                              refused=small)
    p_tilde = fac.right.reshape(*fac.right.shape[:-1], d, d) * tr[..., None, None]
    return (rho_tilde / tr[..., None, None],
            (p_tilde + p_tilde.conj().swapaxes(-1, -2)) / 2.0, np.abs(tr))


def combine_state_estimates(candidates) -> np.ndarray:
    """Merge the per-outcome state estimates by their arithmetic mean.

    The mean runs over the first axis, the outcomes; any further axes (a
    stack of datasets, then the candidates' own) are kept (``_bounded``).
    """
    candidates = _bounded(_array(candidates, "state estimate"), "state estimate")
    if candidates.ndim == 0 or len(candidates) == 0:
        raise ValidationError(f"need at least one state estimate, got shape {candidates.shape}")
    return candidates.mean(axis=0)


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


def _physical_states(rho_bar: np.ndarray) -> np.ndarray:
    """A stack ``(T, d, d)`` of finite, Hermitian, unit-trace (to
    ``STATE_TRACE_TOL``) rough states, each moved to its nearest density
    matrix and all checked by one stacked pass."""
    _bounded(rho_bar, "state estimate")
    if _skewed(rho_bar).any():
        raise ValidationError("state estimate must be Hermitian before correction")
    tr = np.real(np.trace(rho_bar, axis1=-2, axis2=-1))
    off = np.abs(tr - 1.0) > STATE_TRACE_TOL
    if np.any(off):
        raise ValidationError(f"state estimate has trace {tr[off][0]:.6g}, expected 1")
    return DensityMatrix.checked(rho_bar.shape[-1], _nearest_density(rho_bar))


def _physical_povms(povm_bar: np.ndarray) -> np.ndarray:
    """A stack ``(T, M, d, d)`` of finite rough detectors corrected as
    ``correct_povm`` says and checked in one pass; refused if any element
    sum is singular (the error's ``refused`` mask says which).  One stacked
    ``eigh`` of the sums serves both the singularity test and ``S^{-1/2}``."""
    _bounded(povm_bar, "detector estimate")
    d = povm_bar.shape[-1]
    clipped = _clip_negative(povm_bar)
    s = clipped.sum(axis=-3)
    w, v = np.linalg.eigh(s)
    singular = w[..., 0] <= POVM_SINGULAR_RTOL * np.linalg.norm(s, axis=(-2, -1))
    if not np.any(singular):
        inv_sqrt = ((v / np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2))[..., None, :, :]
        out = inv_sqrt @ clipped @ inv_sqrt
        # a direction with (numerically) little clipped mass cannot be renormalized
        singular = (np.linalg.norm(out.sum(axis=-3) - np.eye(d), axis=(-2, -1))
                    > COMPLETENESS_TOL * d)
    if np.any(singular):
        raise DegeneracyError("element sum is singular", refused=singular)
    return Povm.checked(d, out)


def correct_state(rho_bar: np.ndarray) -> DensityMatrix:
    """Nearest density matrix to one Hermitian ``d x d`` estimate of trace 1
    (to ``STATE_TRACE_TOL``); a stack of estimates is refused.

    Keeps the eigenvectors and replaces the eigenvalues by their Euclidean
    projection onto the probability simplex, which is the global Frobenius
    projection onto the set of density matrices.
    """
    rho_bar = _array(rho_bar, "state estimate", 2, complex, square=True)
    return _new(DensityMatrix, d=len(rho_bar), rho=_physical_states(rho_bar[None])[0])


def correct_povm(elements) -> Povm:
    """Map one rough detector estimate ``(M, d, d)`` onto a valid POVM; a
    stack of detectors is refused.

    Each element is symmetrized and its negative eigenvalues are clipped to
    zero; the clipped set is then renormalized as ``S^{-1/2} P_j S^{-1/2}``
    with ``S`` the element sum.  A detector whose ``S`` has an eigenvalue at
    most ``POVM_SINGULAR_RTOL * ||S||``, or whose renormalized sum misses
    ``I`` by more than ``COMPLETENESS_TOL d``, is refused as singular.
    """
    elements = _array(elements, "detector estimate", 3, complex, square=True)
    return _new(Povm, d=elements.shape[-1], elements=_physical_povms(elements[None])[0])


def _corrected(rho_bar: np.ndarray, povm_bar: np.ndarray, diagnostics: dict,
               refused: np.ndarray = None) -> StackEstimates:
    """Correct a stack of rough pairs onto the physical sets.

    ``rho_bar`` is ``(T, d, d)`` and ``povm_bar`` is ``(T, M, d, d)``;
    ``refused`` marks the pairs refused before (none if omitted) and gains
    those refused here.  ``diagnostics`` (see ``StackEstimates``) gains the
    correction distances, two stacked norms with one entry per pair.
    """
    t = len(rho_bar)
    if refused is None:
        refused = np.zeros(t, dtype=bool)
    rho = _stage("correct", _physical_states, rho_bar)
    povm = _lanewise("correct", refused, [povm_bar], _physical_povms, povm_bar)
    return StackEstimates(rho, povm, rho_bar, povm_bar, refused, {
        **diagnostics,
        "state_correction_distance": np.linalg.norm((rho - rho_bar).reshape(t, -1), axis=1),
        "povm_correction_distance": np.linalg.norm((povm - povm_bar).reshape(t, -1), axis=1),
    })


def _factors(y: np.ndarray, design: FactoredDesign, config: Stage1Config, side: int) -> tuple:
    """Stage 1 and the stacked Kronecker factors, the steps both bases share.

    Solves all ``T M`` columns of the ``(T, L, M)`` targets ``y`` with the
    factored design (``_solved``, which also gives their residuals; targets
    laid out ``(L, T, M)`` in memory are read without a copy) and factors
    each as a ``side x side`` pair by one stacked ``eigh``
    (``nearest_kronecker``).  Returns the ``(T, M)`` factorizations,
    the refused mask (see ``_lanewise``; later steps grow it) and both
    steps' diagnostics.
    """
    t, l, m = y.shape
    cols = y.transpose(1, 0, 2).reshape(l, t * m)
    z, residuals = _stage("stage1", _solved, design, cols, config)
    residuals = residuals.reshape(t, m)
    z = z.T.reshape(t, m, -1)
    refused = np.zeros(t, dtype=bool)
    facs = _lanewise("kronecker", refused, [z], nearest_kronecker, z, side, side)
    return facs, refused, {
        "method": config.method, "reg_scale": config.reg_scale, "rank_b": design.rank,
        "stage1_residuals": residuals, "kron_residuals": facs.residual,
        "kron_ties": facs.degenerate_tie}


def _mean_state(candidates: np.ndarray, anchors: np.ndarray) -> tuple:
    """The mean of each dataset's ``(T, M, ...)`` state candidates over its
    outcomes, with the diagnostics of the scale step: the outcomes' anchor
    values and the largest distance of a candidate from its mean."""
    t, m = candidates.shape[:2]
    mean = combine_state_estimates(candidates.swapaxes(0, 1))
    spread = np.linalg.norm((candidates - mean[:, None]).reshape(t, m, -1), axis=-1).max(axis=1)
    return mean, {"anchor_values": anchors,
                  "state_candidate_spread": spread if m > 1 else np.zeros(t)}


def _one_stack(ds) -> DatasetStack:
    """A MeasurementDataset as a stack of one; anything else is refused."""
    if not isinstance(ds, MeasurementDataset):
        raise ValidationError(f"need a MeasurementDataset, got {type(ds).__name__}")
    return ds.as_stack()


def _check_design_shape(shape: tuple, n_processes: int, columns: int) -> None:
    """Refuse a design of shape ``shape`` unless it is ``n_processes x
    columns``; a matrix with those columns but another row count was made
    for another ensemble, and the refusal names both counts."""
    if len(shape) == 2 and shape[1] == columns and shape[0] != n_processes:
        raise ValidationError(
            f"the dataset has {n_processes} processes but the design has {shape[0]} rows")
    if tuple(shape) != (n_processes, columns):
        raise ValidationError(
            f"regression matrix must be {n_processes}x{columns}, got {tuple(shape)}")


def _targets_v1(stack: DatasetStack, b, basis: OperatorBasis) -> np.ndarray:
    """The coherence-vector program's input contract: the ``(T, L, M)``
    targets of ``stack`` for the design ``b`` (a FactoredDesign or an array
    read by ``_array``), which must be a real ``L x n^2`` matrix."""
    raw = b.b if isinstance(b, FactoredDesign) else b
    n = basis.n_traceless
    _check_design_shape(raw.shape, stack.n_processes, n * n)
    _array(raw, "the coherence-vector regression matrix", dtype=float, nonfinite=None)
    return _stage("targets", build_targets_v1, stack, basis)


def _elements_from_coords(c0: np.ndarray, c: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Detector elements ``(..., M, d, d)`` from their trace coordinates
    ``c0`` ``(..., M)`` and coherence vectors ``c`` ``(..., M, n)``."""
    return _from_coords(np.concatenate([c0[..., None], c], axis=-1), basis)


def _estimates_v1(stack: DatasetStack, b, basis: OperatorBasis,
                  config: Stage1Config) -> StackEstimates:
    """Coherence-vector reconstruction of a stack of datasets: stage 1 and
    the factors (``_factors``), each outcome's scale fixed by the measured
    anchor coordinate (``fix_scale_v1``), the mean state coordinates, and
    the rough pair from the coordinate maps, corrected (``_corrected``)."""
    design = _stage("stage1", factor_design, b)
    y = _targets_v1(stack, design, basis)
    config = config.resolved(stack.total_copies)
    facs, refused, diagnostics = _factors(y, design, config, basis.n_traceless)
    anchor = stack.anchor_index - 1
    x01_bar = stack.x01_bar[:, None].copy()  # a refused dataset's entry is overwritten
    x_bar, c_bar = _lanewise("scale", refused, [facs.left, facs.right, x01_bar],
                             fix_scale_v1, facs, x01_bar, anchor=anchor)
    x0, scale = _mean_state(x_bar, facs.left[..., anchor])
    return _corrected(coherence_to_state(x0, basis),
                      _elements_from_coords(stack.c_j0_hat, c_bar, basis),
                      {**diagnostics, **scale}, refused)


def estimate_joint_v1(
    ds: MeasurementDataset,
    b,
    basis: OperatorBasis,
    config: Stage1Config = Stage1Config(),
) -> EstimateResult:
    """Full coherence-vector reconstruction from one dataset.

    ``b`` stacks the transfer e-blocks of the probe processes, one
    vectorized block per row, as any real array-like matrix
    (a complex one is refused) or as its ``factor_design`` record, which a
    raw matrix is turned into here (factored once per process).
    Each outcome's scale is fixed by the measured anchor coordinate; its
    anchor value is that coordinate of the unscaled state factor.  The model
    holds only for generalized-unital processes (``is_generalized_unital``),
    which a raw design cannot show; otherwise use ``estimate_joint_v2``.
    A ``basis`` or ``config`` of the wrong type is refused by name.
    """
    stack = _one_stack(ds)
    _record(basis, OperatorBasis, "basis")
    _record(config, Stage1Config, "config")
    (result,) = _estimates_v1(stack, b, basis, config).results()
    return result


def _estimates_v2(stack: DatasetStack, b_natural, config: Stage1Config) -> StackEstimates:
    """Natural-basis reconstruction of a stack of datasets, from their raw
    frequencies: stage 1 and the factors (``_factors``), each outcome's scale
    fixed by unit trace (``_fix_scale_v2``), and the Hermitian part of the
    mean state over its trace, corrected with the detector candidates.  Each
    candidate passed the scale fix with ``|tr| > ANCHOR_RTOL ||left||`` and
    was divided by that trace, so the mean's real trace is 1 to roundoff, never
    near zero; the division only removes the roundoff."""
    design = _stage("stage1", factor_design, b_natural)
    d4 = design.shape[1]
    d = int(round(d4 ** 0.25))
    if d ** 4 != d4:
        raise ValidationError(f"superoperator matrix has {d4} columns, not a fourth power")
    _check_design_shape(design.shape, stack.n_processes, d4)
    config = config.resolved(stack.total_copies)
    y = stack.y_hat.swapaxes(0, 1).astype(complex, order="C").swapaxes(0, 1)
    facs, refused, diagnostics = _factors(y, design, config, d * d)
    candidates, povm_bar, anchors = _lanewise("scale", refused, [facs.left, facs.right],
                                              _fix_scale_v2, facs, d)
    mean, scale = _mean_state(candidates, anchors)
    rho_sym = (mean + mean.conj().swapaxes(-1, -2)) / 2.0
    rho_bar = rho_sym / np.real(np.trace(rho_sym, axis1=-2, axis2=-1))[..., None, None]
    return _corrected(rho_bar, povm_bar, {**diagnostics, **scale}, refused)


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
    value of an outcome is the modulus of that trace.  A ``config`` of the
    wrong type is refused by name.
    """
    stack = _one_stack(ds)
    _record(config, Stage1Config, "config")
    (result,) = _estimates_v2(stack, b_natural, config).results()
    return result


def project_pure(state):
    """Rank-1 projection onto the dominant eigenvector.

    Degenerate top eigenvalues are resolved deterministically by the
    eigendecomposition order.  ``state`` may also be an array stack
    ``(..., d, d)`` of density matrices: it is projected by one stacked
    eigendecomposition, and the projectors come back as an array.
    """
    single = isinstance(state, DensityMatrix)
    _, vecs = np.linalg.eigh(state.rho if single else _array(state, "state", square=True))
    v = vecs[..., :, -1]
    projectors = v[..., :, None] * v[..., None, :].conj()
    return DensityMatrix(state.d, projectors) if single else projectors
