"""Projected alternating refinement of a closed-form estimate.

The refinement works on the design tensor ``B3 = b.reshape(L, n, n)``, whose
entry ``B3[a, i, k]`` multiplies ``x_i c_k``.  For a state ``x`` the matrix
``G = x . B3`` (L x n) turns the objective into ``||Y - G C||_F^2``, with one
detector element's coordinates per column of ``C``.  Under completeness,
``sum_j c_j = 0``, the detector block's stationarity conditions
``G^T (G c_j - y_j) + lam = 0`` sum over the M outcomes to ``lam = G^T ybar``
(``ybar`` the mean target), hence ``c_j = G^+ (y_j - ybar)``: one
least-squares solve on the centred targets for all outcomes.

The state block is solved from the design's moments: ``B^T B`` rearranged
as ``K[(i, i'), (k, k')] = sum_a B3[a, i, k] B3[a, i', k']`` and packed to
the upper triangles ``i <= i'`` and ``k <= k'`` (``FactoredDesign.moments``,
n(n+1)/2 square, formed once per design record), and ``B^T Y``, formed once
per call.  The state system stacks ``B3 . c_j`` over the M outcomes, (M L) x
n; its Gram is ``K vec(C C^T)``, whose upper triangle is one product of the
packed moments with the packed ``C C^T``, and its right-hand side is
``sum_kj (B^T Y)[(i, k), j] C[k, j]``, so no sweep forms the stacked matrix.
``G`` itself is one vector-matrix product with the record's other layout of
the tensor, ``[i, (a, k)]`` (``FactoredDesign._tensor``).

Both blocks are solved from their n x n normal equations, ``G^T G`` for the
detector and the state Gram above (the free rows and columns, the pinned
anchor moved to the right-hand side): the tall design itself is never
factored.  The minimum-norm solution keeps the eigenvalues above
``max(rows, n) eps lam_max``.  In singular-value terms that drops every
direction whose singular value lies below ``sqrt(max(rows, n) eps) s_max``,
where a least-squares solve on the tall design would have kept it: squaring
the design squares its condition number, so such a direction is not resolved
by the Gram matrix.  A Gram that LAPACK's condition estimate finds well
conditioned has every eigenvalue above that cutoff, so its minimum-norm
solution is its unique solution, taken from a Cholesky factorization; any
other Gram (rank-deficient, ill-conditioned, zero or non-finite) goes to an
eigen-solve.

Each block is then projected onto its physical set only if it fails a
positivity gate, run on coordinates: a Hermitian ``A`` is positive
semidefinite exactly when its real embedding ``[[Re A, -Im A], [Im A, Re A]]``
is, and that embedding is the block's coordinate row times the basis's
embedded elements (``OperatorBasis._real_embedding``).  One ``dpotrf`` per
matrix decides, so complex matrices are built only for a block that is
projected.  Cholesky succeeds on a matrix whose smallest eigenvalue is above
roundoff and fails on one with an eigenvalue below minus roundoff; a block
that is positive semidefinite but singular to roundoff may go either way.
Either way is the same map up to roundoff: projecting a point of a convex
set returns that point, so a block kept as solved and the projection of a
block that was already inside differ only by the projection's roundoff.

The objective is evaluated in residual form, not from the Gram data as the
exporter in :mod:`jointtomo.sos` expands it: the accept test compares
objectives near 0 on exact data, where the Gram form's cancellation would
add noise of about ``1e-16 ||y||^2``.

The LAPACK kernels above (``dpotrf``, ``dpocon``, ``dpotrs``, ``dlange``)
come from ``scipy.linalg``, which numpy does not expose them through.
Importing ``scipy.linalg.lapack`` runs the whole ``scipy.linalg`` package
initialization, about as costly as numpy's own import, so ``_lapack``
imports it on the first refinement and keeps it: importing the package, and
every closed-form path, does not load it.
"""

import functools
import math

import numpy as np

from .basis import OperatorBasis, _from_coords, _to_coords, coherence_to_state
from .channels import _packing, factor_design
from .errors import DegeneracyError, ValidationError, _real, _whole
from .estimator import (  # noqa: F401  (perfbench traces correct_state as an alias here)
    EstimateResult,
    _clip_negative,
    _corrected,
    _elements_from_coords,
    _nearest_density,
    _one_stack,
    _stage,
    _targets_v1,
    correct_state,
)
from .measurement import MeasurementDataset


# The reciprocal condition estimate above which a Gram's Cholesky solution
# is kept.  Each solve's relative error is about eps / rcond, so above it the
# Cholesky solve and the eigen-solve agree to about 1e-12.
_CHOLESKY_RCOND = 1e-4
_EPS = np.finfo(float).eps


@functools.cache
def _lapack():
    """``scipy.linalg.lapack``, imported on first use."""
    from scipy.linalg import lapack

    return lapack


def _min_norm_solve(gram: np.ndarray, rhs: np.ndarray, rows: int) -> np.ndarray:
    """The minimum-norm least-squares solution of ``A sol = t``, from
    ``gram = A^T A`` (n x n) and ``rhs = A^T t`` (one column per target).

    Eigenvalues at or below ``max(rows, n) eps lam_max`` count as zero, with
    ``rows`` the row count of ``A``.  The Gram is first factored by Cholesky
    (``potrf``), and LAPACK estimates its reciprocal condition ``rcond``
    (``pocon``).  Since ``lam_min / lam_max >= 1 / (||gram||_1 ||gram^-1||_1)``
    and the estimate may overstate that bound by a small factor, an ``rcond``
    above ``n`` times the cutoff ratio ``max(rows, n) eps`` leaves no
    eigenvalue to cut: the minimum-norm solution is the unique one, taken from
    the factor (``potrs``) when ``rcond`` also exceeds ``_CHOLESKY_RCOND``.
    Any other Gram (rank-deficient, ill-conditioned, zero, non-finite, or one
    whose factorization fails) takes one ``eigh``; an all-zero Gram gives
    zeros.
    """
    n = len(gram)
    cutoff = max(rows, n) * _EPS
    rcond_floor = max(_CHOLESKY_RCOND, n * cutoff)
    lapack = _lapack()
    factor, info = lapack.dpotrf(gram, clean=0)
    if info == 0:
        rcond, _ = lapack.dpocon(factor, lapack.dlange("1", gram))
        if rcond > rcond_floor:
            return lapack.dpotrs(factor, rhs)[0]
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > cutoff * max(vals[-1], 0.0)
    kept = vecs[:, keep]
    return (kept / vals[keep]) @ (kept.T @ rhs)


def _state_normal_equations(moments: np.ndarray, b_y: np.ndarray, c: np.ndarray) -> tuple:
    """The Gram ``A^T A``, packed to its upper triangle as ``_packing`` says,
    and the right-hand side ``A^T vec(Y)`` of the stacked state matrix ``A``
    (the ``B3 . c_j`` of the M outcomes, (M L) x n), from the design's packed
    ``moments`` (``FactoredDesign.moments``), ``B^T Y`` laid out as
    ``[i, (k, j)]`` (n x n M) and the detector coordinates ``c`` (n x M).
    The packed Gram is one product with the packed ``C C^T``."""
    upper, _ = _packing(len(c))
    return moments @ (c @ c.T).take(upper), b_y @ c.ravel()


def _inside(coords: np.ndarray, basis: OperatorBasis) -> bool:
    """Whether the Hermitian matrices with coordinates ``coords`` (one row of
    ``d^2`` per matrix) are all finite and positive definite to roundoff: the
    gate a projected block must fail.

    Each matrix's real embedding (``OperatorBasis._real_embedding``) comes
    from one product for all of them, and one ``dpotrf`` per matrix decides.
    Cholesky is backward stable: it succeeds on a matrix whose smallest
    eigenvalue lies above roundoff, a small multiple of ``eps`` times its
    norm, and fails on one whose smallest eigenvalue lies below minus that.
    Between, on a matrix that is positive semidefinite and singular to
    roundoff, it may go either way.  Matrices that all factor are checked
    for a non-finite entry last, since OpenBLAS's ``dpotrf`` factors through
    a NaN.
    """
    embedding = basis._real_embedding
    k = embedding.shape[-1]
    mats = coords.reshape(-1, len(embedding)) @ embedding.reshape(len(embedding), -1)
    dpotrf = _lapack().dpotrf
    for a in mats.reshape(-1, k, k):
        if dpotrf(a, clean=0)[1]:
            return False
    return bool(np.isfinite(mats).all())


def refine_alternating(
    ds: MeasurementDataset,
    b,
    basis: OperatorBasis,
    init: EstimateResult,
    iters: int = 100,
    rel_tol: float = 1e-10,
) -> EstimateResult:
    """Improve a closed-form estimate by constrained block-coordinate descent.

    Alternates least squares for the detector coordinates (under the exact
    completeness constraint) and for the state coordinates (with the anchor
    coordinate pinned to its measured value), projecting each block onto its
    physical set afterwards.  ``ds`` is one MeasurementDataset and ``init``
    the EstimateResult to start from.  ``ds``, ``b`` and the targets pass
    the estimator's one contract (``_targets_v1``); ``b`` is raw or its
    ``factor_design`` record, a raw matrix reaches that record through
    ``factor_design``'s memo, and a design with a non-finite entry is
    refused with DegeneracyError.  A sweep is
    accepted only if it does not increase the objective, so the recorded
    objective sequence is non-increasing; the loop stops at ``iters`` sweeps
    (a whole number >= 0) or when the relative improvement of an accepted
    sweep falls below ``rel_tol``.  ``diagnostics["stop_reason"]`` says
    which: ``"converged"``, ``"max_iters"``, or ``"rejected"`` when a sweep's
    projections undid its gain and the previous point was kept.
    ``final_objective`` is the objective at the rough pair
    ``rho_bar``/``povm_bar``; ``corrected_objective`` is the objective at the
    returned corrected pair ``rho_hat``/``povm_hat``.

    Both blocks work on the design tensor, as the module docstring derives:
    ``G = x . B3`` is one product with the record's tensor layout, the
    detector block is one least-squares solve ``G^+ (Y - ybar)`` for all
    outcomes, and the state block takes its Gram and right-hand side from
    the packed moments of ``B^T B``, formed once per design record, and
    ``B^T Y``, formed once per call.  Each block is solved from its n x n
    normal equations: by a Cholesky solve when LAPACK's condition estimate
    finds the Gram well conditioned, and otherwise by an eigen-solve, which
    drops the directions whose singular value lies below
    ``sqrt(max(rows, n) eps) s_max`` (a least-squares solve on the tall
    matrix would keep them); both give the minimum-norm solution, and the
    objective stays in residual form.  Each block then passes a positivity
    gate, one Cholesky factorization of each matrix's real embedding, formed
    from its coordinates; a block that is singular to roundoff may fail it,
    and its projection then returns it up to roundoff.  The projections are
    the correction kernels of the estimator, run only on a block that fails
    the gate: one stacked ``eigh`` clips the negative eigenvalues of every
    detector element (``correct_povm``'s clip, without its renormalization),
    and the state goes to the nearest density matrix (``correct_state``'s
    projection, without re-validating a matrix it has just built).  The
    returned rough pair is built by the estimator's maps
    (``coherence_to_state``, ``_elements_from_coords``).
    """
    (y,) = _targets_v1(_one_stack(ds), b, basis)
    if not isinstance(init, EstimateResult):
        raise ValidationError(f"init must be an EstimateResult, got {type(init).__name__}")
    n, d, m = basis.n_traceless, basis.d, ds.n_outcomes
    if init.rho_hat.rho.shape != (d, d) or init.povm_hat.elements.shape != (m, d, d):
        raise ValidationError(
            f"init must be a dimension-{d} state and a {m}-outcome detector, got a state of "
            f"shape {init.rho_hat.rho.shape} and detector elements of shape "
            f"{init.povm_hat.elements.shape}")
    iters = _whole(iters, "iters", 0)
    if _real(rel_tol, "rel_tol") < 0:
        raise ValidationError(f"rel_tol must be >= 0, got {rel_tol!r}")
    design = _stage("refine", factor_design, b)
    x = _to_coords(init.rho_hat.rho, basis)[1:]
    c = _to_coords(init.povm_hat.elements, basis)[:, 1:].T  # one column per outcome
    l = len(y)
    anchor = ds.anchor_index - 1
    free = np.array([i for i in range(n) if i != anchor])
    # Where the state Gram's free block and anchor column sit in its packed form.
    _, positions = _packing(n)
    free_positions, anchor_positions = positions[np.ix_(free, free)], positions[free, anchor]

    tensor, moments = design._tensor, design.moments
    y_centred = y - y.mean(axis=1, keepdims=True)
    b_y = (design.b.T @ y).reshape(n, -1)
    # Each block's coordinate rows for its positivity gate, with the trace
    # column filled in once: the state's 1/sqrt(d), the detector's c_j0.
    x_row = np.empty(n + 1)
    x_row[0] = 1.0 / math.sqrt(d)
    c_rows = np.empty((m, n + 1))
    c_rows[:, 0] = ds.c_j0_hat

    def residual(x, c):
        """``G = x . B3`` and the objective at ``(x, C)``."""
        g = (x @ tensor).reshape(l, n)
        return g, float(np.linalg.norm(y - g @ c) ** 2)

    g, obj = residual(x, c)
    if not np.isfinite(obj):
        raise DegeneracyError(f"objective is not finite at the initial point: {obj}")
    trajectory = [obj]
    accepted = 0
    stop_reason = "max_iters"

    for _ in range(iters):
        # Detector block: every c_j from one solve on the centred targets;
        # if an element fails the gate, every element's eigenvalues are clipped.
        c_new = _min_norm_solve(g.T @ g, g.T @ y_centred, l)
        c_rows[:, 1:] = c_new.T
        if not _inside(c_rows, basis):
            c_new = _to_coords(_clip_negative(_from_coords(c_rows, basis)), basis)[:, 1:].T

        # State block: the (M L) x n system of all outcomes from the moments,
        # anchor pinned; projected if the state fails the gate.
        packed, rhs = _state_normal_equations(moments, b_y, c_new)
        x_new = np.empty(n)
        x_new[anchor] = ds.x01_bar
        x_new[free] = _min_norm_solve(packed[free_positions],
                                      rhs[free] - packed[anchor_positions] * ds.x01_bar, m * l)
        x_row[1:] = x_new
        if not _inside(x_row, basis):
            x_new = _to_coords(_nearest_density(_from_coords(x_row, basis)), basis)[1:]

        g_new, new_obj = residual(x_new, c_new)
        if not np.isfinite(new_obj):
            raise DegeneracyError(f"objective became non-finite: {new_obj}")
        if new_obj > obj * (1.0 + 1e-12) + 1e-15:
            stop_reason = "rejected"  # projection undid the gain; keep the previous point
            break
        x, c, g = x_new, c_new, g_new
        accepted += 1
        improved = obj - new_obj
        obj = new_obj
        trajectory.append(obj)
        if improved <= rel_tol * max(trajectory[0], 1e-300):
            stop_reason = "converged"
            break

    est = _corrected(coherence_to_state(x, basis)[None],
                     _elements_from_coords(ds.c_j0_hat, c.T, basis)[None], {
        "objective_trajectory": trajectory,
        "sweeps_accepted": accepted,
        "stop_reason": stop_reason,
        "initial_objective": trajectory[0],
        "final_objective": obj,
    })
    est.diagnostics["corrected_objective"] = residual(
        _to_coords(est.rho_hat[0], basis)[1:], _to_coords(est.povm_hat[0], basis)[:, 1:].T)[1]
    (result,) = est.results()
    return result
