"""Projected alternating refinement of a closed-form estimate.

The refinement works on the design tensor ``B3 = b.reshape(L, n, n)``, whose
entry ``B3[a, i, k]`` multiplies ``x_i c_k``.  For a state ``x`` the matrix
``G = x . B3`` (L x n) turns the objective into ``||Y - G C||_F^2``, with one
detector element's coordinates per column of ``C``.  Under completeness,
``sum_j c_j = 0``, the detector block's stationarity conditions
``G^T (G c_j - y_j) + lam = 0`` sum over the M outcomes to ``lam = G^T ybar``
(``ybar`` the mean target), hence ``c_j = G^+ (y_j - ybar)``: one
least-squares solve on the centred targets for all outcomes.

Every sweep quantity comes from the design's records of size n^2 or less,
so no sweep forms ``G`` or any other matrix with L rows.  The moments are
``B^T B`` rearranged as ``K[(i, i'), (k, k')] = sum_a B3[a, i, k] B3[a, i',
k']`` and packed to the upper triangles ``i <= i'`` and ``k <= k'``
(``FactoredDesign.moments``, n(n+1)/2 square, formed once per design
record).  The detector block's Gram is ``G^T G = sum_ii' x_i x_i' K[(i, i'),
.]``, one product of the packed ``x x^T`` with the weighted moments, and its
right-hand side ``G^T (Y - ybar)`` is ``x`` times ``B^T (Y - ybar)``, formed
once per call.  The state system stacks ``B3 . c_j`` over the M outcomes,
(M L) x n; its Gram is ``K vec(C C^T)``, one product of the packed moments
with the packed ``C C^T``, and its right-hand side is
``sum_kj (B^T Y)[(i, k), j] C[k, j]``.

Both blocks are solved from their n x n normal equations (for the state,
the free rows and columns, the pinned anchor moved to the right-hand side):
the tall design itself is never factored.  The minimum-norm solution keeps
the eigenvalues above ``max(rows, n) eps lam_max``.  In singular-value terms
that drops every direction whose singular value lies below
``sqrt(max(rows, n) eps) s_max``, where a least-squares solve on the tall
design would have kept it: squaring the design squares its condition number,
so such a direction is not resolved by the Gram matrix.  A Gram certified
well conditioned has every eigenvalue above that cutoff, so its minimum-norm
solution is its unique solution, taken directly; any other Gram goes to an
eigen-solve.  The certificate is one numpy Cholesky factorization of
``[[G, I], [I, s I]]``, with ``s = 1 / (floor tr(G))``: it succeeds exactly
when ``G`` is positive definite with ``lam_min > floor tr(G) >= floor
lam_max``, and its lower-left block is ``L^-T`` for ``G = L L^T``, which
gives the solution by two products (``_min_norm_solve``).

Each block is then projected onto its physical set only if it fails a
positivity gate, run on coordinates.  First an inscribed ball: a Hermitian
d x d matrix with trace coordinate ``r_0 > 0`` and coordinate row ``r`` is
positive semidefinite when ``||r||^2 <= r_0^2 d / (d - 1)``; a block whose
rows all lie in their balls passes.  Otherwise a Hermitian ``A`` is
positive semidefinite exactly when its real embedding
``[[Re A, -Im A], [Im A, Re A]]`` is, and that embedding is the block's
coordinate row times the basis's embedded elements
(``OperatorBasis._real_embedding``); one stacked Cholesky of the block's
embeddings decides.  Cholesky succeeds on a matrix whose smallest eigenvalue
is above roundoff and fails on one with an eigenvalue below minus roundoff;
a block that is positive semidefinite but singular to roundoff may go either
way.  Either way is the same map up to roundoff: projecting a point of a
convex set returns that point, so a block kept as solved and the projection
of a block that was already inside differ only by the projection's
roundoff.  The projection works on the embeddings the gate formed: one real
``eigh``, whose eigenvalues come in pairs, the estimator's spectral map
(clip, or simplex), and one product back to coordinates.

The objective is evaluated in residual form, not from the Gram data as the
exporter in :mod:`jointtomo.sos` expands it: the accept test compares
objectives near 0 on exact data, where the Gram form's cancellation would
add noise of about ``1e-16 ||y||^2``.  With ``b = u W`` (``W = diag(s) vh``,
min(L, n^2) rows), ``||Y - G C||^2 = ||Y - u u^T Y||^2 + ||u^T Y - (x . W3)
C||^2``; the first term is computed once per call, in residual form, and
each sweep computes the second on the rotated rows
(``FactoredDesign._rotated``).

A sweep is a fixed-point map ``T`` of the state coordinates alone: the
detector block reads only ``x``, and the state block only the detector
block's output.  It converges linearly, and slowly on incomplete data, so
the refinement accelerates it by Anderson's type-II mixing (Anderson, J. ACM
12, 547, 1965; Walker & Ni, SIAM J. Numer. Anal. 49, 1715, 2011).  With the
residual ``g = T(u) - u`` of each state ``u`` a sweep started from, the next
sweep starts from ``T(u_k) - sum_i gamma_i dT_i``, where ``dT_i`` and
``dg_i`` are the last ``_ANDERSON_DEPTH`` differences of consecutive outputs
and residuals and ``gamma`` minimizes ``||g_k - sum_i gamma_i dg_i||``
(``_min_norm_solve`` on the Gram of the ``dg_i``); that state has its anchor
pinned and passes the state gate and projection.  Every accepted point is
still a sweep's output, taken only if its objective is not above the
current one.  An extrapolated sweep that raises it is discarded with the
history, and the plain sweep from the current point runs in its place.  A
step needs two residuals, so the first two sweeps, and the two after a
discarded one, are plain.

With a physical starting pair, targets, design entries and anchor
coordinate at most ``errors.MAX_ENTRY`` (each refused beyond it) keep every
objective finite, and no block overflows.
"""

import functools
import math

import numpy as np

from .basis import OperatorBasis, _to_coords, coherence_to_state
from .channels import _packing, factor_design
from .errors import ValidationError, _bounded, _real, _record, _whole
from .estimator import (  # noqa: F401  (perfbench traces correct_state as an alias here)
    EstimateResult,
    _corrected,
    _elements_from_coords,
    _one_stack,
    _project_simplex,
    _stage,
    _targets_v1,
    correct_state,
)
from .measurement import MeasurementDataset


# The smallest ratio lam_min / tr(gram) at which a Gram's direct solution is
# kept.  Each solve's relative error is about eps lam_max / lam_min, so above
# it the direct solve and the eigen-solve agree to about 1e-12.
_CHOLESKY_RCOND = 1e-4
# The number of state and residual differences an Anderson step mixes.
_ANDERSON_DEPTH = 3
# A sweep is accepted when its objective is at most the previous one times
# (1 + _ACCEPT_RTOL), plus _ACCEPT_ATOL: roundoff is no reason to stop.
_ACCEPT_RTOL = 1e-12
_ACCEPT_ATOL = 1e-15
# The convergence test reads the first objective as at least this, so that its
# threshold stays positive when that objective is zero.
_OBJECTIVE_FLOOR = 1e-300
_EPS = np.finfo(float).eps


def _min_norm_solve(gram: np.ndarray, rhs: np.ndarray, rows: int) -> np.ndarray:
    """The minimum-norm least-squares solution of ``A sol = t``, from
    ``gram = A^T A`` (n x n) and ``rhs = A^T t`` (one column per target).

    Eigenvalues at or below ``max(rows, n) eps lam_max`` count as zero, with
    ``rows`` the row count of ``A``.  The direct solution ``gram^-1 rhs`` is
    kept when one Cholesky factorization of ``[[gram, I], [I, s I]]``, with
    ``s = 1 / (floor tr(gram))`` and ``floor = max(_CHOLESKY_RCOND, n max(rows,
    n) eps)``, succeeds.  It succeeds exactly when ``gram`` and the Schur
    complement ``s I - gram^-1`` are positive definite, that is when
    ``lam_min > floor tr(gram) >= floor lam_max``: no eigenvalue is cut, so
    the minimum-norm solution is the unique one.  The factor's lower-left
    block is ``L^-T`` for ``gram = L L^T``, so that solution is
    ``L^-T (L^-1 rhs)``.  Any other Gram (rank-deficient, ill-conditioned,
    zero, indefinite, or with a non-finite or non-positive trace) takes one
    ``eigh``; an all-zero Gram gives zeros.
    """
    n = len(gram)
    cutoff = max(rows, n) * _EPS
    # Python floats: a huge or tiny finite Gram overflows to inf, not to a warning
    trace = sum(gram.diagonal().tolist())
    scale = 1.0 / max(_CHOLESKY_RCOND, n * cutoff) / trace if trace > 0.0 else 0.0
    if 0.0 < scale < math.inf:
        template, corner = _augmented(n)
        augmented = template.copy()
        augmented[:n, :n] = gram
        augmented.ravel()[corner] = scale
        try:
            factor = np.linalg.cholesky(augmented)
        except np.linalg.LinAlgError:
            factor = None
        # LAPACK may factor through a NaN; one anywhere in the Gram reaches
        # the last diagonal entry of the factor
        if factor is not None and math.isfinite(factor[-1, -1]):
            inverse_factor = factor[n:, :n]
            return inverse_factor @ (inverse_factor.T @ rhs)
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > cutoff * max(vals[-1], 0.0)
    kept = vecs[:, keep]
    return (kept / vals[keep]) @ (kept.T @ rhs)


@functools.lru_cache(maxsize=8)
def _augmented(n: int) -> tuple:
    """The template ``[[0, I], [I, 0]]`` (2n x 2n, read-only) that
    ``_min_norm_solve`` copies and fills in, and the flat indices of its
    lower-right block's diagonal."""
    eye = np.eye(n)
    template = np.block([[np.zeros((n, n)), eye], [eye, np.zeros((n, n))]])
    template.setflags(write=False)
    return template, np.arange(n, 2 * n) * (2 * n + 1)


def _state_normal_equations(moments: np.ndarray, b_y: np.ndarray, c: np.ndarray) -> tuple:
    """The Gram ``A^T A``, packed to its upper triangle as ``_packing`` says,
    and the right-hand side ``A^T vec(Y)`` of the stacked state matrix ``A``
    (the ``B3 . c_j`` of the M outcomes, (M L) x n), from the design's packed
    ``moments`` (``FactoredDesign.moments``), ``B^T Y`` laid out as
    ``[i, (k, j)]`` (n x n M) and the detector coordinates ``c`` (n x M).
    The packed Gram is one product with the packed ``C C^T``."""
    upper, _ = _packing(len(c))
    return moments @ (c @ c.T).take(upper), b_y @ c.ravel()


@functools.lru_cache(maxsize=8)
def _pairs(n: int) -> tuple:
    """The row and column of each entry of ``_packing(n)``'s upper triangle,
    and its ``positions``: the packed ``x x^T`` is ``x[rows] * x[cols]``."""
    upper, positions = _packing(n)
    return (*np.divmod(upper, n), positions)


def _detector_normal_equations(detector_moments: np.ndarray, b_centred: np.ndarray,
                               x: np.ndarray) -> tuple:
    """The detector block's Gram ``G^T G`` (n x n) and right-hand side
    ``G^T (Y - ybar)`` (n x M) for ``G = x . B3``, from the weighted moments
    (``FactoredDesign._detector_moments``) and ``B^T (Y - ybar)`` laid out as
    ``[i, (k, j)]`` (n x n M): the Gram is one product with the packed
    ``x x^T``, and the right-hand side is ``x`` times that layout."""
    rows, cols, positions = _pairs(len(x))
    gram = ((x[rows] * x[cols]) @ detector_moments)[positions]
    return gram, (x @ b_centred).reshape(len(x), -1)


def _outside(rows: np.ndarray, ball: list, embedding: np.ndarray):
    """The positivity gate a projected block must fail: ``None`` if the
    Hermitian matrices with coordinate rows ``rows`` (``d^2`` each, the
    trace coordinate first) are all finite and positive definite to
    roundoff, otherwise their real embeddings, ``(k, 2d, 2d)``.

    A block whose rows all lie in their inscribed balls (``_in_ball``)
    passes at once.  Otherwise the embeddings, one product with the basis's
    flattened ``_real_embedding`` (``d^2 x 4d^2``), take one stacked
    Cholesky.  Cholesky is backward stable: it succeeds on a matrix whose
    smallest eigenvalue lies above roundoff, a small multiple of ``eps``
    times its norm, and fails on one whose smallest eigenvalue lies below
    minus that; on a matrix that is positive semidefinite and singular to
    roundoff it may go either way.  Matrices that all factor are checked
    for a non-finite entry last, since LAPACK may factor through a NaN.
    """
    if _in_ball(rows, ball):
        return None
    k = math.isqrt(embedding.shape[1])
    mats = (rows @ embedding).reshape(len(rows), k, k)
    try:
        np.linalg.cholesky(mats)
    except np.linalg.LinAlgError:
        return mats
    return None if np.isfinite(mats).all() else mats


def _in_ball(rows: np.ndarray, ball: list) -> bool:
    """Whether each coordinate row's squared norm is at most its ``ball``
    entry (``_ball``); a NaN row is not."""
    return all(map(float.__le__, (rows @ rows.T).diagonal().tolist(), ball))


def _ball(trace_coords, d: int) -> list:
    """The squared radii of the balls inscribed in the positive cone, one
    per trace coordinate ``r_0`` of a Hermitian d x d matrix: with
    ``r_0 > 0``, a coordinate row ``r`` with ``||r||^2 <= r_0^2 d / (d - 1)``
    is positive semidefinite, being ``r_0 / sqrt(d) I`` plus a traceless
    ``T`` whose smallest eigenvalue is at least ``-||T|| sqrt((d - 1) / d)``.
    A non-positive ``r_0`` gets ``-1``, which no row meets."""
    return [r0 * r0 * d / (d - 1) if r0 > 0.0 else -1.0
            for r0 in np.asarray(trace_coords).tolist()]


def _projected(mats: np.ndarray, embedding: np.ndarray, spectrum) -> np.ndarray:
    """The coordinates (``d^2`` per matrix) of the Hermitian matrices whose
    real embeddings are ``mats`` (``(k, 2d, 2d)``), after ``spectrum`` maps
    each one's eigenvalues.

    One real ``eigh`` of the embeddings: each eigenvalue of a matrix appears
    twice in its embedding, and any function of the eigenvalues, taken on the
    embedding, is the embedding of that function of the matrix.  A
    coordinate ``Tr(Omega_k A)`` is half the entrywise product of the
    embeddings of ``Omega_k`` and ``A``, so the coordinates are one product
    with ``embedding`` (the basis's flattened ``_real_embedding``), halved.
    """
    vals, vecs = np.linalg.eigh(mats)
    mapped = (vecs * spectrum(vals)[:, None, :]) @ vecs.swapaxes(-1, -2)
    return mapped.reshape(len(mats), -1) @ embedding.T / 2.0


def _clipped(vals: np.ndarray) -> np.ndarray:
    """Negative eigenvalues clipped to zero: ``_clip_negative``'s spectrum."""
    return np.maximum(vals, 0.0)


def _on_simplex(vals: np.ndarray) -> np.ndarray:
    """The eigenvalues of a unit-trace embedding (each doubled, summing to 2)
    projected onto their simplex: ``_nearest_density``'s spectrum.  Doubling
    every value and the total leaves the simplex threshold unchanged."""
    return _project_simplex(vals, 2.0)


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
    the EstimateResult to start from.  Like ``estimate_joint_v1``, it needs
    generalized-unital processes, which a raw design cannot show.  ``ds``,
    ``b`` and the targets pass the estimator's one contract
    (``_targets_v1``); ``b`` is raw or its
    ``factor_design`` record, a raw matrix reaches that record through
    ``factor_design``'s memo.  A design with a non-finite entry is refused
    with DegeneracyError, and a design or targets beyond ``errors.MAX_ENTRY``
    with ValidationError (the dataset holds its anchor coordinate to that
    bound).

    From the third sweep on, sweeps start from Anderson-extrapolated states
    (module docstring).  A sweep is accepted only if it does not increase
    the objective, so the recorded objective sequence is non-increasing; an
    extrapolated sweep that would increase it is discarded, and the plain
    sweep from the current point runs instead.  The loop stops after
    ``iters`` accepted sweeps (a whole number >= 0; up to two are the plain
    sweeps exactly) or when the relative improvement of an accepted sweep
    falls below ``rel_tol``.  ``diagnostics["stop_reason"]`` says which:
    ``"converged"``, ``"max_iters"``, or ``"rejected"`` when a plain sweep's
    projections undid its gain and the previous point was kept.
    ``sweeps_accepted`` counts the accepted sweeps, and ``sweeps_run`` every
    sweep evaluated, discarded ones included.
    ``final_objective`` is the objective at the rough pair
    ``rho_bar``/``povm_bar``; ``corrected_objective`` is the objective at the
    returned corrected pair ``rho_hat``/``povm_hat``.

    Both blocks work on the design's records, as the module docstring
    derives: the detector block is one least-squares solve
    ``G^+ (Y - ybar)`` for all outcomes, and both blocks take their Grams
    from the packed moments of ``B^T B``, formed once per design record, and
    their right-hand sides from ``B^T Y``, formed once per call.  Each block
    is solved from its n x n normal equations: directly when one Cholesky
    factorization certifies the Gram well conditioned, and otherwise by an
    eigen-solve, which drops the directions whose singular value lies below
    ``sqrt(max(rows, n) eps) s_max`` (a least-squares solve on the tall
    matrix would keep them); both give the minimum-norm solution.  The
    objective stays in residual form, on the design's rows rotated by its
    left singular vectors.  Each block then passes a positivity gate: the
    ball inscribed in the positive cone, then one stacked Cholesky
    factorization of its matrices' real embeddings, formed from its
    coordinates; a block that is singular to roundoff may fail it, and its
    projection then returns it up to roundoff.  The projections run only on
    a block that fails the gate, on the embeddings the gate formed: every
    detector element's negative eigenvalues are clipped
    (``correct_povm``'s clip, without its renormalization), and the state
    goes to the nearest density matrix (``correct_state``'s projection,
    without re-validating a matrix it has just built).  The returned rough
    pair is built by the estimator's maps (``coherence_to_state``,
    ``_elements_from_coords``).
    """
    _record(basis, OperatorBasis, "basis")
    design = _stage("refine", factor_design, b)
    (y,) = _targets_v1(_one_stack(ds), design, basis)
    _bounded(y, "targets")
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
    x = _to_coords(init.rho_hat.rho, basis)[1:]
    c = _to_coords(init.povm_hat.elements, basis)[:, 1:].T  # one column per outcome
    l = len(y)
    anchor = ds.anchor_index - 1
    free = np.array([i for i in range(n) if i != anchor])
    # Where the state Gram's free block and anchor column sit in its packed form.
    _, positions = _packing(n)
    free_positions, anchor_positions = positions[np.ix_(free, free)], positions[free, anchor]

    moments, detector_moments = design.moments, design._detector_moments
    rotated = design._rotated
    b_y = design.b.T @ y
    # B^T (Y - ybar): the detector block's right-hand side is x times it
    b_centred = (b_y - (design.b.T @ y.mean(axis=1))[:, None]).reshape(n, -1)
    b_y = b_y.reshape(n, -1)
    # ||Y - G C||^2 = ||Y - u u^T Y||^2 + ||u^T Y - (u^T G) C||^2, the first
    # term in residual form once per call.
    y_rotated = design.u.T @ y
    y_off = float(np.linalg.norm(y - design.u @ y_rotated) ** 2)
    # Each block's coordinate rows for its positivity gate, with the trace
    # column filled in once (the state's 1/sqrt(d), the detector's c_j0), the
    # inscribed ball's squared radii, and the basis's flattened embeddings.
    x_row = np.empty((1, n + 1))
    x_row[0, 0] = 1.0 / math.sqrt(d)
    c_rows = np.empty((m, n + 1))
    c_rows[:, 0] = ds.c_j0_hat
    x_ball, c_ball = _ball(x_row[:, 0], d), _ball(c_rows[:, 0], d)
    embedding = basis._real_embedding.reshape(d * d, -1)

    def objective(x, c):
        """The objective at ``(x, C)``, from the rotated rows."""
        residual = (y_rotated - (x @ rotated).reshape(-1, n) @ c).ravel()
        return y_off + float(residual @ residual)

    def physical_state(x):
        """``x``, its anchor pinned in place, projected if it fails the gate."""
        x[anchor] = ds.x01_bar
        x_row[0, 1:] = x
        mats = _outside(x_row, x_ball, embedding)
        return x if mats is None else _projected(mats, embedding, _on_simplex)[0, 1:]

    def sweep(x):
        """One sweep from the state ``x``: the new pair and its objective."""
        # Detector block: every c_j from one solve on the centred targets,
        # G^T G and G^T (Y - ybar) from the moments; if an element fails the
        # gate, every element's eigenvalues are clipped.
        c_new = _min_norm_solve(*_detector_normal_equations(detector_moments, b_centred, x), l)
        c_rows[:, 1:] = c_new.T
        mats = _outside(c_rows, c_ball, embedding)
        if mats is not None:
            c_new = _projected(mats, embedding, _clipped)[:, 1:].T

        # State block: the (M L) x n system of all outcomes from the moments,
        # anchor pinned; projected if the state fails the gate.
        packed, rhs = _state_normal_equations(moments, b_y, c_new)
        x_new = np.empty(n)
        x_new[free] = _min_norm_solve(packed[free_positions],
                                      rhs[free] - packed[anchor_positions] * ds.x01_bar, m * l)
        x_new = physical_state(x_new)
        return x_new, c_new, objective(x_new, c_new)

    obj = objective(x, c)
    trajectory = [obj]
    accepted = run = 0
    stop_reason = "max_iters"
    # The Anderson history: a ring of the last _ANDERSON_DEPTH differences of
    # consecutive sweep outputs T(u) (the accepted points) and of their
    # residuals g = T(u) - u, and the latest residual; ``pushed`` counts the
    # differences since the history was cleared, -1 before its first output.
    outputs, residuals = np.empty((2, _ANDERSON_DEPTH, n))
    last_residual, pushed = None, -1
    start = x  # the state the next sweep starts from; x itself for a plain sweep

    while accepted < iters:
        x_new, c_new, new_obj = sweep(start)
        run += 1
        if not new_obj <= obj * (1.0 + _ACCEPT_RTOL) + _ACCEPT_ATOL:
            if start is x:
                stop_reason = "rejected"  # projection undid the gain; keep the previous point
                break
            pushed, start = -1, x  # the extrapolation did not pay: sweep from x plainly
            continue
        residual = x_new - start
        if pushed >= 0:
            slot = pushed % _ANDERSON_DEPTH
            outputs[slot] = x_new - x
            residuals[slot] = residual - last_residual
        last_residual, pushed = residual, pushed + 1
        x, c = x_new, c_new
        accepted += 1
        improved = obj - new_obj
        obj = new_obj
        trajectory.append(obj)
        if improved <= rel_tol * max(trajectory[0], _OBJECTIVE_FLOOR):
            stop_reason = "converged"
            break
        start = x
        if pushed:
            # Type-II Anderson step: the residual's least-squares combination
            # of the stored differences is taken off the latest output.
            k = min(pushed, _ANDERSON_DEPTH)
            diffs = residuals[:k]
            gamma = _min_norm_solve(diffs @ diffs.T, diffs @ residual, n)
            start = physical_state(x - gamma @ outputs[:k])

    est = _corrected(coherence_to_state(x, basis)[None],
                     _elements_from_coords(ds.c_j0_hat, c.T, basis)[None], {
        "objective_trajectory": trajectory,
        "sweeps_accepted": accepted,
        "sweeps_run": run,
        "stop_reason": stop_reason,
        "initial_objective": trajectory[0],
        "final_objective": obj,
    })
    est.diagnostics["corrected_objective"] = objective(
        _to_coords(est.rho_hat[0], basis)[1:], _to_coords(est.povm_hat[0], basis)[:, 1:].T)
    (result,) = est.results()
    return result
