"""Physicality machinery: characteristic coefficients, membership tests,
a projected alternating refinement, and a polynomial-program exporter.

Positivity of a Hermitian matrix with known trace is equivalent to the
nonnegativity of the coefficients ``k_p`` produced by the Newton-type
recursion ``p k_p = sum_f (-1)^{f-1} Tr(rho^f) k_{p-f}``; the ``k_p`` are the
elementary symmetric polynomials of the eigenvalues, i.e. the characteristic
polynomial coefficients.  That turns the physical sets for states and
detector elements into semialgebraic sets over the real basis coordinates.

The exact constrained minimization of the reconstruction objective over those
sets is a polynomial (sum-of-squares) program; solving it needs an external
SDP/SOS front end, so this module exports the fully expanded program to a
self-describing text file and offers a block-coordinate refinement with
projections as an in-repo substitute.

The refinement works on the design tensor ``B3 = b.reshape(L, n, n)``, whose
entry ``B3[a, i, k]`` multiplies ``x_i c_k``.  For a state ``x`` the matrix
``G = x . B3`` (L x n) turns the objective into ``||Y - G C||_F^2``, with one
detector element's coordinates per column of ``C``.  Under completeness,
``sum_j c_j = 0``, the detector block's stationarity conditions
``G^T (G c_j - y_j) + lam = 0`` sum over the M outcomes to ``lam = G^T ybar``
(``ybar`` the mean target), hence ``c_j = G^+ (y_j - ybar)``: one
least-squares solve on the centred targets for all outcomes.  The state
block stacks ``B3 . c_j`` over the outcomes with one matrix product.
"""

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    OperatorBasis,
    PovmCoordinates,
    coherence_to_state,
    coords_to_povm_element,
    povm_element_to_coords,
    state_to_coords,
)
from .channels import FactoredDesign
from .errors import DegeneracyError, ValidationError
from .estimator import (  # noqa: F401  (perfbench traces correct_state as an alias here)
    EstimateResult,
    _clip_negative,
    _corrected,
    _nearest_density,
    build_targets_v1,
    correct_state,
)
from .measurement import MeasurementDataset


@dataclass(frozen=True)
class SemialgebraicCert:
    """Characteristic-polynomial coefficients k_0 .. k_d of a Hermitian matrix."""

    k: np.ndarray

    @property
    def is_psd(self) -> bool:
        return bool(np.all(self.k[1:] >= -1e-12))


def k_coefficients(rho: np.ndarray) -> SemialgebraicCert:
    """Coefficients from the trace-power recursion, k_0 = 1.

    For a unit-trace matrix the recursion reproduces k_1 = 1; in general
    k_1 = Tr(rho) so that the k_p always match the characteristic polynomial
    det(lambda I - rho) = sum_p (-1)^p k_p lambda^{d-p}.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {rho.shape}")
    if np.linalg.norm(rho - rho.conj().T) > 1e-9 * max(1.0, np.linalg.norm(rho)):
        raise ValidationError("matrix must be Hermitian")
    d = rho.shape[0]
    traces = []
    power = np.eye(d, dtype=complex)
    for _ in range(d):
        power = power @ rho
        traces.append(float(np.real(np.trace(power))))
    k = [1.0]
    for p in range(1, d + 1):
        acc = 0.0
        for f in range(1, p + 1):
            acc += (-1.0) ** (f - 1) * traces[f - 1] * k[p - f]
        k.append(acc / p)
    return SemialgebraicCert(k=np.array(k))


def in_physical_set(x: np.ndarray, basis: OperatorBasis, tol: float = 1e-9) -> bool:
    """Whether coherence coordinates x describe a positive unit-trace matrix."""
    cert = k_coefficients(coherence_to_state(np.asarray(x, float), basis))
    return bool(np.all(cert.k[2:] >= -tol))


def povm_membership(c0: float, c: np.ndarray, basis: OperatorBasis, tol: float = 1e-9) -> bool:
    """Whether detector-element coordinates (c0, c) describe a PSD matrix.

    The element is PSD iff its normalization to unit trace lies in the
    physical state set; the zero element (c0 and c both ~ 0) is accepted as a
    boundary case.
    """
    c = np.asarray(c, dtype=float)
    if c0 <= tol:
        return bool(np.linalg.norm(c) <= tol)
    return in_physical_set(c / (np.sqrt(basis.d) * c0), basis, tol=tol)


# --------------------------------------------------------------------------
# Projected alternating refinement
# --------------------------------------------------------------------------

def _matrices(full: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """The matrices ``sum_k f_k Omega_k``, one per row ``f`` of ``full``."""
    d = basis.d
    return (full @ basis.omegas.reshape(d * d, d * d)).reshape(-1, d, d)


def _traceless_coords(mats: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """``Tr(Omega_k P)`` for k >= 1, one column per matrix P of the stack."""
    d = basis.d
    # Tr(Omega_k P) = sum_ab Omega_k[a, b] P[b, a]
    return np.real(basis.omegas[1:].reshape(-1, d * d)
                   @ mats.transpose(0, 2, 1).reshape(-1, d * d).T)


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
    physical set afterwards.  ``b`` is the coherence-vector regression matrix,
    raw or as its ``factor_design`` record.  A sweep is accepted only if it
    does not increase the objective, so the recorded objective sequence is
    non-increasing; the loop stops at ``iters`` sweeps or when the relative
    improvement of an accepted sweep falls below ``rel_tol``.
    ``diagnostics["stop_reason"]`` says which: ``"converged"``,
    ``"max_iters"``, or ``"rejected"`` when a sweep's projections undid its
    gain and the previous point was kept.

    Both blocks work on the design tensor, as the module docstring derives:
    the detector block is one least-squares solve ``G^+ (Y - ybar)`` for all
    outcomes.  The projections are the correction kernels of the estimator:
    one stacked ``eigh`` clips the negative eigenvalues of every detector
    element (``correct_povm``'s clip, without its renormalization), and the
    state goes to the nearest density matrix (``correct_state``'s projection,
    without re-validating a matrix it has just built).
    """
    n = basis.n_traceless
    if isinstance(b, FactoredDesign):
        b = b.b
    b = np.asarray(b)
    if b.shape != (ds.n_processes, n * n):
        raise ValidationError(f"regression matrix must be {ds.n_processes}x{n * n}, got {b.shape}")
    if iters < 0:
        raise ValidationError(f"iters must be >= 0, got {iters}")
    if not rel_tol >= 0.0:
        raise ValidationError(f"rel_tol must be >= 0, got {rel_tol}")
    y = build_targets_v1(ds, basis)
    x = state_to_coords(init.rho_hat.rho, basis).x
    c = np.stack([povm_element_to_coords(p, basis).c for p in init.povm_hat.elements], axis=1)
    l, m = y.shape
    anchor = ds.anchor_index - 1
    free = [i for i in range(n) if i != anchor]
    c0s = ds.c_j0_hat
    trace_part = [1.0 / np.sqrt(basis.d)]

    # The tensor laid out once as B3[a, i, k] -> b_t[k, a, i]: G^T is then
    # one matrix-vector product, and the state block's stacked matrix one
    # GEMM whose rows already come outcome by outcome.
    b_t = np.ascontiguousarray(b.reshape(l, n, n).transpose(2, 0, 1))
    b_rows, b_cols = b_t.reshape(n * l, n), b_t.reshape(n, l * n)
    y_centred = y - y.mean(axis=1, keepdims=True)
    rhs_all = y.T.ravel()

    g = (b_rows @ x).reshape(n, l).T
    obj = float(np.linalg.norm(y - g @ c) ** 2)
    if not np.isfinite(obj):
        raise DegeneracyError(f"objective is not finite at the initial point: {obj}")
    trajectory = [obj]
    accepted = 0
    stop_reason = "max_iters"

    for _ in range(iters):
        # Detector block: every c_j from one solve on the centred targets,
        # then every element's negative eigenvalues clipped at once.
        c_new, *_ = np.linalg.lstsq(g, y_centred, rcond=None)
        c_new = _traceless_coords(_clip_negative(_matrices(np.vstack([c0s, c_new]).T, basis)),
                                  basis)

        # State block: the (M L) x n system of all outcomes, anchor pinned.
        a_x = (c_new.T @ b_cols).reshape(m * l, n)
        rhs = rhs_all - a_x[:, anchor] * ds.x01_bar
        sol, *_ = np.linalg.lstsq(a_x[:, free], rhs, rcond=None)
        x_new = np.empty(n)
        x_new[anchor] = ds.x01_bar
        x_new[free] = sol
        rho = _nearest_density(_matrices(np.concatenate((trace_part, x_new)), basis)[0])
        x_new = _traceless_coords(rho[None], basis)[:, 0]

        g_new = (b_rows @ x_new).reshape(n, l).T
        new_obj = float(np.linalg.norm(y - g_new @ c_new) ** 2)
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

    rho_bar = coherence_to_state(x, basis)
    povm_bar = np.stack([
        coords_to_povm_element(PovmCoordinates(c0s[j], c[:, j]), basis) for j in range(m)
    ])
    return _corrected(rho_bar, povm_bar, {
        "objective_trajectory": trajectory,
        "sweeps_accepted": accepted,
        "stop_reason": stop_reason,
        "initial_objective": trajectory[0],
        "final_objective": obj,
    })


# --------------------------------------------------------------------------
# Polynomial program export
# --------------------------------------------------------------------------
# Polynomials are dicts mapping exponent tuples (one entry per variable) to
# coefficients.  Everything is expanded fully; no symbolic engine needed.

def _pzero():
    return {}


def _padd(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0.0) + v
    return out


def _pscale(p, s):
    return {k: v * s for k, v in p.items()}


def _pmul(p, q):
    out = {}
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def _pclean(p, tol=1e-14):
    scale = max((abs(v) for v in p.values()), default=1.0)
    return {k: v for k, v in p.items() if abs(v) > tol * max(scale, 1.0)}


def _prealify(p, tol=1e-9):
    out = {}
    for k, v in p.items():
        v = complex(v)
        if abs(v.imag) > tol * max(1.0, abs(v)):
            raise ValidationError(f"polynomial coefficient {v} is not real")
        out[k] = v.real
    return _pclean(out)


def poly_eval(p, values) -> float:
    values = np.asarray(values, dtype=float)
    total = 0.0
    for exps, coeff in p.items():
        term = coeff
        for e, v in zip(exps, values):
            if e:
                term *= v ** e
        total += term
    return float(total)


def _char_coeff_polys(mat, dim, nv):
    """k_p polynomials (p = 0..dim) of a matrix with polynomial entries."""
    def mat_mul(a, b):
        out = [[_pzero() for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                acc = _pzero()
                for r in range(dim):
                    acc = _padd(acc, _pmul(a[i][r], b[r][j]))
                out[i][j] = _pclean(acc)
        return out

    def mat_trace(a):
        acc = _pzero()
        for i in range(dim):
            acc = _padd(acc, a[i][i])
        return acc

    traces = []
    power = mat
    traces.append(mat_trace(power))
    for _ in range(dim - 1):
        power = mat_mul(power, mat)
        traces.append(mat_trace(power))
    zero_key = (0,) * nv
    ks = [{zero_key: 1.0}]
    for p in range(1, dim + 1):
        acc = _pzero()
        for f in range(1, p + 1):
            acc = _padd(acc, _pscale(_pmul(traces[f - 1], ks[p - f]), (-1.0) ** (f - 1)))
        ks.append(_pclean(_pscale(acc, 1.0 / p)))
    return ks


def _matrix_poly_from_coords(basis, const_coeff, var_indices, nv):
    """Matrix of polynomials ``const_coeff * Omega_0 + sum_k var_k * Omega_k``."""
    d = basis.d
    zero_key = (0,) * nv
    mat = [[_pzero() for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            entry = {zero_key: const_coeff * basis.omegas[0][i, j]}
            for pos, var in enumerate(var_indices):
                key = list(zero_key)
                key[var] = 1
                entry[tuple(key)] = basis.omegas[pos + 1][i, j]
            mat[i][j] = _pclean(entry)
    return mat


@dataclass(frozen=True)
class SosProblem:
    """A fully expanded polynomial program over real variables.

    The objective is the reconstruction residual (a sum of squares of affine
    forms by construction); equalities pin completeness and the measured
    anchor, inequalities are positive multiples of the characteristic
    coefficients that carve out the physical sets.
    """

    dim: int
    m: int
    variables: tuple
    objective: dict
    equalities: tuple = field(default=())
    inequalities: tuple = field(default=())
    pure: bool = False

    def evaluate_objective(self, values) -> float:
        return poly_eval(self.objective, values)

    def write(self, path) -> None:
        lines = [
            "# Joint state/detector reconstruction as a polynomial program.",
            "# Convention: minimize (-gamma) subject to OBJECTIVE - gamma being a",
            "# sum of squares under the constraints below (EQ lines vanish, INEQ",
            "# lines are nonnegative on the feasible set).",
            "# Polynomial line format: coefficient, then one exponent per variable.",
            f"dim {self.dim}",
            f"M {self.m}",
            "vars " + " ".join(self.variables),
        ]

        def emit(poly):
            for exps in sorted(poly):
                lines.append(f"{poly[exps]:.17g} " + " ".join(str(e) for e in exps))

        lines.append("OBJECTIVE")
        emit(self.objective)
        for name, poly in self.equalities:
            lines.append(f"EQ {name}")
            emit(poly)
        for name, poly in self.inequalities:
            lines.append(f"INEQ {name}")
            emit(poly)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def load_sos_problem(path) -> SosProblem:
    """Parse a file written by :meth:`SosProblem.write`."""
    dim = m = None
    variables = ()
    sections = []  # (kind, name, poly)
    current = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, _, rest = line.partition(" ")
            if head == "dim":
                dim = int(rest)
            elif head == "M":
                m = int(rest)
            elif head == "vars":
                variables = tuple(rest.split())
            elif head in ("OBJECTIVE", "EQ", "INEQ"):
                current = (head, rest, {})
                sections.append(current)
            else:
                parts = line.split()
                coeff = float(parts[0])
                exps = tuple(int(t) for t in parts[1:])
                if len(exps) != len(variables):
                    raise ValidationError(f"bad exponent vector length in {path}")
                current[2][exps] = coeff
    objective = next(p for kind, _, p in sections if kind == "OBJECTIVE")
    eqs = tuple((name, p) for kind, name, p in sections if kind == "EQ")
    ineqs = tuple((name, p) for kind, name, p in sections if kind == "INEQ")
    return SosProblem(dim=dim, m=m, variables=variables, objective=objective,
                      equalities=eqs, inequalities=ineqs)


def export_sos_problem(
    ds: MeasurementDataset,
    b: np.ndarray,
    basis: OperatorBasis,
    path,
    pure: bool = False,
    b_natural: np.ndarray = None,
) -> SosProblem:
    """Write the reconstruction program for external SOS/SDP solvers.

    By default the program expands the coherence-vector objective over the state and
    detector coordinates with completeness and anchor equalities plus the
    semialgebraic positivity inequalities.  With ``pure=True`` the program is
    written over the real and imaginary amplitudes of a unit state vector plus
    full detector coordinates, regressing the raw frequencies on
    ``b_natural``; the state positivity constraints disappear in favor of the
    unit-norm equality.

    The expansion is guarded to ``d <= 3``; beyond that the monomial count is
    impractical for this exporter.
    """
    d = basis.d
    if d > 3:
        raise ValidationError(f"polynomial export supports d <= 3, got d={d}")
    problem = _build_pure_program(ds, b_natural, basis) if pure \
        else _build_coordinate_program(ds, b, basis)
    problem.write(path)
    return problem


def _build_coordinate_program(ds, b, basis) -> SosProblem:
    d = basis.d
    n = basis.n_traceless
    m = ds.n_outcomes
    nv = n * (m + 1)
    names = tuple(f"x0_{k + 1}" for k in range(n)) + tuple(
        f"C{j + 1}_{k + 1}" for j in range(m) for k in range(n)
    )
    y = build_targets_v1(ds, basis)
    zero_key = (0,) * nv

    def mono(*pairs):
        key = [0] * nv
        for pos in pairs:
            key[pos] += 1
        return tuple(key)

    objective = _pzero()
    for j in range(m):
        base = n + j * n
        for a in range(ds.n_processes):
            resid = {zero_key: float(y[a, j])}
            row = b[a].reshape(n, n)
            for i in range(n):
                for k in range(n):
                    if row[i, k] != 0.0:
                        key = mono(i, base + k)
                        resid[key] = resid.get(key, 0.0) - row[i, k]
            objective = _padd(objective, _pmul(resid, resid))
    objective = _pclean(objective)

    equalities = []
    for k in range(n):
        poly = {mono(n + j * n + k): 1.0 for j in range(m)}
        equalities.append((f"completeness_{k + 1}", poly))
    anchor = ds.anchor_index - 1
    equalities.append(("anchor", {mono(anchor): 1.0, zero_key: -float(ds.x01_bar)}))

    inequalities = []
    state_mat = _matrix_poly_from_coords(basis, 1.0 / np.sqrt(d), range(n), nv)
    ks = _char_coeff_polys(state_mat, d, nv)
    for p in range(2, d + 1):
        scale = 2.0 if p == 2 else 1.0  # p=2 scaled to the half-radius ball form
        inequalities.append((f"state_ball_p{p}", _prealify(_pscale(ks[p], scale))))
    for j in range(m):
        elem_mat = _matrix_poly_from_coords(
            basis, float(ds.c_j0_hat[j]), range(n + j * n, n + (j + 1) * n), nv
        )
        ks = _char_coeff_polys(elem_mat, d, nv)
        for p in range(2, d + 1):
            scale = 2.0 if p == 2 else 1.0
            inequalities.append((f"povm{j + 1}_ball_p{p}", _prealify(_pscale(ks[p], scale))))

    return SosProblem(dim=d, m=m, variables=names, objective=objective,
                      equalities=tuple(equalities), inequalities=tuple(inequalities))


def _build_pure_program(ds, b_natural, basis) -> SosProblem:
    if b_natural is None:
        raise ValidationError("pure-state export needs the natural-basis matrix")
    d = basis.d
    n_full = d * d
    m = ds.n_outcomes
    nv = 2 * d + n_full * m
    names = tuple(f"psi_re_{i + 1}" for i in range(d)) + tuple(
        f"psi_im_{i + 1}" for i in range(d)
    ) + tuple(f"C{j + 1}_{k}" for j in range(m) for k in range(n_full))
    zero_key = (0,) * nv

    def mono(*pairs):
        key = [0] * nv
        for pos in pairs:
            key[pos] += 1
        return tuple(key)

    # psi_u as a complex-coefficient linear polynomial in the real variables.
    psi = [{mono(u): 1.0, mono(d + u): 1j} for u in range(d)]
    psi_c = [{mono(u): 1.0, mono(d + u): -1j} for u in range(d)]
    # vec(rho) = kron(conj(psi), psi), column-major index u*d + v.
    vec_rho = [_pmul(psi_c[u], psi[v]) for u in range(d) for v in range(d)]
    # vec(P_j^T) entries: sum_k C_{j,k} conj(vec(Omega_k)).
    omega_vecs_conj = [om.reshape(-1, order="F").conj() for om in basis.omegas]

    objective = _pzero()
    for j in range(m):
        base = 2 * d + j * n_full
        vec_pt = []
        for entry in range(n_full):
            poly = {}
            for k in range(n_full):
                coeff = omega_vecs_conj[k][entry]
                if coeff != 0.0:
                    poly[mono(base + k)] = coeff
            vec_pt.append(poly)
        for a in range(ds.n_processes):
            resid = {zero_key: float(ds.y_hat[a, j])}
            row = b_natural[a]
            for u in range(n_full):
                if not vec_rho[u]:
                    continue
                for v in range(n_full):
                    coeff = row[u * n_full + v]
                    if coeff == 0.0 or not vec_pt[v]:
                        continue
                    resid = _padd(resid, _pscale(_pmul(vec_rho[u], vec_pt[v]), -coeff))
            resid = _pclean(resid)
            re_part = {k: complex(v).real for k, v in resid.items()}
            im_part = {k: complex(v).imag for k, v in resid.items()}
            objective = _padd(objective, _padd(_pmul(re_part, re_part),
                                               _pmul(im_part, im_part)))
    objective = _pclean(objective)

    equalities = []
    norm_poly = {zero_key: -1.0}
    for u in range(2 * d):
        norm_poly = _padd(norm_poly, {mono(u, u): 1.0})
    equalities.append(("state_unit_norm", norm_poly))
    eq0 = {mono(2 * d + j * n_full): 1.0 for j in range(m)}
    eq0[zero_key] = -np.sqrt(d)
    equalities.append(("completeness_0", eq0))
    for k in range(1, n_full):
        poly = {mono(2 * d + j * n_full + k): 1.0 for j in range(m)}
        equalities.append((f"completeness_{k}", poly))

    inequalities = []
    for j in range(m):
        base = 2 * d + j * n_full
        # Element matrix with its trace component as a variable: positivity
        # needs every characteristic coefficient from p = 1 up.
        mat = [[_pzero() for _ in range(d)] for _ in range(d)]
        for r in range(d):
            for c in range(d):
                entry = {}
                for k in range(n_full):
                    coeff = basis.omegas[k][r, c]
                    if coeff != 0.0:
                        entry[mono(base + k)] = coeff
                mat[r][c] = entry
        ks = _char_coeff_polys(mat, d, nv)
        for p in range(1, d + 1):
            inequalities.append((f"povm{j + 1}_char_p{p}", _prealify(ks[p])))

    return SosProblem(dim=d, m=m, variables=names, objective=objective,
                      equalities=tuple(equalities), inequalities=tuple(inequalities),
                      pure=True)
