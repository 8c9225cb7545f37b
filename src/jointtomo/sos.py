"""Semialgebraic physical sets and the reconstruction's polynomial program.

Positivity of a Hermitian matrix with known trace is equivalent to the
nonnegativity of the coefficients ``k_p`` produced by the Newton-type
recursion ``p k_p = sum_f (-1)^{f-1} Tr(rho^f) k_{p-f}``; the ``k_p`` are the
elementary symmetric polynomials of the eigenvalues, i.e. the characteristic
polynomial coefficients.  That turns the physical sets for states and
detector elements into semialgebraic sets over the real basis coordinates.

The exact constrained minimization of the reconstruction objective over those
sets is a polynomial (sum-of-squares) program; solving it needs an external
SDP/SOS front end, so this module exports the fully expanded program to a
self-describing text file.  The objective ``sum_j ||y_j - B z_j||^2`` is
stated once, from the Gram data ``(B^H B, B^T y, ||y||^2)``: ``z_j`` holds
outcome j's feature polynomials, ``x_i C_jk`` in the coordinate program and
``vec(rho)_u vec(P_j^T)_v`` in the pure one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import OperatorBasis, _skewed, coherence_to_state
from .channels import FactoredDesign
from .errors import ValidationError, _array, _bounded, _path, _real, _record
from .estimator import _check_design_shape, _one_stack, _targets_v1
from .measurement import MeasurementDataset
from .serialize import _MALFORMED

# Slack on the tests k_p >= 0 of the physical sets, and on the zero detector
# element of ``povm_membership``.
PHYSICAL_SET_TOL = 1e-9
# A polynomial coefficient at most this times max(1, the largest one) is dropped.
_COEFF_RTOL = 1e-14
# A coefficient whose imaginary part is beyond this times max(1, its modulus)
# is not real, and its polynomial is refused.
_REAL_COEFF_TOL = 1e-9


@dataclass(frozen=True)
class SemialgebraicCert:
    """Characteristic-polynomial coefficients k_0 .. k_d of a Hermitian matrix."""

    k: np.ndarray


def k_coefficients(rho: np.ndarray) -> SemialgebraicCert:
    """Coefficients from the trace-power recursion, k_0 = 1.

    For a unit-trace matrix the recursion reproduces k_1 = 1; in general
    k_1 = Tr(rho) so that the k_p always match the characteristic polynomial
    det(lambda I - rho) = sum_p (-1)^p k_p lambda^{d-p}.  The recursion runs
    on ``rho / s``, with ``s`` the largest entry's magnitude or 1 if that is
    smaller, so its powers stay finite for any d; each ``k_p`` is then
    scaled back by ``s^p`` (exactly a no-op for ``s = 1``), and a ``k_p``
    that overflows there is refused.
    """
    rho = _bounded(_array(rho, "matrix", 2, complex, square=True), "matrix")
    if _skewed(rho):
        raise ValidationError("matrix must be Hermitian")
    d = rho.shape[0]
    s = max(float(np.abs(rho).max(initial=0.0)), 1.0)
    rho = rho / s
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
    for p in range(1, d + 1):  # k_q takes s^q one factor at a time, so no power overflows alone
        k[p:] = [k_q * s for k_q in k[p:]]
    if not all(map(math.isfinite, k)):
        raise ValidationError("matrix has characteristic coefficients beyond the float range")
    return SemialgebraicCert(k=np.array(k))


def in_physical_set(x: np.ndarray, basis: OperatorBasis) -> bool:
    """Whether coherence coordinates x describe a positive unit-trace matrix."""
    cert = k_coefficients(coherence_to_state(x, basis))
    return bool(np.all(cert.k[2:] >= -PHYSICAL_SET_TOL))


def povm_membership(c0: float, c: np.ndarray, basis: OperatorBasis) -> bool:
    """Whether detector-element coordinates (c0, c) describe a PSD matrix.

    The element is PSD iff its normalization to unit trace lies in the
    physical state set; the zero element (c0 and c both ~ 0) is accepted as a
    boundary case.
    """
    _record(basis, OperatorBasis, "basis")
    c0, c = _real(c0, "c0"), _array(c, "coherence vector", dtype=float)
    if c0 <= PHYSICAL_SET_TOL:
        return bool(np.linalg.norm(c) <= PHYSICAL_SET_TOL)
    return in_physical_set(c / (np.sqrt(basis.d) * c0), basis)


# --------------------------------------------------------------------------
# Polynomials
# --------------------------------------------------------------------------
# Polynomials are dicts mapping exponent tuples (one entry per variable) to
# coefficients.  Everything is expanded fully; no symbolic engine needed.

def _mono(nv, *positions):
    """Exponent tuple of the product of the variables at ``positions``."""
    key = [0] * nv
    for pos in positions:
        key[pos] += 1
    return tuple(key)


def _pacc(out, p, s=1.0):
    """Add ``s p`` into ``out`` in place."""
    for k, v in p.items():
        out[k] = out.get(k, 0.0) + v * s


def _pscale(p, s):
    return {k: v * s for k, v in p.items()}


def _pmul(p, q, out=None):
    """``p q``, added into ``out`` when it is given."""
    out = {} if out is None else out
    for ka, va in p.items():
        for kb, vb in q.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def _pclean(p):
    scale = max((abs(v) for v in p.values()), default=1.0)
    return {k: v for k, v in p.items() if abs(v) > _COEFF_RTOL * max(scale, 1.0)}


def _prealify(p):
    out = {}
    for k, v in p.items():
        v = complex(v)
        if abs(v.imag) > _REAL_COEFF_TOL * max(1.0, abs(v)):
            raise ValidationError(f"polynomial coefficient {v} is not real")
        out[k] = v.real
    return _pclean(out)


def poly_eval(p, values) -> float:
    values = _array(values, "values", 1, float)
    total = 0.0
    for exps, coeff in p.items():
        term = coeff
        for e, v in zip(exps, values):
            if e:
                term *= v ** e
        total += term
    return float(total)


def _variables(nv, positions):
    """The variables at ``positions``, each as a polynomial."""
    return [{_mono(nv, pos): 1.0} for pos in positions]


def _omega_sum(basis, coords):
    """Matrix of polynomials ``sum_k coords[k] Omega_k``."""
    d = basis.d
    mat = [[None] * d for _ in range(d)]
    for r in range(d):
        for c in range(d):
            entry = {}
            for coord, omega in zip(coords, basis.omegas):
                _pacc(entry, coord, omega[r, c])
            mat[r][c] = _pclean(entry)
    return mat


def _char_coeff_polys(mat, dim, nv):
    """k_p polynomials (p = 0..dim) of a matrix with polynomial entries."""
    def mat_mul(a, b):
        out = [[{} for _ in range(dim)] for _ in range(dim)]
        for i in range(dim):
            for j in range(dim):
                acc = {}
                for r in range(dim):
                    _pacc(acc, _pmul(a[i][r], b[r][j]))
                out[i][j] = _pclean(acc)
        return out

    def mat_trace(a):
        acc = {}
        for i in range(dim):
            _pacc(acc, a[i][i])
        return acc

    traces = []
    power = mat
    traces.append(mat_trace(power))
    for _ in range(dim - 1):
        power = mat_mul(power, mat)
        traces.append(mat_trace(power))
    ks = [{_mono(nv): 1.0}]
    for p in range(1, dim + 1):
        acc = {}
        for f in range(1, p + 1):
            _pacc(acc, _pmul(traces[f - 1], ks[p - f]), (-1.0) ** (f - 1))
        ks.append(_pclean(_pscale(acc, 1.0 / p)))
    return ks


def _gram_objective(b, y, features, nv):
    """``sum_j ||y_j - B z_j||^2`` expanded from the Gram data of ``B``.

    ``features[j][p]`` is the polynomial ``(z_j)_p``.  With ``G = B^H B`` and
    ``h_j = B^T y_j`` each outcome adds
    ``||y_j||^2 + sum_p conj(z_jp) (sum_q G_pq z_jq - conj(h_jp)) - h_j . z_j``,
    whose imaginary parts cancel in the sum.  A design with an entry beyond
    ``errors.MAX_ENTRY`` is refused, before its Gram could overflow.
    """
    b = _bounded(b, "regression matrix")
    gram = b.conj().T @ b
    h = b.T @ y
    out = {_mono(nv): float(np.sum(y * y))}
    for j, z in enumerate(features):
        for p, zp in enumerate(z):
            w = {_mono(nv): -np.conj(h[p, j])}
            for q, zq in enumerate(z):
                _pacc(w, zq, gram[p, q])
            _pmul({k: np.conj(v) for k, v in zp.items()}, w, out)
            _pacc(out, zp, -h[p, j])
    return _prealify(out)


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
        with open(_path(path), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def load_sos_problem(path) -> SosProblem:
    """Parse a file written by :meth:`SosProblem.write`.

    A file that lacks a header or the objective, or has a line that does not
    parse, is refused with a ValidationError naming ``path``.
    """
    _path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_sos_problem(fh)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except _MALFORMED as exc:  # includes bytes that are not UTF-8
        raise ValidationError(f"{path}: malformed program: {exc!r}") from exc


def _parse_sos_problem(lines) -> SosProblem:
    dim = m = None
    variables = ()
    sections = []  # (kind, name, poly)
    for raw in lines:
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
            sections.append((head, rest, {}))
        elif not sections:
            raise ValidationError(f"coefficient line {line!r} comes before any section")
        else:
            coeff, *exps = line.split()
            exps = tuple(int(t) for t in exps)
            if len(exps) != len(variables):
                raise ValidationError(f"bad exponent vector length in {line!r}")
            sections[-1][2][exps] = float(coeff)
    if dim is None or m is None or not variables:
        raise ValidationError("missing the dim, M or vars header")
    objectives = [p for kind, _, p in sections if kind == "OBJECTIVE"]
    if len(objectives) != 1:
        raise ValidationError(f"expected one OBJECTIVE section, found {len(objectives)}")
    eqs = tuple((name, p) for kind, name, p in sections if kind == "EQ")
    ineqs = tuple((name, p) for kind, name, p in sections if kind == "INEQ")
    return SosProblem(dim=dim, m=m, variables=variables, objective=objectives[0],
                      equalities=eqs, inequalities=ineqs)


def export_sos_problem(
    ds: MeasurementDataset,
    b: np.ndarray,
    basis: OperatorBasis,
    path,
    pure: bool = False,
) -> SosProblem:
    """Write the reconstruction program for external SOS/SDP solvers.

    ``ds`` must be one MeasurementDataset; anything else is refused before
    a file is written.  ``b`` is the design of the program written, raw or
    as its ``factor_design`` record, and is refused if it has a non-finite
    entry.  By default it is the coherence-vector matrix, checked with its
    targets by the estimator's one contract (``_targets_v1``) but not for
    the generalized-unital processes its model needs, and the program
    expands the objective over the state and detector coordinates with
    completeness and anchor equalities plus the semialgebraic positivity
    inequalities.  With ``pure=True`` it is the ``L x d^4``
    natural-basis matrix ``b_natural``, and the program is written over the
    real and imaginary amplitudes of a unit state vector plus full detector
    coordinates, regressing the raw frequencies; the state positivity
    constraints disappear in favor of the unit-norm equality.

    The expansion is guarded to ``d <= 3``; beyond that the monomial count is
    impractical for this exporter.
    """
    d = _record(basis, OperatorBasis, "basis").d
    if d > 3:
        raise ValidationError(f"polynomial export supports d <= 3, got d={d}")
    stack = _one_stack(ds)
    b = _array(b.b if isinstance(b, FactoredDesign) else b, "regression matrix", 2)
    y = ds.y_hat if pure else _targets_v1(stack, b, basis)[0]
    if pure:
        _check_design_shape(b.shape, ds.n_processes, d ** 4)
    problem = (_build_pure_program if pure else _build_coordinate_program)(ds, b, y, basis)
    problem.write(path)
    return problem


def _ball_inequalities(name, ks, d):
    """``k_p >= 0`` for p = 2..d, p = 2 scaled to the half-radius ball form."""
    return [(f"{name}_ball_p{p}", _prealify(_pscale(ks[p], 2.0 if p == 2 else 1.0)))
            for p in range(2, d + 1)]


def _build_coordinate_program(ds, b, y, basis) -> SosProblem:
    d = basis.d
    n = basis.n_traceless
    m = ds.n_outcomes
    nv = n * (m + 1)
    names = tuple(f"x0_{k + 1}" for k in range(n)) + tuple(
        f"C{j + 1}_{k + 1}" for j in range(m) for k in range(n)
    )
    features = [[{_mono(nv, i, n + j * n + k): 1.0} for i in range(n) for k in range(n)]
                for j in range(m)]
    objective = _gram_objective(b, y, features, nv)

    equalities = []
    for k in range(n):
        poly = {_mono(nv, n + j * n + k): 1.0 for j in range(m)}
        equalities.append((f"completeness_{k + 1}", poly))
    anchor = ds.anchor_index - 1
    equalities.append(("anchor", {_mono(nv, anchor): 1.0, _mono(nv): -float(ds.x01_bar)}))

    state = _omega_sum(basis, [{_mono(nv): 1.0 / np.sqrt(d)}] + _variables(nv, range(n)))
    inequalities = _ball_inequalities("state", _char_coeff_polys(state, d, nv), d)
    for j in range(m):
        elem = _omega_sum(basis, [{_mono(nv): float(ds.c_j0_hat[j])}]
                          + _variables(nv, range(n + j * n, n + (j + 1) * n)))
        inequalities += _ball_inequalities(f"povm{j + 1}", _char_coeff_polys(elem, d, nv), d)

    return SosProblem(dim=d, m=m, variables=names, objective=objective,
                      equalities=tuple(equalities), inequalities=tuple(inequalities))


def _build_pure_program(ds, b_natural, y, basis) -> SosProblem:
    d = basis.d
    n_full = d * d
    m = ds.n_outcomes
    nv = 2 * d + n_full * m
    names = tuple(f"psi_re_{i + 1}" for i in range(d)) + tuple(
        f"psi_im_{i + 1}" for i in range(d)
    ) + tuple(f"C{j + 1}_{k}" for j in range(m) for k in range(n_full))

    # vec(rho) = kron(conj(psi), psi), column-major index u*d + v, with psi_u
    # a complex-coefficient linear polynomial in the real variables.
    psi = [{_mono(nv, u): 1.0, _mono(nv, d + u): 1j} for u in range(d)]
    psi_c = [{_mono(nv, u): 1.0, _mono(nv, d + u): -1j} for u in range(d)]
    vec_rho = [_pmul(psi_c[u], psi[v]) for u in range(d) for v in range(d)]
    # vec(P_j^T) is P_j read row by row.
    elements = [_omega_sum(basis, _variables(nv, range(2 * d + j * n_full,
                                                        2 * d + (j + 1) * n_full)))
                for j in range(m)]
    features = [[_pmul(vr, vp) for vr in vec_rho for row in elem for vp in row]
                for elem in elements]
    objective = _gram_objective(b_natural, y, features, nv)

    norm_poly = {_mono(nv): -1.0}
    norm_poly.update({_mono(nv, u, u): 1.0 for u in range(2 * d)})
    equalities = [("state_unit_norm", norm_poly)]
    eq0 = {_mono(nv, 2 * d + j * n_full): 1.0 for j in range(m)}
    eq0[_mono(nv)] = -np.sqrt(d)
    equalities.append(("completeness_0", eq0))
    for k in range(1, n_full):
        poly = {_mono(nv, 2 * d + j * n_full + k): 1.0 for j in range(m)}
        equalities.append((f"completeness_{k}", poly))

    # Each element's trace component is a variable: positivity needs every
    # characteristic coefficient from p = 1 up.
    inequalities = []
    for j, elem in enumerate(elements):
        ks = _char_coeff_polys(elem, d, nv)
        for p in range(1, d + 1):
            inequalities.append((f"povm{j + 1}_char_p{p}", _prealify(ks[p])))

    return SosProblem(dim=d, m=m, variables=names, objective=objective,
                      equalities=tuple(equalities), inequalities=tuple(inequalities))
