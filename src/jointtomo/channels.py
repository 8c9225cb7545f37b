"""Quantum processes: Kraus channels, transfer matrices, probe families.

A process is stored as a list of Kraus matrices ``A_i`` acting as
``rho -> sum_i A_i rho A_i^dag`` with ``sum_i A_i^dag A_i <= I``.  Two derived
representations drive the estimation pipeline:

* the natural superoperator ``sum_i conj(A_i) kron A_i`` acting on ``vec(rho)``,
* the real transfer matrix ``U (sum_i conj(A_i) kron A_i) U^dag`` in the
  orthonormal Hermitian basis, partitioned into a scalar ``r``, a row ``t``, a
  column ``h`` and the block ``e`` that maps coherence vectors.

A process maps the identity to a multiple of itself exactly when ``h = 0``
("generalized-unital"), which is the regime where the coherence-vector
regression applies.

The module runs on numpy alone, so importing the package does not load
``scipy.linalg`` (whose import costs about as much as numpy's).  The three
calls numpy has no counterpart for import it where they are made: ``expm``
of a general real generator in ``discretize_hamiltonian`` and
``mixed_unitary_transfer``, and the QR-iteration SVD that ``_factor`` falls
back on.  ``sampled_unitaries``, the one exponential of every preset, takes
its Hermitian ``h`` apart with ``eigh`` instead.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import OperatorBasis, _skewed, build_basis, change_of_basis
from .errors import ValidationError, _array, _real, _rng, _whole

# Tolerance on the Kraus inequality max eig(sum A^dag A) <= 1.
KRAUS_TOL = 1e-8
# Singular values below RANK_RTOL * sigma_max count as zero in rank claims.
RANK_RTOL = 1e-8
# Imaginary residue allowed when casting a superoperator to its real transfer form.
TRANSFER_IMAG_TOL = 1e-10
# Kraus sums (sum A^dag A) closer than this in Frobenius norm count as equal in rank_bound.
KRAUS_GRAM_TOL = 1e-8
# Largest norm of the column block h for which a channel counts as generalized-unital.
GENERALIZED_UNITAL_TOL = 1e-8


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive, trace-non-increasing map given by Kraus matrices."""

    d: int
    kraus: np.ndarray
    label: str = ""

    def __post_init__(self):
        d = _whole(self.d, "channel dimension", 1)
        kraus = _array(self.kraus, "kraus", 3, complex)
        if kraus.shape[0] < 1 or kraus.shape[1:] != (d, d):
            raise ValidationError(
                f"kraus must have shape (k, {d}, {d}) with k >= 1, got {kraus.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kraus", kraus)
        gram = self.kraus_gram()
        top = float(np.linalg.eigvalsh(gram)[-1])
        if top > 1.0 + KRAUS_TOL:
            raise ValidationError(
                f"Kraus inequality violated: max eig(sum A^dag A) = {top:.6g} > 1"
            )

    def kraus_gram(self) -> np.ndarray:
        """``sum_i A_i^dag A_i``; equals I exactly for trace-preserving maps."""
        return np.einsum("kij,kil->jl", self.kraus.conj(), self.kraus)

    @property
    def is_trace_preserving(self) -> bool:
        return bool(np.linalg.norm(self.kraus_gram() - np.eye(self.d)) <= KRAUS_TOL * self.d)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evolve a matrix through the channel by direct Kraus application."""
        rho = _array(rho, "matrix", 2, complex)
        return np.einsum("kij,jl,kml->im", self.kraus, rho, self.kraus.conj())


@dataclass(frozen=True)
class TransferMatrix:
    """Real matrix form of a channel in the orthonormal Hermitian basis."""

    full: np.ndarray
    r: float
    t: np.ndarray
    h: np.ndarray
    e: np.ndarray


@dataclass(frozen=True)
class ProcessEnsemble:
    """An ordered family of channels sharing one dimension."""

    channels: tuple

    def __post_init__(self):
        channels = tuple(self.channels)
        if not channels:
            raise ValidationError("ensemble must contain at least one channel")
        d = channels[0].d
        if any(ch.d != d for ch in channels):
            raise ValidationError("all channels in an ensemble must share the dimension")
        object.__setattr__(self, "channels", channels)

    @property
    def d(self) -> int:
        return self.channels[0].d

    def __len__(self) -> int:
        return len(self.channels)

    @cached_property
    def kraus_stack(self) -> np.ndarray:
        """Every channel's Kraus matrices in one read-only ``(L, k_max, d, d)``
        array; a channel with fewer than ``k_max`` of them is padded with zero
        matrices, which add nothing to any sum over the Kraus axis."""
        k_max = max(len(ch.kraus) for ch in self.channels)
        stack = np.zeros((len(self), k_max, self.d, self.d), dtype=complex)
        for a, ch in enumerate(self.channels):
            stack[a, :len(ch.kraus)] = ch.kraus
        stack.setflags(write=False)
        return stack

    @cached_property
    def tp_flags(self) -> np.ndarray:
        """Read-only flags: which channels are trace-preserving."""
        flags = np.array([ch.is_trace_preserving for ch in self.channels])
        flags.setflags(write=False)
        return flags

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evolve one matrix through every channel: the ``(L, d, d)`` outputs."""
        k = self.kraus_stack
        return np.einsum("akij,jl,akml->aim", k, _array(rho, "matrix", 2, complex), k.conj())


def superoperator(channel: KrausChannel) -> np.ndarray:
    """Natural-basis superoperator ``sum_i conj(A_i) kron A_i``."""
    b = np.zeros((channel.d ** 2, channel.d ** 2), dtype=complex)
    for a in channel.kraus:
        b += np.kron(a.conj(), a)
    return b


def _real_transfer(full_c: np.ndarray) -> np.ndarray:
    """The real part of transfer matrices ``(..., d^2, d^2)``, refusing any
    whose imaginary residue exceeds TRANSFER_IMAG_TOL relative to its size."""
    imag = np.max(np.abs(full_c.imag), axis=(-2, -1))
    bad = imag > TRANSFER_IMAG_TOL * np.maximum(1.0, np.max(np.abs(full_c.real), axis=(-2, -1)))
    if np.any(bad):
        raise ValidationError(f"transfer matrix has imaginary residue {np.max(imag[bad]):.3e}")
    return full_c.real


def transfer_matrix(channel: KrausChannel, basis: OperatorBasis) -> TransferMatrix:
    """Transfer matrix ``U B U^dag`` with its (r, t, h, e) partition."""
    if channel.d != basis.d:
        raise ValidationError(f"dimension mismatch: channel {channel.d}, basis {basis.d}")
    u = change_of_basis(basis)
    full = _real_transfer(u @ superoperator(channel) @ u.conj().T)
    return TransferMatrix(
        full=full,
        r=float(full[0, 0]),
        t=full[0, 1:].copy(),
        h=full[1:, 0].copy(),
        e=full[1:, 1:].copy(),
    )


def is_generalized_unital(channel: KrausChannel):
    """Whether the channel maps I to alpha*I, and that alpha when it does.

    Decided through the transfer-matrix column block: the map is
    generalized-unital exactly when ``h = 0`` (to ``GENERALIZED_UNITAL_TOL``),
    in which case alpha equals the scalar block ``r``.
    """
    tm = transfer_matrix(channel, build_basis(channel.d))
    if np.linalg.norm(tm.h) <= GENERALIZED_UNITAL_TOL:
        return True, tm.r
    return False, None


def _hamiltonian(h) -> np.ndarray:
    """``h`` as a complex matrix, refused unless it is a finite, square and
    Hermitian (``_skewed``) 2-D matrix."""
    h = _array(h, "Hamiltonian", 2, complex, square=True)
    if _skewed(h):
        raise ValidationError("Hamiltonian must be Hermitian")
    return h


def _unitary(u, what: str) -> np.ndarray:
    """``u`` as a complex matrix, refused unless it is a finite, square 2-D
    matrix with ``||u u^dag - I|| <= 1e-9 d``.  An entry with a part beyond 2
    is refused before the product, which it could overflow."""
    u = _array(u, what, 2, complex, square=True)
    if (max(np.abs(u.real).max(initial=0.0), np.abs(u.imag).max(initial=0.0)) > 2.0
            or np.linalg.norm(u @ u.conj().T - np.eye(len(u))) > 1e-9 * len(u)):
        raise ValidationError(f"{what} is not unitary")
    return u


def hamiltonian_generator(h: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Antisymmetric generator of coherence-vector dynamics for Hamiltonian h.

    Entries are ``R[a, b] = i Tr([h, Omega_a] Omega_b)`` over the traceless
    part of the basis, so that ``exp(R t)`` equals the e-block of the transfer
    matrix of the unitary channel ``exp(-i h t)``.
    """
    h = _hamiltonian(h)
    if h.shape != (basis.d, basis.d):
        raise ValidationError(f"Hamiltonian must be a {basis.d} x {basis.d} matrix for this "
                              f"basis, got shape {h.shape}")
    if abs(np.trace(h)) > 1e-9 * max(np.linalg.norm(h), 1e-30):
        raise ValidationError("Hamiltonian must be traceless")
    n = basis.n_traceless
    omegas = basis.omegas[1:]
    comms = np.einsum("ij,ajk->aik", h, omegas) - np.einsum("aij,jk->aik", omegas, h)
    r = 1j * np.einsum("aij,bji->ab", comms, omegas)
    if np.max(np.abs(r.imag)) > 1e-12 * max(1.0, float(np.max(np.abs(r.real)))):
        raise ValidationError("generator has unexpected imaginary part")
    r = r.real
    return (r - r.T) / 2.0  # kill roundoff asymmetry; exact antisymmetry by construction


def discretize_hamiltonian(r: np.ndarray, dt: float, n: int) -> list:
    """Powers ``Q^1 .. Q^n`` of the one-step map ``Q = exp(r dt)``.

    ``r`` must be a finite, real, square matrix, ``dt`` finite and positive,
    and ``n`` a whole number of at least 1.
    """
    r = _array(r, "generator", 2, float, square=True)
    n = _whole(n, "sampling point count", 1)
    dt = _real(dt, "sampling interval")
    if dt <= 0:
        raise ValidationError(f"sampling interval must be positive, got {dt}")
    from scipy.linalg import expm

    q = expm(r * dt)
    out = []
    acc = np.eye(q.shape[0])
    for _ in range(n):
        acc = acc @ q
        out.append(acc.copy())
    return out


def mixed_unitary_transfer(weights, hamiltonians, t: float, basis: OperatorBasis) -> np.ndarray:
    """Coherence-vector map ``sum_i w_i exp(R_i t)`` of a mixed-unitary process."""
    weights = _array(weights, "mixture weights", 1, float)
    if len(weights) != len(hamiltonians):
        raise ValidationError("need one weight per Hamiltonian")
    t = _real(t, "evolution time")
    if np.any(weights <= 0):
        raise ValidationError("mixture weights must be positive")
    if weights.sum() > 1.0 + 1e-12:
        raise ValidationError(f"mixture weights sum to {weights.sum():.6g} > 1")
    from scipy.linalg import expm

    n = basis.n_traceless
    out = np.zeros((n, n))
    for w, h in zip(weights, hamiltonians):
        out += w * expm(hamiltonian_generator(h, basis) * t)
    return out


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
    d, rng = _whole(d, "dimension", 1), _rng(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(name: str) -> np.ndarray:
    """Pauli matrix or Pauli-string unitary, e.g. ``"x"`` or ``"xz"``: a
    non-empty string of the letters i, x, y and z, in either case."""
    if not isinstance(name, str) or not name or not set(name.lower()) <= _PAULI.keys():
        raise ValidationError(f"a Pauli string is a non-empty string of i, x, y, z, got {name!r}")
    mats = [_PAULI[c] for c in name.lower()]
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def make_named_channel(kind: str, **params) -> KrausChannel:
    """Factory for the probe-channel families used throughout.

    Kinds: ``bit_flip(p)``, ``phase_flip(p)``, ``unitary(u)``,
    ``scaled(alpha, channel)``, ``random_cp(d, rank, seed, tp=False)``.
    ``random_cp`` draws Ginibre Kraus matrices and rescales them so the Kraus
    sum is I (tp=True) or strictly below I with a seed-dependent margin.
    A missing parameter is refused by name; ``p`` and ``alpha`` must be
    finite real numbers, ``d`` and ``rank`` whole numbers >= 1, ``u`` a
    unitary matrix, ``channel`` a KrausChannel, and ``seed`` None, a whole
    number >= 0, a SeedSequence, a BitGenerator or a Generator.
    """
    def param(name):
        if name not in params:
            raise ValidationError(f"a {kind} channel needs the parameter {name!r}")
        return params[name]

    if kind in ("bit_flip", "phase_flip"):
        p = param("p")
        if not 0.0 <= _real(p, "flip probability") <= 1.0:
            raise ValidationError(f"flip probability must be in [0, 1], got {p}")
        flip = _PAULI["x" if kind == "bit_flip" else "z"]
        kraus = np.stack([np.sqrt(p) * _PAULI["i"], np.sqrt(1.0 - p) * flip])
        return KrausChannel(2, kraus, label=params.get("label", f"{kind}({p})"))
    if kind == "unitary":
        u = _unitary(param("u"), "matrix")
        return KrausChannel(len(u), u[None, :, :], label=params.get("label", "unitary"))
    if kind == "scaled":
        alpha, ch = param("alpha"), param("channel")
        if not 0.0 < _real(alpha, "scale") <= 1.0:
            raise ValidationError(f"scale must be in (0, 1], got {alpha}")
        if not isinstance(ch, KrausChannel):
            raise ValidationError(
                f"a scaled channel needs a KrausChannel, got {type(ch).__name__}")
        return KrausChannel(ch.d, np.sqrt(alpha) * ch.kraus,
                            label=params.get("label", f"scaled({alpha},{ch.label})"))
    if kind == "random_cp":
        d, rank = _whole(param("d"), "dimension", 1), _whole(param("rank"), "rank", 1)
        seed = param("seed")
        rng = _rng(seed)
        g = rng.normal(size=(rank, d, d)) + 1j * rng.normal(size=(rank, d, d))
        gram = np.einsum("kij,kil->jl", g.conj(), g)
        if params.get("tp", False):
            w, v = np.linalg.eigh(gram)
            inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
            kraus = np.einsum("kij,jl->kil", g, inv_sqrt)
        else:
            beta = rng.uniform(0.5, 0.95)
            top = float(np.linalg.eigvalsh(gram)[-1])
            kraus = g * np.sqrt(beta / top)
        return KrausChannel(d, kraus, label=params.get("label", f"random_cp({d},{rank},{seed})"))
    raise ValidationError(f"unknown channel kind {kind!r}")


def sampled_unitaries(h: np.ndarray, dt: float, n: int) -> list:
    """The evolutions ``exp(-i h k dt)`` for k = 1..n, as powers of one step.

    The step is ``v diag(exp(-i lam dt)) v^dag`` from the eigendecomposition
    ``h = v diag(lam) v^dag``.  ``eigh`` reads one triangle of ``h`` only, so
    ``h`` is first refused unless it is a finite, square, 2-D matrix that is
    Hermitian by the rule states and detector elements are held to
    (``_skewed``).  ``dt`` may be any finite real number, and ``n`` must be
    a whole number >= 1.
    """
    h = _hamiltonian(h)
    dt, n = _real(dt, "sampling interval"), _whole(n, "sampling point count", 1)
    lam, v = np.linalg.eigh(h)
    step = (v * np.exp(-1j * lam * dt)) @ v.conj().T
    u = np.eye(step.shape[0], dtype=complex)
    out = []
    for _ in range(n):
        u = u @ step
        out.append(u)
    return out


def closed_system_channels(records, n: int) -> list:
    """Unitary channels ``H{i}_k{k}`` sampled at n times from each ``(h, dt)``."""
    return [make_named_channel("unitary", u=u, label=f"H{i + 1}_k{k}")
            for i, (h, dt) in enumerate(records)
            for k, u in enumerate(sampled_unitaries(h, dt, n), start=1)]


def amplitude_damping(gamma: float) -> KrausChannel:
    """Qubit amplitude damping; non-unital for gamma > 0."""
    if not 0.0 <= _real(gamma, "damping rate") <= 1.0:
        raise ValidationError(f"damping rate must be in [0, 1], got {gamma}")
    kraus = np.stack([
        np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex),
        np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
    ])
    return KrausChannel(2, kraus, label=f"amplitude_damping({gamma})")


def _choi_matrix(pair_maps) -> np.ndarray:
    """Choi matrix of ``rho -> sum_k X_k rho Y_k`` given (X_k, Y_k) pairs."""
    d = pair_maps[0][0].shape[0]
    j = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[a, b] = 1.0
            out = sum(x @ e @ y for x, y in pair_maps)
            j += np.kron(e, out)
    return j


def _kraus_from_choi(j: np.ndarray, d: int, scale: float, sign: float) -> np.ndarray:
    """Kraus matrices of the positive (sign=+1) or negative part of a Choi matrix."""
    vals, vecs = np.linalg.eigh(j)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    kraus = []
    for lam, vec in zip(vals, vecs.T):
        if sign * lam > tol:
            kraus.append(np.sqrt(sign * lam * scale) * vec.reshape((d, d), order="F"))
    if not kraus:
        kraus = [np.zeros((d, d), dtype=complex)]
    return np.stack(kraus)


def pauli_sandwich_processes(v1: np.ndarray, v2: np.ndarray, g: float):
    """Four CP channels whose signed combination realizes ``rho -> g V1 rho V2*``.

    ``V1`` and ``V2`` must be Hermitian Pauli-string unitaries.  The returned
    channels ``(phi1p, phi1m, phi2p, phi2m)`` satisfy, as maps,
    ``(phi1p - phi1m) - i (phi2p - phi2m) = g V1 rho V2*``.  Each channel comes
    from the signed eigendecomposition of the Choi matrix of one
    Hermitian-preserving half, scaled by g; if g is too large for all four to
    stay trace-non-increasing, the maximal admissible g is reported.
    """
    v1, v2 = _unitary(v1, "V1"), _unitary(v2, "V2")
    for name, v in (("V1", v1), ("V2", v2)):
        if _skewed(v):
            raise ValidationError(f"{name} must be Hermitian")
    if v1.shape != v2.shape:
        raise ValidationError(f"V1 and V2 must have one shape, got {v1.shape} and {v2.shape}")
    d = len(v1)
    if _real(g, "coupling") <= 0:
        raise ValidationError(f"coupling must be positive, got {g}")
    v2c = v2.conj()
    # Hermitian-preserving halves of rho -> V1 rho V2*, each divided by g.
    map1 = [(v1 / 2.0, v2c), (v2c / 2.0, v1)]
    map2 = [(1j * v1 / 2.0, v2c), (-1j * v2c / 2.0, v1)]
    channels = []
    worst = 0.0
    for pair in (map1, map2):
        j = _choi_matrix(pair)
        for sign in (1.0, -1.0):
            kraus = _kraus_from_choi(j, d, g, sign)
            gram = np.einsum("kij,kil->jl", kraus.conj(), kraus)
            worst = max(worst, float(np.linalg.eigvalsh(gram)[-1]))
            channels.append(kraus)
    if worst > 1.0 + KRAUS_TOL:
        raise ValidationError(
            f"coupling g={g} makes a component unphysical; maximal admissible g = {g / worst:.6g}"
        )
    labels = ("sandwich_1p", "sandwich_1m", "sandwich_2p", "sandwich_2m")
    return tuple(KrausChannel(d, k, label=l) for k, l in zip(channels, labels))


def numerical_rank(m: np.ndarray) -> int:
    """Rank by counting singular values above ``RANK_RTOL * sigma_max``."""
    return _rank(np.linalg.svd(_array(m, "matrix", 2), compute_uv=False))


def _rank(s: np.ndarray) -> int:
    """How many of the descending singular values ``s`` exceed ``RANK_RTOL * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class FactoredDesign:
    """A regression matrix ``b`` with its economy SVD ``b = u diag(s) vh`` and
    its numerical rank (singular values above ``RANK_RTOL * s[0]``).

    The record also caches two read-only arrays of a real design with n^2
    columns ``(i, k)``, each formed from ``b`` on first read: ``moments``, the
    state-block moments of the refinement, and ``_tensor``, the design tensor
    laid out for its state products.  The records this package makes hold a
    read-only ``b``, so their factors and cached arrays cannot go stale: the
    matrix of a ``build_regression_matrices`` record, or the copy
    ``factor_design`` made of a raw matrix.
    """

    b: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    rank: int

    @property
    def shape(self) -> tuple:
        return self.b.shape

    @property
    def full_column_rank(self) -> bool:
        return self.rank == self.shape[1]

    @cached_property
    def moments(self) -> np.ndarray:
        """``B^T B`` rearranged as ``K[(i, i'), (k, k')] = (B^T B)[(i, k), (i', k')]``
        and packed to the upper triangles ``i <= i'`` and ``k <= k'``, each as
        ``_packing(n)`` packs a matrix (n(n+1)/2 square): an off-diagonal column
        ``k < k'`` holds ``K[., (k, k')] + K[., (k', k)]``.  For a symmetric
        ``S`` the upper triangle of ``K vec(S)``, the refinement's state Gram,
        is then ``moments @ S.take(upper)``."""
        n = math.isqrt(self.shape[1])
        k = (self.b.T @ self.b).reshape(n, n, n, n).transpose(0, 2, 1, 3)
        upper, positions = _packing(n)
        # rows, then columns, which leaves the result column-major; a row-major
        # copy (np.ix_) moves the last bits of the refinement's products
        moments = (k + k.swapaxes(2, 3)).reshape(n * n, n * n)[upper][:, upper]
        moments[:, positions.diagonal()] /= 2.0
        moments.setflags(write=False)
        return moments

    @cached_property
    def _tensor(self) -> np.ndarray:
        """The design tensor ``B3[a, i, k] = b[a, (i, k)]`` laid out as
        ``[i, (a, k)]`` (n x L n), so that ``G = x . B3`` is the one product
        ``(x @ _tensor).reshape(L, n)``."""
        l, n2 = self.shape
        n = math.isqrt(n2)
        tensor = np.ascontiguousarray(self.b.reshape(l, n, n).transpose(1, 0, 2)).reshape(n, -1)
        tensor.setflags(write=False)
        return tensor


@lru_cache(maxsize=8)
def _packing(n: int) -> tuple:
    """How a symmetric n x n matrix is packed to its upper triangle, in
    ``np.triu_indices(n)`` order: the flat indices of that triangle in the
    matrix, and the ``(n, n)`` positions of every entry in the packed vector
    (read-only).  ``s.take(upper)`` packs a matrix ``s``, and
    ``packed[positions]`` unpacks it."""
    rows, cols = np.triu_indices(n)
    positions = np.empty((n, n), dtype=np.intp)
    positions[rows, cols] = positions[cols, rows] = np.arange(len(rows))
    upper = rows * n + cols
    upper.setflags(write=False)
    positions.setflags(write=False)
    return upper, positions


def _factor(b: np.ndarray) -> FactoredDesign:
    """The economy SVD and rank of the 2-D numeric matrix ``b``, kept as
    ``b``.  A non-finite entry, on which LAPACK's SVD may never return, is
    refused as a LinAlgError: a degeneracy of the stage that factors."""
    _array(b, "regression matrix", 2, nonfinite=np.linalg.LinAlgError)
    try:
        u, s, vh = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError:
        # the divide-and-conquer SVD (gesdd) may not converge where QR iteration does
        from scipy.linalg import svd

        u, s, vh = svd(b, full_matrices=False, lapack_driver="gesvd")
    return FactoredDesign(b=b, u=u, s=s, vh=vh, rank=_rank(s))


# How many raw matrices ``factor_design`` keeps factored, and the designs it
# keeps, most recently used first.
_MEMO_SIZE = 4
_memo = []


def factor_design(b) -> FactoredDesign:
    """Factor a regression matrix once per process, for any number of
    stage-1 solves.

    A FactoredDesign is returned unchanged, so callers may pass either.  Any
    other ``b`` is read as an array and looked up among the last
    ``_MEMO_SIZE`` matrices factored here: one with the same shape, dtype and
    entries returns its record as it is.  Otherwise ``b`` is copied once, the
    copy is marked read-only and factored, and the record, whose ``b`` is
    that copy, is kept in place of the least recently used one.  Writing to
    the caller's array afterwards therefore never changes a record; the
    changed matrix is factored anew.  A matrix that cannot be factored is
    refused on every call and never kept: one that is not 2-D raises
    ValidationError, one with a non-finite entry (or whose SVD does not
    converge) LinAlgError.  ``RegressionMatrices.design`` skips the lookup
    and the copy for the record's own read-only matrix.
    """
    if isinstance(b, FactoredDesign):
        return b
    b = _array(b, "regression matrix", nonfinite=None)
    for i, design in enumerate(_memo):
        key = design.b
        if key.shape == b.shape and key.dtype == b.dtype and np.array_equal(key, b):
            _memo.insert(0, _memo.pop(i))
            return design
    key = b.copy()
    key.setflags(write=False)
    design = _factor(key)
    _memo.insert(0, design)
    del _memo[_MEMO_SIZE:]
    return design


@dataclass(frozen=True)
class RegressionMatrices:
    """The design of an ensemble in both bases, factored on first use.

    ``b`` stacks the rows ``vec(E_a)`` (real, coherence-vector basis) and
    ``b_natural`` the rows ``vec(B_a)`` (complex, natural basis).  Each is
    factored at most once, when ``design``/``design_natural`` is first read,
    and the ranks and completeness verdicts are read off those
    factorizations: a basis is informationally complete when its matrix has
    full column rank, (d^2-1)^2 for ``b`` and d^4 for ``b_natural``.  These
    designs hold ``b`` and ``b_natural`` themselves, neither copied nor kept
    in ``factor_design``'s memo.  A writable matrix is kept as a read-only
    copy, so the factors cannot go stale (a read-only view is not guarded).
    """

    b: np.ndarray
    b_natural: np.ndarray

    def __post_init__(self):
        for name in ("b", "b_natural"):
            m = _array(getattr(self, name), name, nonfinite=None)
            if m.flags.writeable:
                m = m.copy()
                m.setflags(write=False)
            object.__setattr__(self, name, m)

    @cached_property
    def design(self) -> FactoredDesign:
        return _factor(self.b)

    @cached_property
    def design_natural(self) -> FactoredDesign:
        return _factor(self.b_natural)

    @property
    def rank_b(self) -> int:
        return self.design.rank

    @property
    def rank_b_natural(self) -> int:
        return self.design_natural.rank

    @property
    def complete_v1(self) -> bool:
        return self.design.full_column_rank

    @property
    def complete_v2(self) -> bool:
        return self.design_natural.full_column_rank


def _stacked_rows(ens: ProcessEnsemble, basis: OperatorBasis) -> tuple:
    """The rows ``vec(E_a)`` (real) and ``vec(B_a)`` (complex) of every channel.

    ``vec(B_a)`` is accumulated from the Kraus stack one Kraus index at a
    time, straight into column-major order: entry ``[m, n, i, j]`` is
    ``B_a[(i, j), (m, n)] = sum_k conj(A_k)[i, m] A_k[j, n]``.  The transfer
    matrices ``U B_a U^dag`` of all channels are then one batched product.
    """
    l, d = len(ens), basis.d
    b_nat = np.zeros((l, d, d, d, d), dtype=complex)
    for a in np.moveaxis(ens.kraus_stack, 1, 0):
        b_nat += np.einsum("aim,ajn->amnij", a.conj(), a)
    b_nat = b_nat.reshape(l, -1)
    sup = b_nat.reshape(l, d * d, d * d).transpose(0, 2, 1)
    u = change_of_basis(basis)
    e = _real_transfer(u @ sup @ u.conj().T)[:, 1:, 1:]
    return e.transpose(0, 2, 1).reshape(l, -1), b_nat


def build_regression_matrices(ens: ProcessEnsemble, basis: OperatorBasis) -> RegressionMatrices:
    """Rows ``vec(E_a)^T`` (real) and ``vec(B_a)^T`` (complex) for every channel.

    Both are built for all channels at once from the ensemble's Kraus stack
    (see ``_stacked_rows``) and kept read-only, so that the record's cached
    factorizations always describe them.  No matrix is factored here.
    """
    if ens.d != basis.d:
        raise ValidationError(f"dimension mismatch: ensemble {ens.d}, basis {basis.d}")
    b, b_nat = _stacked_rows(ens, basis)
    b.setflags(write=False)
    b_nat.setflags(write=False)
    return RegressionMatrices(b=b, b_natural=b_nat)


def rank_bound(ens: ProcessEnsemble) -> int:
    """Upper bound on the natural-basis regression rank.

    Channels are grouped by equal Kraus sums ``sum A^dag A`` (to
    ``KRAUS_GRAM_TOL``); each group of size L_j contributes at most
    ``min(L_j, d^4 - d^2 + 1)`` and the total is capped at d^4.
    """
    d = ens.d
    groups = []
    for ch in ens.channels:
        gram = ch.kraus_gram()
        for rep, count in groups:
            if np.linalg.norm(gram - rep) < KRAUS_GRAM_TOL:
                count[0] += 1
                break
        else:
            groups.append((gram, [1]))
    per_group = d ** 4 - d ** 2 + 1
    total = sum(min(count[0], per_group) for _, count in groups)
    return int(min(total, d ** 4))


def min_hamiltonian_count(d: int):
    """Minimum number of distinct Hamiltonians (and sampling points each)
    required for a complete closed-system probe family in dimension d."""
    d = _whole(d, "dimension", 2)
    n_min = d * d - d + 1
    count = int(np.ceil((d * d - 1) ** 2 / n_min))
    return count, n_min
