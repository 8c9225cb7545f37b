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

Each representation has one kernel over a Kraus stack ``(L, k, d, d)``: the
Kraus sum applied to a matrix (``_sandwich``), the Kraus sums
``sum_i A_i^dag A_i`` (``_kraus_grams``), the natural superoperators
(``_natural_rows``) and the real transfer matrices (``_transfers``), which
the regression matrices, ``ProcessEnsemble.apply`` and its flags run on all
L channels at once.  Every per-channel helper (``KrausChannel.apply``,
``kraus_gram`` and ``is_trace_preserving``, ``superoperator``,
``transfer_matrix``, ``is_generalized_unital``) is the L = 1 case of its
kernel.

Channels are checked by one stacked pass over a Kraus stack ``(L, k, d, d)``
(``KrausChannel.stacked``), of which the constructor is the case L = 1: the
largest eigenvalue of every Kraus sum ``sum_i A_i^dag A_i`` must be at most
``1 + KRAUS_TOL``, and a failing stack raises the message the constructor
raises for its first failing channel.  The preset builders make their
channels this way, checked once, the sampled-unitary families through one
builder (``_sampled_unitary_channels``).  The per-channel flags an ensemble
derives come from its zero-padded ``kraus_stack`` by stacked sums: which
channels preserve the trace (``tp_flags``) and which are generalized-unital
(``unital_flags``).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .basis import OperatorBasis, _skewed, change_of_basis
from .errors import (_MEMO_SIZE, ValidationError, _array, _bounded, _items, _largest_part, _new,
                     _real, _recent, _record, _rng, _whole)

# Tolerance on the Kraus inequality max eig(sum A^dag A) <= 1.
KRAUS_TOL = 1e-8
# The phase lam dt from which doubles are spaced a radian or more apart.
_PHASE_LIMIT = 2.0 ** 52
# Singular values below RANK_RTOL * sigma_max count as zero in rank claims.
RANK_RTOL = 1e-8
# Imaginary residue allowed when casting a superoperator to its real transfer form.
TRANSFER_IMAG_TOL = 1e-10
# Kraus sums (sum A^dag A) closer than this in Frobenius norm count as equal in rank_bound.
KRAUS_GRAM_TOL = 1e-8
# Largest norm of the column block h for which a channel counts as generalized-unital.
GENERALIZED_UNITAL_TOL = 1e-8
# A matrix u is unitary when ||u u^dag - I|| <= UNITARY_TOL d (Frobenius norm).
UNITARY_TOL = 1e-9
# A Hamiltonian h is traceless when |tr h| <= TRACELESS_TOL max(||h||, _TRACELESS_FLOOR);
# the floor makes the test absolute for an h whose norm is below it.
TRACELESS_TOL = 1e-9
_TRACELESS_FLOOR = 1e-30
# Eigenvalues of a Choi matrix at most this times max(1, its largest |eigenvalue|)
# give no Kraus matrix.
_CHOI_RTOL = 1e-12
# Processes whose coherence rows ``RegressionMatrices.b`` builds at once.
_ROW_BLOCK = 128


def _kraus_grams(kraus: np.ndarray) -> np.ndarray:
    """The Kraus sums ``sum_i A_i^dag A_i`` of a stack ``(..., k, d, d)``."""
    return np.einsum("...kij,...kil->...jl", kraus.conj(), kraus)


def _trace_preserving(kraus: np.ndarray) -> np.ndarray:
    """Which channels of a Kraus stack ``(..., k, d, d)`` preserve the trace:
    ``||sum_i A_i^dag A_i - I|| <= KRAUS_TOL d`` (Frobenius norm)."""
    d = kraus.shape[-1]
    return np.linalg.norm(_kraus_grams(kraus) - np.eye(d), axis=(-2, -1)) <= KRAUS_TOL * d


def _checked_kraus(d: int, kraus: np.ndarray) -> np.ndarray:
    """The channel check on a stack ``(L, k, d, d)`` of finite Kraus
    matrices: ``kraus`` itself, refused with the message ``KrausChannel``
    raises for the first channel whose Kraus sum has an eigenvalue above
    ``1 + KRAUS_TOL``."""
    if kraus.ndim != 4 or kraus.shape[1] < 1 or kraus.shape[2:] != (d, d):
        raise ValidationError(
            f"kraus must have shape (k, {d}, {d}) with k >= 1, got {kraus.shape[1:]}")
    top = np.linalg.eigvalsh(_kraus_grams(kraus))[:, -1]
    bad = top > 1.0 + KRAUS_TOL
    if bad.any():
        raise ValidationError(
            f"Kraus inequality violated: max eig(sum A^dag A) = {top[bad.argmax()]:.6g} > 1")
    return kraus


@dataclass(frozen=True)
class KrausChannel:
    """A completely positive, trace-non-increasing map given by Kraus matrices."""

    d: int
    kraus: np.ndarray
    label: str = ""

    def __post_init__(self):
        d = _whole(self.d, "channel dimension", 1)
        kraus = _array(self.kraus, "kraus", 3, complex)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kraus", _checked_kraus(d, kraus[None])[0])

    @classmethod
    def stacked(cls, d: int, kraus, labels) -> tuple:
        """The channels of a stack ``(L, k, d, d)`` of Kraus matrices, one per
        label, checked by one stacked pass that applies the constructor's
        test and tolerance to every channel and raises the constructor's
        message for the first that fails.  Each channel's ``kraus`` is a view
        of the checked stack."""
        d = _whole(d, "channel dimension", 1)
        kraus = _checked_kraus(d, _array(kraus, "a stack of Kraus matrices", 4, complex))
        labels = _items(labels, "labels")
        if len(labels) != len(kraus):
            raise ValidationError(f"need one label per channel: {len(kraus)} channels, "
                                  f"{len(labels)} labels")
        return tuple(_new(cls, d=d, kraus=k, label=label) for k, label in zip(kraus, labels))

    def kraus_gram(self) -> np.ndarray:
        """``sum_i A_i^dag A_i``; equals I exactly for trace-preserving maps."""
        return _kraus_grams(self.kraus)

    @property
    def is_trace_preserving(self) -> bool:
        return bool(_trace_preserving(self.kraus))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evolve a matrix through the channel by direct Kraus application."""
        return _applied(self.kraus[None], rho)[0]


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
        channels = tuple(_record(self.channels, (tuple, list), "ensemble channels"))
        if not channels:
            raise ValidationError("ensemble must contain at least one channel")
        for i, ch in enumerate(channels):
            _record(ch, KrausChannel, f"ensemble member {i}")
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
        """Read-only flags: which channels are trace-preserving, read off the
        Kraus stack by one stacked sum."""
        flags = _trace_preserving(self.kraus_stack)
        flags.setflags(write=False)
        return flags

    @cached_property
    def unital_flags(self) -> np.ndarray:
        """Read-only flags: which channels are generalized-unital (``_unital_split``)."""
        flags = _unital_split(self.kraus_stack)[0]
        flags.setflags(write=False)
        return flags

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Evolve one matrix through every channel: the ``(L, d, d)`` outputs."""
        return _applied(self.kraus_stack, rho)


def _applied(kraus: np.ndarray, rho) -> np.ndarray:
    """``_sandwich`` of ``rho``, refused unless it is a d x d matrix."""
    rho, d = _array(rho, "matrix", 2, complex), kraus.shape[-1]
    if rho.shape != (d, d):
        raise ValidationError(f"matrix must be {d}x{d}, got shape {rho.shape}")
    return _sandwich(kraus, rho)


def _sandwich(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``sum_i A_i rho A_i^dag`` for every channel of a Kraus stack
    ``(L, k, d, d)``: the ``(L, d, d)`` outputs."""
    return np.einsum("akij,jl,akml->aim", kraus, rho, kraus.conj())


def superoperator(channel: KrausChannel) -> np.ndarray:
    """Natural-basis superoperator ``sum_i conj(A_i) kron A_i``."""
    d2 = _record(channel, KrausChannel, "channel").d ** 2
    return _natural_rows(channel.kraus[None]).reshape(d2, d2).T


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
    _record(channel, KrausChannel, "channel")
    if channel.d != _record(basis, OperatorBasis, "basis").d:
        raise ValidationError(f"dimension mismatch: channel {channel.d}, basis {basis.d}")
    full = _transfers(_natural_rows(channel.kraus[None]), change_of_basis(basis))[0]
    return TransferMatrix(
        full=full,
        r=float(full[0, 0]),
        t=full[0, 1:].copy(),
        h=full[1:, 0].copy(),
        e=full[1:, 1:].copy(),
    )


def _unital_split(kraus: np.ndarray) -> tuple:
    """Which channels of a Kraus stack ``(L, k, d, d)`` are generalized-unital,
    ``||traceless part of Phi(I / sqrt(d))|| = ||h|| <= GENERALIZED_UNITAL_TOL``,
    and their ``alpha = Re tr Phi(I / sqrt(d)) / sqrt(d)``, the scalar block r."""
    d = kraus.shape[-1]
    out = _sandwich(kraus, np.eye(d) / math.sqrt(d))
    trace = np.trace(out, axis1=1, axis2=2) / d
    traceless = out - trace[:, None, None] * np.eye(d)
    return (np.linalg.norm(traceless, axis=(-2, -1)) <= GENERALIZED_UNITAL_TOL,
            trace.real * math.sqrt(d))


def is_generalized_unital(channel: KrausChannel):
    """Whether the channel maps I to alpha*I, and that alpha when it does."""
    _record(channel, KrausChannel, "channel")
    (flag,), (alpha,) = _unital_split(channel.kraus[None])
    return (True, float(alpha)) if flag else (False, None)


def _hamiltonian(h) -> np.ndarray:
    """The Hermitian part of ``h``, refused unless ``h`` is a finite, square
    and Hermitian (``_skewed``) 2-D matrix.  Halved before the sum, so no
    finite entry overflows; an exactly Hermitian ``h`` with no subnormal
    entry comes back as it is.  Halving rounds an odd multiple of the
    smallest subnormal to an even one, which the next halving keeps, so the
    part is taken twice, and a zero's sign is dropped (``eigh`` reads it):
    that makes the map idempotent, so an ``h`` and its Hermitian part give
    the same maps bit for bit."""
    h = _array(h, "Hamiltonian", 2, complex, square=True)
    if _skewed(h):
        raise ValidationError("Hamiltonian must be Hermitian")
    for _ in range(2):
        h = h / 2.0 + h.conj().T / 2.0
    return h + 0.0


def _unitary(u, what: str) -> np.ndarray:
    """``u`` as a complex matrix, refused unless it is a finite, square 2-D
    matrix with ``||u u^dag - I|| <= UNITARY_TOL d``.  An entry with a part
    beyond 2 is refused before the product, which it could overflow."""
    u = _array(u, what, 2, complex, square=True)
    if (_largest_part(u) > 2.0
            or np.linalg.norm(u @ u.conj().T - np.eye(len(u))) > UNITARY_TOL * len(u)):
        raise ValidationError(f"{what} is not unitary")
    return u


def hamiltonian_generator(h: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Antisymmetric generator of coherence-vector dynamics for Hamiltonian h.

    Entries are ``R[a, b] = i Tr([h, Omega_a] Omega_b)`` over the traceless
    part of the basis, for the Hermitian part of ``h`` (``_hamiltonian``),
    so that ``exp(R t)`` equals the e-block of the transfer matrix of the
    unitary channel ``exp(-i h t)``.  ``R`` is linear in ``h``,
    so an ``h`` with a part beyond 1 is first divided by the power of 2 that
    brings its largest part into [1, 2), which is exact and keeps every step
    finite, and ``R`` is scaled back; an ``h`` whose generator overflows is
    refused.
    """
    _record(basis, OperatorBasis, "basis")
    h = _hamiltonian(h)
    if h.shape != (basis.d, basis.d):
        raise ValidationError(f"Hamiltonian must be a {basis.d} x {basis.d} matrix for this "
                              f"basis, got shape {h.shape}")
    largest = _largest_part(h)
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1) if largest > 1.0 else 1.0
    h = h / scale
    if abs(np.trace(h)) > TRACELESS_TOL * max(np.linalg.norm(h), _TRACELESS_FLOOR):
        raise ValidationError("Hamiltonian must be traceless")
    omegas = basis.omegas[1:]
    comms = np.einsum("ij,ajk->aik", h, omegas) - np.einsum("aij,jk->aik", omegas, h)
    r = (1j * np.einsum("aij,bji->ab", comms, omegas)).real
    if float(np.abs(r).max()) * scale == math.inf:  # Python floats overflow without a warning
        raise ValidationError("Hamiltonian is too large: its generator overflows")
    return (r - r.T) / 2.0 * scale  # kill roundoff asymmetry; exact antisymmetry by construction


def discretize_hamiltonian(r: np.ndarray, dt: float, n: int) -> list:
    """Powers ``Q^1 .. Q^n`` of the one-step map ``Q = exp(r dt)``.

    ``r`` must be a finite, real generator, antisymmetric as those of
    ``hamiltonian_generator`` (``_skewed(1j * r)`` false), and ``dt > 0``;
    ``Q^k`` is the real part of ``sampled_unitaries(1j * r, dt, n)[k - 1]``.
    """
    r = _array(r, "generator", 2, float, square=True)
    if _skewed(1j * r):
        raise ValidationError("generator must be antisymmetric")
    if _real(dt, "sampling interval") <= 0:
        raise ValidationError(f"sampling interval must be positive, got {dt}")
    return [q.real for q in sampled_unitaries(1j * r, dt, n)]


def haar_unitary(d: int, rng: "np.random.Generator") -> np.ndarray:
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
    _record(kind, str, "channel kind")

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
        _record(ch, KrausChannel, "the channel to scale")
        return KrausChannel(ch.d, np.sqrt(alpha) * ch.kraus,
                            label=params.get("label", f"scaled({alpha},{ch.label})"))
    if kind == "random_cp":
        d, rank = _whole(param("d"), "dimension", 1), _whole(param("rank"), "rank", 1)
        seed = param("seed")
        rng = _rng(seed)
        g = rng.normal(size=(rank, d, d)) + 1j * rng.normal(size=(rank, d, d))
        gram = _kraus_grams(g)
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
    (``_skewed``), and then replaced by its Hermitian part.  ``dt`` may be
    any finite real number, and ``n`` must be a whole number >= 1.  A step
    whose phase ``lam dt`` reaches ``2^52`` in magnitude, where doubles are
    spaced a radian or more apart, carries no phase and is refused.
    """
    h = _hamiltonian(h)
    dt, n = _real(dt, "sampling interval"), _whole(n, "sampling point count", 1)
    lam, v = np.linalg.eigh(h)
    phase = float(np.abs(lam).max(initial=0.0)) * abs(dt)
    if phase >= _PHASE_LIMIT:
        raise ValidationError(f"Hamiltonian and sampling interval give a phase of {phase:.3g} "
                              "rad per step, which doubles do not resolve")
    step = (v * np.exp(-1j * lam * dt)) @ v.conj().T
    u = np.eye(step.shape[0], dtype=complex)
    out = []
    for _ in range(n):
        u = u @ step
        out.append(u)
    return out


def _sampled_unitary_channels(groups, weights, n: int, prefix: str) -> tuple:
    """The channels ``rho -> sum_i w_i U_i rho U_i^dag`` of each group of
    Hamiltonians ``(hams, dt)`` sampled at n times, labelled
    ``{prefix}{g}_k{k}`` and checked by one stacked pass.  ``sqrt(w_i) U_i``
    is scaled part by part, so a weight of 1.0 keeps ``U_i`` bit for bit."""
    kraus, labels = [], []
    for g, (hams, dt) in enumerate(groups, start=1):
        for k, powers in enumerate(zip(*(sampled_unitaries(h, dt, n) for h in hams)), start=1):
            kraus.append(powers)
            labels.append(f"{prefix}{g}_k{k}")
    if not kraus:
        return ()
    if len({u.shape for powers in kraus for u in powers}) > 1:
        raise ValidationError("all channels in an ensemble must share the dimension")
    kraus = np.array(kraus)
    roots = np.sqrt(np.asarray(weights, dtype=float))[:, None, None]
    kraus.real *= roots
    kraus.imag *= roots
    return KrausChannel.stacked(kraus.shape[-1], kraus, labels)


def closed_system_channels(records, n: int) -> list:
    """Unitary channels ``H{i}_k{k}`` sampled at n times from each ``(h, dt)``,
    checked by one stacked pass (``KrausChannel.stacked``).  ``records`` is a
    tuple or a list of such pairs; a record that is not a pair is refused by
    its label ``H{i}``."""
    groups = []
    for i, record in enumerate(_record(records, (tuple, list), "Hamiltonian records"), start=1):
        if not isinstance(record, (tuple, list)) or len(record) != 2:
            got = (f"a {type(record).__name__} of length {len(record)}"
                   if isinstance(record, (tuple, list)) else type(record).__name__)
            raise ValidationError(f"Hamiltonian record H{i} must be an (h, dt) pair, got {got}")
        groups.append(((record[0],), record[1]))
    return list(_sampled_unitary_channels(groups, (1.0,), n, "H"))


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
    """Choi matrix ``sum_ab E_ab kron Phi(E_ab)`` of ``Phi: rho -> sum_k X_k rho Y_k``
    given (X_k, Y_k) pairs: entry ``[(a, i), (b, j)] = sum_k X_k[i, a] Y_k[b, j]``."""
    x, y = (np.stack(m) for m in zip(*pair_maps))
    d = x.shape[-1]
    return np.einsum("kia,kbj->aibj", x, y).reshape(d * d, d * d)


def _kraus_from_choi(j: np.ndarray, d: int, scale: float, sign: float) -> np.ndarray:
    """Kraus matrices of the positive (sign=+1) or negative part of a Choi
    matrix: ``sqrt(sign lam scale)`` times each eigenvector whose ``sign lam``
    exceeds the tolerance, read column-major as a d x d matrix, in ascending
    order of ``lam``; one zero matrix when there is none."""
    vals, vecs = np.linalg.eigh(j)
    tol = _CHOI_RTOL * max(1.0, float(np.max(np.abs(vals))))
    keep = sign * vals > tol
    if not keep.any():
        return np.zeros((1, d, d), dtype=complex)
    kraus = np.sqrt(sign * vals[keep] * scale)[:, None] * vecs.T[keep]
    return kraus.reshape(-1, d, d).swapaxes(1, 2)


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
    halves = ([(v1 / 2.0, v2c), (v2c / 2.0, v1)], [(1j * v1 / 2.0, v2c), (-1j * v2c / 2.0, v1)])
    kraus = [_kraus_from_choi(j, d, g, sign)
             for j in map(_choi_matrix, halves) for sign in (1.0, -1.0)]
    # the Kraus inequality of KrausChannel, tested once for the four channels
    worst = float(np.linalg.eigvalsh(np.stack([_kraus_grams(k) for k in kraus]))[:, -1].max())
    if worst > 1.0 + KRAUS_TOL:
        raise ValidationError(
            f"coupling g={g} makes a component unphysical; maximal admissible g = {g / worst:.6g}"
        )
    labels = ("sandwich_1p", "sandwich_1m", "sandwich_2p", "sandwich_2m")
    return tuple(_new(KrausChannel, d=d, kraus=k, label=l) for k, l in zip(kraus, labels))


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

    The record also caches three read-only arrays of a real design with n^2
    columns ``(i, k)``, each formed on first read: ``moments``, the block
    moments of the refinement, ``_detector_moments``, the same weighted for
    its detector block, and ``_rotated``, the design tensor rotated by
    ``u^T`` and laid out for its state products.  The records this package
    makes hold a read-only ``b``, so their factors and cached arrays cannot
    go stale: the matrix of a ``build_regression_matrices`` record, or the
    copy ``factor_design`` made of a raw matrix.
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
        is then ``moments @ S.take(upper)``; weighted, they also give its
        detector Gram (``_detector_moments``).  A design with an entry beyond
        ``errors.MAX_ENTRY`` is refused, before its Gram could overflow."""
        n = math.isqrt(self.shape[1])
        b = _bounded(self.b, "regression matrix")
        k = (b.T @ b).reshape(n, n, n, n).transpose(0, 2, 1, 3)
        upper, positions = _packing(n)
        # rows, then columns, which leaves the result column-major; a row-major
        # copy (np.ix_) moves the last bits of the refinement's products
        moments = (k + k.swapaxes(2, 3)).reshape(n * n, n * n)[upper][:, upper]
        moments[:, positions.diagonal()] /= 2.0
        moments.setflags(write=False)
        return moments

    @cached_property
    def _detector_moments(self) -> np.ndarray:
        """``moments`` weighted for the refinement's detector block: the
        packed ``x x^T`` (``_packing``'s upper triangle) times them is the
        packed detector Gram ``G^T G`` of ``G = x . B3``.

        ``(G^T G)[k, k'] = sum_ii' x_i x_i' K[(i, i'), (k, k')]``, and
        ``K[(i', i), (k, k')] = K[(i, i'), (k', k)]``; so a row ``i < i'``
        weighs twice, and an off-diagonal column ``k < k'``, which holds both
        orders of ``(k, k')``, half."""
        rows, cols = np.triu_indices(math.isqrt(self.shape[1]))
        weights = np.where(rows == cols, 1.0, 2.0)
        weighted = self.moments * weights[:, None] / weights
        weighted.setflags(write=False)
        return weighted

    @cached_property
    def _rotated(self) -> np.ndarray:
        """The design's rows rotated onto its left singular vectors,
        ``W = diag(s) vh = u^T b`` (min(L, n^2) x n^2), as the tensor
        ``W3[p, i, k] = W[p, (i, k)]`` laid out ``[i, (p, k)]``, so that
        ``u^T G`` for ``G = x . B3`` is the one product
        ``(x @ _rotated).reshape(-1, n)``."""
        n = math.isqrt(self.shape[1])
        w = (self.s[:, None] * self.vh).reshape(-1, n, n)
        rotated = np.ascontiguousarray(w.transpose(1, 0, 2)).reshape(n, -1)
        rotated.setflags(write=False)
        return rotated


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
    refused as a LinAlgError: a degeneracy of the stage that factors.
    Should numpy's SVD (gesdd) fail, a fallback takes the top min(L, n)
    eigenpairs ``s_i``, ``[u_i; v_i] / sqrt(2)`` of ``[[0, b], [b^H, 0]]`` (Golub
    & Van Loan, 8.6): ``s`` and ``b`` are kept to roundoff in ``||b||``, but
    vectors of clustered singular values may be orthogonal only to ~1e-10."""
    _array(b, "regression matrix", 2, nonfinite=np.linalg.LinAlgError)
    try:
        u, s, vh = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError:
        (rows, cols), k = b.shape, min(b.shape)
        w, v = np.linalg.eigh(np.block([[np.zeros((rows, rows)), b],
                                        [b.conj().T, np.zeros((cols, cols))]]))
        s, v = w[:-k - 1:-1], v[:, :-k - 1:-1] * math.sqrt(2.0)
        u, vh = v[:rows], v[rows:].conj().T
    return FactoredDesign(b=b, u=u, s=s, vh=vh, rank=_rank(s))


# The designs ``factor_design`` keeps, most recently used first (``_recent``).
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

    def factored() -> FactoredDesign:
        key = b.copy()
        key.setflags(write=False)
        return _factor(key)

    return _recent(_memo, lambda design: (design.b.shape == b.shape and design.b.dtype == b.dtype
                                          and np.array_equal(design.b, b)), factored)


@dataclass(frozen=True)
class RegressionMatrices:
    """The design of an ensemble in both bases, each built and factored on
    first use.

    The record holds the ensemble and the basis it describes.  ``b`` stacks
    the rows ``vec(E_a)`` (real, coherence-vector basis) and ``b_natural``
    the rows ``vec(B_a)`` (complex, natural basis); each is built from the
    ensemble's Kraus stack when it is first read (``_natural_rows``, and for
    ``b`` ``_coherence_rows`` in process blocks) and kept read-only.  Each is
    factored at most once, when ``design``/``design_natural`` is first read,
    and the ranks and completeness verdicts are read off those
    factorizations: a basis is informationally complete when its matrix has
    full column rank, (d^2-1)^2 for ``b`` and d^4 for ``b_natural``.  These
    designs hold ``b`` and ``b_natural`` themselves, neither copied nor kept
    in ``factor_design``'s memo.  A run that reads one basis never builds
    the other's matrix.
    """

    ensemble: ProcessEnsemble
    basis: OperatorBasis

    def __post_init__(self):
        _record(self.ensemble, ProcessEnsemble, "ensemble")
        _record(self.basis, OperatorBasis, "basis")
        if self.ensemble.d != self.basis.d:
            raise ValidationError(
                f"dimension mismatch: ensemble {self.ensemble.d}, basis {self.basis.d}")

    @cached_property
    def b(self) -> np.ndarray:
        """The real ``L x (d^2-1)^2`` rows ``vec(E_a)``, written block by block
        of ``_ROW_BLOCK`` processes into one array, so that the build holds
        one block's natural rows at a time."""
        kraus, n = self.ensemble.kraus_stack, self.basis.n_traceless
        u = change_of_basis(self.basis)
        b = np.empty((len(kraus), n * n))
        blocks = b.reshape(len(kraus), n, n)
        for start in range(0, len(kraus), _ROW_BLOCK):
            block = _natural_rows(kraus[start:start + _ROW_BLOCK])
            blocks[start:start + len(block)] = _transfers(block, u)[:, 1:, 1:].swapaxes(1, 2)
        b.setflags(write=False)
        return b

    @cached_property
    def b_natural(self) -> np.ndarray:
        """The complex ``L x d^4`` rows ``vec(B_a)``."""
        b = _natural_rows(self.ensemble.kraus_stack).reshape(len(self.ensemble), -1)
        b.setflags(write=False)
        return b

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


def _natural_rows(kraus: np.ndarray) -> np.ndarray:
    """The rows ``vec(B_a)`` of a Kraus stack ``(L, k, d, d)``, as ``(L, d, d, d, d)``.

    They are accumulated one Kraus index at a time, straight into
    column-major order: entry ``[m, n, i, j]`` is
    ``B_a[(i, j), (m, n)] = sum_k conj(A_k)[i, m] A_k[j, n]``.
    """
    l, _, d, _ = kraus.shape
    rows = np.zeros((l, d, d, d, d), dtype=complex)
    for a in np.moveaxis(kraus, 1, 0):
        rows += np.einsum("aim,ajn->amnij", a.conj(), a)
    return rows


def _transfers(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The real transfer matrices ``U B_a U^dag`` ``(L, d^2, d^2)`` of natural
    rows ``(L, d, d, d, d)`` (``_natural_rows``), by one batched product, for
    the change of basis ``u`` (``_real_transfer`` refuses an imaginary residue)."""
    l, d2 = len(rows), len(u)
    sup = rows.reshape(l, d2, d2).transpose(0, 2, 1)
    return _real_transfer(u @ sup @ u.conj().T)


def build_regression_matrices(ens: ProcessEnsemble, basis: OperatorBasis) -> RegressionMatrices:
    """The design record of ``ens`` in ``basis``, refused unless both are
    records of one dimension.  Nothing is built or factored here: each
    basis's rows are built when first read (see ``RegressionMatrices``)."""
    return RegressionMatrices(ens, basis)


def rank_bound(ens: ProcessEnsemble) -> int:
    """Upper bound on the natural-basis regression rank.

    Channels are grouped by equal Kraus sums ``sum A^dag A`` (to
    ``KRAUS_GRAM_TOL``): the first channel not yet grouped takes every other
    within the tolerance of it.  Each group of size L_j contributes at most
    ``min(L_j, d^4 - d^2 + 1)`` and the total is capped at d^4.
    """
    d = _record(ens, ProcessEnsemble, "ensemble").d
    grams = _kraus_grams(ens.kraus_stack)
    ungrouped = np.ones(len(grams), dtype=bool)
    per_group, total = d ** 4 - d ** 2 + 1, 0
    while ungrouped.any():
        group = ungrouped & (np.linalg.norm(grams - grams[ungrouped.argmax()], axis=(-2, -1))
                             < KRAUS_GRAM_TOL)
        total += min(int(group.sum()), per_group)
        ungrouped &= ~group
    return int(min(total, d ** 4))


def min_hamiltonian_count(d: int):
    """Minimum number of distinct Hamiltonians (and sampling points each)
    required for a complete closed-system probe family in dimension d."""
    d = _whole(d, "dimension", 2)
    n_min = d * d - d + 1
    count = int(np.ceil((d * d - 1) ** 2 / n_min))
    return count, n_min
