"""Orthonormal Hermitian operator basis and the real coordinate map.

Every d-dimensional Hilbert space gets the basis ``Omega_0 .. Omega_{d^2-1}``
built from generalized Gell-Mann matrices:

* ``Omega_0 = I / sqrt(d)``,
* the symmetric off-diagonal elements ``(|j><k| + |k><j|) / sqrt(2)``,
* the antisymmetric elements ``-i (|j><k| - |k><j|) / sqrt(2)``,
* the diagonal elements ``diag(1, .., 1, -l, 0, ..) / sqrt(l (l+1))``.

All elements are Hermitian, mutually orthonormal under the Hilbert-Schmidt
inner product ``Tr(X^dag Y)``, and traceless except ``Omega_0``.  Expanding a
Hermitian matrix in this basis gives real coordinates, which is what turns the
tomography regressions in the rest of the package into real least-squares
problems.

One map does that, for stacks: ``to_coords`` takes ``(..., d, d)`` Hermitian
matrices to their ``(..., d^2)`` coordinates (index 0 the trace component,
1.. the coherence vector) and ``from_coords`` takes them back.  States and
detector elements share it; ``coherence_to_state`` is the map h from a
coherence vector to the unit-trace matrix.

Vectorization is column-major throughout: ``vec(A)`` stacks the columns of
``A``, so ``vec(A B C) = (C^T kron A) vec(B)``.  Every Kronecker identity in
this package assumes that convention.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError, _array, _record, _whole

# A matrix x is Hermitian when ||x - x^dag|| <= HERMITIAN_TOL max(1, ||x||)
# (Frobenius norms): the package's one Hermitian rule (``_skewed``).
HERMITIAN_TOL = 1e-9
# How far (Frobenius norm) a basis's Gram matrix may miss I, and its first
# element I/sqrt(d), before ``OperatorBasis`` refuses it.
BASIS_TOL = 1e-10


def _skewed(x: np.ndarray) -> np.ndarray:
    """Which finite matrices of a stack ``(..., d, d)`` are not Hermitian:
    ``||x - x^dag|| > HERMITIAN_TOL max(1, ||x||)`` (Frobenius norms), the package's
    one Hermitian rule.  A stack with a real or imaginary part beyond 1 is
    first divided, matrix by matrix, by ``max(1, its largest part)``, which
    scales both sides alike and keeps every norm finite, so a huge finite
    matrix is judged as its scaled copy would be."""
    floor = 1.0
    if max(np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0)) > 1.0:
        s = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=(-2, -1), initial=1.0)
        x, floor = x / s[..., None, None], 1.0 / s
    return (np.linalg.norm(x - x.conj().swapaxes(-1, -2), axis=(-2, -1))
            > HERMITIAN_TOL * np.maximum(floor, np.linalg.norm(x, axis=(-2, -1))))


def vectorize(a: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into a single vector."""
    return _array(a, "matrix", 2).reshape(-1, order="F")


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize` for square matrices."""
    v = _array(v, "vector", 1)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ValidationError(f"devectorize needs a perfect-square length, got {v.size}")
    return v.reshape((d, d), order="F")


@dataclass(frozen=True)
class OperatorBasis:
    """Orthonormal Hermitian basis for d x d matrices.

    ``omegas`` has shape ``(d^2, d, d)``; ``omegas[0]`` is ``I/sqrt(d)`` and
    the remaining elements are traceless.  A set that is not Hermitian
    (``_skewed``), not orthonormal (``||Gram - I|| > BASIS_TOL``) or not led
    by ``I/sqrt(d)`` (to ``BASIS_TOL``) is refused; a read-only copy is kept.
    """

    d: int
    omegas: np.ndarray

    def __post_init__(self):
        d = _whole(self.d, "basis dimension", 2)
        omegas = np.array(_array(self.omegas, "basis elements", 3), dtype=complex)
        if omegas.shape != (d * d, d, d):
            raise ValidationError(
                f"basis elements must have shape {(d * d, d, d)}, got {omegas.shape}")
        skewed = _skewed(omegas)
        if skewed.any():
            raise ValidationError(f"basis element {skewed.argmax()} is not Hermitian")
        flat = omegas.reshape(d * d, d * d)
        if np.linalg.norm(flat.conj() @ flat.T - np.eye(d * d)) > BASIS_TOL:
            raise ValidationError("basis elements are not orthonormal")
        if np.linalg.norm(omegas[0] - np.eye(d) / np.sqrt(d)) > BASIS_TOL:
            raise ValidationError("the first basis element is not I/sqrt(d)")
        omegas.setflags(write=False)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "omegas", omegas)

    @property
    def n_traceless(self) -> int:
        return self.d * self.d - 1

    @cached_property
    def _real_embedding(self) -> np.ndarray:
        """Each element's real embedding ``[[Re O, -Im O], [Im O, Re O]]``, as
        a read-only ``(d^2, 2d, 2d)`` array, formed on first use.  The map is
        linear, so ``sum_k f_k Omega_k`` embeds as ``f`` times this array; a
        Hermitian matrix is positive semidefinite exactly when its embedding,
        a real symmetric matrix with each eigenvalue doubled, is."""
        re, im = self.omegas.real, self.omegas.imag
        embedding = np.block([[re, -im], [im, re]])
        embedding.setflags(write=False)
        return embedding


def build_basis(d: int) -> OperatorBasis:
    """Construct the generalized Gell-Mann basis for dimension ``d``.

    Ordering is fixed: identity component first, then all symmetric
    off-diagonal pairs in lexicographic (j, k) order, then all antisymmetric
    pairs, then the diagonal elements.  For d=2 this reproduces the Pauli
    ordering (x, y, z) up to the 1/sqrt(2) normalization.  ``d`` is read as
    a whole number >= 2 before the cache of built bases is consulted, so an
    unhashable ``d`` is refused like any other.
    """
    return _build_basis(_whole(d, "basis dimension", 2))


@lru_cache(maxsize=16)
def _build_basis(d: int) -> OperatorBasis:
    """``build_basis`` for a checked whole ``d``, each basis built once."""
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2.0)
            m[k, j] = 1j / np.sqrt(2.0)
            mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag) / np.sqrt(l * (l + 1)))
    return OperatorBasis(d=d, omegas=np.stack(mats))


def change_of_basis(basis: OperatorBasis) -> np.ndarray:
    """Unitary matrix whose j-th row is ``vec(Omega_j)^dag``.

    Multiplying ``vec(A)`` by this matrix yields the coordinates of ``A`` in
    the operator basis; for Hermitian ``A`` those coordinates are real.
    """
    d2 = _record(basis, OperatorBasis, "basis").d ** 2
    return basis.omegas.transpose(0, 2, 1).reshape(d2, d2).conj()


def _to_coords(mats: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """``to_coords`` without its checks, for matrices the caller built."""
    d = basis.d
    # Tr(Omega_k A) = sum_ab Omega_k[a, b] A[b, a]
    flat = mats.swapaxes(-1, -2).reshape(-1, d * d)
    coords = np.real(basis.omegas.reshape(d * d, d * d) @ flat.T).T
    return coords.reshape(*mats.shape[:-2], d * d)


def _from_coords(coords: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """``from_coords`` without its checks, for coordinates the caller built."""
    d = basis.d
    mats = coords.reshape(-1, d * d) @ basis.omegas.reshape(d * d, d * d)
    return mats.reshape(*coords.shape[:-1], d, d)


def to_coords(mats, basis: OperatorBasis) -> np.ndarray:
    """Real coordinates ``Tr(Omega_k A)`` of Hermitian matrices.

    ``mats`` is a stack ``(..., d, d)``; the result is ``(..., d^2)``, with
    index 0 the trace component and 1.. the traceless (coherence) vector.
    The stack is refused if it has the wrong dimension, or if any member
    has a non-finite entry or is not Hermitian (``_skewed``), and a
    ``basis`` that is not an OperatorBasis is refused by name.
    """
    _record(basis, OperatorBasis, "basis")
    a = _array(mats, "matrix", dtype=complex, square=True)
    if a.shape[-1] != basis.d:
        raise ValidationError(f"need {basis.d}x{basis.d} matrices, got shape {a.shape}")
    if _skewed(a).any():
        raise ValidationError("matrix is not Hermitian")
    return _to_coords(a, basis)


def from_coords(coords, basis: OperatorBasis) -> np.ndarray:
    """The matrices ``sum_k f_k Omega_k``, one per vector ``f`` along the last
    axis of ``coords`` ``(..., d^2)``: the inverse of ``to_coords``."""
    _record(basis, OperatorBasis, "basis")
    f = _array(coords, "coordinate vector", dtype=float)
    if f.ndim < 1 or f.shape[-1] != basis.d * basis.d:
        raise ValidationError(
            f"coordinate vectors must have length {basis.d * basis.d}, got shape {f.shape}")
    return _from_coords(f, basis)


def coherence_to_state(x, basis: OperatorBasis) -> np.ndarray:
    """Unit-trace matrices with the given traceless coordinates (the map h),
    one per vector along the last axis of ``x`` ``(..., d^2 - 1)``."""
    _record(basis, OperatorBasis, "basis")
    x = _array(x, "coherence vector", dtype=float)
    if x.ndim < 1 or x.shape[-1] != basis.n_traceless:
        raise ValidationError(
            f"coherence vectors must have length {basis.n_traceless}, got shape {x.shape}")
    trace_part = np.full((*x.shape[:-1], 1), 1.0 / np.sqrt(basis.d))
    return _from_coords(np.concatenate([trace_part, x], axis=-1), basis)
