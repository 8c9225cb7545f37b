"""Exception types shared across the package, and the input readers.

Every whole-number or real-number input of the package is read by
``_whole`` or ``_real``, every seed by ``_rng`` and every array by
``_array``, so one place decides what a valid scalar, seed or array is and
how its refusal reads.  Whether a matrix is Hermitian is decided by one
rule too, ``basis._skewed``, next to the coordinate map that needs it.
"""

import numpy as np


class TomographyError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TomographyError):
    """An input violates a documented precondition (bad shape, range, flag)."""


class DegeneracyError(TomographyError):
    """A computation hit a numerical degeneracy (rank loss, zero anchor, ...).

    A step over a stack of inputs may say which entries it refuses:
    ``refused`` is then a boolean mask over the stack's leading axes.
    """

    def __init__(self, message: str = "", refused=None):
        super().__init__(message)
        self.refused = refused


def _whole(value, what: str, minimum: int = None) -> int:
    """``value`` as an int, refused unless it is a whole number: an int, a
    numpy integer or a float with an integral value (``1e3``), not a bool.
    With ``minimum`` set, a smaller number is refused too."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise ValidationError(f"{what} must be a whole number, got {value!r}")
    if minimum is not None and n < minimum:
        raise ValidationError(f"{what} must be >= {minimum}, got {n}")
    return n


def _real(value, what: str) -> float:
    """``value`` as a float, refused unless it is one finite real number: a
    Python or numpy int or float, or a 0-d array of one; not a bool, a
    string, a complex number or None."""
    x = np.asarray(value)
    if x.ndim != 0 or x.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    if not np.isfinite(x):
        raise ValidationError(f"{what} must be finite, got {value!r}")
    return float(x)


_SEED_OBJECTS = (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator)


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, refused unless ``seed`` is None, a
    whole number >= 0, a SeedSequence, a BitGenerator or a Generator."""
    if not (seed is None or isinstance(seed, _SEED_OBJECTS)):
        seed = _whole(seed, "seed", 0)
    return np.random.default_rng(seed)


def _array(value, what: str, ndim=None, dtype=None, square: bool = False,
           nonfinite=ValidationError) -> np.ndarray:
    """``np.asarray(value)``, read without forcing a dtype and refused by
    name unless it holds numbers: bools, ints, floats, and complex numbers
    unless ``dtype`` is float.  ``ndim`` is the number of axes it must have
    (or a tuple of those allowed), and with ``square`` its last two axes
    must be equal.  A non-finite entry raises ``nonfinite``, or is left to
    the caller when that is None.  The array is returned as ``dtype`` if one
    is given, as it was read otherwise."""
    try:
        a = np.asarray(value)
    except (TypeError, ValueError):  # a ragged nesting
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None
    if a.dtype.kind not in ("biuf" if dtype is float else "biufc"):
        kind = "real" if a.dtype.kind == "c" else "numeric"
        raise ValidationError(f"{what} must be {kind}, got dtype {a.dtype}")
    ndims = ndim if isinstance(ndim, tuple) else (ndim,)
    if ndim is not None and a.ndim not in ndims:
        axes = " or ".join(f"{n}-D" for n in ndims)
        raise ValidationError(f"{what} must be {axes}, got shape {a.shape}")
    if square and (a.ndim < 2 or a.shape[-1] != a.shape[-2]):
        raise ValidationError(f"{what} must be square, got shape {a.shape}")
    if nonfinite is not None and not np.isfinite(a).all():
        raise nonfinite(f"{what} has a non-finite entry")
    return a if dtype is None else a.astype(dtype, copy=False)
