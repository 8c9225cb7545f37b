"""Exception types shared across the package, and the two scalar checks.

Every whole-number or real-number input of the package is read by
``_whole`` or ``_real``, so one place decides what a valid scalar is and
how its refusal reads.
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
