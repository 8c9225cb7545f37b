"""Exception types shared across the package."""


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
