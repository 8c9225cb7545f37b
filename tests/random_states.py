"""Random states for the tests; the package itself never draws one."""

import numpy as np

from jointtomo import DensityMatrix


def random_density_matrix(d: int, rng) -> DensityMatrix:
    """Full-rank random state from a Ginibre matrix; ``rng`` is a seed or a
    Generator, as ``np.random.default_rng`` reads it."""
    rng = np.random.default_rng(rng)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return DensityMatrix(d, rho / np.real(np.trace(rho)))
