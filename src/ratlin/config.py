"""Shared numeric constants and the default random seed.

All randomized routines draw from numpy generators seeded explicitly; the
default seed below is used whenever a caller does not pass one.  Every
threshold is a named module constant: rank cutoffs are the backward-stable
max(rows, cols) * eps * sigma_max, scaled up by literal factors where the
data are computed, and nothing is read from the environment.
"""

import numpy as np

DEFAULT_SEED = 0x5EED
# eigenvalue matching and clustering tolerance, relative to max(1, |lambda|)
MATCH_TOL = 1e-7
# eigenpair's bound on an unscaled residual ||R(lambda) x|| / ||x||, above which
# it takes the SVD vectors; the battery gates the normwise backward error
# eta = ||R(lambda) x|| / (||R(lambda)||_2 ||x||) of each recovered pair by it
RESIDUAL_TOL = 1e-8


def make_rng(seed=None) -> np.random.Generator:
    """Seeded generator; `seed` may be an int, a Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def unit_circle_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random evaluation points on the unit circle (avoids scale blowup)."""
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.exp(1j * angles)
