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
# the battery's bound on the normwise backward error
# eta = ||R(lambda) x|| / (||R(lambda)||_2 ||x||) of each recovered eigenpair
RESIDUAL_TOL = 1e-8


def make_rng(seed=None) -> np.random.Generator:
    """Seeded generator; `seed` may be an int, a Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(DEFAULT_SEED if seed is None else seed)


def unit_circle_points(rng, count: int) -> np.ndarray:
    """Random evaluation points on the unit circle (avoids scale blowup) from
    `make_rng(rng)`; with no generator, the first `count` of DEFAULT_POINTS."""
    if rng is None and count <= DEFAULT_POINTS.size:
        return DEFAULT_POINTS[:count]
    return np.exp(1j * make_rng(rng).uniform(0.0, 2.0 * np.pi, size=count))


DEFAULT_POINTS = unit_circle_points(DEFAULT_SEED, 5)  # drawn once per process
DEFAULT_POINTS.flags.writeable = False
