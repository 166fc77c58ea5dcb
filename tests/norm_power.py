"""The norm-power gradient x / ||x||^(1 - 1/p), the test reference for the ALM's multiplier step.

The library forms this vector in one place, inside
``PenaltyGradientOracle.dual_at_residual``; the tests check that vector, and
with it every multiplier step of a run, bitwise against this function, which
takes the norm with ``np.linalg.norm``.
"""

import numpy as np


def norm_power_gradient(x: np.ndarray, p: float) -> np.ndarray:
    """Gradient of (1/(1+1/p)) * ||x||^(1+1/p), i.e. x / ||x||^(1-1/p).

    Returns the zero vector at x = 0. The output norm is ||x||^(1/p); for
    p = 1 this is the identity map.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros_like(x)
    return x * norm ** (1.0 / p - 1.0)
