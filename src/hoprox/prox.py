"""Proximal oracles and the norm-power gradient map.

The solvers treat a nonsmooth convex function through two callables: a value
oracle and a scaled proximal oracle ``prox(v, t) = argmin_z t*f(z) +
0.5*||z - v||^2``. Helpers here build those pairs for the l1 norm and
expose the componentwise / singular-value thresholding they reduce to.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import svd_thin


@dataclass(frozen=True)
class ProxFunction:
    """A closed proper convex function given by value and prox oracles."""

    value: Callable[[np.ndarray], float]
    prox: Callable[[np.ndarray, float], np.ndarray]


def norm_power_gradient(x: np.ndarray, p: float) -> np.ndarray:
    """Gradient of (1/(1+1/p)) * ||x||^(1+1/p), i.e. x / ||x||^(1-1/p).

    Returns the zero vector at x = 0. The output norm is ||x||^(1/p); for
    p = 1 this is the identity map.
    """
    if p < 1:
        raise ValueError("order p must be >= 1")
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return np.zeros_like(x)
    return x * norm ** (1.0 / p - 1.0)


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Componentwise shrinkage sign(v) * max(|v| - t, 0): the l1 prox."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def singular_value_threshold(mat: np.ndarray, t: float) -> np.ndarray:
    """Shrink the singular values of ``mat`` by t: the nuclear-norm prox."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    u, sigma, v = svd_thin(mat)
    return (u * np.maximum(sigma - t, 0.0)) @ v.T


def l1_norm() -> ProxFunction:
    """The l1 norm with its soft-thresholding prox."""
    return ProxFunction(
        value=lambda x: float(np.sum(np.abs(x))),
        prox=lambda v, t: soft_threshold(v, t),
    )


def zero_function() -> ProxFunction:
    """The identically-zero function; its prox is the identity."""
    return ProxFunction(
        value=lambda x: 0.0,
        prox=lambda v, t: np.asarray(v, dtype=float).copy(),
    )
