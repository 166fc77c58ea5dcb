"""A slow proximal-gradient solver for basis pursuit's subproblem, the test reference for the subsolver.

It minimizes psi(x) + ||x||_1, psi the shifted power penalty of ``Ax - b``,
with its own penalty and gradient formulas, its own soft thresholding and
Armijo halving of the step, and none of ``hoprox``'s code.
"""

import numpy as np


def reference_prox_gradient(a, b, multiplier, beta, p, x0, iters):
    """``iters`` proximal-gradient steps from ``x0`` on the dense matrix ``a``; returns the last iterate."""
    x = np.array(x0, dtype=float)
    step = 1.0

    def psi(pt):
        r = a @ pt - b
        return multiplier @ r + beta ** (1 / p) / (1 + 1 / p) * np.linalg.norm(r) ** (1 + 1 / p)

    def grad(pt):
        r = a @ pt - b
        nr = np.linalg.norm(r)
        inner = multiplier if nr == 0 else multiplier + beta ** (1 / p) * r * nr ** (1 / p - 1)
        return a.T @ inner

    for _ in range(iters):
        g = grad(x)
        while True:
            w = x - step * g
            z = np.sign(w) * np.maximum(np.abs(w) - step, 0.0)
            dz = z - x
            if psi(z) <= psi(x) + g @ dz + (dz @ dz) / (2 * step) + 1e-18:
                break
            step *= 0.5
        x = z
        step = min(step * 1.5, 1e6)
    return x
