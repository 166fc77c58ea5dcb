"""Accelerated composite minimization of psi(x) + f(x).

psi is the shifted power penalty of a linear constraint residual,

    psi(x) = mu @ (Ax - b) + beta^(1/p)/(1 + 1/p) * ||Ax - b||^(1 + 1/p),

whose gradient is Hölder continuous with exponent 1/p. The solver is an
accelerated proximal gradient method with a doubling/halving estimate of the
local curvature, so it needs no smoothness constants up front. Termination
uses the unit-scale gradient map G(x) = x - prox_f(x - grad_psi(x)).
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector
from .operators import MatrixMap
from .prox import ProxFunction

logger = logging.getLogger(__name__)

_L_FLOOR = 1e-12
_L_CEIL = 1e60


class PenaltyGradientOracle:
    """Value/gradient oracle for the shifted power penalty of ``Ax - b``.

    The ``*_at_residual`` methods take the residual ``r = Ax - b`` as a 1-d
    float64 array, as ``residual`` returns it.
    """

    def __init__(self, a_map, b: np.ndarray, multiplier: np.ndarray, beta: float, p: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if p < 1:
            raise ValueError("order p must be >= 1")
        self.a_map = MatrixMap(a_map) if isinstance(a_map, np.ndarray) else a_map
        self.b = as_vector(b)
        self.multiplier = as_vector(multiplier)
        if self.multiplier.shape != self.b.shape:
            raise ValueError("multiplier and right-hand side dimensions differ")
        self.beta = float(beta)
        self.p = float(p)
        self._beta_root = beta ** (1.0 / p)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.a_map.apply(x) - self.b

    def value_at_residual(self, r: np.ndarray) -> float:
        return self._value(r, math.sqrt(r @ r))

    def gradient_at_residual(self, r: np.ndarray) -> np.ndarray:
        return self.value_and_gradient_at_residual(r)[1]

    def value_and_gradient_at_residual(self, r: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and gradient for a 1-d float64 ``r``, from one norm of ``r``.

        The gradient is ``A^T(mu + beta^(1/p) * norm_power_gradient(r, p))``
        written out: ``math.sqrt(r @ r)`` is how ``np.linalg.norm`` computes
        a 1-d real norm, so it is bitwise that expression.
        """
        norm = math.sqrt(r @ r)
        direction = r * norm ** (1.0 / self.p - 1.0) if norm else np.zeros_like(r)
        return self._value(r, norm), self.a_map.adjoint(self.multiplier + self._beta_root * direction)

    def _value(self, r: np.ndarray, norm: float) -> float:
        power = 1.0 + 1.0 / self.p
        return float(self.multiplier @ r + self._beta_root / power * norm ** power)

    def value(self, x: np.ndarray) -> float:
        return self.value_at_residual(self.residual(x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_at_residual(self.residual(x))


def holder_constant(p: float, beta: float, a_norm: float) -> float:
    """Hölder coefficient of the penalty gradient w.r.t. ||x - y||^(1/p)."""
    return ((p + 1.0) * 2.0 ** (p - 2.0)) ** (1.0 / p) * beta ** (1.0 / p) * a_norm ** (1.0 + 1.0 / p)


def iteration_bound(p: float, holder_coeff: float, eps: float, dist: float) -> float:
    """Worst-case iteration count for an eps-accurate composite solve.

    Diagnostic only: ``dist`` (distance from start to a solution) is unknown
    a priori, and the constant reflects our L0/slack conventions.
    """
    return (2.0 ** ((3.0 * p + 5.0) / (2.0 * p)) * holder_coeff / eps) ** (
        2.0 * p / (p + 3.0)
    ) * dist ** ((p + 1.0) / (p + 3.0))


def gradient_map(oracle: PenaltyGradientOracle, f: ProxFunction, z: np.ndarray) -> np.ndarray:
    """G(z) = z - prox_f(z - grad_psi(z)) at unit prox scale.

    Vanishes exactly at minimizers of psi + f.
    """
    z = as_vector(z)
    return z - f.prox(z - oracle.gradient(z), 1.0)


@dataclass
class SubsolverReport:
    """Outcome of one composite solve.

    ``first_L_accepted`` is the curvature accepted in iteration 1, or the
    search's starting point (the hint on its power-of-two grid) when the
    start already met the tolerance. Passed back as ``curvature_hint``, it
    starts the next solve's first search where this one ended.
    ``residual`` is ``A @ solution - b`` as the solve computed it: the last
    accepted trial's residual, or the entry residual when no iteration ran.
    """

    solution: np.ndarray
    iterations: int
    final_grad_map_norm: float
    final_L_estimate: float
    converged: bool
    first_L_accepted: float
    residual: np.ndarray


def _grid_start(hint: float) -> float:
    """The largest power of two <= hint, within [1, _L_CEIL]: a point of the cold search's grid."""
    return math.ldexp(1.0, math.frexp(min(max(hint, 1.0), _L_CEIL))[1] - 1)


def minimize_composite(
    oracle: PenaltyGradientOracle,
    f: ProxFunction,
    z0: np.ndarray,
    eps_sub: float,
    max_iters: int,
    curvature_hint: float = 1.0,
    residual: np.ndarray | None = None,
) -> SubsolverReport:
    """Minimize psi + f until ||G(z)|| <= eps_sub.

    The curvature estimate L doubles whenever the trial point fails the
    quadratic upper-bound test and halves once per accepted iterate. The
    test carries the additive slack (eps_sub^2/16) * a/A that keeps it
    passable for merely Hölder-smooth psi; weighting by the step's share
    a/A of the accumulated coefficient makes the slack vanish as iterations
    accumulate, so the curvature estimate turns honest near the solution.
    Non-convergence within ``max_iters`` is reported via the ``converged``
    flag, not raised.

    Iteration 1 is special: with nothing accumulated yet, a = 1/L and the
    extrapolated point y is the start x for every trial L. It therefore
    reuses the residual and gradient of the entry check, and at L = 1 also
    its prox x - G(x), so its trials cost one prox and one ``apply`` each
    and the L = 1 trial costs no prox at all. Its search starts at
    ``curvature_hint`` (taken down to a power of two, at least 1) and is
    two-sided: if the hint passes the test, L halves while the half still
    passes, stopping at 1; if it fails, L doubles as usual. This finds the
    same smallest passing power of two as the cold search 1, 2, 4, ...,
    and hence bitwise the same iterates, whenever the test passes at every
    power of two above that value; the default hint 1 is the cold search.
    Later iterations start at half the last accepted L and only double.

    ``residual``, when given, must be ``A z0 - b`` (``oracle.residual(z0)``);
    the entry check then uses it instead of applying A again. Inputs are
    validated here, once: the loop hands only its own finite vectors to the
    oracles.
    """
    if eps_sub <= 0:
        raise ValueError("eps_sub must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if not (math.isfinite(curvature_hint) and curvature_hint > 0):
        raise ValueError("curvature_hint must be positive and finite")

    eps_acc = eps_sub ** 2 / 8.0
    x = as_vector(z0).copy()
    v = x.copy()
    big_a = 0.0
    L = _grid_start(curvature_hint)

    if residual is None:
        r_x = oracle.residual(x)
    else:
        r_x = as_vector(residual)
        if r_x.shape != oracle.b.shape:
            raise ValueError(f"residual shape {r_x.shape} != {oracle.b.shape}")
    psi_x, grad_x = oracle.value_and_gradient_at_residual(r_x)
    prox_x = f.prox(x - grad_x, 1.0)
    d = x - prox_x
    g_norm = math.sqrt(d @ d)
    if g_norm <= eps_sub:
        return SubsolverReport(x, 0, g_norm, 1.0, True, L, r_x)

    def attempt(L):
        """The trial step at curvature L from the current (x, v, big_a) and its test."""
        a = (1.0 + math.sqrt(1.0 + 4.0 * L * big_a)) / (2.0 * L)
        a_new = big_a + a
        tau = a / a_new
        if big_a == 0.0:
            # tau = 1, so y = 1*v + 0*x = x bitwise: reuse the entry check's oracles
            y, psi_y, grad_y = x, psi_x, grad_x
            x_trial = prox_x if L == 1.0 else f.prox(y - grad_y / L, 1.0 / L)
        else:
            y = tau * v + (1.0 - tau) * x
            psi_y, grad_y = oracle.value_and_gradient_at_residual(oracle.residual(y))
            x_trial = f.prox(y - grad_y / L, 1.0 / L)
        dx = x_trial - y
        r_trial = oracle.residual(x_trial)
        psi_trial = oracle.value_at_residual(r_trial)
        upper = psi_y + grad_y @ dx + 0.5 * L * (dx @ dx) + 0.5 * eps_acc * tau
        passed = math.isfinite(psi_trial) and bool(psi_trial <= upper)
        return passed, (x_trial, dx, r_trial, a_new, tau)

    for it in range(1, max_iters + 1):
        passed, step = attempt(L)
        if passed and it == 1:
            while L > 1.0:
                lower_passed, lower = attempt(0.5 * L)
                if not lower_passed:
                    break
                L, step = 0.5 * L, lower
        while not passed:
            L *= 2.0
            if L > _L_CEIL:
                raise RuntimeError("curvature backtracking diverged (L overflow)")
            passed, step = attempt(L)
        if it == 1:
            first_L = L

        x, dx, r_x, big_a, tau = step
        v = v + dx / tau
        L = max(0.5 * L, _L_FLOOR)

        grad = oracle.gradient_at_residual(r_x)
        d = x - f.prox(x - grad, 1.0)
        g_norm = math.sqrt(d @ d)
        if g_norm <= eps_sub:
            logger.debug("composite solve converged in %d iterations (L=%.3e)", it, L)
            return SubsolverReport(x, it, g_norm, L, True, first_L, r_x)

    return SubsolverReport(x, max_iters, g_norm, L, False, first_L, r_x)
