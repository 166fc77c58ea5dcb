"""Accelerated composite minimization of psi(x) + f(x).

psi is the shifted power penalty of a linear constraint residual,

    psi(x) = mu @ (Ax - b) + beta^(1/p)/(1 + 1/p) * ||Ax - b||^(1 + 1/p),

whose gradient is Hölder continuous with exponent 1/p. The solver is an
accelerated proximal gradient method with a doubling/halving estimate of the
local curvature, so it needs no smoothness constants up front. Termination
uses the unit-scale gradient map G(x) = x - prox_f(x - grad_psi(x)), bounded
first by a certificate that needs no prox, at entry too when the caller
hands in a subgradient of f at the start (see ``minimize_composite``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector
from .operators import MatrixMap
from .prox import ProxFunction

_L_FLOOR = 1e-12
_L_CEIL = 1e60
# a certified stop needs ||u|| <= (1 - _MARGIN) eps_sub and a rounding bound
# on u of at most _MARGIN eps_sub (see minimize_composite)
_MARGIN = 1e-6


class PenaltyGradientOracle:
    """Value/gradient oracle for the shifted power penalty of ``Ax - b``.

    The ``*_at_residual`` methods take the residual ``r = Ax - b`` as a 1-d
    float64 array, as ``residual`` returns it.
    """

    def __init__(self, a_map, b: np.ndarray, multiplier: np.ndarray, beta: float, p: float):
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
        if not p >= 1:
            raise ValueError(f"p must be >= 1, got {p}")
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

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.gradient_at_residual(self.residual(x))


def holder_constant(p: float, beta: float, a_norm: float) -> float:
    """Hölder coefficient of the penalty gradient w.r.t. ||x - y||^(1/p)."""
    return ((p + 1.0) * 2.0 ** (p - 2.0)) ** (1.0 / p) * beta ** (1.0 / p) * a_norm ** (1.0 + 1.0 / p)


def gradient_map(oracle: PenaltyGradientOracle, f: ProxFunction, z: np.ndarray) -> np.ndarray:
    """G(z) = z - prox_f(z - grad_psi(z)) at unit prox scale.

    Vanishes exactly at minimizers of psi + f.
    """
    z = as_vector(z)
    return z - f.prox(z - oracle.gradient(z), 1.0)


@dataclass(slots=True)
class SubsolverReport:
    """Outcome of one composite solve.

    ``first_L_accepted`` is the curvature accepted in iteration 1, or the
    search's starting point (the hint on its power-of-two grid) when the
    start already met the tolerance; either way it is at least that point.
    Passed back as ``curvature_hint``, it starts the next solve's first
    search where this one ended, so a chain of solves never lowers it.
    ``residual`` is ``A @ solution - b`` as the solve computed it: the last
    accepted trial's residual, or the entry residual when no iteration ran.
    ``prox_calls`` counts every ``f.prox`` call of the solve and ``trials``
    every curvature trial, the L = 1 trial of iteration 1 included although
    it reuses the entry prox.

    ``certified`` says that the solve stopped on a certificate, without
    the stopping check's prox: after an accepted step, or at entry with 0
    iterations and 0 prox calls on a subgradient passed in.
    ``final_grad_map_norm`` is then the certificate: an upper bound on
    ||G(solution)|| that is at most ``eps_sub``. Otherwise it is ||G|| as
    the exact test computed it, also when the solve did not converge.

    ``subgradient`` is ``(s, scale)`` from the last accepted step x =
    prox_{f/L}(y - grad_psi(y)/L): s = -(L (x - y) + grad_psi(y)) is in the
    subdifferential of f at ``solution``, and scale = L ||y - grad_psi(y)/L||
    + ||grad_psi(y)|| sizes the rounding in s. A solve with no iteration
    hands back the ``subgradient`` it was given, or None; one that did not
    converge gives None. Pass it as ``subgradient`` to the next solve from
    ``solution`` with the same f.

    ``solution`` and ``residual`` are the solver's own arrays, not copies:
    when no iteration ran, ``solution`` is ``z0`` itself and ``residual``
    the one passed in, if any. Treat them as read-only.
    """

    solution: np.ndarray
    iterations: int
    final_grad_map_norm: float
    final_L_estimate: float
    converged: bool
    first_L_accepted: float
    residual: np.ndarray
    prox_calls: int
    trials: int
    certified: bool
    subgradient: tuple[np.ndarray, float] | None


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
    subgradient: tuple[np.ndarray, float] | None = None,
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
    ``curvature_hint`` (taken down to a power of two, at least 1) and, like
    every later search, only doubles: a hint that passes costs one trial,
    and the L it accepts is never below the hint's power of two, as in
    FISTA's backtracking. The default hint 1 is the cold search 1, 2, 4, ...
    Later iterations start at half the last accepted L.

    The stopping test tries a certificate before it calls the prox. The
    accepted trial x = prox_{f/L}(y - grad_psi(y)/L) puts
    s = -(L (x - y) + grad_psi(y)) in the subdifferential of f at x, so
    x = prox_f(x + s), and nonexpansiveness of prox_f gives
    ||G(x)|| <= ||u|| with u = grad_psi(x) + s, for any convex f and psi.
    The solve stops there, with ``final_grad_map_norm`` = ||u|| and
    ``certified`` set, when ||u|| <= (1 - 1e-6) eps_sub and the rounding
    bound delta = 2^-52 (L ||y - grad_psi(y)/L|| + ||grad_psi(x)|| +
    ||grad_psi(y)||) on u is at most 1e-6 eps_sub; otherwise the exact test
    runs. delta is chiefly L times the ulp of the prox input: without it, a
    step that rounds to nothing at large L certifies on rounding alone.
    u is formed only after a short step, L ||x - y|| <= 2 eps_sub with L as
    accepted: since ||u|| >= L ||x - y|| - ||grad_psi(x) - grad_psi(y)||, a
    long step rarely certifies, and the gate spares its vector work.

    ``subgradient``, when given, is the ``(s, scale)`` of a report whose
    solution is ``z0``, from a solve with the same f; psi may differ, as it
    does after a multiplier step. s is still a subgradient of f at z0, so
    z0 = prox_f(z0 + s) and ||G(z0)|| <= ||u'|| with u' = grad_psi(z0) + s.
    Before its entry prox the solve stops there, with 0 iterations, 0 prox
    calls and ``certified`` set, when ||u'|| <= (1 - 1e-6) eps_sub and
    delta' = 2^-52 (scale + ||grad_psi(z0)||) is at most 1e-6 eps_sub, the
    same margins as the stopping certificate; otherwise the exact entry
    check runs as without it.

    ``residual``, when given, must be ``A z0 - b`` (``oracle.residual(z0)``);
    the entry check then uses it instead of applying A again. Inputs are
    validated here, once: the loop hands only its own finite vectors to the
    oracles.

    Nothing is copied: the loop only rebinds its iterates and never writes
    into an array, so a solve with no inner iteration returns ``z0`` (as a
    float64 vector) as its ``solution``, and the caller must not write into
    ``z0`` or the report's arrays afterwards. ``f.prox`` must return a new
    array, since its output becomes the next iterate.
    """
    if not eps_sub > 0:
        raise ValueError(f"eps_sub must be positive, got {eps_sub}")
    if not max_iters >= 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    if not (math.isfinite(curvature_hint) and curvature_hint > 0):
        raise ValueError("curvature_hint must be positive and finite")

    eps_acc = eps_sub ** 2 / 8.0
    x = v = as_vector(z0)
    big_a = 0.0
    L = _grid_start(curvature_hint)
    prox_calls = trials = 0

    def prox(point, scale):
        nonlocal prox_calls
        prox_calls += 1
        return f.prox(point, scale)

    if residual is None:
        r_x = oracle.residual(x)
    else:
        r_x = as_vector(residual)
        if r_x.shape != oracle.b.shape:
            raise ValueError(f"residual shape {r_x.shape} != {oracle.b.shape}")
    psi_x, grad_x = oracle.value_and_gradient_at_residual(r_x)
    if subgradient is not None:
        # the entry certificate ||G(z0)|| <= ||u'||, u' = grad + s
        s, scale = subgradient
        if s.shape != x.shape:
            raise ValueError(f"subgradient shape {s.shape} != {x.shape}")
        u = grad_x + s
        g_norm = math.sqrt(u @ u)
        delta = 2.0 ** -52 * (scale + math.sqrt(grad_x @ grad_x))
        if g_norm <= (1.0 - _MARGIN) * eps_sub and delta <= _MARGIN * eps_sub:
            return SubsolverReport(x, 0, g_norm, 1.0, True, L, r_x, prox_calls, trials, True, subgradient)
    prox_x = prox(x - grad_x, 1.0)
    d = x - prox_x
    g_norm = math.sqrt(d @ d)
    if g_norm <= eps_sub:
        return SubsolverReport(x, 0, g_norm, 1.0, True, L, r_x, prox_calls, trials, False, subgradient)

    def attempt(L):
        """The trial step at curvature L from the current (x, v, big_a) and its test."""
        nonlocal trials
        trials += 1
        a = (1.0 + math.sqrt(1.0 + 4.0 * L * big_a)) / (2.0 * L)
        a_new = big_a + a
        tau = a / a_new
        if big_a == 0.0:
            # tau = 1, so y = 1*v + 0*x = x bitwise: reuse the entry check's oracles
            y, psi_y, grad_y = x, psi_x, grad_x
            x_trial = prox_x if L == 1.0 else prox(y - grad_y / L, 1.0 / L)
        else:
            y = tau * v + (1.0 - tau) * x
            psi_y, grad_y = oracle.value_and_gradient_at_residual(oracle.residual(y))
            x_trial = prox(y - grad_y / L, 1.0 / L)
        dx = x_trial - y
        dx_sq = dx @ dx
        r_trial = oracle.residual(x_trial)
        psi_trial = oracle.value_at_residual(r_trial)
        upper = psi_y + grad_y @ dx + 0.5 * L * dx_sq + 0.5 * eps_acc * tau
        passed = math.isfinite(psi_trial) and bool(psi_trial <= upper)
        return passed, (x_trial, y, dx, dx_sq, grad_y, r_trial, a_new, tau)

    for it in range(1, max_iters + 1):
        passed, step = attempt(L)
        while not passed:
            L *= 2.0
            if L > _L_CEIL:
                raise RuntimeError("curvature backtracking diverged (L overflow)")
            passed, step = attempt(L)
        if it == 1:
            first_L = L

        x, y, dx, dx_sq, grad_y, r_x, big_a, tau = step
        v = v + dx / tau
        grad = oracle.gradient_at_residual(r_x)
        # the certificate ||G(x)|| <= ||u||, u = grad + s with s = -(L dx + grad_y)
        certified = False
        if L * math.sqrt(dx_sq) <= 2.0 * eps_sub:
            u = grad - grad_y - L * dx
            g_norm = math.sqrt(u @ u)
            if g_norm <= (1.0 - _MARGIN) * eps_sub:
                w = y - grad_y / L
                norms = L * math.sqrt(w @ w) + math.sqrt(grad @ grad) + math.sqrt(grad_y @ grad_y)
                certified = 2.0 ** -52 * norms <= _MARGIN * eps_sub
        if not certified:
            d = x - prox(x - grad, 1.0)
            g_norm = math.sqrt(d @ d)
        if g_norm <= eps_sub:
            w = y - grad_y / L
            subgradient = (-(grad_y + L * dx), L * math.sqrt(w @ w) + math.sqrt(grad_y @ grad_y))
            L = max(0.5 * L, _L_FLOOR)
            return SubsolverReport(x, it, g_norm, L, True, first_L, r_x, prox_calls, trials, certified, subgradient)
        L = max(0.5 * L, _L_FLOOR)

    return SubsolverReport(x, max_iters, g_norm, L, False, first_L, r_x, prox_calls, trials, False, None)
