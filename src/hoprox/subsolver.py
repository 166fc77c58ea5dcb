"""Accelerated composite minimization of psi(x) + f(x).

psi is the shifted power penalty of a linear constraint residual,

    psi(x) = mu^T (Ax - b) + beta^(1/p)/(1 + 1/p) * ||Ax - b||^(1 + 1/p),

whose gradient is Hölder continuous with exponent 1/p. The solver is an
accelerated proximal gradient method with a doubling/halving estimate of the
local curvature, so it needs no smoothness constants up front. A trial step
of length 1/L passes when psi stays below its quadratic model plus the slack
eps_sub^2 tau / (16 L), tau the step's share of the accumulated coefficient.
The slack keeps the test passable for a gradient that is only Hölder
continuous, and the 1/L keeps it below the decrease of every step whose
gradient map the stop still has to shrink (the derivation is in
``minimize_composite``). Termination
uses the unit-scale gradient map G(x) = x - prox_f(x - grad_psi(x)), bounded
first by a certificate that needs no prox, at entry too when the entry
test runs and the caller hands in a subgradient of f at the start (see
``minimize_composite``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector, check_cap
from .operators import MatrixMap
from .prox import ProxFunction

_L_FLOOR = 1e-12
_L_CEIL = 1e60
# a certified stop needs ||u|| <= (1 - _MARGIN) eps_sub and a rounding bound
# on u of at most _MARGIN eps_sub (see minimize_composite)
_MARGIN = 1e-6
# Inner products call ndarray.dot, not @: the same BLAS call and bits on
# contiguous float64, and @ takes nearly twice as long (a 500-vector inner
# product 1.6 against 0.9 us; numpy 2.4.6, one OpenBLAS thread, Xeon).


class PenaltyGradientOracle:
    """Value/gradient oracle for the shifted power penalty of ``Ax - b``.

    The ``*_at_residual`` methods take the residual ``r = Ax - b`` as a 1-d
    float64 array, as ``residual`` returns it.
    """

    def __init__(self, a_map, b: np.ndarray, multiplier: np.ndarray, beta: float, p: float):
        if not 0 < beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {beta}")
        if not 1 <= p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {p}")
        self.a_map = MatrixMap(a_map) if isinstance(a_map, np.ndarray) else a_map
        self.b = as_vector(b)
        self.multiplier = as_vector(multiplier)
        if self.multiplier.shape != self.b.shape:
            raise ValueError("multiplier and right-hand side dimensions differ")
        self._beta_root = beta ** (1.0 / p)
        self._power = 1.0 + 1.0 / p
        self._value_coef = self._beta_root / self._power
        self._direction_power = 1.0 / p - 1.0

    def residual(self, x: np.ndarray) -> np.ndarray:
        return self.a_map.apply(x) - self.b

    def value_at_residual(self, r: np.ndarray, norm: float) -> float:
        """The penalty at ``r``, given its norm ``math.sqrt(r.dot(r))``."""
        return float(self.multiplier.dot(r) + self._value_coef * norm ** self._power)

    def dual_at_residual(self, r: np.ndarray, norm: float) -> np.ndarray:
        """mu + d with d = beta^(1/p) * r * ||r||^(1/p - 1), given ``norm = math.sqrt(r.dot(r))``.

        At r = 0 it is mu itself. The penalty gradient is A^T of this
        vector, and at an x-update's solution it is the ALM's next
        multiplier. The step d has norm beta^(1/p) * ||r||^(1/p) and solves
        -r + (1/beta) * ||d||^(p-1) * d = 0; for p = 1 it is beta * r.
        """
        if not norm:
            return self.multiplier
        return self.multiplier + self._beta_root * (r * norm ** self._direction_power)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        r = self.residual(x)
        return self.a_map.adjoint(self.dual_at_residual(r, math.sqrt(r.dot(r))))


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
    ``residual`` is ``a_map.apply(solution) - b`` as the solve computed it:
    the last accepted trial's residual, or the entry residual when no
    iteration ran.
    ``prox_calls`` counts every ``f.prox`` call of the solve and ``trials``
    every curvature trial. Each trial calls the prox once, and so does each
    stopping test that does not certify, the entry's included when it runs,
    so ``prox_calls == trials + entry_test + iterations - certified`` for
    the solve's ``entry_test`` (see ``minimize_composite``).

    ``certified`` says that the solve stopped on a certificate, without
    the stopping test's prox: after an accepted step, or at entry with 0
    iterations and 0 prox calls on a subgradient passed in.
    ``final_grad_map_norm`` is then the certificate ||u||, which bounds
    ||G(solution)|| up to rounding: the exact ||G|| has been seen up to
    3e-7 relative above it, and the test's 1e-6 margins keep it below
    ``eps_sub``. Otherwise it is ||G|| as the exact test computed it, also
    when the solve did not converge.

    ``subgradient`` is ``(s, scale)`` from the last accepted step x =
    prox_{f/L}(y - grad_psi(y)/L): s = -(L (x - y) + grad_psi(y)) is in the
    subdifferential of f at ``solution``, and scale = L ||y - grad_psi(y)/L||
    + ||grad_psi(y)|| sizes the rounding in s. A solve with no iteration
    hands back the ``subgradient`` it was given, or None; one that did not
    converge gives None. Pass it as ``subgradient`` to the next solve from
    ``solution`` with the same f and an entry test.

    ``multiplier`` is ``oracle.dual_at_residual`` at ``residual``, whose
    image under A^T is grad_psi(``solution``): the entry check's vector when
    no iteration ran, else the last accepted step's. It is the ALM's next
    multiplier.

    ``solution``, ``residual`` and ``multiplier`` are the solver's own
    arrays, not copies: when no iteration ran, ``solution`` is ``z0`` itself
    and ``residual`` the one passed in, if any. Treat them as read-only.
    """

    solution: np.ndarray
    iterations: int
    final_grad_map_norm: float
    converged: bool
    first_L_accepted: float
    residual: np.ndarray
    prox_calls: int
    trials: int
    certified: bool
    subgradient: tuple[np.ndarray, float] | None
    multiplier: np.ndarray


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
    entry_test: bool = True,
) -> SubsolverReport:
    """Minimize psi + f until ||G(z)|| <= eps_sub.

    The curvature estimate L doubles whenever the trial point x+ = y + dx
    fails the quadratic upper-bound test

        psi(x+) <= psi(y) + <grad_psi(y), dx> + (L/2) ||dx||^2 + eps_sub^2 tau / (16 L),

    and halves once per accepted iterate; tau = a/A is the step's share of
    the accumulated coefficient. Non-convergence within ``max_iters`` is
    reported via the ``converged`` flag, not raised.

    The slack is delta/2 with delta = eps_acc tau / L and eps_acc =
    eps_sub^2 / 8. grad_psi is Hölder continuous with exponent nu = 1/p and
    some constant H, and Nesterov's lemma (Universal gradient methods for
    convex optimization problems, Math. Program. 152, 2015) says the test
    with slack delta/2 passes once L >= (1/delta)^((1-nu)/(1+nu))
    H^(2/(1+nu)). With delta = eps_acc tau / L that holds once

        L >= H^(1/nu) (eps_acc tau)^(-(1-nu)/(2 nu)) = H^p (eps_acc tau)^(-(p-1)/2);

    at p = 1 that is H, the Lipschitz constant, whatever the slack. As
    tau -> 0 the bound grows like tau^(-(p-1)/2), faster than the
    tau^(-(p-1)/(p+1)) of a slack without the 1/L: at p = 3 like 1/tau
    against 1/sqrt(tau). tau falls like 2/k over k iterations, so at p = 3
    the bound rises linearly in k, to about k H^3 / (2 eps_acc), far below
    ``_L_CEIL`` (about 2^199) within any cap one can run. Each search ends
    in any case: with G_L = L (y - x+), whose norm only grows with L, the
    Hölder bound passes the test without slack once
    L^nu >= 2 H ||G_L||^(nu-1) / (1 + nu), and dx = 0 passes it outright.

    A ||G|| <= eps_sub stop needs no larger slack. G_L is the gradient map
    of the 1/L step, and with convex psi and f a passed test gives
    psi(x+) + f(x+) <= psi(y) + f(y) - ||G_L||^2 / (2L) + slack.
    While ||G_L|| >= eps_sub the decrease is at least eps_sub^2 / (2L), at
    least 8 times the slack at any L, so the slack never hides a step that the
    stop still needs (||G|| <= ||G_L|| for L >= 1). A slack without the
    1/L, eps_sub^2 tau / 16, lets psi + f rise on steps with ||G_L|| up to
    eps_sub sqrt(tau L / 8), above eps_sub once tau L > 8: on matrix
    completion at p = 2 and eps_sub = 0.1 its iteration-1 value 6.25e-4
    exceeded the penalty's power term (about 2e-4), x drifted, and the ALM
    stalled at ||Ax - b|| of about 2.75e-3.

    Iteration 1 is special: with nothing accumulated yet, a = 1/L and the
    extrapolated point y is the start x for every trial L. It therefore
    reuses the residual and gradient of the entry check, so its trials cost
    one prox and one ``apply`` each. Its search starts at
    ``curvature_hint`` (taken down to a power of two, at least 1) and, like
    every later search, only doubles: a hint that passes costs one trial,
    and the L it accepts is never below the hint's power of two, as in
    FISTA's backtracking. The default hint 1 is the cold search 1, 2, 4, ...
    Later iterations start at half the last accepted L.

    One stopping test runs after each accepted step, and at entry unless
    ``entry_test`` is false. Without it the solve takes at least one step
    and reads no ``subgradient``; iteration 1 still reuses the entry
    residual and gradient, so skipping the test saves one prox and costs
    no oracle call. That pays where z0 almost never meets the tolerance,
    as after a pth-order ALM multiplier step with p > 1, whose norm
    shrinks only like ||Ax - b||^(1/p).

    A subgradient s of f at x gives x = prox_f(x + s), and nonexpansiveness
    of prox_f gives ||G(x)|| <= ||u|| with u = grad_psi(x) + s, for any
    convex f and psi. Handed ``(s, scale)``, the test stops on that
    certificate, with ``final_grad_map_norm`` = ||u|| and ``certified``
    set, when ||u|| <= (1 - 1e-6) eps_sub and the rounding bound
    delta = 2^-52 (scale + ||grad_psi(x)||) on u is at most 1e-6 eps_sub;
    otherwise, or with no s, it computes ||G(x)|| with one prox.

    After a step, s is the accepted trial's: x = prox_{f/L}(y - grad_psi(y)/L)
    puts s = -(L (x - y) + grad_psi(y)) in the subdifferential of f at x,
    and scale = L ||y - grad_psi(y)/L|| + ||grad_psi(y)||. delta is chiefly
    L times the ulp of the prox input: without it, a step that rounds to
    nothing at large L certifies on rounding alone. s is formed only after
    a short step, L ||x - y|| <= 2 eps_sub with L as accepted: since
    ||u|| >= L ||x - y|| - ||grad_psi(x) - grad_psi(y)||, a long step
    rarely certifies, and the gate spares its vector work.

    At an entry test, s is ``subgradient``, when given: the ``(s, scale)``
    of a report whose solution is ``z0``, from a solve with the same f. psi may
    differ, as it does after a multiplier step; s is still a subgradient of
    f at z0. A certificate there stops the solve with 0 iterations and 0
    prox calls.

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
    if not 0 < eps_sub < math.inf:
        raise ValueError(f"eps_sub must be positive and finite, got {eps_sub}")
    check_cap("max_iters", max_iters)
    if not (math.isfinite(curvature_hint) and curvature_hint > 0):
        raise ValueError("curvature_hint must be positive and finite")

    x = v = as_vector(z0)
    big_a = 0.0
    L = _grid_start(curvature_hint)
    prox_calls = trials = 0

    def stopping_test(z, grad_z, subgradient):
        """(g_norm, certified): the certificate from ``(s, scale)`` if it holds, else ||G(z)|| from one prox."""
        if subgradient is not None:
            s, scale = subgradient
            u = grad_z + s
            g_norm = math.sqrt(u.dot(u))
            delta = 2.0 ** -52 * (scale + math.sqrt(grad_z.dot(grad_z)))
            if g_norm <= (1.0 - _MARGIN) * eps_sub and delta <= _MARGIN * eps_sub:
                return g_norm, True
        d = z - f.prox(z - grad_z, 1.0)
        return math.sqrt(d.dot(d)), False

    def step_subgradient(L, w, dx, grad_y):
        """(s, scale) of the accepted step y + dx = prox_{f/L}(w), w = y - grad_y/L."""
        return -(grad_y + L * dx), L * math.sqrt(w.dot(w)) + math.sqrt(grad_y.dot(grad_y))

    if residual is None:
        r_x = oracle.residual(x)
    else:
        r_x = as_vector(residual)
        if r_x.shape != oracle.b.shape:
            raise ValueError(f"residual shape {r_x.shape} != {oracle.b.shape}")
    if subgradient is not None and subgradient[0].shape != x.shape:
        raise ValueError(f"subgradient shape {subgradient[0].shape} != {x.shape}")
    r_norm = math.sqrt(r_x.dot(r_x))
    psi_x = oracle.value_at_residual(r_x, r_norm)
    dual = oracle.dual_at_residual(r_x, r_norm)
    grad_x = oracle.a_map.adjoint(dual)
    if entry_test:
        g_norm, certified = stopping_test(x, grad_x, subgradient)
        prox_calls += not certified
        if g_norm <= eps_sub:
            return SubsolverReport(x, 0, g_norm, True, L, r_x, prox_calls, trials, certified, subgradient, dual)

    for it in range(1, max_iters + 1):
        # the curvature search: each trial step from the current (x, v, big_a)
        while True:
            trials += 1
            a = (1.0 + math.sqrt(1.0 + 4.0 * L * big_a)) / (2.0 * L)
            a_new = big_a + a
            tau = a / a_new
            if big_a == 0.0:
                # tau = 1, so y = 1*v + 0*x = x bitwise: reuse the entry check's oracles
                y, psi_y, grad_y = x, psi_x, grad_x
            else:
                y = tau * v + (1.0 - tau) * x
                r_y = oracle.residual(y)
                y_norm = math.sqrt(r_y.dot(r_y))
                psi_y = oracle.value_at_residual(r_y, y_norm)
                grad_y = oracle.a_map.adjoint(oracle.dual_at_residual(r_y, y_norm))
            w = y - grad_y / L
            x_trial = f.prox(w, 1.0 / L)
            prox_calls += 1
            dx = x_trial - y
            dx_sq = dx.dot(dx)
            r_trial = oracle.residual(x_trial)
            r_norm = math.sqrt(r_trial.dot(r_trial))
            psi_trial = oracle.value_at_residual(r_trial, r_norm)
            upper = psi_y + grad_y.dot(dx) + 0.5 * L * dx_sq + eps_sub ** 2 * tau / (16.0 * L)
            if math.isfinite(psi_trial) and psi_trial <= upper:
                break
            L *= 2.0
            if L > _L_CEIL:
                raise RuntimeError("curvature backtracking diverged (L overflow)")
        if it == 1:
            first_L = L

        x, r_x, big_a = x_trial, r_trial, a_new
        v = v + dx / tau
        dual = oracle.dual_at_residual(r_x, r_norm)
        grad = oracle.a_map.adjoint(dual)
        short = L * math.sqrt(dx_sq) <= 2.0 * eps_sub
        subgradient = step_subgradient(L, w, dx, grad_y) if short else None
        g_norm, certified = stopping_test(x, grad, subgradient)
        prox_calls += not certified
        converged = g_norm <= eps_sub
        if converged and subgradient is None:
            subgradient = step_subgradient(L, w, dx, grad_y)
        L = max(0.5 * L, _L_FLOOR)
        if converged:
            return SubsolverReport(x, it, g_norm, True, first_L, r_x, prox_calls, trials, certified, subgradient, dual)

    return SubsolverReport(x, max_iters, g_norm, False, first_L, r_x, prox_calls, trials, False, None, dual)
