"""High-order proximal point iteration for monotone variational inequalities.

Each step solves, over the whole space,

    lam * F(x_next) + ||x_next - x||^(p-1) * (x_next - x) = 0,

which for p = 1 is the classical proximal point step. For affine operators
F(x) = M x + q the step reduces to a one-dimensional root-finding problem
in the shift s = ||x_next - x||^(p-1) >= 0. With
d(s) = (lam*M + s*I)^{-1} lam*F(x) and phi(s) = ||d(s)||, the shift is the
unique root of the secular equation g(s) = phi(s)^(p-1) - s (Moré and
Sorensen, "Computing a trust region step", 1983): phi is strictly
decreasing because the symmetric part of M is PSD. A Newton iteration on g,
kept inside a bracket by bisection or doubling, finds the root, and
x_next = (lam*M + s*I)^{-1} (s*x - lam*q) is formed by one final solve.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import as_matrix, as_vector


class SubproblemError(RuntimeError):
    """A proximal subproblem could not be solved to its contract."""


@dataclass(frozen=True)
class MonotoneOperator:
    """Evaluation oracle for the operator F of a monotone VI.

    ``evaluate`` returns F(x) as a 1-d float64 array. ``affine_parts``
    holds (M, q) when F(x) = M x + q; ``run_ppa`` needs it to solve each
    step exactly. ``evaluate`` must then compute ``M @ x + q``, because the
    step takes F(x_k) from it. ``known_solution`` is a point with
    F(x*) = 0, used by tests that track distance to the solution.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    affine_parts: Optional[tuple[np.ndarray, np.ndarray]] = None
    known_solution: Optional[np.ndarray] = None


def affine_operator(
    mat: np.ndarray,
    offset: np.ndarray,
    known_solution: Optional[np.ndarray] = None,
) -> MonotoneOperator:
    """Build F(x) = mat @ x + offset, checking that mat + mat.T is PSD."""
    mat = as_matrix(mat)
    offset = as_vector(offset)
    if mat.shape[0] != mat.shape[1] or mat.shape[0] != offset.shape[0]:
        raise ValueError("affine operator needs a square matrix and matching offset")
    sym = 0.5 * (mat + mat.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    if min_eig < -1e-10 * max(1.0, abs(mat).max()):
        raise ValueError(f"operator is not monotone: min eigenvalue {min_eig:.3e}")
    return MonotoneOperator(
        evaluate=lambda x: mat @ x + offset,
        affine_parts=(mat, offset),
        known_solution=None if known_solution is None else as_vector(known_solution),
    )


@dataclass(frozen=True)
class PpaConfig:
    """Order, proximal parameter and stopping rule for a PPA run."""

    p: float
    lambda_ppa: float
    max_iters: int
    step_tol: float = 0.0

    def __post_init__(self):
        # the checks are written so that NaN fails them
        if not self.p >= 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if not self.lambda_ppa > 0:
            raise ValueError(f"lambda_ppa must be positive, got {self.lambda_ppa}")
        if not self.max_iters >= 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.step_tol >= 0:
            raise ValueError(f"step_tol must be nonnegative, got {self.step_tol}")


@dataclass
class PpaTrace:
    """Per-iteration record of a PPA run.

    ``step_norms[k]`` is ||x^{k+1} - x^k|| and ``residual_norms[k]`` is
    lam * ||F(x^{k+1})||. ``distances_to_solution`` covers every iterate
    (including x^0) when the operator carries a known solution.
    ``inner_solves[k]`` is the number of secular-function evaluations in
    step k's root search: 0 for a zero step (F(x^k) = 0), 1 for p = 1 (the
    root s = 1 is known). On the nonsymmetric path these are not
    factorizations: each search's first evaluation reuses the inverse at
    the previous search's root. The benchmark's ``ppa.shifted_solves`` sums
    this list, so it counts evaluations, not inversions.
    ``wall_ms[k]`` times step k's solve alone; every evaluation of F falls
    outside it.
    """

    iterates: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    distances_to_solution: Optional[list] = None
    inner_solves: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)


def _root_tolerance(s: float) -> float:
    # absolute 1e-12-level residuals, tightened to 1e-9 relative so the
    # optimality identity lam*||F|| = step^p survives at small steps
    return max(min(1e-12 * max(1.0, s), 1e-9 * s), 5e-16 * s)


def _is_symmetric(mat: np.ndarray) -> bool:
    return bool(np.allclose(mat, mat.T, rtol=0.0, atol=1e-12 * max(1.0, abs(mat).max())))


_MAX_EVALUATIONS = 500


def _secular_root(secular, p: float, s: float):
    """Root of g(s) = phi(s)^(p-1) - s by a safeguarded Newton iteration.

    ``secular(s)`` returns (phi(s), phi'(s)) and ``s`` is the starting
    shift. A Newton step that leaves the bracket [lo, hi] known so far is
    replaced by bisection, or by doubling while no upper end is known.
    Returns (root, evaluations) for p > 1. Raises ``SubproblemError`` at the
    first shift where phi or phi' is not finite (lam*F(x_k) so large that
    the evaluation overflows), since no bracket can be built from it.
    """
    lo, hi = 0.0, np.inf
    best_s, best_g = s, np.inf
    for evaluations in range(1, _MAX_EVALUATIONS + 1):
        phi, dphi = secular(s)
        if not (math.isfinite(phi) and math.isfinite(dphi)):
            raise SubproblemError(f"secular function not finite at s = {s:.3e}: phi = {phi}, phi' = {dphi}")
        power = phi ** (p - 1.0)
        g = power - s
        if abs(g) <= _root_tolerance(s):
            return s, evaluations
        if abs(g) < best_g:
            best_s, best_g = s, abs(g)
        if g > 0.0:
            lo = s
        else:
            hi = s
        if hi - lo <= 1e-16 * hi < np.inf:
            break
        # the Newton step s - g/g' with power' = (p-1) phi^(p-2) phi' <= 0,
        # arranged as a ratio of positive sums: it stays positive and keeps
        # its relative accuracy when the root is many decades below s
        slope = (p - 1.0) * power / phi * dphi
        s = (power - s * slope) / (1.0 - slope)
        if not lo < s < hi:
            s = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
    if hi == np.inf:
        raise SubproblemError(f"subproblem bracketing failure: g(s) > 0 up to s = {lo:.3e}")
    return best_s, evaluations


def _make_affine_stepper(mat: np.ndarray, offset: np.ndarray, cfg: PpaConfig):
    """Per-run step function for an affine operator: (x_k, F(x_k)) -> (x_next, evaluations).

    Symmetric operators are eigendecomposed once, lam*M = V diag(l) V^T, so
    with w = V^T lam*F(x_k) each secular evaluation costs O(n):
    phi^2 = sum w_i^2 / (l_i + s)^2. Other operators invert lam*M + s*I
    (one LU factorization) once per distinct shift, which gives both
    d = (lam*M + s*I)^{-1} lam*F(x_k) and phi' = -d^T (lam*M + s*I)^{-1} d / phi.
    Each search starts from the previous step's root, which the shrinking
    steps keep close; that root is the shift of the previous search's last
    evaluation, so the stepper keeps the last inverse and the next step's
    first evaluation reuses it. ``x_of`` still calls ``solve``: x_next
    formed from the inverse rounds differently, and the iterates then miss
    the exact F = 0 stop. At p = 1 the root s = 1 is known and counted as
    one evaluation.
    """
    lam, p = cfg.lambda_ppa, cfg.p
    lam_mat = lam * mat
    lam_offset = lam * offset
    root = 1.0

    if _is_symmetric(mat):
        eigvals, eigvecs = np.linalg.eigh(lam_mat)

        def secular_factory(lam_f):
            w_sq = (eigvecs.T @ lam_f) ** 2

            def secular(s):
                shifted = eigvals + s
                ratio = w_sq / shifted ** 2
                phi = math.sqrt(ratio.sum())
                return phi, -(ratio / shifted).sum() / phi

            return secular

        def x_of(x_k, s):
            return eigvecs @ ((eigvecs.T @ (s * x_k - lam_offset)) / (eigvals + s))

    else:
        eye = np.eye(offset.shape[0])
        inverted_shift, inverse = None, None

        def secular_factory(lam_f):
            def secular(s):
                nonlocal inverted_shift, inverse
                if s != inverted_shift:
                    inverted_shift, inverse = s, np.linalg.inv(lam_mat + s * eye)
                d = inverse @ lam_f
                phi = math.sqrt(d @ d)
                return phi, -(d @ (inverse @ d)) / phi

            return secular

        def x_of(x_k, s):
            return np.linalg.solve(lam_mat + s * eye, s * x_k - lam_offset)

    def step(x_k: np.ndarray, f_k: np.ndarray):
        nonlocal root
        lam_f = lam * f_k
        if lam_f @ lam_f == 0.0:
            return x_k.copy(), 0
        if p == 1.0:
            return x_of(x_k, 1.0), 1
        root, evaluations = _secular_root(secular_factory(lam_f), p, root)
        return x_of(x_k, root), evaluations

    return step


def run_ppa(op: MonotoneOperator, x0: np.ndarray, cfg: PpaConfig) -> PpaTrace:
    """Iterate the high-order proximal step from x0 for an affine operator.

    The operator must carry ``affine_parts``: each step is solved exactly
    by ``_make_affine_stepper``. Stops after ``cfg.max_iters`` steps or when
    a step norm falls to ``cfg.step_tol``.

    F is evaluated once per iterate, x0 included: F(x^{k+1}) gives the
    residual of step k and is handed to step k + 1.

    ``x0`` is copied once, so the caller may reuse it; the steps are new
    arrays and are stored as returned.
    """
    if op.affine_parts is None:
        raise ValueError("run_ppa needs an operator with affine_parts")
    stepper = _make_affine_stepper(*op.affine_parts, cfg)
    x = as_vector(x0)
    lam = cfg.lambda_ppa
    x_star = op.known_solution
    trace = PpaTrace(iterates=[x.copy()])
    if x_star is not None:
        error = x - x_star
        trace.distances_to_solution = [math.sqrt(error @ error)]

    f = op.evaluate(x)
    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        x_next, solves = stepper(x, f)
        elapsed_ms = (time.perf_counter() - t0) * 1e3

        f = op.evaluate(x_next)
        step = x_next - x
        step_norm = math.sqrt(step @ step)
        trace.iterates.append(x_next)
        trace.step_norms.append(step_norm)
        trace.residual_norms.append(lam * math.sqrt(f @ f))
        trace.inner_solves.append(solves)
        trace.wall_ms.append(elapsed_ms)
        if x_star is not None:
            error = x_next - x_star
            trace.distances_to_solution.append(math.sqrt(error @ error))
        x = x_next
        if step_norm <= cfg.step_tol:
            break
    return trace
