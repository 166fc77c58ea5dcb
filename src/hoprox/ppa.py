"""High-order proximal point iteration for monotone variational inequalities.

Each step solves, over the whole space,

    lam * F(x_next) + ||x_next - x||^(p-1) * (x_next - x) = 0,

which for p = 1 is the classical proximal point step. For affine operators
F(x) = M x + q the step reduces to a one-dimensional root-finding problem
in the shift s = ||x_next - x||^(p-1) >= 0. With the step vector
d(s) = (lam*M + s*I)^{-1} lam*F(x) and phi(s) = ||d(s)||, the shift is the
unique root of the secular equation g(s) = phi(s)^(p-1) - s (Moré and
Sorensen, "Computing a trust region step", 1983): phi is strictly
decreasing because the symmetric part of M is PSD. Each step of the search
goes to the root of the rational model phi(t) ~ c / (mu + t) fitted to phi
and phi' at the current shift, which is exact when phi has one pole, so a
far start costs a few evaluations. Kept inside a bracket by bisection or
doubling, the search finds the root to a relative tolerance, or stops once
bisection cannot split the bracket (its ends are adjacent doubles) and
takes the shift with the smallest |g| found. Then x_next is formed at it.
When M is symmetric, the operator stores its eigendecomposition
M = V diag(m) V^T, and the search works in eigen-coordinates: with
l = lam*m and w = V^T lam*F(x), d(s) = V (w / (l + s)), and
x_next = x - V (w / (l + s)). Otherwise
x_next = (lam*M + s*I)^{-1} (s*x - lam*q) is formed from the inverse the
search returns with the root, refined by one step of iterative
refinement.

Once the computed F(x) is no larger than the rounding error bound of
evaluating M x + q, gamma_{n+1} (||M||_F ||x|| + ||q||) with
gamma_k = k u / (1 - k u) and u = 2^-53, it carries no correct digit: the
step is then the zero step, with no root search, and the run stops on it.
At p > 1 the run also stops after a step whose exact length s^(1/(p-1))
at the root is at most gamma_{n+1} ||x||, which x_next cannot resolve.
"""

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .linalg import as_matrix, as_vector, check_cap

# Per-step products call ndarray.dot, not @: the same BLAS call and bits on
# contiguous float64, and @ takes nearly twice as long on 20-vectors (a 20 x 20
# gemv 1.8 against 1.0 us; numpy 2.4.6, one OpenBLAS thread, Xeon).


class SubproblemError(RuntimeError):
    """A proximal subproblem could not be solved to its contract."""


def _symmetric_eigen(mat: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """``np.linalg.eigh(mat)`` for a matrix symmetric to 1e-12 of its largest entry, else None."""
    if abs(mat - mat.T).max() <= 1e-12 * max(1.0, abs(mat).max()):
        return np.linalg.eigh(mat)
    return None


@dataclass(frozen=True)
class MonotoneOperator:
    """Evaluation oracle for the operator F of a monotone VI.

    ``evaluate`` returns F(x) as a 1-d float64 array, F(x) = M x + q with
    (M, q) the ``affine_parts`` from which ``run_ppa`` solves each step
    exactly. ``evaluate`` must compute M x + q as ``M.dot(x) + q`` does,
    because the step takes F(x_k) from it. ``known_solution`` is a
    point with F(x*) = 0, used by tests that track distance to the solution.

    ``eigen`` is not an argument: every construction, ``dataclasses.replace``
    included, works it out from ``affine_parts``, as ``np.linalg.eigh(M)``
    when M is symmetric to 1e-12 of its largest entry and None otherwise.
    ``run_ppa`` solves every step of a symmetric operator on it, in
    eigen-coordinates.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    affine_parts: tuple[np.ndarray, np.ndarray]
    known_solution: Optional[np.ndarray] = None
    eigen: Optional[tuple[np.ndarray, np.ndarray]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eigen", _symmetric_eigen(self.affine_parts[0]))


def affine_operator(
    mat: np.ndarray,
    offset: np.ndarray,
    known_solution: Optional[np.ndarray] = None,
) -> MonotoneOperator:
    """Build F(x) = mat.dot(x) + offset, checking that mat + mat.T is PSD.

    The operator eigendecomposes a symmetric matrix once, and the smallest
    eigenvalue is the monotonicity check. Other matrices are checked on the
    eigenvalues of their symmetric part. The operator needs at least one
    dimension, and ``known_solution``, when given, its length.
    """
    mat = as_matrix(mat)
    offset = as_vector(offset)
    n = offset.shape[0]
    if n == 0:
        raise ValueError("affine operator needs at least one dimension")
    if mat.shape != (n, n):
        raise ValueError("affine operator needs a square matrix and matching offset")
    if known_solution is not None:
        known_solution = as_vector(known_solution)
        if known_solution.shape[0] != n:
            raise ValueError(f"known_solution has length {known_solution.shape[0]}, the operator {n}")
    op = MonotoneOperator(
        evaluate=lambda x: mat.dot(x) + offset,
        affine_parts=(mat, offset),
        known_solution=known_solution,
    )
    if op.eigen is not None:
        min_eig = float(op.eigen[0][0])
    else:
        min_eig = float(np.linalg.eigvalsh(0.5 * (mat + mat.T))[0])
    if min_eig < -1e-10 * max(1.0, abs(mat).max()):
        raise ValueError(f"operator is not monotone: min eigenvalue {min_eig:.3e}")
    return op


@dataclass(frozen=True)
class PpaConfig:
    """Order, proximal parameter and stopping rule for a PPA run."""

    p: float
    lambda_ppa: float
    max_iters: int
    step_tol: float = 0.0

    def __post_init__(self):
        # the checks are written so that NaN and infinities fail them
        if not 1 <= self.p < math.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        if not 0 < self.lambda_ppa < math.inf:
            raise ValueError(f"lambda_ppa must be positive and finite, got {self.lambda_ppa}")
        check_cap("max_iters", self.max_iters)
        if not 0 <= self.step_tol < math.inf:
            raise ValueError(f"step_tol must be nonnegative and finite, got {self.step_tol}")


@dataclass
class PpaTrace:
    """Per-iteration record of a PPA run.

    ``step_norms[k]`` is ||x^{k+1} - x^k|| and ``residual_norms[k]`` is
    lam * ||F(x^{k+1})||. ``distances_to_solution`` covers every iterate
    (including x^0) when the operator carries a known solution.
    ``inner_solves[k]`` is the number of secular-function evaluations in
    step k's root search: 0 for the zero step, 1 for p = 1 (the root s = 1
    is known). None of them is a factorization on a symmetric operator:
    each is O(n) work on the eigendecomposition the operator stores. On the
    nonsymmetric path each search's first evaluation reuses the inverse at
    the previous search's root. The benchmark's ``ppa.shifted_solves`` sums
    this list, so it counts evaluations, not factorizations or inversions.
    ``wall_ms[k]`` times step k's solve alone; every evaluation of F falls
    outside it.
    ``status`` says why the run stopped, as ``run_ppa`` decides it:
    ``rounding_floor`` on the zero step, ``unresolved_step`` after a step
    at p > 1 too short for x^k to resolve, ``step_tol`` on any other step
    no longer than ``step_tol``, and ``max_iters`` at the cap.
    """

    iterates: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    residual_norms: list = field(default_factory=list)
    distances_to_solution: Optional[list] = None
    inner_solves: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    status: str = "max_iters"


def _root_tolerance(s: float) -> float:
    # absolute 1e-12-level residuals, tightened to 1e-9 relative so the
    # optimality identity lam*||F|| = step^p survives at small steps
    return max(min(1e-12 * max(1.0, s), 1e-9 * s), 5e-16 * s)


_MAX_EVALUATIONS = 500
# cap on the Newton steps in u = log t of one model root: they fall
# monotonically onto it, and reach the rounding level in at most 7 steps for
# p from 1.01 to 20, c and mu from 1e-300 to 1e300
_MODEL_NEWTON_STEPS = 10


def _model_root(c: float, mu: float, p: float) -> float:
    """Positive root t of (c / (mu + t))^(p-1) = t, for c > 0 and mu >= 0.

    At p = 2 it is the root of t^2 + mu*t - c. Otherwise u = log t is the
    root of h(u) = u + (p-1) log(mu + e^u) - (p-1) log c, which is
    increasing and convex. Since mu + t is at least the larger of mu and t,
    u starts at the smaller of (p-1)/p log c and (p-1) log(c/mu), no smaller
    than the root, and Newton's iterates fall monotonically onto it. A
    result of 0 (underflow) is left to the caller's safeguard.
    """
    if p == 2.0:
        return 2.0 * c / (mu + math.hypot(mu, 2.0 * math.sqrt(c)))
    q = p - 1.0
    log_c = math.log(c)
    u = q * log_c / p
    if mu > 0.0:
        u = min(u, q * (log_c - math.log(mu)))
        for _ in range(_MODEL_NEWTON_STEPS):
            t = math.exp(u)
            total = mu + t
            step = (u + q * (math.log(total) - log_c)) / (1.0 + q * t / total)
            u -= step
            if step <= 1e-15 * (1.0 + abs(u)):
                break
    return math.exp(u)


def _secular_root(secular, p: float, s: float):
    """Root of g(s) = phi(s)^(p-1) - s by safeguarded rational-model steps.

    ``secular(s)`` returns (phi(s), phi'(s), state), where state is what
    the caller forms x_next from at s, and ``s`` is the starting shift.
    Each step goes to the root of the model phi(t) ~ c / (mu + t) that
    matches phi and phi' at s (Moré and Sorensen, 1983; Bunch, Nielsen and
    Sorensen, "Rank-one modification of the symmetric eigenproblem", 1978):
    mu + s = -phi/phi' and c = phi (mu + s), with mu clipped at 0,
    which holds exactly for a monotone M. On symmetric operators 1/phi is
    concave, so the model lies below phi and its root below the root of g.
    A model root that is not finite and positive, or that leaves the
    bracket [lo, hi] known so far, and any step where phi' >= 0, is
    replaced by bisection, or by doubling while no upper end is known.
    Returns (root, state at the root, evaluations) for p > 1. A search ends
    in one of four ways:
    - |g(s)| meets ``_root_tolerance(s)``, and s is returned;
    - the bracket is used up: bisection lands on an end, so lo and hi are
      adjacent doubles, or doubling overflows. The shift with the smallest
      |g| is returned, or ``SubproblemError`` is raised when no upper end
      is known;
    - ``_MAX_EVALUATIONS`` is reached, which ends the same way;
    - phi, phi' or phi^(p-1) is not finite (lam*F(x_k) so large that the
      evaluation overflows), and ``SubproblemError`` is raised, since no
      bracket can be built from it.
    """
    lo, hi = 0.0, np.inf
    best_s, best_state, best_g = s, None, np.inf
    for evaluations in range(1, _MAX_EVALUATIONS + 1):
        phi, dphi, state = secular(s)
        if not (math.isfinite(phi) and math.isfinite(dphi)):
            raise SubproblemError(f"secular function not finite at s = {s:.3e}: phi = {phi}, phi' = {dphi}")
        try:
            power = phi ** (p - 1.0)
        except OverflowError:
            message = f"secular function not finite at s = {s:.3e}: phi^(p-1) overflows, phi = {phi}"
            raise SubproblemError(message) from None
        g = power - s
        if abs(g) <= _root_tolerance(s):
            return s, state, evaluations
        if abs(g) < best_g:
            best_s, best_state, best_g = s, state, abs(g)
        if g > 0.0:
            lo = s
        else:
            hi = s
        # NaN, for phi' >= 0 or an overflowed model, fails the bracket test
        model = math.nan
        if dphi < 0.0:
            mu = max(-phi / dphi - s, 0.0)
            c = phi * (mu + s)
            if 0.0 < c < math.inf:
                model = _model_root(c, mu, p)
        s = model
        if not lo < s < hi:
            s = 2.0 * lo if hi == np.inf else 0.5 * (lo + hi)
            if not lo < s < hi:
                break
    if hi == np.inf:
        raise SubproblemError(f"subproblem bracketing failure: g(s) > 0 up to s = {lo:.3e}")
    return best_s, best_state, evaluations


def _make_affine_stepper(op: MonotoneOperator, cfg: PpaConfig):
    """Per-run step function for an affine operator: (x_k, lam*F(x_k), ||lam*F(x_k)||^2) -> (x_next, evaluations, root).

    ``run_ppa`` takes the zero step itself. x_next is formed at the shift
    ``root``. Each search starts from the previous step's root, which the
    shrinking steps keep close; at p = 1 the root s = 1 is known and counted
    as one evaluation. At p > 1 an overflowed lam*F(x_k) raises
    ``SubproblemError``.

    On a symmetric operator, whose ``eigen`` holds M = V diag(m) V^T, the
    run takes l = lam*m and V from it and factorizes nothing. Each step
    forms w = V^T lam*F(x_k) once, and each secular evaluation forms the
    step vector in eigen-coordinates, d = w / (l + s): phi = sqrt(d.d) and
    phi' = -d.(d / (l + s)) / phi, in O(n). The search returns d at its
    root, and x_next = x_k - V d; at p = 1, d = w / (l + 1).
    A step raises ``SubproblemError`` when l is not finite (lam*M
    overflows; an infinite l_i would zero d_i, and the search would run on
    a secular function that is not the step's). A p = 1 step whose
    lam*F(x_k) overflows is formed as V ((V^T (x_k - lam*q)) / (l + 1)).

    Other operators invert lam*M + s*I (one LU factorization) at each shift
    the search evaluates, which gives both d and phi' = -d^T (lam*M +
    s*I)^{-1} d / phi. The search returns the pair (lam*M + s*I, inverse)
    at its root, and x_next is formed from it: x = inverse rhs with rhs =
    s*x_k - lam*q, then one step of iterative refinement x - inverse
    ((lam*M + s*I) x - rhs). Without that step, rank-deficient operators
    break lam*||F(x_next)|| = step^p by up to 1e-8 of the problem's scale.
    The pair is kept, and the next search's first evaluation, at the same
    shift, reuses it, so no step inverts a shift its search did not
    evaluate. At p = 1 the run inverts once, at s = 1.
    """
    mat, offset = op.affine_parts
    lam, p = cfg.lambda_ppa, cfg.p
    root = 1.0

    def check_finite(lam_f_sq, v):
        # ||v|| = ||lam*F(x_k)||, so v is finite when ||lam*F(x_k)||^2 is
        if not (lam_f_sq < math.inf or np.isfinite(v).all()):
            raise SubproblemError(f"secular function not finite: lam*F(x_k) overflows (lam = {lam:.3e})")

    if op.eigen is not None:
        eigvals, eigvecs = lam * op.eigen[0], op.eigen[1]
        eigvecs_t = eigvecs.T
        finite_eigvals = bool(np.isfinite(eigvals).all())
        eigvals_plus_one = eigvals + 1.0
        w = None  # V^T lam*F(x_k) of the current step

        def secular(s):
            shifted = eigvals + s
            d = w / shifted
            phi = math.sqrt(d.dot(d))
            return phi, -d.dot(d / shifted) / phi, d

        def step(x_k: np.ndarray, lam_f: np.ndarray, lam_f_sq: float):
            nonlocal w, root
            if not finite_eigvals:
                raise SubproblemError(f"secular function not finite: lam*M overflows in eigen-coordinates (lam = {lam:.3e})")
            if p == 1.0:
                if lam_f_sq < math.inf:
                    return x_k - eigvecs.dot(eigvecs_t.dot(lam_f) / eigvals_plus_one), 1, root
                # lam*F(x_k) overflows, but (lam*M + I)^{-1} (x_k - lam*q) need not
                return eigvecs.dot(eigvecs_t.dot(x_k - lam * offset) / eigvals_plus_one), 1, root
            w = eigvecs_t.dot(lam_f)
            check_finite(lam_f_sq, w)
            root, d, evaluations = _secular_root(secular, p, root)
            return x_k - eigvecs.dot(d), evaluations, root

    else:
        lam_mat = lam * mat
        lam_offset = lam * offset
        eye = np.eye(offset.shape[0])
        # lam*F(x_k) of the current step, and (lam*M + s*I, inverse) at the last root
        lam_f_k, kept = None, None

        def invert(s):
            if s == root and kept is not None:
                return kept
            shifted = lam_mat + s * eye
            return shifted, np.linalg.inv(shifted)

        def secular(s):
            pair = invert(s)
            d = pair[1].dot(lam_f_k)
            phi = math.sqrt(d.dot(d))
            return phi, -d.dot(pair[1].dot(d)) / phi, pair

        def step(x_k: np.ndarray, lam_f: np.ndarray, lam_f_sq: float):
            nonlocal lam_f_k, root, kept
            lam_f_k = lam_f
            if p == 1.0:
                # root stays at its start, the known root s = 1
                kept, evaluations = invert(root), 1
            else:
                check_finite(lam_f_sq, lam_f)
                root, kept, evaluations = _secular_root(secular, p, root)
            shifted, inverse = kept
            rhs = root * x_k - lam_offset
            x = inverse.dot(rhs)
            # one step of fixed-precision iterative refinement (Higham,
            # Accuracy and Stability of Numerical Algorithms, chapter 12)
            return x - inverse.dot(shifted.dot(x) - rhs), evaluations, root

    return step


def run_ppa(op: MonotoneOperator, x0: np.ndarray, cfg: PpaConfig) -> PpaTrace:
    """Iterate the high-order proximal step from x0 for an affine operator.

    ``run_ppa`` decides every stop, records its step, and names it in
    ``status``: ``rounding_floor`` on the zero step, which it takes itself,
    with 0 evaluations, once F(x_k) is within the rounding bound of
    M x_k + q; ``unresolved_step`` at p > 1 after a step too short for
    x_next to resolve (see the module docstring); ``step_tol`` after any
    other step no longer than ``cfg.step_tol``; ``max_iters`` after
    ``cfg.max_iters`` steps. ``_make_affine_stepper`` solves the others.

    F is evaluated and normed once per iterate, x0 included: F(x^{k+1})
    and its norm give the residual of step k and are handed to step k + 1.

    ``x0`` must have the operator's length, else ``ValueError`` is raised
    before any step. It is copied once, so the caller may reuse it; the
    steps are new arrays and are stored as returned.
    """
    mat, offset = op.affine_parts
    x = as_vector(x0)
    if x.shape != offset.shape:
        raise ValueError(f"x0 has length {x.size}, the operator {offset.size}")
    stepper = _make_affine_stepper(op, cfg)
    lam, p = cfg.lambda_ppa, cfg.p
    # |fl(M x + q) - (M x + q)| <= gamma_{n+1} (|M||x| + |q|) componentwise
    # (Higham, Accuracy and Stability of Numerical Algorithms, section 3.5),
    # and || |M||x| || <= ||M||_F ||x||
    unit = (x.size + 1) * 2.0 ** -53
    gamma = unit / (1.0 - unit)
    mat_norm, offset_norm = float(np.linalg.norm(mat)), float(np.linalg.norm(offset))
    x_star = op.known_solution
    trace = PpaTrace(iterates=[x.copy()])
    if x_star is not None:
        error = x - x_star
        trace.distances_to_solution = [math.sqrt(error.dot(error))]

    f = op.evaluate(x)
    f_norm = math.sqrt(f.dot(f))
    for _ in range(cfg.max_iters):
        t0 = time.perf_counter()
        # ||lam*F(x_k)||^2 as a Python float: 0 on underflow, inf on overflow, no warning
        lam_f_sq = (lam * f_norm) * (lam * f_norm)
        x_norm = math.sqrt(x.dot(x))
        # an F(x_k) within the rounding bound of M x_k + q has no correct digit,
        # so the exact step is indistinguishable from zero; NaN fails the test,
        # and so does an overflowed bound, which an overflowed ||F|| could meet
        if lam_f_sq == 0.0 or f_norm <= gamma * (mat_norm * x_norm + offset_norm) < math.inf:
            x_next, solves, stop = x.copy(), 0, "rounding_floor"
        else:
            x_next, solves, root = stepper(x, lam * f, lam_f_sq)
            # phi(root) = root^(1/(p-1)) <= gamma ||x_k||, in logs since the power can overflow
            bound = gamma * x_norm
            stop = "unresolved_step" if p > 1.0 and 0.0 < bound and math.log(root) <= (p - 1) * math.log(bound) else None
        elapsed_ms = (time.perf_counter() - t0) * 1e3

        f = op.evaluate(x_next)
        f_norm = math.sqrt(f.dot(f))
        step = x_next - x
        step_norm = math.sqrt(step.dot(step))
        trace.iterates.append(x_next)
        trace.step_norms.append(step_norm)
        trace.residual_norms.append(lam * f_norm)
        trace.inner_solves.append(solves)
        trace.wall_ms.append(elapsed_ms)
        if x_star is not None:
            error = x_next - x_star
            trace.distances_to_solution.append(math.sqrt(error.dot(error)))
        x = x_next
        if stop or step_norm <= cfg.step_tol:
            trace.status = stop or "step_tol"
            break
    return trace
