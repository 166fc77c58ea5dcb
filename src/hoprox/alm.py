"""High-order augmented Lagrangian method for min f(x) s.t. Ax = b.

Each outer iteration minimizes f plus a shifted power penalty of the
constraint residual (delegated to the accelerated subsolver), then moves
the multiplier along the norm-power gradient of the new residual:

    mu_next = mu + beta^(1/p) * (Ax - b) / ||Ax - b||^(1 - 1/p).

For p = 1 this is the classical method of multipliers. The update makes the
dual optimality condition hold by construction (up to subsolver accuracy),
so the primal residual ||Ax - b|| is the stopping quantity.
"""

import logging
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .linalg import as_vector
from .prox import ProxFunction, norm_power_gradient
from .subsolver import (
    PenaltyGradientOracle,
    SubsolverReport,
    holder_constant,
    iteration_bound,
    minimize_composite,
)

logger = logging.getLogger(__name__)


class SubsolverStalled(RuntimeError):
    """The inner composite solve hit its iteration cap before reaching eps_sub."""

    def __init__(self, message: str, report: SubsolverReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class CompositeProblem:
    """The data (f, A, b) of a linearly constrained convex problem.

    ``a_map`` is any linear map with apply/adjoint/norm_estimate;
    ``optimal_value`` is an optional certified optimum for tests.
    """

    f: ProxFunction
    a_map: object
    b: np.ndarray
    optimal_value: Optional[float] = None


@dataclass(frozen=True)
class AlmConfig:
    """Order, penalty and tolerances for one ALM run."""

    p: float
    beta: float
    eps: float
    eps_sub: float
    max_outer: int
    max_inner: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("order p must be >= 1")
        if self.beta <= 0 or self.eps <= 0 or self.eps_sub <= 0:
            raise ValueError("beta, eps and eps_sub must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class OuterRecord:
    """One outer iteration's CSV-visible quantities."""

    iteration: int
    primal_residual: float
    multiplier_step_norm: float
    inner_iterations: int
    cumulative_inner: int
    objective: float
    wall_ms: float


@dataclass
class AlmTrace:
    """Full record of an ALM run.

    ``records`` holds the serializable per-iteration rows; ``iterates``,
    ``multipliers`` and ``reports`` keep the in-memory history for
    invariant checks and are not serialized.

    Each array is held once and shared, so treat them all as read-only:
    ``iterates[k + 1]`` is ``reports[k].solution``, and it is
    ``iterates[k]`` itself when x-update k made no inner iteration.
    """

    records: list = field(default_factory=list)
    status: str = "max_outer"
    iterates: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)
    reports: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def outer_iterations(self) -> int:
        return len(self.records)


def penalty_oracle(prob: CompositeProblem, multiplier: np.ndarray, cfg: AlmConfig) -> PenaltyGradientOracle:
    return PenaltyGradientOracle(prob.a_map, prob.b, multiplier, cfg.beta, cfg.p)


def alm_x_update(
    prob: CompositeProblem,
    multiplier: np.ndarray,
    x_start: np.ndarray,
    cfg: AlmConfig,
    curvature_hint: float = 1.0,
    residual: Optional[np.ndarray] = None,
):
    """Solve the penalized primal subproblem, warm-started at ``x_start``.

    ``curvature_hint`` is where the subsolver's first curvature search
    starts, and ``residual``, if known, is ``A x_start - b`` (see
    ``minimize_composite``). Returns (x_next, SubsolverReport); the report's
    ``residual`` is ``A x_next - b``.
    Raises SubsolverStalled when the inner solve cannot reach
    ``cfg.eps_sub`` within ``cfg.max_inner``.
    """
    oracle = penalty_oracle(prob, multiplier, cfg)
    report = minimize_composite(oracle, prob.f, x_start, cfg.eps_sub, cfg.max_inner, curvature_hint, residual)
    if not report.converged:
        raise SubsolverStalled(
            f"x-update stalled: grad map norm {report.final_grad_map_norm:.3e} "
            f"> {cfg.eps_sub:.3e} after {report.iterations} inner iterations",
            report,
        )
    if logger.isEnabledFor(logging.DEBUG):
        # diagnostic only: R is measured after the fact and eps is taken as
        # the gradient-map tolerance under this solver's L0/slack conventions
        m_p = holder_constant(cfg.p, cfg.beta, prob.a_map.norm_estimate())
        travelled = float(np.linalg.norm(report.solution - as_vector(x_start)))
        logger.debug(
            "x-update: %d inner iterations; worst-case bound %.3g (post-hoc R=%.3g)",
            report.iterations,
            iteration_bound(cfg.p, m_p, cfg.eps_sub, travelled),
            travelled,
        )
    return report.solution, report


def multiplier_update(multiplier: np.ndarray, residual: np.ndarray, cfg: AlmConfig) -> np.ndarray:
    """Ascend the multiplier along the norm-power gradient of the residual.

    The step norm equals beta^(1/p) * ||residual||^(1/p), and the update
    satisfies  -residual + (1/beta) * ||d||^(p-1) * d = 0  exactly, where
    d is the multiplier step.
    """
    multiplier = as_vector(multiplier)
    residual = as_vector(residual)
    return multiplier + cfg.beta ** (1.0 / cfg.p) * norm_power_gradient(residual, cfg.p)


def run_alm(
    prob: CompositeProblem,
    x0: np.ndarray,
    multiplier0: np.ndarray,
    cfg: AlmConfig,
) -> AlmTrace:
    """Alternate x-updates and multiplier steps until ||Ax - b|| <= eps.

    A tolerance already met at the starting point terminates with an empty
    record list. Inner-solver stalls are reported via ``trace.status``
    rather than raised.

    Each x-update starts its first curvature search at the curvature the
    previous one accepted in its first iteration, which gives the same
    iterates as a search from 1 whenever the subsolver's upper-bound test
    passes at every power of two above the smallest one that passes. An
    x-update with no inner iteration leaves x unchanged, so its record
    reuses the previous objective value. The residual ``Ax - b`` is computed
    once per iterate: each x-update returns it for the multiplier step and
    the next x-update's entry check.

    ``x0`` and ``multiplier0`` are copied once; every later iterate and
    multiplier is stored as computed, shared with the reports (see
    ``AlmTrace``).
    """
    x = as_vector(x0).copy()
    multiplier = as_vector(multiplier0).copy()
    trace = AlmTrace(iterates=[x], multipliers=[multiplier])

    z = prob.a_map.apply(x) - prob.b
    residual_norm = float(np.linalg.norm(z))
    if residual_norm <= cfg.eps:
        trace.status = "converged"
        return trace

    cumulative_inner = 0
    curvature_hint = 1.0
    for k in range(cfg.max_outer):
        t0 = time.perf_counter()
        try:
            x, report = alm_x_update(prob, multiplier, x, cfg, curvature_hint, z)
        except SubsolverStalled as stall:
            trace.status = "subsolver_stalled"
            trace.reports.append(stall.report)
            return trace
        z = report.residual
        new_multiplier = multiplier_update(multiplier, z, cfg)
        elapsed_ms = (time.perf_counter() - t0) * 1e3

        residual_norm = float(np.linalg.norm(z))
        cumulative_inner += report.iterations
        curvature_hint = report.first_L_accepted
        if report.iterations == 0 and trace.records:
            objective = trace.records[-1].objective
        else:
            objective = float(prob.f.value(x))
        trace.records.append(
            OuterRecord(
                iteration=k,
                primal_residual=residual_norm,
                multiplier_step_norm=float(np.linalg.norm(new_multiplier - multiplier)),
                inner_iterations=report.iterations,
                cumulative_inner=cumulative_inner,
                objective=objective,
                wall_ms=elapsed_ms,
            )
        )
        trace.iterates.append(x)
        trace.multipliers.append(new_multiplier)
        trace.reports.append(report)
        multiplier = new_multiplier
        if residual_norm <= cfg.eps:
            trace.status = "converged"
            return trace
    trace.status = "max_outer"
    return trace


def dual_prox_oracle(
    prob: CompositeProblem,
    multiplier: np.ndarray,
    cfg: AlmConfig,
    resolution: float = 1e-5,
) -> np.ndarray:
    """Brute-force the dual proximal step for an l1-objective problem.

    Minimizes  b @ u + ||u - multiplier||^(p+1) / (beta * (p+1))  over the
    dual-feasible polytope { u : ||A^T u||_inf <= 1 }. The search combines a
    dense grid on a box around the multiplier (infeasible points excluded),
    dense 1-d sweeps along every constraint face, and all constraint-pair
    vertices, each locally refined down to ``resolution``: a box grid alone
    misses face-active optima because the approach-to-face objective gain
    dominates along-face differences at any affordable spacing. Only
    available for one- or two-dimensional duals; the problem's objective
    must be the l1 norm for the feasible set to be the stated polytope.
    """
    multiplier = as_vector(multiplier)
    m = multiplier.shape[0]
    if m > 2:
        raise ValueError("dual oracle limited to m <= 2 (grid search)")
    b = as_vector(prob.b)
    beta, p = cfg.beta, cfg.p
    # slack covers rounding in vertex/face constructions; it admits points at
    # most 1e-9 outside the polytope, far below the oracle's resolution
    feas_tol = 1.0 + 1e-9

    def objective(u: np.ndarray) -> float:
        if np.max(np.abs(prob.a_map.adjoint(u))) > feas_tol:
            return np.inf
        return float(b @ u + np.linalg.norm(u - multiplier) ** (p + 1.0) / (beta * (p + 1.0)))

    def grid_minimum(center: np.ndarray, halfwidth: float, points_per_axis: int):
        axes = [np.linspace(center[i] - halfwidth, center[i] + halfwidth, points_per_axis) for i in range(m)]
        if m == 1:
            candidates = axes[0][:, None]
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            candidates = np.column_stack([g0.ravel(), g1.ravel()])
        best_val, best_u = np.inf, None
        for u in candidates:
            val = objective(u)
            if val < best_val:
                best_val, best_u = val, u
        spacing = 2.0 * halfwidth / (points_per_axis - 1)
        return best_val, best_u, spacing

    def refine_box(best_val, best_u, spacing):
        while spacing > resolution:
            val, u, spacing = grid_minimum(best_u, 2.0 * spacing, 41)
            if u is not None and val < best_val:
                best_val, best_u = val, u
        return best_val, best_u

    def line_minimum(base: np.ndarray, direction: np.ndarray, t_max: float):
        # dense 1-d sweep of u = base + t*direction, then local refinement
        ts = np.linspace(-t_max, t_max, 2001)
        values = [objective(base + t * direction) for t in ts]
        idx = int(np.argmin(values))
        best_val, best_t = values[idx], ts[idx]
        if not np.isfinite(best_val):
            return np.inf, None
        spacing = ts[1] - ts[0]
        while spacing > resolution:
            ts = np.linspace(best_t - 2.0 * spacing, best_t + 2.0 * spacing, 81)
            values = [objective(base + t * direction) for t in ts]
            idx = int(np.argmin(values))
            if values[idx] < best_val:
                best_val, best_t = values[idx], ts[idx]
            spacing = ts[1] - ts[0]
        return best_val, base + best_t * direction

    # constraint normals: row j is the j-th column of A as a vector in R^m
    a_cols = np.array([prob.a_map.adjoint(e) for e in np.eye(m)]).T
    halfwidth = max(2.0, 4.0 * beta ** (1.0 / p) * np.linalg.norm(b) ** (1.0 / p))

    best_val, best_u, spacing = grid_minimum(multiplier, halfwidth, 121)
    if best_u is None:
        raise ValueError("dual grid infeasible: no grid point satisfies ||A^T u||_inf <= 1")
    best_val, best_u = refine_box(best_val, best_u, spacing)

    candidates = []
    if m == 1:
        for a_j in a_cols:
            if abs(a_j[0]) > 1e-14:
                candidates.extend([np.array([s / a_j[0]]) for s in (-1.0, 1.0)])
    else:
        t_max = halfwidth + np.linalg.norm(multiplier) + 1.0
        for a_j in a_cols:
            norm_sq = float(a_j @ a_j)
            if norm_sq < 1e-28:
                continue
            tangent = np.array([-a_j[1], a_j[0]]) / np.sqrt(norm_sq)
            for sign in (-1.0, 1.0):
                val, u = line_minimum(sign * a_j / norm_sq, tangent, t_max)
                if u is not None and val < best_val:
                    best_val, best_u = val, u
        for i in range(len(a_cols)):
            for j in range(i + 1, len(a_cols)):
                mat = np.vstack([a_cols[i], a_cols[j]])
                if abs(np.linalg.det(mat)) < 1e-12:
                    continue
                for s_i in (-1.0, 1.0):
                    for s_j in (-1.0, 1.0):
                        candidates.append(np.linalg.solve(mat, np.array([s_i, s_j])))
    for u in candidates:
        val = objective(u)
        if val < best_val:
            best_val, best_u = val, u
    return np.asarray(best_u, dtype=float)
