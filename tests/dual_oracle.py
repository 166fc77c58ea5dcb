"""Brute-force dual proximal oracle, the test reference for one ALM step.

Criterion 6 and ``TestDualProxOracle`` compare one multiplier step of
``run_alm`` with the dual proximal step this module computes by search.
"""

import numpy as np

from hoprox.alm import AlmConfig, CompositeProblem
from hoprox.linalg import as_vector


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
