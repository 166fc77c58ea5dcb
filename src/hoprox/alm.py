"""High-order augmented Lagrangian method for min f(x) s.t. Ax = b.

Each outer iteration minimizes f plus a shifted power penalty of the
constraint residual (delegated to the accelerated subsolver), then moves
the multiplier along the norm-power gradient of the new residual:

    mu_next = mu + beta^(1/p) * (Ax - b) / ||Ax - b||^(1 - 1/p).

For p = 1 this is the classical method of multipliers. mu_next is the
vector whose image under A^T is the penalty gradient at the new x, so the
x-update has already formed it and hands it back in its report. The update
makes the dual optimality condition hold by construction (up to subsolver
accuracy), so the primal residual ||Ax - b|| is the stopping quantity.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_vector, check_cap
from .prox import ProxFunction
from .subsolver import PenaltyGradientOracle, minimize_composite


@dataclass(frozen=True)
class CompositeProblem:
    """The data (f, A, b) of a linearly constrained convex problem.

    ``a_map`` is any linear map with ``apply``, ``adjoint`` and ``shape``;
    nothing else of it is used.
    """

    f: ProxFunction
    a_map: object
    b: np.ndarray


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
        # the checks are written so that NaN and infinities fail them
        if not 1 <= self.p < np.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")
        for name in ("beta", "eps", "eps_sub"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        check_cap("max_outer", self.max_outer)
        check_cap("max_inner", self.max_inner)


@dataclass
class OuterRecord:
    """What one outer step measures: ||Ax - b||, the multiplier step norm and the inner iterations.

    The residual is that of the step's new iterate. The step's number is
    the record's index in ``AlmTrace.records``, and ``bench.write_csv``
    derives the running sum of inner iterations from the records. The
    objective f(x) at the iterate is not recorded: ``bench.write_csv``
    evaluates it from ``AlmTrace.iterates`` when it writes the CSV.
    """

    primal_residual: float
    multiplier_step_norm: float
    inner_iterations: int


@dataclass
class AlmTrace:
    """Full record of an ALM run.

    ``records`` holds one ``OuterRecord`` per outer step; ``iterates``,
    ``multipliers`` and ``reports`` keep the in-memory history for
    invariant checks. Of these only the objective f(``iterates[k + 1]``)
    of record k is serialized, by ``bench.write_csv``.

    Each array is held once and shared, so treat them all as read-only:
    ``iterates[k + 1]`` is ``reports[k].solution``, and it is
    ``iterates[k]`` itself when x-update k made no inner iteration;
    ``multipliers[k + 1]`` is ``reports[k].multiplier``, and it is
    ``multipliers[k]`` itself when that solution's residual is 0.
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


def run_alm(
    prob: CompositeProblem,
    x0: np.ndarray,
    multiplier0: np.ndarray,
    cfg: AlmConfig,
) -> AlmTrace:
    """Alternate x-updates and multiplier steps until ||Ax - b|| <= eps.

    Each x-update is one ``minimize_composite`` call on the penalty of the
    current multiplier, warm-started at x. A solve that does not converge
    ends the run with status ``subsolver_stalled``, its report last in
    ``trace.reports``. A tolerance met at x0 ends it with no record.

    Each x-update starts its first curvature search at the curvature the
    previous one accepted in its first iteration. That search only doubles,
    so the first-iteration curvature never falls during a run, like FISTA's
    monotone backtracking estimate. The run never evaluates f: the records
    carry no objective (see ``OuterRecord``). The residual ``Ax - b`` is
    computed once per iterate: each solve's report carries it to the next
    solve's entry. The multiplier step is the report's ``multiplier``,
    the vector the solve formed for its last gradient (see
    ``SubsolverReport``), so the run forms no other.

    At p = 1 each x-update first runs the subsolver's entry test: x often
    already meets ``eps_sub`` after a multiplier step. The report carries
    the subgradient of f at x from the solve's last accepted step, which
    stays one after the multiplier step since f and x do not change; the
    next solve tries it as a certificate before its entry prox. A solve
    with no inner iteration hands on the one it was given, and the first
    has none. At p > 1 the multiplier step beta^(1/p) r / ||r||^(1 - 1/p)
    shrinks only like ||r||^(1/p), so x almost never passes the entry test:
    each x-update skips it, saving one prox, takes at least one inner
    iteration, and hands on no subgradient. Either way stored reports hold
    None in place of the subgradient, so the trace keeps no extra vector
    per outer step.

    ``x0`` and ``multiplier0`` are copied once; every later iterate and
    multiplier is stored as computed, shared with the reports (see
    ``AlmTrace``).
    """
    x = as_vector(x0).copy()
    multiplier = as_vector(multiplier0).copy()
    trace = AlmTrace(iterates=[x], multipliers=[multiplier])

    # math.sqrt(v.dot(v)) is how np.linalg.norm computes a real vector's norm,
    # at a third of its time (0.5 against 1.6 us; numpy 2.4.6, one thread)
    z = prob.a_map.apply(x) - prob.b
    residual_norm = math.sqrt(z.dot(z))
    if residual_norm <= cfg.eps:
        trace.status = "converged"
        return trace

    curvature_hint = 1.0
    subgradient = None
    entry_test = cfg.p == 1
    for _ in range(cfg.max_outer):
        oracle = PenaltyGradientOracle(prob.a_map, prob.b, multiplier, cfg.beta, cfg.p)
        report = minimize_composite(
            oracle, prob.f, x, cfg.eps_sub, cfg.max_inner, curvature_hint, z, subgradient, entry_test
        )
        if entry_test:
            subgradient = report.subgradient
        report.subgradient = None
        trace.reports.append(report)
        if not report.converged:
            trace.status = "subsolver_stalled"
            return trace
        x, z, new_multiplier = report.solution, report.residual, report.multiplier

        residual_norm = math.sqrt(z.dot(z))
        curvature_hint = report.first_L_accepted
        step = new_multiplier - multiplier
        step_norm = math.sqrt(step.dot(step))
        trace.records.append(OuterRecord(residual_norm, step_norm, report.iterations))
        trace.iterates.append(x)
        trace.multipliers.append(new_multiplier)
        multiplier = new_multiplier
        if residual_norm <= cfg.eps:
            trace.status = "converged"
            return trace
    trace.status = "max_outer"
    return trace
