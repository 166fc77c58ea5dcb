"""High-order proximal point and augmented Lagrangian solvers.

The proximal point iteration for monotone variational inequalities replaces
the usual linear regularizer with a power of the step norm; the matching
augmented Lagrangian method uses a power penalty and a norm-power multiplier
step. Subproblems are handled by an accelerated proximal gradient scheme
whose backtracking needs no smoothness constants.

Public API: the names in ``__all__``. Helpers stay importable from their own
modules (``hoprox.alm``, ``hoprox.prox``, ...).
"""

from .alm import AlmConfig, AlmTrace, CompositeProblem, OuterRecord, run_alm
from .bench import ExperimentConfig, emit_plots, run_sweep
from .linalg import solve_shifted_system
from .operators import EntryMask, MatrixMap
from .ppa import MonotoneOperator, PpaConfig, PpaTrace, SubproblemError, affine_operator, run_ppa
from .problems import bp_composite, gen_bp, gen_mc, gen_vi_affine, mc_composite
from .prox import ProxFunction, l1_norm
from .subsolver import PenaltyGradientOracle, SubsolverReport, minimize_composite

__all__ = [
    "AlmConfig",
    "AlmTrace",
    "CompositeProblem",
    "EntryMask",
    "ExperimentConfig",
    "MatrixMap",
    "MonotoneOperator",
    "OuterRecord",
    "PenaltyGradientOracle",
    "PpaConfig",
    "PpaTrace",
    "ProxFunction",
    "SubproblemError",
    "SubsolverReport",
    "affine_operator",
    "bp_composite",
    "emit_plots",
    "gen_bp",
    "gen_mc",
    "gen_vi_affine",
    "l1_norm",
    "mc_composite",
    "minimize_composite",
    "run_alm",
    "run_ppa",
    "run_sweep",
    "solve_shifted_system",
]

__version__ = "0.1.0"
