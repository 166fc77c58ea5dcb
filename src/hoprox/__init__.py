"""High-order proximal point and augmented Lagrangian solvers.

The proximal point iteration for monotone variational inequalities replaces
the usual linear regularizer with a power of the step norm; the matching
augmented Lagrangian method uses a power penalty and a norm-power multiplier
step. Subproblems are handled by an accelerated proximal gradient scheme
whose backtracking needs no smoothness constants.
"""

from .alm import (
    AlmConfig,
    AlmTrace,
    CompositeProblem,
    OuterRecord,
    SubsolverStalled,
    alm_x_update,
    dual_prox_oracle,
    multiplier_update,
    run_alm,
)
from .bench import ExperimentConfig, RunManifest, emit_plots, read_csv, run_sweep, write_csv
from .linalg import solve_shifted_system, spectral_norm_estimate, svd_thin
from .operators import EntryMask, MatrixMap
from .ppa import (
    MonotoneOperator,
    PpaConfig,
    PpaTrace,
    SubproblemError,
    affine_operator,
    natural_residual,
    ppa_step_affine,
    run_ppa,
)
from .problems import (
    BpInstance,
    McInstance,
    bp_composite,
    dump_instance,
    gen_bp,
    gen_mc,
    gen_vi_affine,
    load_instance,
    mc_composite,
    nuclear_norm_on_vectors,
)
from .prox import (
    ProxFunction,
    l1_norm,
    norm_power_gradient,
    singular_value_threshold,
    soft_threshold,
    zero_function,
)
from .subsolver import (
    PenaltyGradientOracle,
    SubsolverReport,
    gradient_map,
    holder_constant,
    iteration_bound,
    minimize_composite,
)

__all__ = [
    "AlmConfig",
    "AlmTrace",
    "BpInstance",
    "CompositeProblem",
    "EntryMask",
    "ExperimentConfig",
    "MatrixMap",
    "McInstance",
    "MonotoneOperator",
    "OuterRecord",
    "PenaltyGradientOracle",
    "PpaConfig",
    "PpaTrace",
    "ProxFunction",
    "RunManifest",
    "SubproblemError",
    "SubsolverReport",
    "SubsolverStalled",
    "affine_operator",
    "alm_x_update",
    "bp_composite",
    "dual_prox_oracle",
    "dump_instance",
    "emit_plots",
    "gen_bp",
    "gen_mc",
    "gen_vi_affine",
    "gradient_map",
    "holder_constant",
    "iteration_bound",
    "l1_norm",
    "load_instance",
    "mc_composite",
    "minimize_composite",
    "multiplier_update",
    "natural_residual",
    "norm_power_gradient",
    "nuclear_norm_on_vectors",
    "ppa_step_affine",
    "read_csv",
    "run_alm",
    "run_ppa",
    "run_sweep",
    "singular_value_threshold",
    "soft_threshold",
    "solve_shifted_system",
    "spectral_norm_estimate",
    "svd_thin",
    "write_csv",
    "zero_function",
]

__version__ = "0.1.0"
