"""Command-line entry point for the benchmark experiments.

Subcommands ``bp``, ``mc`` and ``vi`` run one problem family over the given
parameter lists (the full Cartesian product). Each invocation writes one CSV
per run, the residual curves as ``residuals.svg``, and a JSON manifest that
reproduces every CSV byte-for-byte. A subcommand takes only the flags its
solver reads, each parsed into the ``ExperimentConfig`` field it names.
"""

import argparse
import copy

from .bench import ExperimentConfig, emit_plots, run_sweep, sweep_failed

# The config values that differ between problem kinds, set as each
# subcommand's defaults, so an explicit flag always wins.
KIND_DEFAULTS = {
    "bp": dict(m=100, n=500, density=0.2, betas=[2.0], eps=1e-4, max_outer=1000),
    "mc": dict(m=50, n=50, density=0.1, betas=[5.0], eps=1e-4, max_outer=1000),
    "vi-affine": dict(n=20, eps=0.0, max_outer=200),
}


def _add_options(parser, alm: bool) -> None:
    """Add the flags the ALM (``alm``) or the PPA reads; each dest is an ExperimentConfig field."""
    add = parser.add_argument
    add("--n", type=int, help="columns of A / matrix, or VI dimension")
    add("--seed", dest="seeds", metavar="SEED", type=int, nargs="+", default=[0], help="instance seeds")
    add("--p", dest="p_values", metavar="P", type=float, nargs="+", default=[1.0, 2.0, 3.0], help="solver orders")
    add("--eps", type=float, help="primal residual tolerance")
    add("--max-outer", type=int)
    add("--out", dest="out_dir", metavar="OUT", default="runs", help="output directory")
    if alm:
        add("--m", type=int, help="rows of A / matrix")
        add("--density", type=float, help="nonzero density of the ground truth")
        add("--beta", dest="betas", metavar="BETA", type=float, nargs="+", help="penalty parameters")
        add("--eps-sub", dest="eps_subs", metavar="EPS_SUB", type=float, nargs="+", default=[0.1],
            help="subproblem tolerances")
        add("--max-inner", type=int, default=50_000)
        add("--dump-instance", dest="dump_instances", action="store_true", help="also write instance text files")
    else:
        add("--lam", dest="lambda_ppa", metavar="LAM", type=float, default=1.0, help="proximal parameter for VI runs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoprox",
        description="High-order proximal point / augmented Lagrangian benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, kind, help_text in (
        ("bp", "bp", "basis pursuit: min ||x||_1 s.t. Ax = b"),
        ("mc", "mc", "matrix completion: min ||X||_* s.t. observed entries match"),
        ("vi", "vi-affine", "affine monotone VI solved by the high-order proximal iteration"),
    ):
        # no prefix matching: vi's --m would otherwise parse as --max-outer
        kind_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        _add_options(kind_parser, alm=kind != "vi-affine")
        # copied, so that no config shares a list with KIND_DEFAULTS
        kind_parser.set_defaults(kind=kind, **copy.deepcopy(KIND_DEFAULTS[kind]))
    return parser


def resolve_config(argv) -> ExperimentConfig:
    """Parse CLI arguments into a validated ExperimentConfig."""
    parser = build_parser()
    fields = vars(parser.parse_args(argv))
    del fields["command"]
    cfg = ExperimentConfig(**fields)
    try:
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def main(argv=None) -> int:
    cfg = resolve_config(argv)
    manifest = run_sweep(cfg)
    emit_plots(manifest)
    for run in manifest["runs"]:
        print(f"{run['id']}: {run['status']} ({run.get('outer_iterations', '-')} outer iterations)")
    print(f"manifest: {cfg.out_dir}/manifest.json")
    if sweep_failed(manifest):
        return 1
    return 0
