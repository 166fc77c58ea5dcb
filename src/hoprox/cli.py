"""Command-line entry point for the benchmark experiments.

Subcommands ``bp``, ``mc`` and ``vi`` run one problem family over the given
parameter lists (the full Cartesian product). Each invocation writes one CSV
per run, the residual curves as ``residuals.svg``, and a JSON manifest that
reproduces every CSV byte-for-byte.
"""

import argparse

from .bench import ExperimentConfig, emit_plots, run_sweep, sweep_failed

# Defaults of the options that differ between problem kinds; the options
# parse to None and take these once the subcommand names the kind, so an
# explicit flag always wins.
KIND_DEFAULTS = {
    "bp": dict(m=100, n=500, density=0.2, beta=[2.0], eps=1e-4, max_outer=1000),
    "mc": dict(m=50, n=50, density=0.1, beta=[5.0], eps=1e-4, max_outer=1000),
    "vi-affine": dict(m=20, n=20, density=1.0, beta=[2.0], eps=0.0, max_outer=200),
}


def _add_common(parser):
    parser.add_argument("--m", type=int, help="rows of A / matrix")
    parser.add_argument("--n", type=int, help="columns of A / matrix, or VI dimension")
    parser.add_argument("--density", type=float, help="nonzero density of the ground truth")
    parser.add_argument("--seed", type=int, nargs="+", default=[0], help="instance seeds")
    parser.add_argument("--p", type=float, nargs="+", default=[1.0, 2.0, 3.0], help="solver orders")
    parser.add_argument("--beta", type=float, nargs="+", help="penalty parameters")
    parser.add_argument("--eps-sub", type=float, nargs="+", default=[0.1], help="subproblem tolerances")
    parser.add_argument("--eps", type=float, help="primal residual tolerance")
    parser.add_argument("--max-outer", type=int)
    parser.add_argument("--max-inner", type=int, default=50_000)
    parser.add_argument("--lam", type=float, default=1.0, help="proximal parameter for VI runs")
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--dump-instance", action="store_true", help="also write instance text files")


def _config_from(args, kind) -> ExperimentConfig:
    return ExperimentConfig(
        kind=kind,
        m=args.m,
        n=args.n,
        density=args.density,
        seeds=args.seed,
        p_values=args.p,
        betas=args.beta,
        eps_subs=args.eps_sub,
        eps=args.eps,
        max_outer=args.max_outer,
        max_inner=args.max_inner,
        out_dir=args.out,
        lambda_ppa=args.lam,
        dump_instances=args.dump_instance,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoprox",
        description="High-order proximal point / augmented Lagrangian benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, help_text in (
        ("bp", "basis pursuit: min ||x||_1 s.t. Ax = b"),
        ("mc", "matrix completion: min ||X||_* s.t. observed entries match"),
        ("vi", "affine monotone VI solved by the high-order proximal iteration"),
    ):
        _add_common(sub.add_parser(kind, help=help_text))
    return parser


def resolve_config(argv) -> ExperimentConfig:
    """Parse CLI arguments into a validated ExperimentConfig."""
    parser = build_parser()
    args = parser.parse_args(argv)

    kind = "vi-affine" if args.command == "vi" else args.command
    for name, default in KIND_DEFAULTS[kind].items():
        if getattr(args, name) is None:
            setattr(args, name, list(default) if isinstance(default, list) else default)

    cfg = _config_from(args, kind)
    try:
        cfg.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def main(argv=None) -> int:
    cfg = resolve_config(argv)
    manifest = run_sweep(cfg)
    emit_plots(manifest)
    for run in manifest.runs:
        print(f"{run['id']}: {run['status']} ({run.get('outer_iterations', '-')} outer iterations)")
    print(f"manifest: {cfg.out_dir}/manifest.json")
    if sweep_failed(manifest):
        return 1
    return 0
