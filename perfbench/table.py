"""Per-layer table for each workload: calls, self time and share of the cell span.

Run from the repository root:

    python3 perfbench/table.py [--workloads alm-bp alm-mc] [--seeds 0 1 2]

Each workload gets one pass in which every cell is solved once plain and once
traced, as in ``run.py --trace 1 --seconds 0``. A leaf layer's self time is
its busy time. The rest of the cell span is the solver's own loop: the
``subsolver`` row for ALM cells (backtracking loop plus ALM outer loop), and
for PPA cells ``ppa.step`` (root search and shifted solves, summed from
``PpaTrace.wall_ms``) and ``ppa.loop`` (the remainder of ``run_ppa``).
"""

import argparse

import run  # first: it puts the hoprox sources on sys.path

import grid

# (row label, calls metric, self-time metric)
ALM_ROWS = (
    ("operators.apply", "operators.apply.calls", "operators.apply.ms"),
    ("operators.adjoint", "operators.adjoint.calls", "operators.adjoint.ms"),
    ("prox.prox", "prox.calls", "prox.ms"),
    ("prox.value", "prox.value_calls", "prox.value_ms"),
    ("subsolver (self)", "subsolver.inner_iters", "subsolver.self_ms"),
)
PPA_ROWS = (
    ("ppa.step", "ppa.steps", "ppa.step_ms.total"),
    ("ppa.evaluate", "ppa.evaluate.calls", "ppa.evaluate.ms"),
    ("ppa.loop (self)", "ppa.steps", "ppa.loop_ms"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=grid.WORKLOADS, default=grid.WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+", help="instance seeds (default: acceptance seeds)")
    args = parser.parse_args(argv)

    for workload in args.workloads:
        seeds = tuple(args.seeds) if args.seeds else grid.DEFAULT_SEEDS[workload]
        cells = grid.build(workload, seeds)
        grid.warm_up(cells[0])
        visits, _ = run.measure(cells, 0.0, 0, traced=True)
        records = visits.records
        m = run.per_layer(cells, records, run.generation_ms(workload, seeds), None)
        m["ppa.loop_ms"] = m["cell.ms"] - m["ppa.step_ms.total"] - m["ppa.evaluate.ms"]
        failed = sum(bool(o.failed) for rec in records for o in rec.outcomes)
        print(f"{workload}: {len(cells)} cells, seeds {list(seeds)}, cell spans {m['cell.ms']:.1f} ms, "
              f"tracing overhead {m['tracing.overhead_s']:+.3f} s (traced - plain wall_s), "
              f"{failed} failed")
        print(f"  {'layer':<20} {'count':>10} {'self_ms':>10} {'share':>7}")
        for label, calls, ms in ALM_ROWS if cells[0].kind == "alm" else PPA_ROWS:
            share = m[ms] / m["cell.ms"] if m["cell.ms"] else 0.0
            print(f"  {label:<20} {m[calls]:>10} {m[ms]:>10.1f} {share:>7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
