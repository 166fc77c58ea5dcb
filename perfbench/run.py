"""Benchmark of the hoprox solvers: time to solution end to end, oracle counts per layer.

Run from the repository root:

    python3 perfbench/run.py --workload alm-bp --seed 3 --seconds 20 --trace 0

A run builds the workload's instances from ``--seeds`` (default: the
acceptance-suite seeds), then solves the grid's cells again and again, in an
order shuffled by ``--seed``, until ``--seconds`` have passed and at least
one full pass is done. Every solver output is checked (see ``grid.check``).

Every time is reported at reference speed (see ``refclock``): the shared
host's speed swings by up to 1.6x within minutes, and rescaling each solve
by a fixed numpy kernel timed around it keeps the figures comparable.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with nothing wrapped, and prints the per-cell solve-time percentiles
``run_ms.p50``/``run_ms.p90`` beside them (they spread too much between
runs to carry a bound). ``--trace 1`` solves each visited cell twice, once
plain and once with its ``a_map``, ``ProxFunction`` or ``evaluate`` wrapped
in spans, and reports the per-layer metrics: per-pass oracle counts (which
must repeat exactly, and match ``grid.FINGERPRINT`` on the default seeds),
per-layer busy time, and the tracing overhead (traced minus plain wall_s).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above it
give every metric with its unit, the failures and the environment; the same
record, with per-cell detail, is written under ``perfbench/out/``.
"""

import os

# One BLAS thread: the 2-vCPU host is shared and small kernels slow down
# with more threads. It must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5

if not (SRC / "hoprox" / "__init__.py").is_file():
    raise SystemExit(f"error: no hoprox sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import grid  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402

# Times importing hoprox plus building the workload in a fresh interpreter,
# then the reference kernel there; prints both in seconds.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import hoprox
import grid
grid.build(sys.argv[1], [int(s) for s in sys.argv[2:]])
elapsed = time.perf_counter() - t0
import refclock
clock = refclock.RefClock()
print(elapsed, sorted(clock.sample() for _ in range(3))[1])
"""


@dataclass
class CellRecord:
    """Everything one run measured on one cell, one entry per visit.

    Times are at reference speed (see refclock) except ``raw_ms``.
    """

    plain_ms: list = field(default_factory=list)
    raw_ms: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)  # per traced visit: each PPA step's ms


class Visits:
    """Solves and checks cells; a reference-kernel sample follows every solve."""

    def __init__(self, cells, traced: bool):
        self.cells = cells
        self.records = [CellRecord() for _ in cells]
        self.tracer = tracing.Tracer() if traced else None
        self.clock = refclock.RefClock()

    def plain(self, i: int) -> None:
        cell, rec = self.cells[i], self.records[i]
        t0 = time.perf_counter()
        try:
            trace = grid.solve(cell)
        except Exception as exc:  # noqa: BLE001 - a raising cell is counted as failed
            trace = exc
        raw_ms = (time.perf_counter() - t0) * 1e3
        rec.raw_ms.append(raw_ms)
        rec.plain_ms.append(raw_ms * self.clock.factor())
        failed = isinstance(trace, Exception)
        rec.outcomes.append(grid.raised(cell, trace) if failed else grid.check(cell, trace))

    def traced(self, i: int) -> None:
        cell, rec, tracer = self.cells[i], self.records[i], self.tracer
        try:
            trace, layers = tracer.run_cell(i, lambda: grid.solve(cell, tracer.wrap(cell.problem)))
        except Exception as exc:  # noqa: BLE001 - a raising cell is counted as failed
            self.clock.factor()
            rec.outcomes.append(grid.raised(cell, exc))
            return
        factor = self.clock.factor()
        rec.layers.append({name: (calls, ms * factor) for name, (calls, ms) in layers.items()})
        if cell.kind == "ppa":
            rec.step_ms.append([ms * factor for ms in trace.wall_ms])
        rec.outcomes.append(grid.check(cell, trace))


def measure(cells, seconds: float, order_seed: int, traced: bool):
    """Visit cells in shuffled passes until ``seconds`` are up and one pass is done.

    A traced run solves each visited cell plain and traced, in random order.
    Returns the visits and the number of full passes.
    """
    rng = np.random.default_rng(order_seed)
    visits = Visits(cells, traced)
    start = time.perf_counter()
    passes = 0
    while True:
        for i in rng.permutation(len(cells)):
            if passes and time.perf_counter() - start >= seconds:
                return visits, passes
            solves = [visits.plain, visits.traced] if traced else [visits.plain]
            rng.shuffle(solves)
            for solve in solves:
                solve(i)
        passes += 1


def _median_sum(values_per_cell) -> float:
    return float(sum(statistics.median(v) for v in values_per_cell if v))


def end_to_end(cells, records, setup_s: float) -> dict:
    """End-to-end figures of one pass; a cell's time is its median over visits.

    ``run_ms.*`` are percentiles over the grid's cells of those medians:
    taking each cell's median first keeps one noisy visit of the cell next
    to the percentile from moving it.
    """
    cell_ms = [statistics.median(rec.plain_ms) for rec in records]
    first = [rec.outcomes[0] for rec in records]
    p50, p90 = np.percentile(cell_ms, [50, 90])
    return {
        "wall_s": sum(cell_ms) / 1e3,
        "run_ms.p50": float(p50),
        "run_ms.p90": float(p90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_frac": sum(o.converged for o in first) / len(cells),
        "outer_iters": float(sum(o.outer_iters for o in first)),
    }


def per_layer(cells, records, gen_ms: float, fingerprint) -> dict:
    """Per-pass layer figures: counts of one traced visit, medians of busy times."""
    traced = [rec for rec in records if rec.layers]
    counts = {}
    for rec in traced:
        for key, value in rec.outcomes[0].counts.items():
            counts[key] = counts.get(key, 0) + value
        for layer, (calls, _) in rec.layers[0].items():
            counts[layer] = counts.get(layer, 0) + calls

    def busy(layer):
        return _median_sum([v[layer][1] for v in rec.layers] for rec in traced)

    def children(v):
        return sum(v[name][1] for name in tracing.LAYERS if name != tracing.CELL)

    apply_calls = counts.get("operators.apply", 0)
    prox_calls = counts.get("prox.prox", 0)
    inner = counts.get("subsolver.inner_iters", 0)
    trials = prox_calls - inner - counts.get("subsolver.x_updates", 0)
    steps = counts.get("ppa.steps", 0)
    solves = counts.get("ppa.shifted_solves", 0)
    step_ms = np.concatenate([ms for rec in traced for ms in rec.step_ms]) if steps else np.zeros(1)
    alm_cells = [rec for rec, cell in zip(records, cells) if cell.kind == "alm" and rec.layers]
    metrics = {
        "operators.apply.calls": apply_calls,
        "operators.apply.ms": busy("operators.apply"),
        "operators.adjoint.calls": counts.get("operators.adjoint", 0),
        "operators.adjoint.ms": busy("operators.adjoint"),
        "prox.calls": prox_calls,
        "prox.ms": busy("prox.prox"),
        "prox.value_calls": counts.get("prox.value", 0),
        "prox.value_ms": busy("prox.value"),
        "subsolver.inner_iters": inner,
        "subsolver.trials": trials,
        "subsolver.accept_ratio": inner / trials if trials else 0.0,
        "subsolver.applies_per_iter": apply_calls / inner if inner else 0.0,
        "subsolver.self_ms": _median_sum(
            [v[tracing.CELL][1] - children(v) for v in rec.layers] for rec in alm_cells
        ),
        "alm.outer_iters": counts.get("alm.outer_iters", 0),
        "alm.low_inner_outer": counts.get("alm.low_inner_outer", 0),
        "ppa.steps": steps,
        "ppa.shifted_solves": solves,
        "ppa.solves_per_step": solves / steps if steps else 0.0,
        "ppa.step_ms.p50": float(np.percentile(step_ms, 50)),
        "ppa.step_ms.p90": float(np.percentile(step_ms, 90)),
        "ppa.step_ms.total": _median_sum([sum(ms) for ms in rec.step_ms] for rec in traced),
        "ppa.evaluate.calls": counts.get("ppa.evaluate", 0),
        "ppa.evaluate.ms": busy("ppa.evaluate"),
        "problems.gen_ms": gen_ms,
        "cell.ms": busy(tracing.CELL),
        "tracing.overhead_s": (busy(tracing.CELL) - _median_sum(rec.plain_ms for rec in traced)) / 1e3,
        "counts.drift": sum(_drifted(rec) for rec in records),
    }
    metrics["counts.fingerprint_mismatch"] = sum(
        metrics[key] != expected for key, expected in (fingerprint or {}).items()
    )
    return metrics


def _drifted(rec: CellRecord) -> bool:
    """True when a cell's deterministic counts differ between visits."""
    counts = {json.dumps(o.counts, sort_keys=True) for o in rec.outcomes if not o.failed}
    calls = {tuple(calls for calls, _ in v.values()) for v in rec.layers}
    return len(counts) > 1 or len(calls) > 1


def setup_seconds(workload: str, seeds) -> float:
    """Median over fresh interpreters of importing hoprox plus building the instances.

    Each probe's time is taken to reference speed with the kernel timed in
    the same interpreter right after.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(HERE)])}
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, workload, *map(str, seeds)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, ref = map(float, done.stdout.split())
        samples.append(elapsed * refclock.REF_S / ref)
    return statistics.median(samples)


def generation_ms(workload: str, seeds) -> float:
    """Median in-process instance generation time, at reference speed."""
    clock = refclock.RefClock()
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        grid.build(workload, seeds)
        samples.append((time.perf_counter() - t0) * 1e3 * clock.factor())
    return statistics.median(samples)


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    for libdir in ("numpy.libs", "scipy.libs"):
        for path in glob.glob(str(Path(np.__file__).parent.parent / libdir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    return getter()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def environment(seeds, order_seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seeds": list(seeds),
        "order_seed": order_seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=grid.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="seed of the cell visiting order")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seeds", type=int, nargs="+", help="instance seeds (default: acceptance seeds)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = tuple(args.seeds) if args.seeds else grid.DEFAULT_SEEDS[args.workload]
    fingerprint = grid.FINGERPRINT[args.workload] if seeds == grid.DEFAULT_SEEDS[args.workload] else None

    setup_s = None if args.trace else setup_seconds(args.workload, seeds)
    gen_ms = generation_ms(args.workload, seeds) if args.trace else None
    cells = grid.build(args.workload, seeds)
    grid.warm_up(cells[0])
    visits, passes = measure(cells, args.seconds, args.seed, bool(args.trace))
    records = visits.records

    if args.trace:
        computed = per_layer(cells, records, gen_ms, fingerprint)
        declared = spec["per_layer"]
    else:
        computed = end_to_end(cells, records, setup_s)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}
    computed["raw.wall_s"] = _median_sum(rec.raw_ms for rec in records) / 1e3
    computed["ref.median_ms"] = statistics.median(visits.clock.samples) * 1e3
    outcomes = [o for rec in records for o in rec.outcomes]
    failures = [(cell.name, o.failed) for cell, rec in zip(cells, records) for o in rec.outcomes if o.failed]
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    env = environment(seeds, args.seed)

    print(f"workload {args.workload}: {len(cells)} cells, seeds {list(seeds)}, "
          f"{passes} full passes, {len(outcomes)} cell solves, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  run_ms.p50 {computed['run_ms.p50']:.6g} ms, run_ms.p90 {computed['run_ms.p90']:.6g} ms "
              f"(over the {len(cells)} cells' median solve times)")
    print(f"  failed_frac {len(failures) / len(outcomes):.4g} ({len(failures)} of {len(outcomes)} cell solves)")
    print(f"  times are at reference speed: reference kernel median {computed['ref.median_ms']:.2f} ms "
          f"against {refclock.REF_S * 1e3:g} ms; unscaled pass time {computed['raw.wall_s']:.4g} s")
    for name, reason in failures[:20]:
        print(f"  FAILED {name}: {reason}")
    if args.trace:
        if fingerprint is None:
            print("  fingerprint: none recorded for these seeds")
        for key, expected in (fingerprint or {}).items():
            status = "ok" if computed[key] == expected else "MISMATCH"
            print(f"  fingerprint {key}: {computed[key]} (recorded {expected}) {status}")
        if computed["counts.drift"]:
            print(f"  DRIFT: {computed['counts.drift']} cells changed their counts between visits")
    print("  env " + json.dumps(env))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        **result,
        "workload": args.workload,
        "environment": env,
        "all_metrics": computed,
        "failures": failures,
        "cells": [
            {
                "name": cell.name,
                "converged": rec.outcomes[0].converged,
                "outer_iters": rec.outcomes[0].outer_iters,
                "counts": rec.outcomes[0].counts,
                "plain_ms": rec.plain_ms,
                "raw_ms": rec.raw_ms,
            }
            for cell, rec in zip(cells, records)
        ],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if visits.tracer is not None:
        visits.tracer.save(OUT / f"spans-{args.workload}.npz", [cell.name for cell in cells])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
