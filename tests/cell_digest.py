"""One sha256 per benchmark cell over the solver output a bitwise-identity claim covers.

A cell's digest covers:
- PPA: the iterate bytes; the step, residual and distance lists as float
  hex; and ``inner_solves``.
- ALM: the status; each record with its index k and the running sum of
  inner iterations, floats as hex, and with the objective
  f(``iterates[k + 1]``) that the CSV writes; the iterate and multiplier
  bytes; and, per report, ``iterations``, ``first_L_accepted``,
  ``prox_calls``, ``trials``, ``certified``, ``converged`` and
  ``final_grad_map_norm``.

The file also records each cell's step count (PPA) or outer-step count
(ALM), and each PPA cell's evaluation total (the sum of ``inner_solves``),
so that a differing cell shows how its run length and root-search work
moved. For each ALM cell it records a results-only digest, the full one
without the reports' ``prox_calls``, and the cell's prox-call total, so
that a change which only saves prox calls shows as such.

Run from the repository root, once on each of two checkouts:

    python tests/cell_digest.py --write before.json
    python tests/cell_digest.py --compare before.json
    python tests/cell_digest.py --workloads alm-bp --seeds 5 6 7 8 9 --write bp.json

The cells are those of ``perfbench/grid.py`` (built by ``grid.build`` and
solved by ``grid.solve``) on its default seeds, or on ``--seeds`` for every
workload named. ``--compare`` reruns the workloads and seeds the file names,
prints each cell whose digest differs (with both counts, as in
``ppa-sym/s0-p2: 14 → 14 steps, 52 → 37 evaluations``, when the file has
them), or that only one side has, and exits 1 if any does. An ALM cell
whose results digests are equal prints as
``alm-mc/s0-p2-esub0.1: results equal, 1,247 → 747 prox calls``.

Bitwise results depend on numpy, its BLAS, the BLAS thread count and the CPU
features numpy dispatches on, so the file records them; digests from another
environment are reported as not comparable (exit 2) rather than compared.
Like the benchmark, the script runs the BLAS on one thread.
"""

import os

# one BLAS thread, as perfbench/run.py runs; it must be set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import grid  # noqa: E402


def _update(h, *parts) -> None:
    """Feed each part, length-prefixed, so that no two part lists hash alike."""
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little") + data)


def _hex(values) -> str:
    return "None" if values is None else ",".join(float(v).hex() for v in values)


def _arrays(h, arrays) -> None:
    _update(h, len(arrays))
    for array in arrays:
        _update(h, str(array.dtype), array.shape, np.ascontiguousarray(array).tobytes())


def digest(kind: str, trace, f=None, prox_calls=True) -> str:
    """The sha256 of a ``PpaTrace`` (kind "ppa") or of an ``AlmTrace`` (kind "alm") with its objective ``f``.

    With ``prox_calls`` false an ALM digest leaves out the reports'
    ``prox_calls``: it is then the digest of the results alone.
    """
    h = hashlib.sha256()
    _update(h, kind)
    if kind == "ppa":
        _arrays(h, trace.iterates)
        _update(h, _hex(trace.step_norms), _hex(trace.residual_norms), _hex(trace.distances_to_solution))
        _update(h, trace.inner_solves)
    else:
        _update(h, trace.status, len(trace.records))
        cumulative_inner = 0
        for k, (rec, x) in enumerate(zip(trace.records, trace.iterates[1:])):
            cumulative_inner += rec.inner_iterations
            _update(h, k, rec.inner_iterations, cumulative_inner)
            _update(h, _hex([rec.primal_residual, rec.multiplier_step_norm, f.value(x)]))
        _arrays(h, trace.iterates)
        _arrays(h, trace.multipliers)
        _update(h, len(trace.reports))
        for rep in trace.reports:
            _update(h, rep.iterations, rep.prox_calls if prox_calls else None, rep.trials, rep.certified, rep.converged)
            _update(h, _hex([rep.first_L_accepted, rep.final_grad_map_norm]))
    return h.hexdigest()


def _blas_threads():
    """Threads numpy's OpenBLAS reports, or None when it cannot be asked."""
    for path in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    """What the bitwise results depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "simd": config["SIMD Extensions"]["found"],
        "machine": platform.machine(),
    }


def cell_digests(workloads, seeds=None, evaluations=None, results=None) -> tuple[dict, dict]:
    """({"workload/cell": digest}, {"workload/cell": count}) over ``perfbench/grid.py``'s cells.

    The cells are those of the grid's default seeds or of ``seeds``; a
    cell's count is its run's steps (PPA) or outer steps (ALM). When
    ``evaluations`` is a dict, each PPA cell's evaluation total is stored
    in it under the cell's name. When ``results`` is a dict, each ALM cell's
    ``{"digest": results-only digest, "prox_calls": total}`` is.
    """
    digests, counts = {}, {}
    for workload in workloads:
        for cell in grid.build(workload, grid.DEFAULT_SEEDS[workload] if seeds is None else seeds):
            f = cell.problem.f if cell.kind == "alm" else None
            trace = grid.solve(cell)
            name = f"{workload}/{cell.name}"
            digests[name] = digest(cell.kind, trace, f)
            counts[name] = len(trace.step_norms) if cell.kind == "ppa" else trace.outer_iterations
            if cell.kind == "ppa" and evaluations is not None:
                evaluations[name] = int(sum(trace.inner_solves))
            if cell.kind == "alm" and results is not None:
                results[name] = {"digest": digest(cell.kind, trace, f, prox_calls=False),
                                 "prox_calls": sum(rep.prox_calls for rep in trace.reports)}
    return digests, counts


def compare(before: dict, after: dict, counts_before=None, counts_after=None,
            evaluations_before=None, evaluations_after=None, results_before=None, results_after=None) -> list:
    """Lines naming each cell whose digest differs, or that only one side has.

    A differing cell that both ``results_before`` and ``results_after`` hold
    with equal results digests is named as equal in results, with both its
    prox-call totals. Any other differing cell that both ``counts_before``
    and ``counts_after`` hold is named with both its counts, with both its
    evaluation totals when ``evaluations_before`` and ``evaluations_after``
    hold it too, and with both its prox-call totals when the results do.
    """
    counts_before, counts_after = counts_before or {}, counts_after or {}
    evaluations_before, evaluations_after = evaluations_before or {}, evaluations_after or {}
    results_before, results_after = results_before or {}, results_after or {}
    lines = []
    for name in sorted(before.keys() | after.keys()):
        if name not in after or name not in before:
            lines.append(f"{name}: only in {'the file' if name in before else 'this run'}")
        elif before[name] != after[name]:
            prox = None
            if name in results_before and name in results_after:
                old, new = results_before[name], results_after[name]
                prox = f"{old['prox_calls']:,} → {new['prox_calls']:,} prox calls"
                if old["digest"] == new["digest"]:
                    lines.append(f"{name}: results equal, {prox}")
                    continue
            if name in counts_before and name in counts_after:
                unit = "steps" if name.startswith("ppa") else "outer steps"
                line = f"{name}: {counts_before[name]} → {counts_after[name]} {unit}"
                if name in evaluations_before and name in evaluations_after:
                    line += f", {evaluations_before[name]} → {evaluations_after[name]} evaluations"
                if prox is not None:
                    line += f", {prox}"
                lines.append(line)
            else:
                lines.append(f"{name}: {before[name][:12]} != {after[name][:12]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=grid.WORKLOADS, default=list(grid.WORKLOADS),
                        help="workloads to write (default: all four)")
    parser.add_argument("--seeds", type=int, nargs="+", help="seeds to write for every workload (default: the grid's)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="PATH", help="write the digests to PATH")
    mode.add_argument("--compare", metavar="PATH", help="compare the digests with those written to PATH")
    args = parser.parse_args(argv)

    env = environment()
    evaluations, results = {}, {}
    if args.write:
        digests, counts = cell_digests(args.workloads, args.seeds, evaluations, results)
        record = {"environment": env, "workloads": args.workloads, "seeds": args.seeds,
                  "cells": digests, "counts": counts, "evaluations": evaluations, "results": results}
        Path(args.write).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {len(digests)} cell digests to {args.write}")
        return 0
    recorded = json.loads(Path(args.compare).read_text())
    if recorded["environment"] != env:
        print(f"not comparable: {args.compare} comes from {recorded['environment']}, this run from {env}")
        return 2
    digests, counts = cell_digests(recorded["workloads"], recorded["seeds"], evaluations, results)
    # files written before counts, evaluation totals or results digests were recorded have none
    differing = compare(recorded["cells"], digests, recorded.get("counts"), counts,
                        recorded.get("evaluations"), evaluations, recorded.get("results"), results)
    for line in differing:
        print(line)
    equal = sum(recorded["cells"].get(name) == value for name, value in digests.items())
    print(f"{equal} of {len(recorded['cells'])} cells equal")
    if "results" in recorded:
        in_results = equal + sum(": results equal, " in line for line in differing)
        print(f"{in_results} of {len(recorded['cells'])} cells equal in results")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
