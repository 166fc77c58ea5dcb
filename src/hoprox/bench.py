"""Experiment sweeps: run solvers over a parameter grid and persist traces.

Each sweep cell (seed, p, beta, eps_sub) produces one CSV with the fixed
header ``iter,r_k,dual_step_norm,inner_iters,cum_inner,objective``.
A JSON manifest written after all cells records the resolved config, the
RNG algorithm, per-run artifact paths, each run's status (for VI runs
the ``PpaTrace.status`` that says why ``run_ppa`` stopped) and final
residual and, for ALM runs, the cell's total inner iterations, prox calls,
curvature trials, certified stops and stopping tests after a step, and
suffices to regenerate every CSV byte-for-byte. Wall-clock timing is
inherently non-reproducible, so the CSVs carry none; each cell's measured
time lives in the manifest.
"""

import itertools
import json
import math
import time
import traceback
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .alm import AlmConfig, AlmTrace, OuterRecord, run_alm
from .ppa import PpaConfig, PpaTrace, run_ppa
from .problems import bp_composite, dump_instance, gen_bp, gen_mc, gen_vi_affine, mc_composite

CSV_HEADER = "iter,r_k,dual_step_norm,inner_iters,cum_inner,objective"
RNG_ALGORITHM = "numpy default_rng / PCG64"

KINDS = ("bp", "mc", "vi-affine")


@dataclass(kw_only=True)
class ExperimentConfig:
    """One sweep: a problem family and the grid of solver parameters.

    bp and mc read every field but lambda_ppa; vi-affine reads kind, n, seeds,
    p_values, eps, max_outer, out_dir and lambda_ppa. The defaults of m,
    density, betas, eps_subs and max_inner are values validate rejects for bp and mc.
    """

    kind: str
    m: int = 0
    n: int
    density: float = 0.0
    seeds: list
    p_values: list
    betas: list = field(default_factory=list)
    eps_subs: list = field(default_factory=list)
    eps: float
    max_outer: int
    max_inner: int = 0
    out_dir: str
    lambda_ppa: float = 1.0
    dump_instances: bool = False

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("seeds", "p_values") + (() if self.kind == "vi-affine" else ("betas", "eps_subs")):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a str, as the manifest records it, got {type(self.out_dir).__name__}")
        for name, value in asdict(self).items():
            try:
                json.dumps(value, default=np.generic.item)
            except TypeError:
                raise ValueError(f"{name} must be a JSON value, as the manifest records it, got {value!r}") from None
        # numpy's default_rng takes only non-negative integer seeds; a bool
        # would seed as 0 or 1 under an id of its own
        if not all(isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0
                   for seed in self.seeds):
            raise ValueError(f"seeds must be non-negative integers, got {self.seeds}")
        for name in ("n",) if self.kind == "vi-affine" else ("m", "n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.kind != "vi-affine":
            if not 0 < self.density <= 1:
                raise ValueError(f"density must be in (0, 1], got {self.density}")
            # the generators' sample count: nonzeros (bp) or observed entries (mc)
            size = self.n if self.kind == "bp" else self.m * self.n
            if int(round(self.density * size)) < 1:
                raise ValueError(f"density must leave at least one sample, but round({self.density} * {size}) = 0")
        if self.kind == "vi-affine" and self.dump_instances:
            raise ValueError("--dump-instance writes bp and mc instances only, not vi-affine")
        # _cells builds every solver config, which checks p, beta, eps_sub, eps,
        # lambda_ppa and the caps; each run id names a CSV, so a repeated id
        # would overwrite a cell's output
        run_ids = [run_id for seed in self.seeds for run_id, *_ in _cells(self, seed)]
        repeated = sorted({run_id for run_id in run_ids if run_ids.count(run_id) > 1})
        if repeated:
            raise ValueError(f"run ids must be distinct; repeated: {', '.join(repeated)}")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(trace, path, f=None) -> None:
    """Serialize a solver trace, one row per step, with 17-significant-digit decimals.

    Each row is ``(r_k, step, inner, objective)`` from the trace, preceded
    by its index ``iter`` and followed by ``cum_inner``, the running sum of
    ``inner``. An ``AlmTrace`` needs ``f``, the objective of the problem it
    solved: row k's objective is ``f.value(trace.iterates[k + 1])``. An
    x-update with no inner iteration leaves the iterate the same array, so
    its row reuses the previous row's value rather than evaluate f (an SVD
    for matrix completion) again at the same point. A ``PpaTrace`` has no
    objective; its column is written as 0.
    """
    if isinstance(trace, AlmTrace):
        if f is None:
            raise TypeError("writing an AlmTrace needs the objective f of its problem")
        rows = []
        objective = previous = None
        for rec, x in zip(trace.records, trace.iterates[1:]):
            if x is not previous:
                objective, previous = float(f.value(x)), x
            rows.append((rec.primal_residual, rec.multiplier_step_norm, rec.inner_iterations, objective))
    elif isinstance(trace, PpaTrace):
        rows = [(resid, step, solves, 0.0)
                for resid, step, solves in zip(trace.residual_norms, trace.step_norms, trace.inner_solves)]
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__}")
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        cum_inner = 0
        for k, (r_k, step, inner, objective) in enumerate(rows):
            cum_inner += inner
            fh.write(f"{k},{_fmt(r_k)},{_fmt(step)},{inner},{cum_inner},{_fmt(objective)}\n")


def read_csv(path) -> tuple[list, list]:
    """Parse a trace CSV back into ``(records, objectives)``.

    ``records`` holds one ``OuterRecord`` per row and ``objectives`` the
    row's objective column as a float, in the same order. The derived
    ``iter`` and ``cum_inner`` columns are not read.
    """
    with open(path) as fh:
        lines = [(number, line.rstrip("\n")) for number, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty; expected the CSV header {CSV_HEADER!r}")
    (_, header), *rows = lines
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header!r}")
    records, objectives = [], []
    for number, line in rows:
        try:
            _, r_k, step, inner, _, objective = line.split(",")
            records.append(OuterRecord(float(r_k), float(step), int(inner)))
            objectives.append(float(objective))
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
    return records, objectives


def _cells(cfg: ExperimentConfig, seed) -> list:
    """(run id, p, beta, eps_sub, solver config) of each cell on ``seed``; raises ValueError on a bad value.

    A vi-affine cell has no beta or eps_sub and takes a PpaConfig, the others an AlmConfig.
    """
    if cfg.kind == "vi-affine":
        return [(f"vi_seed{seed}_p{p:g}", p, None, None,
                 PpaConfig(p=p, lambda_ppa=cfg.lambda_ppa, max_iters=cfg.max_outer, step_tol=cfg.eps))
                for p in cfg.p_values]
    return [(f"{cfg.kind}_seed{seed}_p{p:g}_beta{beta:g}_esub{eps_sub:g}", p, beta, eps_sub,
             AlmConfig(p, beta, cfg.eps, eps_sub, cfg.max_outer, cfg.max_inner))
            for p, beta, eps_sub in itertools.product(cfg.p_values, cfg.betas, cfg.eps_subs)]


def run_cell(problem, solver_cfg):
    """Run a PpaConfig on its (operator, x0) pair, or an AlmConfig on its ``CompositeProblem``."""
    if isinstance(solver_cfg, PpaConfig):
        return run_ppa(*problem, solver_cfg)
    rows, cols = problem.a_map.shape
    return run_alm(problem, np.zeros(cols), np.zeros(rows), solver_cfg)


def _make_instance(cfg: ExperimentConfig, seed):
    if cfg.kind == "bp":
        return gen_bp(cfg.m, cfg.n, cfg.density, seed)
    if cfg.kind == "mc":
        return gen_mc(cfg.m, cfg.n, cfg.density, seed)
    return gen_vi_affine(cfg.n, seed)


def run_sweep(cfg: ExperimentConfig) -> dict:
    """Run the Cartesian grid of (seed, p, beta, eps_sub), persist artifacts, and return the manifest.

    The instance for a given seed, and its composite problem, is generated
    once and shared across all parameter combinations so curves are directly
    comparable. Solver failures are recorded per cell and do not abort the
    sweep. The manifest is the dict that ``manifest.json`` holds.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {"config": asdict(cfg), "rng_algorithm": RNG_ALGORITHM, "runs": []}
    sweep_start = time.perf_counter()

    for seed in cfg.seeds:
        instance = _make_instance(cfg, seed)
        if cfg.dump_instances:
            dump_instance(instance, out / f"{cfg.kind}_seed{seed}.instance.txt")
        problem = instance
        if cfg.kind != "vi-affine":
            problem = bp_composite(instance) if cfg.kind == "bp" else mc_composite(instance)

        for run_id, p, beta, eps_sub, solver_cfg in _cells(cfg, seed):
            csv_name = f"{run_id}.csv"
            entry = {
                "id": run_id,
                "csv": csv_name,
                "seed": seed,
                "p": p,
                "beta": beta,
                "eps_sub": eps_sub,
            }
            t0 = time.perf_counter()
            try:
                trace = run_cell(problem, solver_cfg)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                entry["status"] = f"failed: {exc}"
                entry["error"] = traceback.format_exc(limit=3)
                manifest["runs"].append(entry)
                continue
            entry["wall_ms_measured"] = (time.perf_counter() - t0) * 1e3
            if isinstance(trace, AlmTrace):
                entry["status"] = trace.status
                entry["outer_iterations"] = trace.outer_iterations
                # ||Ax - b|| at the last iterate, x0 itself when no x-update was accepted
                x = trace.iterates[-1]
                entry["final_residual"] = float(np.linalg.norm(problem.a_map.apply(x) - problem.b))
                # work of every x-update, a stalled last one included
                entry["inner_iterations"] = sum(rep.iterations for rep in trace.reports)
                entry["prox_calls"] = sum(rep.prox_calls for rep in trace.reports)
                entry["trials"] = sum(rep.trials for rep in trace.reports)
                entry["certified"] = sum(rep.certified for rep in trace.reports)
                entry["stop_tests"] = sum(rep.stop_tests for rep in trace.reports)
            else:
                entry["status"] = trace.status
                entry["outer_iterations"] = len(trace.step_norms)
                entry["final_residual"] = trace.residual_norms[-1]
            write_csv(trace, out / csv_name, problem.f if isinstance(trace, AlmTrace) else None)
            manifest["runs"].append(entry)

    manifest["created_utc"] = datetime.now(timezone.utc).isoformat()
    manifest["total_wall_ms"] = (time.perf_counter() - sweep_start) * 1e3
    # a numpy scalar is written as its Python number (validate checked the rest)
    text = json.dumps(manifest, indent=2, default=np.generic.item)
    (out / "manifest.json").write_text(text + "\n")
    return manifest


def sweep_failed(manifest: dict) -> bool:
    """True when any cell raised or its inner solver stalled.

    Hitting max_outer is a legitimate experimental outcome (a residual
    curve that flattens above the tolerance), not a failure.
    """
    bad = ("failed", "subsolver_stalled")
    return any(str(run.get("status", "")).startswith(bad) for run in manifest["runs"])


_PANEL_W, _PANEL_H = 480, 360
_LEFT, _TOP, _RIGHT, _BOTTOM = 48, 24, 12, 12
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def _polyline(points, color) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'


def _text(x, y, s, anchor="start") -> str:
    return f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}">{s}</text>'


def _panel(title, curves) -> list:
    """SVG elements of one panel at the origin; ``curves`` holds (label, records) pairs."""
    w, h = _PANEL_W - _LEFT - _RIGHT, _PANEL_H - _TOP - _BOTTOM
    # runs of (row index, log10 r_k): a line breaks where r_k is <= 0 or not finite, and a lone point is not drawn
    lines = []
    for _, records in curves:
        points = [(k, rec.primal_residual) for k, rec in enumerate(records)]
        runs = itertools.groupby(points, key=lambda pt: math.isfinite(pt[1]) and pt[1] > 0)
        lines.append([[(k, math.log10(r)) for k, r in run] for shown, run in runs if shown])
    logs = [log_r for segments in lines for segment in segments for _, log_r in segment]
    lo, hi = (math.floor(min(logs)), math.ceil(max(logs))) if logs else (0, 1)
    hi = max(hi, lo + 1)
    xmax = max([len(records) - 1 for _, records in curves] + [1])

    def to_y(log_r):
        return _TOP + (hi - log_r) / (hi - lo) * (h - 1)

    out = []
    # gridlines and labels on every decade, thinned so labels do not overlap
    for k in range(lo, hi + 1, math.ceil(12 * (hi - lo) / h)):
        out.append(f'<line x1="{_LEFT}" y1="{to_y(k):.1f}" x2="{_LEFT + w}" y2="{to_y(k):.1f}" stroke="#e0e0e0"/>')
        out.append(_text(2, to_y(k) + 4, f"1e{k}"))
    out.append(f'<rect x="{_LEFT}" y="{_TOP}" width="{w}" height="{h}" fill="none" stroke="black"/>')
    out.append(_text(_LEFT, _TOP + h + 10, "0"))
    out.append(_text(_LEFT + w, _TOP + h + 10, f"{xmax:g}", "end"))
    out.append(_text(_PANEL_W / 2, 16, title, "middle"))
    for i, segments in enumerate(lines):
        color = _COLORS[i % len(_COLORS)]
        out += [_polyline([(_LEFT + k / xmax * (w - 1), to_y(log_r)) for k, log_r in seg], color)
                for seg in segments if len(seg) > 1]

    # the legend keeps the rows that fit in the panel
    labels = [label for label, _ in curves][: (h - 8) // 12]
    width = 6 * max(map(len, labels)) + 28
    x, y = _LEFT + w - width - 4, _TOP + 4
    out.append(f'<rect x="{x}" y="{y}" width="{width}" height="{12 * len(labels) + 4}" fill="white"/>')
    for i, label in enumerate(labels):
        row = y + 4 + 12 * i
        out.append(_polyline([(x + 4, row + 4), (x + 20, row + 4)], _COLORS[i % len(_COLORS)]))
        out.append(_text(x + 24, row + 9, label))
    return out


def emit_plots(manifest: dict) -> Path:
    """Render the sweep's primal-residual curves to ``residuals.svg`` and return its path.

    One panel per (beta, eps_sub) combination in numeric order, two to a
    row, and one line per (p, seed), on a log-scale residual axis with
    decade gridlines. Each successful run's CSV is read once, by
    ``read_csv``. The figure is SVG text written by the standard library
    alone: no script, plotting library or numpy is involved. The figure
    goes to the directory ``manifest["config"]["out_dir"]``, where the CSVs
    are. To re-render a finished sweep, call
    ``emit_plots(json.loads(path.read_text()))`` on its ``manifest.json``.
    """
    out = Path(manifest["config"]["out_dir"])
    runs = [r for r in manifest["runs"] if not str(r.get("status", "")).startswith("failed")]
    multi_seed = len({r["seed"] for r in runs}) > 1
    panels = []
    for beta, eps_sub in sorted({(r["beta"], r["eps_sub"]) for r in runs}):
        members = sorted((r for r in runs if (r["beta"], r["eps_sub"]) == (beta, eps_sub)),
                         key=lambda r: (r["p"], r["seed"]))
        title = "step residuals" if beta is None else f"beta={beta:g}, eps_sub={eps_sub:g}"
        curves = [(f"p={r['p']:g}" + (f", seed={r['seed']}" if multi_seed else ""), read_csv(out / r["csv"])[0])
                  for r in members]
        panels.append(_panel(title, curves))

    ncols = min(2, len(panels)) or 1
    width, height = ncols * _PANEL_W, max(1, -(-len(panels) // ncols)) * _PANEL_H
    svg = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           'font-family="sans-serif" font-size="10">',
           f'<rect width="{width}" height="{height}" fill="white"/>']
    for k, elements in enumerate(panels):
        row, col = divmod(k, ncols)
        svg += [f'<g transform="translate({col * _PANEL_W},{row * _PANEL_H})">', *elements, "</g>"]
    path = out / "residuals.svg"
    path.write_text("\n".join(svg + ["</svg>"]) + "\n")
    return path
