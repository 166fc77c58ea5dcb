"""Experiment sweeps: run solvers over a parameter grid and persist traces.

Each sweep cell (seed, p, beta, eps_sub) produces one CSV with the fixed
header ``iter,r_k,dual_step_norm,inner_iters,cum_inner,objective,wall_ms``.
A JSON manifest written after all cells records the resolved config, the
RNG algorithm, per-run artifact paths and, for ALM runs, the cell's total
inner iterations, prox calls, curvature trials and certified stops, and
suffices to regenerate every CSV byte-for-byte. Wall-clock timing is
inherently non-reproducible, so persisted CSVs carry a zeroed wall_ms
column; measured timings live in the trace and the manifest's metadata.
"""

import itertools
import json
import time
import traceback
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .alm import AlmConfig, AlmTrace, OuterRecord, run_alm
from .ppa import PpaConfig, PpaTrace, run_ppa
from .problems import bp_composite, dump_instance, gen_bp, gen_mc, gen_vi_affine, mc_composite

CSV_HEADER = "iter,r_k,dual_step_norm,inner_iters,cum_inner,objective,wall_ms"
RNG_ALGORITHM = "numpy default_rng / PCG64"

KINDS = ("bp", "mc", "vi-affine")


@dataclass
class ExperimentConfig:
    """One sweep: a problem family and the grid of solver parameters."""

    kind: str
    m: int
    n: int
    density: float
    seeds: list
    p_values: list
    betas: list
    eps_subs: list
    eps: float
    max_outer: int
    max_inner: int
    out_dir: str
    lambda_ppa: float = 1.0
    dump_instances: bool = False

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("seeds", "p_values", "betas", "eps_subs"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        # numpy's default_rng takes only non-negative integer seeds
        if not all(isinstance(seed, (int, np.integer)) and seed >= 0 for seed in self.seeds):
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
        # the solver configs check p, beta, eps_sub, eps, lambda_ppa and the caps
        for cell in _grid(self):
            _solver_config(self, *cell)
        # each run id names a CSV, so a repeated id would overwrite a cell's output
        run_ids = [_run_id(self.kind, seed, *cell) for seed in self.seeds for cell in _grid(self)]
        repeated = sorted({run_id for run_id in run_ids if run_ids.count(run_id) > 1})
        if repeated:
            raise ValueError(f"run ids must be distinct; repeated: {', '.join(repeated)}")


@dataclass
class RunManifest:
    """Resolved sweep description plus per-run artifact bookkeeping."""

    config: dict
    rng_algorithm: str = RNG_ALGORITHM
    runs: list = field(default_factory=list)
    created_utc: str = ""
    total_wall_ms: float = 0.0

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2)
            fh.write("\n")

    @staticmethod
    def load(path) -> "RunManifest":
        with open(path) as fh:
            raw = json.load(fh)
        return RunManifest(**raw)


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(trace, path, f=None) -> None:
    """Serialize a solver trace with 17-significant-digit decimals and every wall_ms written as 0.

    An ``AlmTrace`` needs ``f``, the objective of the problem it solved: row
    k's objective is ``f.value(trace.iterates[k + 1])``. An x-update with no
    inner iteration leaves the iterate the same array, so its row reuses
    the previous row's value rather than evaluate f (an SVD for matrix
    completion) again at the same point. A ``PpaTrace`` has no objective;
    its column is written as 0.
    """
    rows = []
    if isinstance(trace, AlmTrace):
        if f is None:
            raise TypeError("writing an AlmTrace needs the objective f of its problem")
        objective = previous = None
        for rec, x in zip(trace.records, trace.iterates[1:]):
            if x is not previous:
                objective, previous = float(f.value(x)), x
            rows.append(
                f"{rec.iteration},{_fmt(rec.primal_residual)},{_fmt(rec.multiplier_step_norm)},"
                f"{rec.inner_iterations},{rec.cumulative_inner},{_fmt(objective)},0"
            )
    elif isinstance(trace, PpaTrace):
        # VI runs have no objective function; that column is written as 0
        cum = 0
        for k, (step, resid, solves) in enumerate(zip(trace.step_norms, trace.residual_norms, trace.inner_solves)):
            cum += solves
            rows.append(f"{k},{_fmt(resid)},{_fmt(step)},{solves},{cum},{_fmt(0.0)},0")
    else:
        raise TypeError(f"cannot serialize {type(trace).__name__}")
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")


def read_csv(path) -> tuple[list, list]:
    """Parse a trace CSV back into ``(records, objectives)``.

    ``records`` holds one ``OuterRecord`` per row and ``objectives`` the
    row's objective column as a float, in the same order.
    """
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {lines[0]!r}")
    records, objectives = [], []
    for line in lines[1:]:
        it, r_k, step, inner, cum, obj, wall = line.split(",")
        records.append(
            OuterRecord(
                iteration=int(it),
                primal_residual=float(r_k),
                multiplier_step_norm=float(step),
                inner_iterations=int(inner),
                cumulative_inner=int(cum),
                wall_ms=float(wall),
            )
        )
        objectives.append(float(obj))
    return records, objectives


def _run_id(kind: str, seed, p, beta, eps_sub) -> str:
    if kind == "vi-affine":
        return f"vi_seed{seed}_p{p:g}"
    return f"{kind}_seed{seed}_p{p:g}_beta{beta:g}_esub{eps_sub:g}"


def _grid(cfg: ExperimentConfig) -> list:
    """The (p, beta, eps_sub) cells run on each seed; vi-affine cells have no beta or eps_sub."""
    if cfg.kind == "vi-affine":
        return [(p, None, None) for p in cfg.p_values]
    return list(itertools.product(cfg.p_values, cfg.betas, cfg.eps_subs))


def _solver_config(cfg: ExperimentConfig, p, beta, eps_sub):
    """The PpaConfig (vi-affine) or AlmConfig of one cell; raises ValueError on a bad value."""
    if cfg.kind == "vi-affine":
        return PpaConfig(p=p, lambda_ppa=cfg.lambda_ppa, max_iters=cfg.max_outer, step_tol=cfg.eps)
    return AlmConfig(p, beta, cfg.eps, eps_sub, cfg.max_outer, cfg.max_inner)


def run_cell(cfg: ExperimentConfig, problem, p, beta, eps_sub):
    """Run one cell on its ``CompositeProblem`` (ALM) or (operator, x0) pair (vi-affine)."""
    solver_cfg = _solver_config(cfg, p, beta, eps_sub)
    if cfg.kind == "vi-affine":
        op, x0 = problem
        return run_ppa(op, x0, solver_cfg)
    rows, cols = problem.a_map.shape
    return run_alm(problem, np.zeros(cols), np.zeros(rows), solver_cfg)


def _make_instance(cfg: ExperimentConfig, seed):
    if cfg.kind == "bp":
        return gen_bp(cfg.m, cfg.n, cfg.density, seed)
    if cfg.kind == "mc":
        return gen_mc(cfg.m, cfg.n, cfg.density, seed)
    return gen_vi_affine(cfg.n, seed)


def run_sweep(cfg: ExperimentConfig) -> RunManifest:
    """Run the Cartesian grid of (seed, p, beta, eps_sub) and persist artifacts.

    The instance for a given seed, and its composite problem, is generated
    once and shared across all parameter combinations so curves are directly
    comparable. Solver failures are recorded per cell and do not abort the
    sweep.
    """
    cfg.validate()
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = RunManifest(config=asdict(cfg))
    sweep_start = time.perf_counter()

    for seed in cfg.seeds:
        instance = _make_instance(cfg, seed)
        if cfg.dump_instances:
            dump_instance(instance, out / f"{cfg.kind}_seed{seed}.instance.txt")
        problem = instance
        if cfg.kind != "vi-affine":
            problem = bp_composite(instance) if cfg.kind == "bp" else mc_composite(instance)

        for p, beta, eps_sub in _grid(cfg):
            run_id = _run_id(cfg.kind, seed, p, beta, eps_sub)
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
                trace = run_cell(cfg, problem, p, beta, eps_sub)
            except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
                entry["status"] = f"failed: {exc}"
                entry["error"] = traceback.format_exc(limit=3)
                manifest.runs.append(entry)
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
            else:
                entry["status"] = "ok"
                entry["outer_iterations"] = len(trace.step_norms)
            write_csv(trace, out / csv_name, problem.f if isinstance(trace, AlmTrace) else None)
            manifest.runs.append(entry)

    manifest.created_utc = datetime.now(timezone.utc).isoformat()
    manifest.total_wall_ms = (time.perf_counter() - sweep_start) * 1e3
    manifest.save(out / "manifest.json")
    return manifest


def sweep_failed(manifest: RunManifest) -> bool:
    """True when any cell raised or its inner solver stalled.

    Hitting max_outer is a legitimate experimental outcome (a residual
    curve that flattens above the tolerance), not a failure.
    """
    bad = ("failed", "subsolver_stalled")
    return any(str(run.get("status", "")).startswith(bad) for run in manifest.runs)


_PLOT_TEMPLATE = '''"""Render primal-residual curves from the sweep CSVs in this directory.

Needs only numpy: the figure is drawn into an RGB array and written as a PNG
with zlib. One panel per (beta, eps_sub), one line per (p, seed), on a
log-scale residual axis with decade gridlines.
"""

import csv
import math
import struct
import zlib
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

# (panel title, [(csv file, line label), ...])
PANELS = {panels!r}

PANEL_W, PANEL_H = 480, 360
LEFT, TOP, RIGHT, BOTTOM = 48, 24, 12, 12
COLORS = [(31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40), (148, 103, 189),
          (140, 86, 75), (227, 119, 194), (127, 127, 127), (188, 189, 34), (23, 190, 207)]
BLACK, GRID, WHITE = (0, 0, 0), (224, 224, 224), (255, 255, 255)
# 3x5 glyphs drawn at twice the size, one octal digit per row (4 = left column).
# They cover only the characters emit_plots puts into titles and labels.
FONT = dict(zip(
    "0123456789.,=+-_ abdefilnprstu",
    "75557 26227 71747 71317 55711 74717 74757 71111 75757 75717 00002 00024 07070 02720 00700 "
    "00007 00000 06353 46556 13553 02743 34744 20222 44443 06555 06564 05644 03416 27221 05553".split(" "),
))


def load(name):
    """Iterations and residuals; residuals <= 0 or not finite become NaN, as semilogy masks them."""
    with open(HERE / name) as fh:
        rows = list(csv.DictReader(fh))
    iters = np.array([float(row["iter"]) for row in rows])
    residuals = np.array([float(row["r_k"]) for row in rows])
    return iters, np.where(np.isfinite(residuals) & (residuals > 0), residuals, np.nan)


def text(img, x, y, s, color=BLACK):
    for ch in s:
        if x + 6 > img.shape[1]:
            break
        bits = [[int(row) >> (2 - col) & 1 for col in range(3)] for row in FONT[ch]]
        img[y:y + 10, x:x + 6][np.array(bits, bool).repeat(2, 0).repeat(2, 1)] = color
        x += 8


def line(img, xs, ys, color):
    """Polyline with a 2x2 brush; a segment with a NaN end is left out."""
    for x0, y0, x1, y1 in zip(xs[:-1], ys[:-1], xs[1:], ys[1:]):
        if np.isnan(y0) or np.isnan(y1):
            continue
        n = int(max(abs(x1 - x0), abs(y1 - y0))) + 1
        px = np.rint(np.linspace(x0, x1, n)).astype(int)
        py = np.rint(np.linspace(y0, y1, n)).astype(int)
        for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1)):
            img[py + dy, px + dx] = color


def panel(title, curves):
    img = np.full((PANEL_H, PANEL_W, 3), 255, np.uint8)
    data = [load(name) + (label,) for name, label in curves]
    logs = np.log10(np.concatenate([np.empty(0)] + [r for _, r, _ in data]))
    logs = logs[~np.isnan(logs)]
    lo, hi = (math.floor(logs.min()), math.ceil(logs.max())) if logs.size else (0, 1)
    hi = max(hi, lo + 1)
    xmax = max([it.max() for it, _, _ in data if it.size] + [1.0])
    w, h = PANEL_W - LEFT - RIGHT, PANEL_H - TOP - BOTTOM

    def to_y(log_r):
        return TOP + (hi - log_r) / (hi - lo) * (h - 1)

    # gridlines and labels on every decade, thinned so labels do not overlap
    for k in range(lo, hi + 1, math.ceil(12 * (hi - lo) / h)):
        y = round(to_y(k))
        img[y, LEFT:LEFT + w] = GRID
        text(img, 2, y - 5, f"1e{{k}}")
    img[[TOP, TOP + h - 1], LEFT:LEFT + w] = BLACK
    img[TOP:TOP + h, [LEFT, LEFT + w - 1]] = BLACK
    text(img, LEFT, TOP + h + 1, "0")
    text(img, LEFT + w - 8 * len(f"{{xmax:g}}"), TOP + h + 1, f"{{xmax:g}}")
    text(img, max(2, (PANEL_W - 8 * len(title)) // 2), 7, title)
    for i, (iters, residuals, _) in enumerate(data):
        line(img, LEFT + iters / xmax * (w - 1), to_y(np.log10(residuals)), COLORS[i % len(COLORS)])

    shown = data[:(h - 8) // 12]
    width = 8 * max([len(label) for _, _, label in shown] + [0]) + 28
    x, y = LEFT + w - width - 4, TOP + 4
    img[y:y + 12 * len(shown) + 4, x:x + width] = WHITE
    for i, (_, _, label) in enumerate(shown):
        row = y + 4 + 12 * i
        line(img, np.array([x + 4.0, x + 20.0]), np.array([row + 4.0, row + 4.0]), COLORS[i % len(COLORS)])
        text(img, x + 24, row, label)
    return img


def write_png(path, img):
    """8-bit RGB PNG with unfiltered scanlines."""
    height, width, _ = img.shape
    raw = np.hstack([np.zeros((height, 1), np.uint8), img.reshape(height, -1)]).tobytes()

    def chunk(tag, data):
        return struct.pack(">I", len(data)) + tag + data + struct.pack(">I", zlib.crc32(tag + data))

    header = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(b"\\x89PNG\\r\\n\\x1a\\n" + chunk(b"IHDR", header) + chunk(b"IDAT", zlib.compress(raw, 9))
                 + chunk(b"IEND", b""))


def main():
    ncols = min(2, len(PANELS)) or 1
    nrows = max(1, -(-len(PANELS) // ncols))
    fig = np.full((nrows * PANEL_H, ncols * PANEL_W, 3), 255, np.uint8)
    for k, (title, curves) in enumerate(PANELS):
        r, c = divmod(k, ncols)
        fig[r * PANEL_H:(r + 1) * PANEL_H, c * PANEL_W:(c + 1) * PANEL_W] = panel(title, curves)
    write_png(HERE / "residuals.png", fig)
    print(f"wrote {{HERE / 'residuals.png'}}")


if __name__ == "__main__":
    main()
'''


def emit_plots(manifest: RunManifest, out_dir=None) -> Path:
    """Write a standalone script that renders the sweep's curves to residuals.png.

    The script needs only numpy and the standard library. One panel per
    (beta, eps_sub) combination, one line per (p, seed).
    Every successful run's CSV is referenced exactly once.
    """
    out = Path(out_dir if out_dir is not None else manifest.config["out_dir"])
    runs = [r for r in manifest.runs if not str(r.get("status", "")).startswith("failed")]
    missing = [r["csv"] for r in runs if not (out / r["csv"]).exists()]
    if missing:
        raise FileNotFoundError(f"manifest references missing CSVs: {missing}")

    panel_keys = sorted({(r["beta"], r["eps_sub"]) for r in runs})
    multi_seed = len({r["seed"] for r in runs}) > 1
    panels = []
    for beta, eps_sub in panel_keys:
        members = [r for r in runs if (r["beta"], r["eps_sub"]) == (beta, eps_sub)]
        members.sort(key=lambda r: (r["p"], r["seed"]))
        if beta is None:
            title = "step residuals"
        else:
            title = f"beta={beta:g}, eps_sub={eps_sub:g}"
        curves = []
        for r in members:
            label = f"p={r['p']:g}" + (f", seed={r['seed']}" if multi_seed else "")
            curves.append((r["csv"], label))
        panels.append((title, curves))

    script = _PLOT_TEMPLATE.format(panels=panels)
    path = out / "plot_residuals.py"
    with open(path, "w") as fh:
        fh.write(script)
    return path
