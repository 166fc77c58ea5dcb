"""Acceptance suite: each numbered criterion at its stated tolerance.

Every criterion test prints one `[PASS]`/`[FAIL]` line, and criteria 1–3 one
per PPA battery (run with ``pytest -s`` to see them live). The four expensive run batteries are the benchmark's
workloads: ``perfbench/grid.py`` builds, solves and checks their cells, and
module-scoped fixtures share them; the runtime budgets are asserted on the
batteries themselves. Every battery cell must pass ``grid.check``, and one
table, ``BATTERY_COUNTS``, pins each battery's count totals.
"""

import collections
import json
import math
import time

import numpy as np
import pytest

from hoprox.alm import AlmConfig, run_alm
from hoprox.bench import ExperimentConfig, run_sweep
from hoprox.operators import MatrixMap
from hoprox.problems import bp_composite, gen_bp
from hoprox.prox import l1_norm
from hoprox.subsolver import PenaltyGradientOracle, gradient_map, holder_constant, minimize_composite

import grid
from dual_oracle import dual_prox_oracle
from ppa_bounds import worst_bound_values
from prox_gradient import reference_prox_gradient
from spectral_norm import spectral_norm_estimate

P_ORDERS = (1.0, 2.0, 3.0)


def report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


def solve_battery(workload):
    """``perfbench/grid.py``'s cells of ``workload`` on its default seeds, solved and checked.

    Returns the cells, their traces, each trace's ``grid.check`` outcome and
    the seconds that building and solving took together.
    """
    start = time.perf_counter()
    cells = grid.build(workload, grid.DEFAULT_SEEDS[workload])
    traces = [grid.solve(cell) for cell in cells]
    elapsed = time.perf_counter() - start
    outcomes = [grid.check(cell, trace) for cell, trace in zip(cells, traces)]
    return cells, traces, outcomes, elapsed


@pytest.fixture(scope="module")
def ppa_battery():
    """ppa-sym: 10 random affine PSD instances (n=20), p in {1,2,3}, 200 iterations."""
    return solve_battery("ppa-sym")


@pytest.fixture(scope="module")
def skew_battery():
    """ppa-skew: M = QᵀQ + (S − Sᵀ), seeds 0..4, p in {1,2,3}, 200 iterations."""
    return solve_battery("ppa-skew")


@pytest.fixture(scope="module")
def bp_battery():
    """alm-bp: full-scale BP runs, seeds 0..4, p in {1,2,3}, beta=2, eps_sub=0.1."""
    return solve_battery("alm-bp")


@pytest.fixture(scope="module")
def mc_battery():
    """alm-mc: MC runs, seeds 0..2, p in {1,2}, beta=5, eps_sub in {0.1, 0.01}."""
    return solve_battery("alm-mc")


@pytest.fixture(scope="module")
def small_alm_battery():
    """Identity-coverage runs over the experiment beta grid."""
    inst = gen_bp(5, 20, 0.2, 1)
    prob = bp_composite(inst)
    traces = []
    for p in P_ORDERS:
        for beta in (0.5, 2.0, 5.0, 10.0):
            cfg = AlmConfig(p=p, beta=beta, eps=1e-4, eps_sub=1e-3, max_outer=300, max_inner=50_000)
            traces.append((prob, cfg, run_alm(prob, np.zeros(20), np.zeros(5), cfg)))
    return traces


# ---------------------------------------------------------------- criteria


def ppa_batteries(ppa_battery, skew_battery):
    """Each PPA battery as (workload, cells, traces, seconds, worst value of each criterion 1–3 bound)."""
    for workload, (cells, traces, _, elapsed) in (("ppa-sym", ppa_battery), ("ppa-skew", skew_battery)):
        worst = worst_bound_values((trace, cell.cfg.p) for cell, trace in zip(cells, traces))
        yield workload, cells, traces, elapsed, worst


def test_criterion_1_fejer_contraction(ppa_battery, skew_battery):
    for workload, _, traces, elapsed, worst in ppa_batteries(ppa_battery, skew_battery):
        report(
            1,
            f"Fejér contraction holds at every step of {len(traces)} {workload} runs",
            worst["fejer"] <= 1e-9 and elapsed < 10.0,
            f"worst violation {worst['fejer']:.2e}, battery {elapsed:.1f}s",
        )


def test_criterion_2_step_monotonicity_and_rate(ppa_battery, skew_battery):
    for workload, _, _, _, worst in ppa_batteries(ppa_battery, skew_battery):
        report(
            2,
            f"{workload} step norms nonincreasing and step^2 <= dist0^2/(k+1)",
            worst["monotonicity"] <= 1e-9 and worst["step_rate"] <= 1e-9,
            f"monotonicity {worst['monotonicity']:.2e}, rate {worst['step_rate']:.2e}",
        )


def test_criterion_3_residual_rate_and_identity(ppa_battery, skew_battery):
    for workload, cells, traces, _, worst in ppa_batteries(ppa_battery, skew_battery):
        worst_identity = -np.inf
        for cell, trace in zip(cells, traces):
            op, x0, cfg = cell.problem, cell.x0, cell.cfg
            steps = np.array(trace.step_norms)
            resid = np.array(trace.residual_norms)
            # identity floor: cancellation noise of evaluating F near the solution
            mat, offset = op.affine_parts
            scale = cfg.lambda_ppa * (
                np.linalg.norm(mat) * (np.linalg.norm(x0) + np.linalg.norm(op.known_solution))
                + np.linalg.norm(offset)
            )
            gap = np.abs(resid - steps ** cfg.p) - 1e-8 * np.maximum(resid, steps ** cfg.p)
            worst_identity = max(worst_identity, float(np.max(gap - 1e-12 * scale)))
        report(
            3,
            f"{workload} lam*||F|| rate bound and identity lam*||F|| = step^p",
            worst["residual_rate"] <= 1e-9 and worst_identity <= 0.0,
            f"rate {worst['residual_rate']:.2e}, identity slack {worst_identity:.2e}",
        )


def test_criterion_4_holder_bound():
    start = time.perf_counter()
    inst = gen_bp(100, 500, 0.2, 0)
    a_norm = spectral_norm_estimate(inst.a, tol=1e-10)
    rng = np.random.default_rng(20240811)
    worst = -np.inf
    for p in P_ORDERS:
        for beta in (0.5, 2.0, 5.0, 10.0):
            oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, np.zeros(100), beta, p)
            m_p = holder_constant(p, beta, a_norm)
            for _ in range(1000):
                x = rng.standard_normal(500)
                y = rng.standard_normal(500)
                lhs = np.linalg.norm(oracle.gradient(x) - oracle.gradient(y))
                worst = max(worst, float(lhs - m_p * np.linalg.norm(x - y) ** (1.0 / p)))
    elapsed = time.perf_counter() - start
    report(
        4,
        "Hölder bound on the penalty gradient (12 configs x 1000 pairs)",
        worst <= 1e-10 and elapsed < 30.0,
        f"worst excess {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_structural_identities(bp_battery, mc_battery, small_alm_battery):
    runs = [
        (cell.problem, cell.cfg, trace)
        for cells, traces, _, _ in (bp_battery, mc_battery)
        for cell, trace in zip(cells, traces)
    ]
    worst_update = -np.inf
    worst_norm = -np.inf
    checked = 0
    for prob, cfg, trace in runs + small_alm_battery:
        beta, p = cfg.beta, cfg.p
        for k, rec in enumerate(trace.records):
            z = prob.a_map.apply(trace.iterates[k + 1]) - prob.b
            d = trace.multipliers[k + 1] - trace.multipliers[k]
            identity = -z + np.linalg.norm(d) ** (p - 1.0) * d / beta
            worst_update = max(
                worst_update,
                float(np.linalg.norm(identity) - 1e-12 * max(1.0, np.linalg.norm(z))),
            )
            expected = beta ** (1.0 / p) * np.linalg.norm(z) ** (1.0 / p)
            worst_norm = max(
                worst_norm,
                float(abs(rec.multiplier_step_norm - expected) - 1e-12 * max(expected, 1e-300)),
            )
            checked += 1
    report(
        5,
        "multiplier-update identities at every outer iteration",
        worst_update <= 0.0 and worst_norm <= 0.0 and checked > 100,
        f"{checked} iterations checked, slacks {worst_update:.2e} / {worst_norm:.2e}",
    )


def test_criterion_6_dual_prox_equivalence():
    start = time.perf_counter()
    worst = -np.inf
    for seed in range(3):
        inst = gen_bp(2, 4, 0.5, seed)
        prob = bp_composite(inst)
        for p in (1.0, 2.0):
            cfg = AlmConfig(p=p, beta=1.0, eps=1e-6, eps_sub=1e-8, max_outer=10, max_inner=300_000)
            oracle = PenaltyGradientOracle(prob.a_map, prob.b, np.zeros(2), cfg.beta, p)
            x_update = minimize_composite(oracle, prob.f, np.zeros(4), cfg.eps_sub, cfg.max_inner)
            assert x_update.converged
            u = dual_prox_oracle(prob, np.zeros(2), cfg)
            worst = max(worst, float(np.linalg.norm(x_update.multiplier - u)))
    elapsed = time.perf_counter() - start
    report(
        6,
        "one ALM step matches the brute-force dual proximal step",
        worst <= 2e-3 and elapsed < 60.0,
        f"worst gap {worst:.2e}, {elapsed:.1f}s",
    )


def censored_median(cells, outcomes, p):
    """Median outer-iteration count of the order-``p`` cells, a non-converged one counted at ``max_outer``."""
    return float(np.median([outcome.outer_iters for cell, outcome in zip(cells, outcomes) if cell.cfg.p == p]))


def order_totals(cells, traces, orders):
    """Each order's inner iterations, prox calls and trials, summed over its cells' x-update reports."""
    totals = []
    for p in orders:
        reports = [rep for cell, trace in zip(cells, traces) if cell.cfg.p == p for rep in trace.reports]
        inner = sum(rep.iterations for rep in reports)
        prox = sum(rep.prox_calls for rep in reports)
        trials = sum(rep.trials for rep in reports)
        totals.append(f"p{p:g} {inner}/{prox}/{trials}")
    return "inner/prox/trials " + " ".join(totals)


def test_criterion_7_bp_ordering(bp_battery):
    cells, traces, outcomes, elapsed = bp_battery
    med = {p: censored_median(cells, outcomes, p) for p in P_ORDERS}
    ok = med[2.0] < med[1.0] and med[3.0] < med[1.0] and elapsed < 600.0
    report(
        7,
        "BP: higher order needs fewer outer iterations to r <= 1e-3",
        ok,
        f"medians p1={med[1.0]:g} p2={med[2.0]:g} p3={med[3.0]:g}, "
        f"{order_totals(cells, traces, P_ORDERS)}, battery {elapsed:.0f}s",
    )


def test_criterion_8_mc_ordering(mc_battery):
    cells, traces, outcomes, elapsed = mc_battery
    med1 = censored_median(cells, outcomes, 1.0)
    med2 = censored_median(cells, outcomes, 2.0)
    report(
        8,
        "MC: order 2 needs fewer outer iterations to r <= 1e-3 than order 1",
        med2 < med1 and elapsed < 600.0,
        f"medians p1={med1:g} p2={med2:g} (max_outer-censored), "
        f"{order_totals(cells, traces, (1.0, 2.0))}, battery {elapsed:.0f}s",
    )


def test_mc_order_2_coarse_cells_converge(mc_battery):
    # the alm-mc cells with p = 2 and eps_sub = 0.1, on the battery's seeds and
    # on held-out seeds 5-7. They stalled at max_outer with ||Ax - b|| near
    # 2.75e-3 while the subsolver's curvature slack did not shrink with 1/L
    def coarse(cell):
        return cell.cfg.p == 2.0 and cell.cfg.eps_sub == 0.1

    cells, _, outcomes, _ = mc_battery
    runs = [(cell, outcome) for cell, outcome in zip(cells, outcomes) if coarse(cell)]
    runs += [(cell, grid.check(cell, grid.solve(cell))) for cell in grid.build("alm-mc", (5, 6, 7)) if coarse(cell)]
    assert len(runs) == 6
    bad = [f"{cell.name}: {outcome.failed or 'not converged'}" for cell, outcome in runs
           if outcome.failed or not outcome.converged]
    assert not bad, "; ".join(bad)


def test_criterion_9_subsolver_reference():
    f = l1_norm()
    worst_obj = -np.inf
    worst_exit = -np.inf
    for seed, p in ((0, 1.0), (3, 1.0), (3, 2.0)):
        inst = gen_bp(2, 4, 0.5, seed)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, np.zeros(2), 1.0, p)
        rep = minimize_composite(oracle, f, np.zeros(4), 1e-8, 300_000)
        assert rep.converged
        g_norm = float(np.linalg.norm(gradient_map(oracle, f, rep.solution)))
        worst_exit = max(worst_exit, g_norm)
        x_ref = reference_prox_gradient(inst.a, inst.b, np.zeros(2), 1.0, p, np.zeros(4), 50_000)
        objectives = []
        for x in (rep.solution, x_ref):
            r = oracle.residual(x)
            objectives.append(oracle.value_at_residual(r, math.sqrt(r @ r)) + f.value(x))
        worst_obj = max(worst_obj, float(abs(objectives[0] - objectives[1])))
    report(
        9,
        "subsolver matches 50k-iteration proximal-gradient reference",
        worst_obj <= 1e-7 and worst_exit <= 1e-8,
        f"objective gap {worst_obj:.2e}, exit grad-map {worst_exit:.2e}",
    )


def test_criterion_10_reproducibility(tmp_path):
    configs = [
        dict(
            kind="bp", m=5, n=20, density=0.2, seeds=[0], p_values=[1.0, 2.0, 3.0],
            betas=[2.0], eps_subs=[0.01], eps=1e-3, max_outer=300, max_inner=20_000,
        ),
        dict(
            kind="vi-affine", m=10, n=10, density=1.0, seeds=[0, 1], p_values=[1.0, 2.0],
            betas=[1.0], eps_subs=[0.1], eps=0.0, max_outer=50, max_inner=1,
        ),
    ]
    ok = True
    for i, params in enumerate(configs):
        first = tmp_path / f"run{i}_a"
        run_sweep(ExperimentConfig(out_dir=str(first), **params))
        manifest = json.loads((first / "manifest.json").read_text())
        second = tmp_path / f"run{i}_b"
        rerun_cfg = ExperimentConfig(**{**manifest["config"], "out_dir": str(second)})
        run_sweep(rerun_cfg)
        for run in manifest["runs"]:
            ok = ok and (first / run["csv"]).read_bytes() == (second / run["csv"]).read_bytes()
    report(10, "rerunning a manifest reproduces every CSV byte-for-byte", ok)


# Each battery's totals under grid.FINGERPRINT's count names: grid.check's
# counts summed over the cells, the prox calls the x-update reports count
# (ALM only), and the number of converged cells. CHANGES.md tells what moved
# each of them.
BATTERY_COUNTS = {
    "ppa-sym": {"ppa.steps": 2_673, "ppa.shifted_solves": 3_944, "converged": 19},
    "ppa-skew": {"ppa.steps": 226, "ppa.shifted_solves": 392, "converged": 15},
    "alm-bp": {
        "alm.outer_iters": 644, "alm.low_inner_outer": 409, "subsolver.inner_iters": 12_645,
        "subsolver.x_updates": 644, "prox.calls": 29_718, "converged": 15,
    },
    "alm-mc": {
        "alm.outer_iters": 1_569, "alm.low_inner_outer": 1_495, "subsolver.inner_iters": 2_095,
        "subsolver.x_updates": 1_569, "prox.calls": 5_230, "converged": 9,
    },
}
BATTERIES = {"ppa-sym": "ppa_battery", "ppa-skew": "skew_battery", "alm-bp": "bp_battery", "alm-mc": "mc_battery"}


@pytest.mark.parametrize("workload", grid.WORKLOADS)
def test_battery_cells_pass_grid_check(workload, request):
    cells, _, outcomes, _ = request.getfixturevalue(BATTERIES[workload])
    failed = [f"{cell.name}: {outcome.failed}" for cell, outcome in zip(cells, outcomes) if outcome.failed]
    assert not failed, f"{workload}: " + "; ".join(failed)


@pytest.mark.parametrize("workload", grid.WORKLOADS)
def test_battery_counts(workload, request):
    # a workload added to the grid fails here until its counts are pinned
    assert BATTERY_COUNTS.keys() == set(grid.WORKLOADS)
    cells, traces, outcomes, _ = request.getfixturevalue(BATTERIES[workload])
    counted = collections.Counter()
    for outcome in outcomes:
        counted.update(outcome.counts)
    if cells[0].kind == "alm":
        counted["prox.calls"] = sum(rep.prox_calls for trace in traces for rep in trace.reports)
    counted["converged"] = sum(outcome.converged for outcome in outcomes)
    pinned = BATTERY_COUNTS[workload]
    wrong = [
        f"{workload} {name}: pinned {pinned.get(name)}, counted {counted.get(name)}"
        for name in sorted(pinned.keys() | counted.keys())
        if pinned.get(name) != counted.get(name)
    ]
    assert not wrong, "; ".join(wrong)


def test_battery_count_identity(bp_battery, mc_battery):
    # every trial calls the prox once, and so does every stopping test that
    # does not certify, the entry's included; run_alm runs the entry test at
    # p = 1 only, so a p > 1 x-update always takes a step; a solve that
    # steps runs at least its last step's test
    reports = [
        (cell.cfg.p == 1, rep)
        for cells, traces, _, _ in (bp_battery, mc_battery)
        for cell, trace in zip(cells, traces)
        for rep in trace.reports
    ]
    for entry_test, rep in reports:
        assert rep.prox_calls == rep.trials + entry_test + rep.stop_tests - rep.certified
        assert entry_test or rep.iterations >= 1
        assert min(rep.iterations, 1) <= rep.stop_tests <= rep.iterations
