"""Acceptance suite: each numbered criterion at its stated tolerance.

Every criterion test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s``
to see them live). Expensive run batteries are shared through module-scoped
fixtures; the runtime budgets are asserted on the batteries themselves. The
last test pins the oracle counts that the subsolver reports on the batteries.
"""

import time

import numpy as np
import pytest

from hoprox.alm import AlmConfig, run_alm
from hoprox.bench import ExperimentConfig, RunManifest, run_sweep
from hoprox.ppa import PpaConfig, affine_operator, run_ppa
from hoprox.problems import bp_composite, gen_bp, gen_mc, gen_vi_affine, mc_composite
from hoprox.prox import l1_norm
from hoprox.subsolver import PenaltyGradientOracle, gradient_map, holder_constant, minimize_composite

from dual_oracle import dual_prox_oracle
from spectral_norm import spectral_norm_estimate

P_ORDERS = (1.0, 2.0, 3.0)


def report(num, description, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def ppa_battery():
    """10 random affine PSD instances (n=20), p in {1,2,3}, 200 iterations."""
    start = time.perf_counter()
    runs = []
    for seed in range(10):
        op, x0 = gen_vi_affine(20, seed)
        for p in P_ORDERS:
            cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=200, step_tol=0.0)
            runs.append((op, x0, cfg, run_ppa(op, x0, cfg)))
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def skew_battery():
    """The ppa-skew benchmark grid: M = QᵀQ + (S − Sᵀ), seeds 0..4, p in {1,2,3}, 200 iterations."""
    runs = []
    for seed in range(5):
        # bracketed as perfbench/grid.py's skew_vi builds it, so that M rounds the same
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((20, 20))
        s = rng.standard_normal((20, 20))
        mat = q.T @ q + (s - s.T)
        solution = rng.standard_normal(20)
        x0 = rng.standard_normal(20)
        op = affine_operator(mat, -mat @ solution, known_solution=solution)
        for p in P_ORDERS:
            runs.append(run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=200)))
    return runs


@pytest.fixture(scope="module")
def bp_battery():
    """Full-scale BP runs: seeds 0..4, p in {1,2,3}, beta=2, eps_sub=0.1."""
    start = time.perf_counter()
    outer_counts = {p: [] for p in P_ORDERS}
    traces = []
    for seed in range(5):
        inst = gen_bp(100, 500, 0.2, seed)
        prob = bp_composite(inst)
        for p in P_ORDERS:
            cfg = AlmConfig(p=p, beta=2.0, eps=1e-3, eps_sub=0.1, max_outer=500, max_inner=50_000)
            trace = run_alm(prob, np.zeros(500), np.zeros(100), cfg)
            outer_counts[p].append(trace.outer_iterations if trace.converged else cfg.max_outer)
            traces.append((prob, cfg, trace))
    elapsed = time.perf_counter() - start
    return outer_counts, traces, elapsed


@pytest.fixture(scope="module")
def mc_battery():
    """MC runs: seeds 0..2, p in {1,2}, beta=5, eps_sub in {0.1, 0.01}."""
    start = time.perf_counter()
    outer_counts = {1.0: [], 2.0: []}
    traces = []
    for seed in range(3):
        inst = gen_mc(50, 50, 0.1, seed)
        prob = mc_composite(inst)
        for eps_sub in (0.1, 0.01):
            for p in (1.0, 2.0):
                cfg = AlmConfig(p=p, beta=5.0, eps=1e-3, eps_sub=eps_sub, max_outer=500, max_inner=50_000)
                trace = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
                outer_counts[p].append(trace.outer_iterations if trace.converged else cfg.max_outer)
                traces.append((prob, cfg, trace))
    elapsed = time.perf_counter() - start
    return outer_counts, traces, elapsed


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


def test_criterion_1_fejer_contraction(ppa_battery):
    runs, elapsed = ppa_battery
    worst = -np.inf
    for _, _, _, trace in runs:
        dist = np.array(trace.distances_to_solution)
        steps = np.array(trace.step_norms)
        worst = max(worst, float(np.max(dist[1:] ** 2 + steps ** 2 - dist[:-1] ** 2)))
    report(
        1,
        "Fejér contraction holds at every step of 30 PPA runs",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst violation {worst:.2e}, battery {elapsed:.1f}s",
    )


def test_criterion_2_step_monotonicity_and_rate(ppa_battery):
    runs, _ = ppa_battery
    worst_mono = -np.inf
    worst_rate = -np.inf
    for _, _, _, trace in runs:
        steps = np.array(trace.step_norms)
        d0 = trace.distances_to_solution[0]
        k = np.arange(len(steps))
        worst_mono = max(worst_mono, float(np.max(np.diff(steps))))
        worst_rate = max(worst_rate, float(np.max(steps ** 2 - d0 ** 2 / (k + 1))))
    report(
        2,
        "step norms nonincreasing and step^2 <= dist0^2/(k+1)",
        worst_mono <= 1e-9 and worst_rate <= 1e-9,
        f"monotonicity {worst_mono:.2e}, rate {worst_rate:.2e}",
    )


def test_criterion_3_residual_rate_and_identity(ppa_battery):
    runs, _ = ppa_battery
    worst_rate = -np.inf
    worst_identity = -np.inf
    for op, x0, cfg, trace in runs:
        steps = np.array(trace.step_norms)
        resid = np.array(trace.residual_norms)
        d0 = trace.distances_to_solution[0]
        k = np.arange(len(steps))
        worst_rate = max(worst_rate, float(np.max(resid - d0 ** cfg.p / (k + 1) ** (cfg.p / 2.0))))
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
        "lam*||F|| rate bound and identity lam*||F|| = step^p",
        worst_rate <= 1e-9 and worst_identity <= 0.0,
        f"rate {worst_rate:.2e}, identity slack {worst_identity:.2e}",
    )


def test_criterion_4_holder_bound():
    start = time.perf_counter()
    inst = gen_bp(100, 500, 0.2, 0)
    a_norm = spectral_norm_estimate(inst.a, tol=1e-10)
    rng = np.random.default_rng(20240811)
    worst = -np.inf
    for p in P_ORDERS:
        for beta in (0.5, 2.0, 5.0, 10.0):
            oracle = PenaltyGradientOracle(inst.a, inst.b, np.zeros(100), beta, p)
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
    _, bp_traces, _ = bp_battery
    _, mc_traces, _ = mc_battery
    worst_update = -np.inf
    worst_norm = -np.inf
    checked = 0
    for prob, cfg, trace in bp_traces + mc_traces + small_alm_battery:
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


def test_criterion_7_bp_ordering(bp_battery):
    outer_counts, _, elapsed = bp_battery
    med = {p: float(np.median(outer_counts[p])) for p in P_ORDERS}
    ok = med[2.0] < med[1.0] and med[3.0] < med[1.0] and elapsed < 600.0
    report(
        7,
        "BP: higher order needs fewer outer iterations to r <= 1e-3",
        ok,
        f"medians p1={med[1.0]:g} p2={med[2.0]:g} p3={med[3.0]:g}, battery {elapsed:.0f}s",
    )


def test_criterion_8_mc_ordering(mc_battery):
    outer_counts, _, elapsed = mc_battery
    med1 = float(np.median(outer_counts[1.0]))
    med2 = float(np.median(outer_counts[2.0]))
    report(
        8,
        "MC: order 2 needs fewer outer iterations to r <= 1e-3 than order 1",
        med2 < med1 and elapsed < 600.0,
        f"medians p1={med1:g} p2={med2:g} (max_outer-censored), battery {elapsed:.0f}s",
    )


def _reference_prox_gradient(a, b, multiplier, beta, p, x0, iters):
    """Independent slow oracle: own gradient formula, own shrinkage."""
    x = np.array(x0, dtype=float)
    step = 1.0

    def psi(pt):
        r = a @ pt - b
        return multiplier @ r + beta ** (1 / p) / (1 + 1 / p) * np.linalg.norm(r) ** (1 + 1 / p)

    def grad(pt):
        r = a @ pt - b
        nr = np.linalg.norm(r)
        inner = multiplier if nr == 0 else multiplier + beta ** (1 / p) * r * nr ** (1 / p - 1)
        return a.T @ inner

    for _ in range(iters):
        g = grad(x)
        while True:
            w = x - step * g
            z = np.sign(w) * np.maximum(np.abs(w) - step, 0.0)
            dz = z - x
            if psi(z) <= psi(x) + g @ dz + (dz @ dz) / (2 * step) + 1e-18:
                break
            step *= 0.5
        x = z
        step = min(step * 1.5, 1e6)
    return x


def test_criterion_9_subsolver_reference():
    f = l1_norm()
    worst_obj = -np.inf
    worst_exit = -np.inf
    for seed, p in ((0, 1.0), (3, 1.0), (3, 2.0)):
        inst = gen_bp(2, 4, 0.5, seed)
        oracle = PenaltyGradientOracle(inst.a, inst.b, np.zeros(2), 1.0, p)
        rep = minimize_composite(oracle, f, np.zeros(4), 1e-8, 300_000)
        assert rep.converged
        g_norm = float(np.linalg.norm(gradient_map(oracle, f, rep.solution)))
        worst_exit = max(worst_exit, g_norm)
        x_ref = _reference_prox_gradient(inst.a, inst.b, np.zeros(2), 1.0, p, np.zeros(4), 50_000)
        obj = lambda x: oracle.value_and_gradient_at_residual(oracle.residual(x))[0] + f.value(x)
        worst_obj = max(worst_obj, float(abs(obj(rep.solution) - obj(x_ref))))
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
        manifest = RunManifest.load(first / "manifest.json")
        second = tmp_path / f"run{i}_b"
        rerun_cfg = ExperimentConfig(**{**manifest.config, "out_dir": str(second)})
        run_sweep(rerun_cfg)
        for run in manifest.runs:
            ok = ok and (first / run["csv"]).read_bytes() == (second / run["csv"]).read_bytes()
    report(10, "rerunning a manifest reproduces every CSV byte-for-byte", ok)


def test_ppa_battery_step_and_evaluation_totals(ppa_battery):
    # The PPA battery is the ppa-sym benchmark grid. Runs stop at the zero
    # step once F(x_k) is inside the rounding bound of M x_k + q; before
    # that stop they took 4,259 steps and 7,898 secular evaluations. The
    # rational-model root search takes 3,944 evaluations where Newton on
    # g took 4,711, over the same steps.
    runs, _ = ppa_battery
    steps = sum(len(trace.step_norms) for _, _, _, trace in runs)
    evaluations = sum(sum(trace.inner_solves) for _, _, _, trace in runs)
    assert (steps, evaluations) == (2_673, 3_944)


def test_skew_battery_step_and_evaluation_totals(skew_battery):
    # The nonsymmetric step path: x_next comes from the root search's kept
    # inverse, refined once. A change to that path, or to the root search,
    # moves these totals (Newton on g took 430 evaluations).
    steps = sum(len(trace.step_norms) for trace in skew_battery)
    evaluations = sum(sum(trace.inner_solves) for trace in skew_battery)
    converged = sum(trace.residual_norms[-1] <= 1e-8 for trace in skew_battery)
    assert (steps, evaluations, converged) == (226, 392, 15)


def test_battery_prox_call_totals(bp_battery, mc_battery):
    # The BP and MC batteries are the alm-bp and alm-mc benchmark grids, and
    # these totals are the prox calls the benchmark's tracer counts on them:
    # the reports' own counts must agree with it. The inner-iteration totals
    # pin the stops: the entry certificate skips 1,032 of MC's entry proxes
    # and moves none of them, and neither does skipping the entry test at
    # p > 1 (39,529 and 9,297 prox calls with it).
    _, bp_traces, _ = bp_battery
    _, mc_traces, _ = mc_battery

    def total(traces, name):
        return sum(getattr(rep, name) for _, _, trace in traces for rep in trace.reports)

    assert (total(bp_traces, "prox_calls"), total(mc_traces, "prox_calls")) == (39_501, 7_783)
    assert (total(bp_traces, "iterations"), total(mc_traces, "iterations")) == (13_097, 3_604)


def test_battery_count_identity(bp_battery, mc_battery):
    # every trial calls the prox once, and so does every stopping test that
    # does not certify, the entry's included; run_alm runs the entry test at
    # p = 1 only, so a p > 1 x-update always takes a step
    _, bp_traces, _ = bp_battery
    _, mc_traces, _ = mc_battery
    reports = [(cfg.p == 1, rep) for _, cfg, trace in bp_traces + mc_traces for rep in trace.reports]
    assert len(reports) == 652 + 3_049
    for entry_test, rep in reports:
        assert rep.prox_calls == rep.trials + entry_test + rep.iterations - rep.certified
        assert entry_test or rep.iterations >= 1
