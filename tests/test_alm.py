import numpy as np
import pytest

import hoprox.alm
from hoprox.alm import (
    AlmConfig,
    CompositeProblem,
    SubsolverStalled,
    alm_x_update,
    dual_prox_oracle,
    multiplier_update,
    run_alm,
)
from hoprox.operators import MatrixMap
from hoprox.problems import bp_composite, gen_bp, gen_mc, mc_composite
from hoprox.prox import ProxFunction, l1_norm, zero_function
from hoprox.subsolver import PenaltyGradientOracle, gradient_map, minimize_composite


def tiny_bp_problem():
    # min ||x||_1  s.t.  x1 + x2 = 1; optimal value 1
    return CompositeProblem(
        f=l1_norm(),
        a_map=MatrixMap(np.array([[1.0, 1.0]])),
        b=np.array([1.0]),
        optimal_value=1.0,
    )


def base_config(p=1.0, **overrides):
    params = dict(p=p, beta=2.0, eps=1e-6, eps_sub=1e-6, max_outer=200, max_inner=100_000)
    params.update(overrides)
    return AlmConfig(**params)


class TestMultiplierUpdate:
    def test_zero_residual_fixed_point(self):
        cfg = base_config(p=3.0)
        lam = np.array([1.0, -2.0])
        assert np.array_equal(multiplier_update(lam, np.zeros(2), cfg), lam)

    def test_first_order_classical(self):
        cfg = base_config(p=1.0, beta=2.5)
        lam = np.array([1.0, 0.0])
        z = np.array([0.2, -0.4])
        assert np.allclose(multiplier_update(lam, z, cfg), lam + 2.5 * z, rtol=1e-14)

    @pytest.mark.parametrize("p,beta", [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)])
    def test_update_identity(self, p, beta):
        # -z + (1/beta) * ||d||^(p-1) * d = 0 exactly, d the multiplier step
        cfg = base_config(p=p, beta=beta)
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.standard_normal(4)
            z = rng.standard_normal(4) * rng.uniform(1e-3, 1e2)
            d = multiplier_update(lam, z, cfg) - lam
            identity = -z + np.linalg.norm(d) ** (p - 1.0) * d / beta
            assert np.linalg.norm(identity) <= 1e-12 * max(1.0, np.linalg.norm(z))

    @pytest.mark.parametrize("p,beta", [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)])
    def test_step_norm_identity(self, p, beta):
        cfg = base_config(p=p, beta=beta)
        rng = np.random.default_rng(1)
        for _ in range(50):
            lam = rng.standard_normal(3)
            z = rng.standard_normal(3) * rng.uniform(1e-3, 1e2)
            d = multiplier_update(lam, z, cfg) - lam
            expected = beta ** (1.0 / p) * np.linalg.norm(z) ** (1.0 / p)
            assert abs(np.linalg.norm(d) - expected) <= 1e-12 * expected


class TestAlmXUpdate:
    def test_gradient_map_certificate(self):
        prob = tiny_bp_problem()
        cfg = base_config(p=2.0, beta=2.0, eps_sub=1e-8)
        x1, report = alm_x_update(prob, np.zeros(1), np.zeros(2), cfg)
        assert report.converged
        oracle = PenaltyGradientOracle(prob.a_map, prob.b, np.zeros(1), 2.0, 2.0)
        assert np.linalg.norm(gradient_map(oracle, prob.f, x1)) <= 1e-8

    def test_large_penalty_forces_feasibility(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        prob = CompositeProblem(f=zero_function(), a_map=MatrixMap(a), b=b)
        cfg = base_config(p=1.0, beta=1e6, eps_sub=1e-6, max_inner=200_000)
        x1, report = alm_x_update(prob, np.zeros(2), np.zeros(3), cfg)
        assert report.converged
        assert np.linalg.norm(a @ x1 - b) <= 1e-3

    def test_stall_raises_with_report(self):
        inst = gen_bp(5, 20, 0.2, 0)
        prob = bp_composite(inst)
        cfg = base_config(p=1.0, eps_sub=1e-12, max_inner=2)
        with pytest.raises(SubsolverStalled) as err:
            alm_x_update(prob, np.zeros(5), np.zeros(20), cfg)
        assert err.value.report.iterations == 2


class TestRunAlm:
    @pytest.mark.parametrize("p,eps_sub", [(1.0, 1e-6), (2.0, 1e-3), (3.0, 1e-2)])
    def test_tiny_bp_reaches_optimum(self, p, eps_sub):
        prob = tiny_bp_problem()
        cfg = base_config(p=p, eps=1e-6, eps_sub=eps_sub, max_outer=500)
        trace = run_alm(prob, np.zeros(2), np.zeros(1), cfg)
        assert trace.converged
        last = trace.records[-1]
        assert last.primal_residual <= 1e-6
        assert abs(last.objective - prob.optimal_value) <= 1e-4

    def test_vacuous_tolerance_is_immediate(self):
        prob = tiny_bp_problem()
        cfg = base_config(eps=10.0)
        trace = run_alm(prob, np.zeros(2), np.zeros(1), cfg)
        assert trace.converged
        assert trace.outer_iterations == 0

    def test_stall_reported_in_status(self):
        inst = gen_bp(5, 20, 0.2, 0)
        prob = bp_composite(inst)
        cfg = base_config(p=1.0, eps_sub=1e-12, max_inner=2)
        trace = run_alm(prob, np.zeros(20), np.zeros(5), cfg)
        assert trace.status == "subsolver_stalled"
        assert not trace.converged

    def test_max_outer_reported(self):
        inst = gen_bp(5, 20, 0.2, 0)
        prob = bp_composite(inst)
        cfg = base_config(p=1.0, eps=1e-14, eps_sub=1e-2, max_outer=3)
        trace = run_alm(prob, np.zeros(20), np.zeros(5), cfg)
        assert trace.status == "max_outer"
        assert trace.outer_iterations == 3

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_structural_identities_every_iteration(self, p):
        inst = gen_bp(5, 20, 0.2, 1)
        prob = bp_composite(inst)
        cfg = base_config(p=p, eps=1e-3, eps_sub=1e-4, max_outer=200)
        trace = run_alm(prob, np.zeros(20), np.zeros(5), cfg)
        assert trace.converged
        beta = cfg.beta
        for k, rec in enumerate(trace.records):
            x_next = trace.iterates[k + 1]
            lam, lam_next = trace.multipliers[k], trace.multipliers[k + 1]
            z = prob.a_map.apply(x_next) - prob.b
            d = lam_next - lam
            identity = -z + np.linalg.norm(d) ** (p - 1.0) * d / beta
            assert np.linalg.norm(identity) <= 1e-12 * max(1.0, np.linalg.norm(z))
            expected_step = beta ** (1.0 / p) * np.linalg.norm(z) ** (1.0 / p)
            assert abs(rec.multiplier_step_norm - expected_step) <= 1e-12 * max(expected_step, 1e-300)
            # dual feasibility surrogate at subsolver accuracy
            assert trace.reports[k].final_grad_map_norm <= cfg.eps_sub

    def test_record_bookkeeping(self):
        prob = tiny_bp_problem()
        cfg = base_config(p=1.0, eps=1e-8)
        trace = run_alm(prob, np.zeros(2), np.zeros(1), cfg)
        cumulative = 0
        for k, rec in enumerate(trace.records):
            assert rec.iteration == k
            cumulative += rec.inner_iterations
            assert rec.cumulative_inner == cumulative
        assert len(trace.iterates) == len(trace.records) + 1
        assert len(trace.multipliers) == len(trace.records) + 1


def mc_cell(p, max_outer):
    """An alm-mc benchmark cell (seed 0, eps_sub = 0.1) cut at ``max_outer``."""
    prob = mc_composite(gen_mc(50, 50, 0.1, 0))
    cfg = AlmConfig(p=p, beta=5.0, eps=1e-3, eps_sub=0.1, max_outer=max_outer, max_inner=50_000)
    return prob, cfg


def comparable(trace):
    rows = [(r.iteration, r.primal_residual, r.multiplier_step_norm, r.inner_iterations,
             r.cumulative_inner, r.objective) for r in trace.records]
    return trace.status, rows, [x.tobytes() for x in trace.iterates], [m.tobytes() for m in trace.multipliers]


class TestCurvatureHintInAlm:
    def test_records_match_cold_search(self, monkeypatch):
        prob, cfg = mc_cell(2.0, 40)
        hinted = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)

        def cold(oracle, f, z0, eps_sub, max_iters, curvature_hint=1.0, residual=None):
            return minimize_composite(oracle, f, z0, eps_sub, max_iters, curvature_hint=1.0, residual=residual)

        monkeypatch.setattr(hoprox.alm, "minimize_composite", cold)
        reference = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
        assert comparable(hinted) == comparable(reference)

    def test_objective_of_unmoved_iterate(self):
        # x-updates with no inner iteration reuse the previous objective
        # instead of evaluating f (an SVD) again at the same point
        prob, cfg = mc_cell(1.0, 20)
        evaluated = []
        counted = ProxFunction(lambda x: evaluated.append(x) or prob.f.value(x), prob.f.prox)
        trace = run_alm(CompositeProblem(counted, prob.a_map, prob.b), np.zeros(2500), np.zeros(250), cfg)
        moved = [k == 0 or rec.inner_iterations > 0 for k, rec in enumerate(trace.records)]
        assert not all(moved)
        assert len(evaluated) == sum(moved)
        for k, rec in enumerate(trace.records):
            assert rec.objective == prob.f.value(trace.iterates[k + 1])

    def test_prox_call_count(self):
        # 656 prox calls (SVDs) before the entry check's prox was reused as
        # the L = 1 trial and the first search started at the previous
        # x-update's curvature; 435 after
        prob, cfg = mc_cell(2.0, 60)
        calls = []
        counted = ProxFunction(prob.f.value, lambda v, t: calls.append(t) or prob.f.prox(v, t))
        trace = run_alm(CompositeProblem(counted, prob.a_map, prob.b), np.zeros(2500), np.zeros(250), cfg)
        assert trace.outer_iterations == 60
        assert len(calls) <= 0.75 * 656


class CountingMap:
    """Delegates to a linear map and counts its ``apply`` calls."""

    def __init__(self, inner):
        self.inner, self.shape, self.applies = inner, inner.shape, 0

    def apply(self, x):
        self.applies += 1
        return self.inner.apply(x)

    def adjoint(self, y):
        return self.inner.adjoint(y)

    def norm_estimate(self, tol=1e-9):
        return self.inner.norm_estimate(tol)


class TestResidualHandoff:
    def test_apply_count(self):
        # 3,467 applies for these 51 outer steps when run_alm recomputed
        # A x - b after each x-update and each x-update's entry check
        # recomputed it again; the x-update now returns it and the next
        # one takes it, 2 applies fewer per outer step
        prob = bp_composite(gen_bp(100, 500, 0.2, 0))
        counted = CountingMap(prob.a_map)
        cfg = AlmConfig(p=1.0, beta=2.0, eps=1e-3, eps_sub=0.1, max_outer=500, max_inner=50_000)
        trace = run_alm(CompositeProblem(prob.f, counted, prob.b), np.zeros(500), np.zeros(100), cfg)
        assert trace.converged and trace.outer_iterations == 51
        assert counted.applies == 3467 - 2 * 51

    def test_reports_carry_the_iterates_residual(self):
        prob, cfg = mc_cell(1.0, 20)
        trace = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
        assert any(rep.iterations == 0 for rep in trace.reports)
        assert any(rep.iterations > 0 for rep in trace.reports)
        for k, rep in enumerate(trace.reports):
            expected = prob.a_map.apply(trace.iterates[k + 1]) - prob.b
            assert rep.residual.tobytes() == expected.tobytes()
            assert trace.records[k].primal_residual == np.linalg.norm(expected)

    def test_non_finite_start_rejected(self):
        prob, cfg = tiny_bp_problem(), base_config()
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                run_alm(prob, np.array([0.0, bad]), np.zeros(1), cfg)
            with pytest.raises(ValueError):
                run_alm(prob, np.zeros(2), np.array([bad]), cfg)


class TestDualProxOracle:
    def test_zero_rhs_feasible_center(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 4))
        a /= 10 * abs(a).max()
        center = np.array([0.3, -0.2])
        assert np.max(np.abs(a.T @ center)) < 1.0
        prob = CompositeProblem(f=l1_norm(), a_map=MatrixMap(a), b=np.zeros(2))
        cfg = base_config(p=2.0, beta=1.0)
        u = dual_prox_oracle(prob, center, cfg)
        assert np.allclose(u, center, atol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_alm_multiplier_after_one_step(self, p):
        inst = gen_bp(2, 4, 0.5, 3)
        prob = bp_composite(inst)
        cfg = base_config(p=p, beta=1.0, eps_sub=1e-8, max_inner=200_000)
        x1, _ = alm_x_update(prob, np.zeros(2), np.zeros(4), cfg)
        lam1 = multiplier_update(np.zeros(2), prob.a_map.apply(x1) - prob.b, cfg)
        u = dual_prox_oracle(prob, np.zeros(2), cfg)
        assert np.linalg.norm(lam1 - u) <= 2e-3

    def test_large_duals_rejected(self):
        prob = CompositeProblem(f=l1_norm(), a_map=MatrixMap(np.eye(3)), b=np.zeros(3))
        with pytest.raises(ValueError, match="m <= 2"):
            dual_prox_oracle(prob, np.zeros(3), base_config())

    def test_infeasible_grid_error(self):
        # feasible slab |100(u1 + u2)| <= 1 is far from the box around the center
        a = np.full((2, 1), 100.0)
        prob = CompositeProblem(f=l1_norm(), a_map=MatrixMap(a), b=np.array([0.05, 0.05]))
        cfg = base_config(p=1.0, beta=1.0)
        with pytest.raises(ValueError, match="dual grid infeasible"):
            dual_prox_oracle(prob, np.array([10.0, 10.0]), cfg)


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            base_config(p=0.9)
        with pytest.raises(ValueError):
            base_config(beta=0.0)
        with pytest.raises(ValueError):
            base_config(eps=-1.0)
        with pytest.raises(ValueError):
            base_config(eps_sub=0.0)
        with pytest.raises(ValueError):
            base_config(max_outer=0)
        with pytest.raises(ValueError):
            base_config(max_inner=0)

    def test_adjoint_consistency_probe(self):
        inst = gen_bp(6, 15, 0.3, 4)
        prob = bp_composite(inst)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(15)
            y = rng.standard_normal(6)
            lhs = float(prob.a_map.apply(x) @ y)
            rhs = float(x @ prob.a_map.adjoint(y))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
