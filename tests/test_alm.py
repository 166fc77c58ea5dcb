import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hoprox import alm
from hoprox.alm import AlmConfig, CompositeProblem, run_alm
from hoprox.bench import read_csv, write_csv
from hoprox.operators import MatrixMap
from hoprox.problems import bp_composite, gen_bp, gen_mc, mc_composite
from hoprox.prox import ProxFunction, l1_norm
from hoprox.subsolver import PenaltyGradientOracle, gradient_map, minimize_composite

from dual_oracle import dual_prox_oracle
from norm_power import norm_power_gradient
from zero_function import zero_function


# optimal value of tiny_bp_problem
TINY_BP_OPTIMUM = 1.0


def tiny_bp_problem():
    # min ||x||_1  s.t.  x1 + x2 = 1
    return CompositeProblem(f=l1_norm(), a_map=MatrixMap(np.array([[1.0, 1.0]])), b=np.array([1.0]))


def base_config(p=1.0, **overrides):
    params = dict(p=p, beta=2.0, eps=1e-6, eps_sub=1e-6, max_outer=200, max_inner=100_000)
    params.update(overrides)
    return AlmConfig(**params)


def next_multiplier(lam, z, p, beta):
    """The multiplier after the step on residual z: the penalty oracle's dual vector at z."""
    oracle = PenaltyGradientOracle(MatrixMap(np.eye(z.size)), np.zeros(z.size), lam, beta, p)
    return oracle.dual_at_residual(z, math.sqrt(z @ z))


class TestMultiplierUpdate:
    # the step run_alm takes, as PenaltyGradientOracle.dual_at_residual forms it
    def test_zero_residual_fixed_point(self):
        lam = np.array([1.0, -2.0])
        assert next_multiplier(lam, np.zeros(2), 3.0, 2.0) is lam

    def test_first_order_classical(self):
        lam = np.array([1.0, 0.0])
        z = np.array([0.2, -0.4])
        assert np.allclose(next_multiplier(lam, z, 1.0, 2.5), lam + 2.5 * z, rtol=1e-14)

    @pytest.mark.parametrize("p,beta", [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)])
    def test_update_identity(self, p, beta):
        # -z + (1/beta) * ||d||^(p-1) * d = 0 exactly, d the multiplier step
        rng = np.random.default_rng(0)
        for _ in range(50):
            lam = rng.standard_normal(4)
            z = rng.standard_normal(4) * rng.uniform(1e-3, 1e2)
            d = next_multiplier(lam, z, p, beta) - lam
            identity = -z + np.linalg.norm(d) ** (p - 1.0) * d / beta
            assert np.linalg.norm(identity) <= 1e-12 * max(1.0, np.linalg.norm(z))

    @pytest.mark.parametrize("p,beta", [(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)])
    def test_step_norm_identity(self, p, beta):
        rng = np.random.default_rng(1)
        for _ in range(50):
            lam = rng.standard_normal(3)
            z = rng.standard_normal(3) * rng.uniform(1e-3, 1e2)
            d = next_multiplier(lam, z, p, beta) - lam
            expected = beta ** (1.0 / p) * np.linalg.norm(z) ** (1.0 / p)
            assert abs(np.linalg.norm(d) - expected) <= 1e-12 * expected


class TestAlmXUpdate:
    # an x-update is one subsolver call on the penalty of the current multiplier
    def test_gradient_map_certificate(self):
        prob = tiny_bp_problem()
        oracle = PenaltyGradientOracle(prob.a_map, prob.b, np.zeros(1), 2.0, 2.0)
        report = minimize_composite(oracle, prob.f, np.zeros(2), 1e-8, 100_000)
        assert report.converged
        assert np.linalg.norm(gradient_map(oracle, prob.f, report.solution)) <= 1e-8

    def test_large_penalty_forces_feasibility(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        oracle = PenaltyGradientOracle(MatrixMap(a), b, np.zeros(2), 1e6, 1.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(3), 1e-6, 200_000)
        assert report.converged
        assert np.linalg.norm(a @ report.solution - b) <= 1e-3

    def test_stall_returns_unconverged_report(self):
        # a stalled x-update hands back its report rather than raising
        prob = bp_composite(gen_bp(5, 20, 0.2, 0))
        oracle = PenaltyGradientOracle(prob.a_map, prob.b, np.zeros(5), 2.0, 1.0)
        report = minimize_composite(oracle, prob.f, np.zeros(20), 1e-12, 2)
        assert not report.converged
        assert report.iterations == 2


class TestRunAlm:
    @pytest.mark.parametrize("p,eps_sub", [(1.0, 1e-6), (2.0, 1e-3), (3.0, 1e-2)])
    def test_tiny_bp_reaches_optimum(self, p, eps_sub, tmp_path):
        prob = tiny_bp_problem()
        cfg = base_config(p=p, eps=1e-6, eps_sub=eps_sub, max_outer=500)
        trace = run_alm(prob, np.zeros(2), np.zeros(1), cfg)
        assert trace.converged
        assert trace.records[-1].primal_residual <= 1e-6
        # the objective the CSV writer evaluates at the last iterate
        write_csv(trace, tmp_path / "trace.csv", prob.f)
        _, objectives = read_csv(tmp_path / "trace.csv")
        assert abs(objectives[-1] - TINY_BP_OPTIMUM) <= 1e-4

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
        # the stalled first x-update leaves its report and no record
        assert trace.outer_iterations == 0
        [stalled] = trace.reports
        assert not stalled.converged and stalled.iterations == 2

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
        assert trace.records
        assert len(trace.iterates) == len(trace.records) + 1
        assert len(trace.multipliers) == len(trace.records) + 1


def mc_cell(p, max_outer):
    """An alm-mc benchmark cell (seed 0, eps_sub = 0.1) cut at ``max_outer``."""
    prob = mc_composite(gen_mc(50, 50, 0.1, 0))
    cfg = AlmConfig(p=p, beta=5.0, eps=1e-3, eps_sub=0.1, max_outer=max_outer, max_inner=50_000)
    return prob, cfg


class TestCurvatureHintInAlm:
    @pytest.mark.parametrize("kind", ["bp", "mc"])
    def test_first_curvature_never_falls(self, kind):
        # each x-update's first curvature search starts where the previous one
        # accepted and only doubles, so within a run first_L_accepted never
        # decreases; the first x-update runs the cold search from 1. In both
        # cells it fell when the search also probed down from the hint
        if kind == "bp":
            prob = bp_composite(gen_bp(100, 500, 0.2, 0))
            cfg = AlmConfig(p=1.0, beta=2.0, eps=1e-3, eps_sub=0.1, max_outer=500, max_inner=50_000)
        else:
            prob, cfg = mc_cell(1.0, 20)
        rows, cols = prob.a_map.shape
        trace = run_alm(prob, np.zeros(cols), np.zeros(rows), cfg)
        first = [rep.first_L_accepted for rep in trace.reports]
        assert len(first) == trace.outer_iterations >= 2
        assert first == sorted(first)
        oracle = PenaltyGradientOracle(prob.a_map, prob.b, trace.multipliers[0], cfg.beta, cfg.p)
        cold = minimize_composite(oracle, prob.f, trace.iterates[0], cfg.eps_sub, cfg.max_inner)
        assert cold.first_L_accepted == first[0]

    def test_objective_of_unmoved_iterate(self, tmp_path):
        # the run never evaluates f; the CSV writer evaluates it once per
        # distinct iterate, so a row whose x-update made no inner iteration
        # reuses the previous row's value instead of another SVD
        prob, cfg = mc_cell(1.0, 20)
        evaluated = []
        counted = ProxFunction(lambda x: evaluated.append(x) or prob.f.value(x), prob.f.prox)
        trace = run_alm(CompositeProblem(counted, prob.a_map, prob.b), np.zeros(2500), np.zeros(250), cfg)
        assert evaluated == []
        moved = [k == 0 or rec.inner_iterations > 0 for k, rec in enumerate(trace.records)]
        assert not all(moved)
        write_csv(trace, tmp_path / "trace.csv", counted)
        assert len(evaluated) == sum(moved) == len({id(x) for x in evaluated})
        _, objectives = read_csv(tmp_path / "trace.csv")
        assert len(objectives) == len(trace.records)
        for k, objective in enumerate(objectives):
            assert objective == prob.f.value(trace.iterates[k + 1])

    def test_prox_call_count(self):
        # the bound is from 656 prox calls (SVDs) when this cell stalled for
        # 60 outer steps and each x-update's first search started from 1;
        # with the curvature slack scaled by 1/L the cell converges in 6
        prob, cfg = mc_cell(2.0, 60)
        calls = []
        counted = ProxFunction(prob.f.value, lambda v, t: calls.append(t) or prob.f.prox(v, t))
        trace = run_alm(CompositeProblem(counted, prob.a_map, prob.b), np.zeros(2500), np.zeros(250), cfg)
        assert trace.converged and trace.outer_iterations == 6
        assert len(calls) == 160 <= 0.75 * 656


class TestMultiplierFromReport:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["bp", "mc"])
    def test_multiplier_is_the_reports(self, kind, p):
        # each multiplier step is the dual vector the x-update formed for its
        # last gradient, or at entry when it made no inner iteration, as an
        # x-update of the MC cell does at p = 1; at p > 1 the x-updates skip
        # the entry test, so none ends at entry (4 of 20 did with it)
        if kind == "bp":
            prob = bp_composite(gen_bp(5, 20, 0.2, 1))
            cfg = base_config(p=p, eps=1e-3, eps_sub=1e-4)
        else:
            prob = mc_composite(gen_mc(50, 50, 0.1, 3))
            cfg = AlmConfig(p=p, beta=1.0, eps=1e-3, eps_sub=0.1, max_outer=10, max_inner=50_000)
        rows, cols = prob.a_map.shape
        trace = run_alm(prob, np.zeros(cols), np.zeros(rows), cfg)
        assert trace.outer_iterations >= 2
        assert kind == "bp" or any(rep.iterations == 0 for rep in trace.reports) == (p == 1)
        for k, rep in enumerate(trace.reports):
            assert trace.multipliers[k + 1] is rep.multiplier
            expected = trace.multipliers[k] + cfg.beta ** (1.0 / p) * norm_power_gradient(rep.residual, p)
            assert rep.multiplier.tobytes() == expected.tobytes()


class CountingMap:
    """Delegates to a linear map and counts its ``apply`` calls."""

    def __init__(self, inner):
        self.inner, self.shape, self.applies = inner, inner.shape, 0

    def apply(self, x):
        self.applies += 1
        return self.inner.apply(x)

    def adjoint(self, y):
        return self.inner.adjoint(y)


class TestResidualHandoff:
    def test_apply_count(self):
        # each x-update returns A x - b and the next one takes it, so the
        # start's residual is the only apply outside the trials: each trial
        # applies A to its trial point, each trial after iteration 1 also to
        # its y, and iteration 1 searches log2(first_L_accepted / hint) + 1
        # trials up from the hint
        prob = bp_composite(gen_bp(100, 500, 0.2, 0))
        counted = CountingMap(prob.a_map)
        cfg = AlmConfig(p=1.0, beta=2.0, eps=1e-3, eps_sub=0.1, max_outer=500, max_inner=50_000)
        trace = run_alm(CompositeProblem(prob.f, counted, prob.b), np.zeros(500), np.zeros(100), cfg)
        assert trace.converged and trace.outer_iterations == 95
        hint, derived = 1.0, 1
        for rep in trace.reports:
            if rep.iterations:
                derived += 2 * rep.trials - (int(math.log2(rep.first_L_accepted / hint)) + 1)
            hint = rep.first_L_accepted
        assert counted.applies == derived == 2748

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


class TestSingleCopy:
    """The trace holds each iterate, multiplier and residual once."""

    def test_iterates_are_the_reports_solutions(self):
        prob, cfg = mc_cell(1.0, 60)
        trace = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
        assert trace.outer_iterations == 60
        assert any(rep.iterations == 0 for rep in trace.reports)
        for k, rep in enumerate(trace.reports):
            assert trace.iterates[k + 1] is rep.solution
            if rep.iterations == 0:
                # an x-update that does not move hands back its start array
                assert trace.iterates[k + 1] is trace.iterates[k]

    def test_trace_memory_is_its_distinct_arrays(self):
        # a second copy of each iterate would put this near 2x; the 6 % the
        # trace holds beyond its arrays are the records and reports themselves
        prob, cfg = mc_cell(1.0, 60)
        run_alm(prob, np.zeros(2500), np.zeros(250), dataclasses.replace(cfg, max_outer=1))
        x0, multiplier0 = np.zeros(2500), np.zeros(250)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run_alm(prob, x0, multiplier0, cfg)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        arrays = trace.iterates + trace.multipliers
        arrays += [a for rep in trace.reports for a in (rep.solution, rep.residual)]
        distinct = {a.tobytes(): a.nbytes for a in arrays}
        assert held <= 1.1 * sum(distinct.values())


def trace_bytes(trace):
    """The status, the records, and the iterate and multiplier bytes."""
    return trace.status, trace.records, [x.tobytes() for x in trace.iterates], [m.tobytes() for m in trace.multipliers]


class TestSubgradientHandoff:
    def test_results_bitwise_with_fewer_prox_calls(self, monkeypatch):
        # each x-update hands the subgradient of its last accepted step to the
        # next, whose entry check then skips its prox when the certificate
        # holds; it holds only where the exact check would pass, so nothing
        # but the prox count may change
        prob, cfg = mc_cell(1.0, 40)
        handed = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)

        def without_handoff(oracle, f, x, eps_sub, max_iters, hint, residual, subgradient, entry_test):
            return minimize_composite(oracle, f, x, eps_sub, max_iters, hint, residual, entry_test=entry_test)

        monkeypatch.setattr(alm, "minimize_composite", without_handoff)
        plain = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
        assert trace_bytes(handed) == trace_bytes(plain)
        prox_calls = [sum(rep.prox_calls for rep in trace.reports) for trace in (handed, plain)]
        at_entry = sum(rep.certified and rep.iterations == 0 for rep in handed.reports)
        assert at_entry >= 1 and prox_calls[0] == prox_calls[1] - at_entry

    def test_results_bitwise_without_entry_test_at_p_above_one(self, monkeypatch):
        # after a p > 1 multiplier step x almost never meets eps_sub, so the
        # x-updates skip the entry test and its prox; forcing it on must
        # change nothing but the prox count, by one per x-update
        prob, cfg = mc_cell(2.0, 40)
        skipped = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)

        def with_entry_test(oracle, f, x, eps_sub, max_iters, hint, residual, subgradient, entry_test):
            assert not entry_test and subgradient is None
            return minimize_composite(oracle, f, x, eps_sub, max_iters, hint, residual)

        monkeypatch.setattr(alm, "minimize_composite", with_entry_test)
        tested = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
        assert trace_bytes(skipped) == trace_bytes(tested)
        assert all(rep.iterations >= 1 for rep in skipped.reports)
        prox_calls = [sum(rep.prox_calls for rep in trace.reports) for trace in (skipped, tested)]
        assert prox_calls[0] == prox_calls[1] - len(skipped.reports)

    def test_reports_do_not_keep_the_subgradient(self):
        # one n-vector per x-update would grow the trace by an iterate's size
        # each outer step
        prob, cfg = mc_cell(1.0, 40)
        trace = run_alm(prob, np.zeros(2500), np.zeros(250), cfg)
        assert all(rep.subgradient is None for rep in trace.reports)


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
        oracle = PenaltyGradientOracle(prob.a_map, prob.b, np.zeros(2), cfg.beta, p)
        report = minimize_composite(oracle, prob.f, np.zeros(4), cfg.eps_sub, cfg.max_inner)
        assert report.converged
        u = dual_prox_oracle(prob, np.zeros(2), cfg)
        assert np.linalg.norm(report.multiplier - u) <= 2e-3

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

    @pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(2.0), True, "3"])
    @pytest.mark.parametrize("field", ["max_outer", "max_inner"])
    def test_config_rejects_non_integer_caps(self, field, bad):
        # a float cap would fail only later, inside range(), and True would run as 1
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            base_config(**{field: bad})

    def test_start_of_other_length_rejected(self):
        # numpy would fail inside the first apply, on unaligned shapes
        prob = bp_composite(gen_bp(5, 20, 0.2, 0))
        with pytest.raises(ValueError, match="^x0 has length 19, A has 20 columns$"):
            run_alm(prob, np.zeros(19), np.zeros(5), base_config())
        prob, cfg = mc_cell(1.0, 5)
        with pytest.raises(ValueError, match="^x0 has length 2499, A has 2500 columns$"):
            run_alm(prob, np.zeros(2499), np.zeros(250), cfg)

    def test_config_accepts_numpy_integer_caps(self):
        cfg = base_config(max_outer=np.int64(200), max_inner=np.int32(100_000))
        assert run_alm(tiny_bp_problem(), np.zeros(2), np.zeros(1), cfg).converged

    @pytest.mark.parametrize("field", ["p", "beta", "eps", "eps_sub"])
    def test_config_rejects_nan(self, field):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{field} must"):
                base_config(**{field: bad})

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
