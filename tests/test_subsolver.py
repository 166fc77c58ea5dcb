import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoprox.operators import EntryMask, MatrixMap
from hoprox.alm import AlmConfig, CompositeProblem, run_alm
from hoprox.problems import gen_bp, gen_mc, mc_composite, nuclear_norm_on_vectors
from hoprox.prox import ProxFunction, l1_norm
from hoprox.subsolver import (
    _L_CEIL,
    PenaltyGradientOracle,
    _grid_start,
    gradient_map,
    holder_constant,
    minimize_composite,
)

from norm_power import norm_power_gradient
from prox_gradient import reference_prox_gradient
from spectral_norm import spectral_norm_estimate
from zero_function import zero_function


class TestPenaltyGradient:
    def test_zero_residual_gives_adjoint_multiplier(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 6))
        lam = rng.standard_normal(3)
        x_feasible, *_ = np.linalg.lstsq(a, a @ rng.standard_normal(6), rcond=None)
        oracle = PenaltyGradientOracle(MatrixMap(a), a @ x_feasible, lam, beta=2.0, p=2.0)
        assert np.allclose(oracle.gradient(x_feasible), a.T @ lam, atol=1e-10)

    def test_first_order_is_classical(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 7))
        b = rng.standard_normal(4)
        lam = rng.standard_normal(4)
        beta = 3.0
        oracle = PenaltyGradientOracle(MatrixMap(a), b, lam, beta, p=1.0)
        x = rng.standard_normal(7)
        expected = a.T @ lam + beta * a.T @ (a @ x - b)
        assert np.allclose(oracle.gradient(x), expected, rtol=1e-12)

    def test_value_matches_formula(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        lam = rng.standard_normal(3)
        oracle = PenaltyGradientOracle(MatrixMap(a), b, lam, beta=5.0, p=3.0)
        x = rng.standard_normal(5)
        r = a @ x - b
        expected = lam @ r + 5.0 ** (1 / 3) / (4 / 3) * np.linalg.norm(r) ** (4 / 3)
        r = oracle.residual(x)
        assert np.isclose(oracle.value_at_residual(r, math.sqrt(r @ r)), expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_holder_continuity(self, p):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 50))
        b = rng.standard_normal(20)
        beta = 2.0
        oracle = PenaltyGradientOracle(MatrixMap(a), b, rng.standard_normal(20), beta, p)
        m_p = holder_constant(p, beta, spectral_norm_estimate(a, tol=1e-10))
        for _ in range(200):
            x, y = rng.standard_normal((2, 50))
            lhs = np.linalg.norm(oracle.gradient(x) - oracle.gradient(y))
            assert lhs <= m_p * np.linalg.norm(x - y) ** (1.0 / p) + 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PenaltyGradientOracle(MatrixMap(np.eye(3)), np.ones(3), np.ones(2), 1.0, 1.0)

    @pytest.mark.parametrize(
        "beta,p",
        [(np.nan, 1.0), (0.0, 1.0), (np.inf, 1.0), (-np.inf, 1.0), (1.0, np.nan), (1.0, 0.5), (1.0, np.inf), (1.0, -np.inf)],
    )
    def test_bad_beta_or_p_rejected(self, beta, p):
        with pytest.raises(ValueError, match="^(beta|p) must"):
            PenaltyGradientOracle(MatrixMap(np.eye(2)), np.ones(2), np.ones(2), beta, p)

    def test_holder_constant_first_order(self):
        assert np.isclose(holder_constant(1.0, 2.0, 10.0), 2.0 * 100.0)


class TestFusedOracle:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", ["bp", "mc"])
    def test_matches_separate_calls_bitwise(self, kind, p):
        oracle, _, _ = hint_case(kind, p)
        rng = np.random.default_rng(11)
        for r in (rng.standard_normal(oracle.b.size), 1e-3 * rng.standard_normal(oracle.b.size),
                  np.zeros(oracle.b.size)):
            norm = math.sqrt(r @ r)
            value = oracle.value_at_residual(r, norm)
            assert type(value) is float
            grad = oracle.a_map.adjoint(oracle.dual_at_residual(r, norm))
            reference_dual = oracle.multiplier + oracle._beta_root * norm_power_gradient(r, p)
            assert oracle.dual_at_residual(r, norm).tobytes() == reference_dual.tobytes()
            assert grad.tobytes() == oracle.a_map.adjoint(reference_dual).tobytes()
            # and the value as written with np.linalg.norm
            power = 1.0 + 1.0 / p
            reference = float(oracle.multiplier @ r + oracle._beta_root / power * np.linalg.norm(r) ** power)
            assert value == reference

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        hnp.arrays(np.float64, 6, elements=st.floats(-1e100, 1e100)),
    )
    @example(1.0, np.zeros(6))
    @example(2.0, np.zeros(6))
    def test_gradient_from_the_trial_norm(self, p, r):
        # the subsolver forms an accepted iterate's gradient from the norm
        # math.sqrt(r @ r) that its trial took, without the penalty value
        rng = np.random.default_rng(5)
        oracle = PenaltyGradientOracle(MatrixMap(rng.standard_normal((6, 9))), rng.standard_normal(6),
                                       rng.standard_normal(6), 2.0, p)
        grad = oracle.a_map.adjoint(oracle.dual_at_residual(r, math.sqrt(r @ r)))
        reference = oracle.a_map.adjoint(oracle.multiplier + oracle._beta_root * norm_power_gradient(r, p))
        assert grad.tobytes() == reference.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 600), elements=st.floats(-1e150, 1e150)))
    def test_sqrt_of_dot_is_numpy_norm(self, v):
        # the fused oracle's and the PPA loop's bitwise claims rest on this identity
        assert math.sqrt(v @ v) == np.linalg.norm(v)


class TestGradientMap:
    def test_zero_function_gives_gradient(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        oracle = PenaltyGradientOracle(MatrixMap(a), rng.standard_normal(3), np.zeros(3), 1.0, 2.0)
        z = rng.standard_normal(4)
        grad = oracle.gradient(z)
        # z - (z - grad) reorders the arithmetic, so compare to rounding noise
        assert np.allclose(gradient_map(oracle, zero_function(), z), grad, atol=1e-14)

    def test_vanishes_at_minimizer(self):
        # psi = 0.5*x^2 (A=1, b=0, lam=0, beta=1, p=1); psi + |x| minimized at 0
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(1)), np.zeros(1), np.zeros(1), 1.0, 1.0)
        g = gradient_map(oracle, l1_norm(), np.zeros(1))
        assert np.linalg.norm(g) <= 1e-10

    def test_double_entry_recomputation(self):
        rng = np.random.default_rng(5)
        inst = gen_bp(4, 9, 0.4, 0)
        beta, p = 2.0, 2.0
        lam = rng.standard_normal(4)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, lam, beta, p)
        z = rng.standard_normal(9)
        # independent reimplementation at unit prox scale
        r = inst.a @ z - inst.b
        nr = np.linalg.norm(r)
        grad = inst.a.T @ (lam + beta ** (1 / p) * r * nr ** (1 / p - 1))
        w = z - grad
        expected = z - np.sign(w) * np.maximum(np.abs(w) - 1.0, 0.0)
        assert np.allclose(gradient_map(oracle, l1_norm(), z), expected, rtol=1e-12)


class TestMinimizeComposite:
    def test_quadratic_unconstrained(self):
        c = np.array([1.0, -2.0, 0.5])
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(3)), c, np.zeros(3), 1.0, 1.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(3), 1e-10, 10_000)
        assert report.converged
        assert report.final_grad_map_norm <= 1e-10
        assert np.allclose(report.solution, c, atol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_slow_reference(self, p):
        inst = gen_bp(2, 4, 0.5, 3)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, np.zeros(2), 1.0, p)
        f = l1_norm()
        report = minimize_composite(oracle, f, np.zeros(4), 1e-8, 100_000)
        assert report.converged
        x_ref = reference_prox_gradient(inst.a, inst.b, np.zeros(2), 1.0, p, np.zeros(4), 20_000)

        def obj(x):
            r = oracle.residual(x)
            return oracle.value_at_residual(r, math.sqrt(r @ r)) + f.value(x)

        assert abs(obj(report.solution) - obj(x_ref)) <= 1e-7

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_experiment_scale_loose_tolerance(self, p):
        inst = gen_bp(100, 500, 0.2, 0)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, np.zeros(100), 2.0, p)
        report = minimize_composite(oracle, l1_norm(), np.zeros(500), 0.1, 20_000)
        assert report.converged
        assert report.final_grad_map_norm <= 0.1
        recomputed = gradient_map(oracle, l1_norm(), report.solution)
        assert np.linalg.norm(recomputed) <= 0.1

    def test_normal_equations_first_order_smooth(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        lam = rng.standard_normal(5)
        oracle = PenaltyGradientOracle(MatrixMap(a), b, lam, 4.0, 1.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(8), 1e-9, 50_000)
        assert report.converged
        # with f = 0 the gradient map is the penalty gradient itself
        grad = a.T @ lam + 4.0 * a.T @ (a @ report.solution - b)
        assert np.linalg.norm(grad) <= 1e-9

    def test_nonconvergence_reported_not_raised(self):
        inst = gen_bp(10, 30, 0.3, 1)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, np.zeros(10), 2.0, 1.0)
        report = minimize_composite(oracle, l1_norm(), np.zeros(30), 1e-12, 3)
        assert not report.converged
        assert report.iterations == 3
        assert report.final_grad_map_norm > 1e-12

    def test_invalid_arguments(self):
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(2)), np.ones(2), np.zeros(2), 1.0, 1.0)
        for eps_sub in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="eps_sub"):
                minimize_composite(oracle, zero_function(), np.zeros(2), eps_sub, 10)
        with pytest.raises(ValueError):
            minimize_composite(oracle, zero_function(), np.zeros(2), 1e-6, 0)
        for hint in (0.0, -1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                minimize_composite(oracle, zero_function(), np.zeros(2), 1e-6, 10, curvature_hint=hint)

    @pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(2.0), True, "3"])
    def test_non_integer_cap_rejected(self, bad):
        # a float cap would fail only later, inside range(), and True would run as 1
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(2)), np.ones(2), np.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            minimize_composite(oracle, zero_function(), np.zeros(2), 1e-6, bad)
        assert minimize_composite(oracle, zero_function(), np.zeros(2), 1e-6, np.int64(10)).converged

    def test_start_without_entry_test_takes_a_step(self):
        # the start meets the tolerance, but without the entry test the solve
        # only learns it after one step, and spends no entry prox
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(2)), np.zeros(2), np.zeros(2), 1.0, 2.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(2), 1e-8, 10, entry_test=False)
        assert report.converged and report.iterations == 1
        assert report.prox_calls == report.trials + report.iterations - report.certified

    def test_already_converged_start(self):
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(2)), np.zeros(2), np.zeros(2), 1.0, 2.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(2), 1e-8, 10, curvature_hint=12.0)
        assert report.converged and report.iterations == 0
        # the hint, taken down to a power of two, passes on to the next solve
        assert report.first_L_accepted == 8.0


class TestEntryValidation:
    def test_mask_rejects_wrong_shapes(self):
        mask = EntryMask(np.array([0, 3, 5]), (2, 3))
        assert mask.apply(np.arange(6.0)).tolist() == [0.0, 3.0, 5.0]
        for bad in (np.zeros(5), np.zeros(7), np.zeros((2, 3)), np.zeros(3)):
            with pytest.raises(ValueError):
                mask.apply(bad)
        for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.zeros(6)):
            with pytest.raises(ValueError):
                mask.adjoint(bad)

    @pytest.mark.parametrize("bad", [np.array([0.5, 1.7]), np.array([0.0, 1.0]), np.array([True, False])])
    def test_mask_rejects_non_integer_indices(self, bad):
        # [0.5, 1.7] was truncated, silently, to entries 0 and 1
        with pytest.raises(ValueError, match="mask indices must be integers"):
            EntryMask(bad, (2, 2))

    def test_non_finite_start_rejected(self):
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(2)), np.ones(2), np.zeros(2), 1.0, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                minimize_composite(oracle, l1_norm(), np.array([0.0, bad]), 1e-6, 10)
            with pytest.raises(ValueError):
                minimize_composite(oracle, l1_norm(), np.zeros(2), 1e-6, 10, residual=np.array([bad, 0.0]))

    def test_residual_of_wrong_shape_rejected(self):
        oracle = PenaltyGradientOracle(MatrixMap(np.ones((2, 3))), np.ones(2), np.zeros(2), 1.0, 1.0)
        for bad in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):
            with pytest.raises(ValueError):
                minimize_composite(oracle, l1_norm(), np.zeros(3), 1e-6, 10, residual=bad)

    def test_subgradient_of_wrong_shape_rejected(self):
        oracle = PenaltyGradientOracle(MatrixMap(np.ones((2, 3))), np.ones(2), np.zeros(2), 1.0, 1.0)
        for bad in (np.zeros(2), np.zeros(1), np.zeros((3, 1))):
            with pytest.raises(ValueError, match="^subgradient shape"):
                minimize_composite(oracle, l1_norm(), np.zeros(3), 1e-6, 10, subgradient=(bad, 0.0))


def report_bytes(report):
    return (report.solution.tobytes(), report.iterations, report.final_grad_map_norm,
            report.converged, report.first_L_accepted, report.residual.tobytes())


# the penalty parameter beta of hint_case's oracles, the benchmark's
HINT_BETA = {"bp": 2.0, "mc": 5.0}


def hint_case(kind, p, bp_seed=0):
    """Oracle, f and start of a benchmark-scale subproblem with a nonzero multiplier."""
    rng = np.random.default_rng(7)
    if kind == "bp":
        inst = gen_bp(100, 500, 0.2, bp_seed)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, rng.standard_normal(100), HINT_BETA[kind], p)
        return oracle, l1_norm(), np.zeros(500)
    prob = mc_composite(gen_mc(50, 50, 0.1, 0))
    oracle = PenaltyGradientOracle(prob.a_map, prob.b, rng.standard_normal(prob.b.size), HINT_BETA[kind], p)
    return oracle, prob.f, np.zeros(2500)


class TestCurvatureHint:
    @pytest.mark.parametrize("kind,p", [("bp", 1.0), ("bp", 2.0), ("bp", 3.0), ("mc", 1.0), ("mc", 2.0)])
    def test_hint_leaves_report_unchanged(self, kind, p):
        # a hint at the curvature L the cold search accepts in iteration 1 passes
        # at its first trial, so the solve takes the cold search's steps and only
        # skips its failed trials 1, 2, ..., L/2, a prox call each
        oracle, f, z0 = hint_case(kind, p)
        cold = minimize_composite(oracle, f, z0, 0.1, 20_000, curvature_hint=1.0)
        assert cold.converged and cold.iterations >= 1
        warm = minimize_composite(oracle, f, z0, 0.1, 20_000, curvature_hint=cold.first_L_accepted)
        assert warm.solution.tobytes() == cold.solution.tobytes()
        assert warm.iterations == cold.iterations
        assert warm.final_grad_map_norm == cold.final_grad_map_norm
        assert warm.first_L_accepted == cold.first_L_accepted
        skipped = int(math.log2(cold.first_L_accepted))
        assert warm.trials == cold.trials - skipped
        assert warm.prox_calls == cold.prox_calls - skipped

    @pytest.mark.parametrize("factor", [2, 8])
    @pytest.mark.parametrize("kind,p", [("bp", 1.0), ("bp", 2.0), ("bp", 3.0), ("mc", 1.0), ("mc", 2.0)])
    def test_passing_hint_costs_one_trial(self, kind, p, factor):
        # above the curvature the cold search accepts, the hint passes: the
        # search never probes below it, so iteration 1 makes exactly one trial
        oracle, f, z0 = hint_case(kind, p)
        cold = minimize_composite(oracle, f, z0, 0.1, 1)
        hint = factor * cold.first_L_accepted
        warm = minimize_composite(oracle, f, z0, 0.1, 1, curvature_hint=hint)
        assert (warm.first_L_accepted, warm.trials) == (hint, 1)

    @pytest.mark.parametrize(
        "kind,p,iterations,prox_calls,trials,first_l",
        [
            ("bp", 1.0, 557, 1234, 1123, 2048.0),
            ("bp", 2.0, 136, 313, 277, 128.0),
            ("bp", 3.0, 67, 152, 136, 64.0),
            ("mc", 1.0, 40, 99, 81, 8.0),
            ("mc", 2.0, 14, 33, 26, 1.0),
        ],
    )
    def test_cold_search_unchanged(self, kind, p, iterations, prox_calls, trials, first_l):
        # the default hint 1 searches 1, 2, 4, ... in iteration 1: warm starts
        # must leave the cold search as it is, and these counts pin it
        oracle, f, z0 = hint_case(kind, p)
        report = minimize_composite(oracle, f, z0, 0.1, 20_000)
        assert report.converged
        assert (report.iterations, report.prox_calls, report.trials, report.first_L_accepted) == (
            iterations, prox_calls, trials, first_l
        )

    @pytest.mark.parametrize(
        "hint,trial_ls",
        [
            (1.0, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
            (128.0, [128.0]),
            (1024.0, [1024.0]),
        ],
        ids=["cold", "hint-at-accepted", "hint-above"],
    )
    def test_first_iteration_prox_calls(self, hint, trial_ls):
        # the cold search of this case accepts L = 128 in iteration 1, with one
        # prox per trial between the entry check's and the stopping test's; a
        # hint at or above 128 passes at its first trial
        oracle, f, z0 = hint_case("bp", 2.0)
        scales = []
        counted = ProxFunction(f.value, lambda v, t: scales.append(t) or f.prox(v, t))
        report = minimize_composite(oracle, counted, z0, 0.1, 1, curvature_hint=hint)
        assert report.first_L_accepted == trial_ls[-1]
        assert scales == [1.0] + [1.0 / L for L in trial_ls] + [1.0]
        assert report.prox_calls == len(scales)
        assert report.trials == len(trial_ls)

    @settings(max_examples=60, deadline=None)
    @given(log2_hint=st.floats(-4.0, 80.0), seed=st.integers(0, 50), p=st.sampled_from([1.0, 2.0]))
    def test_first_L_not_below_hint(self, log2_hint, seed, p):
        # the first search starts at the hint's power of two (1 at least) and
        # only doubles, so it accepts a power of two no smaller than that start
        rng = np.random.default_rng(seed)
        a_map = MatrixMap(rng.standard_normal((4, 8)))
        oracle = PenaltyGradientOracle(a_map, rng.standard_normal(4), np.zeros(4), 1.0, p)
        hint = 2.0 ** log2_hint
        start = _grid_start(hint)
        assert start <= max(hint, 1.0) < 2.0 * start
        report = minimize_composite(oracle, l1_norm(), np.zeros(8), 1e-3, 1, curvature_hint=hint)
        assert report.first_L_accepted >= start
        assert math.frexp(report.first_L_accepted)[0] == 0.5


def counted_solve(oracle, f, z0, max_iters, curvature_hint=1.0):
    """Solve with eps_sub = 0.1, counting f.prox calls, curvature trials and stopping tests after a step.

    Each trial computes the residual of the prox's output, and no other
    residual is of a prox output: the solver also computes one at entry and
    at each trial's extrapolated point y after iteration 1. It calls
    ``dual_at_residual`` at entry, at each such y, and once per stopping
    test after a step. So the trials are the residuals of prox outputs, and
    the stopping tests after a step are the ``dual_at_residual`` calls less
    the other residuals.
    """
    # the prox outputs by id, held so that no other array takes over an id
    outputs, prox_calls, trial_residuals, other_residuals, duals = {}, [], [], [], []

    def prox(v, t):
        out = f.prox(v, t)
        prox_calls.append(t)
        outputs[id(out)] = out
        return out

    counted = ProxFunction(f.value, prox)
    residual, dual = oracle.residual, oracle.dual_at_residual
    oracle.residual = lambda x: (trial_residuals if id(x) in outputs else other_residuals).append(x) or residual(x)
    oracle.dual_at_residual = lambda r, norm: duals.append(r) or dual(r, norm)
    report = minimize_composite(oracle, counted, z0, 0.1, max_iters, curvature_hint)
    return report, len(prox_calls), len(trial_residuals), len(duals) - len(other_residuals)


class TestReportCounts:
    @pytest.mark.parametrize(
        "kind,p,hint", [("bp", 1.0, 1.0), ("bp", 2.0, 1024.0), ("mc", 1.0, 1.0), ("mc", 2.0, 8.0)]
    )
    def test_counts_match_counting_wrappers(self, kind, p, hint):
        oracle, f, z0 = hint_case(kind, p)
        report, prox_calls, trials, stop_tests = counted_solve(oracle, f, z0, 20_000, hint)
        assert report.converged and report.iterations >= 2
        assert (report.prox_calls, report.trials, report.stop_tests) == (prox_calls, trials, stop_tests)
        # one prox per trial, plus the entry test and each stopping test
        # after a step, bar a certified stop
        assert trials + 1 + stop_tests - report.certified - prox_calls == 0
        assert 1 <= stop_tests <= report.iterations

    def test_converged_start_counts_the_entry_prox(self):
        oracle = PenaltyGradientOracle(MatrixMap(np.eye(2)), np.zeros(2), np.zeros(2), 1.0, 2.0)
        report, prox_calls, trials, stop_tests = counted_solve(oracle, zero_function(), np.zeros(2), 10)
        assert report.iterations == 0
        assert (report.prox_calls, report.trials, report.stop_tests) == (prox_calls, trials, stop_tests) == (1, 0, 0)


class TestStopScreen:
    @pytest.mark.parametrize("kind,p", [("bp", 1.0), ("bp", 2.0), ("mc", 1.0), ("mc", 2.0)])
    def test_capped_solve_reports_exact_gradient_map_after_long_step(self, kind, p):
        # a solve takes the same steps whatever its cap: the 4-step solve
        # tests only its step 4, so steps 1 to 3 are long, yet the 3-step
        # solve tests its step 3, the last its cap allows
        oracle, f, z0 = hint_case(kind, p)
        capped = minimize_composite(oracle, f, z0, 0.1, 3)
        longer = minimize_composite(oracle, f, z0, 0.1, 4)
        assert not capped.converged and capped.iterations == 3
        assert (capped.stop_tests, longer.stop_tests) == (1, 1)
        # the cap's report hands on no subgradient, and its one test took a prox
        assert capped.subgradient is None and not capped.certified
        assert capped.prox_calls == capped.trials + 1 + capped.stop_tests
        g = gradient_map(oracle, f, capped.solution)
        assert capped.final_grad_map_norm == math.sqrt(g.dot(g)) > 0.1
        r = oracle.residual(capped.solution)
        assert capped.residual.tobytes() == r.tobytes()
        multiplier = oracle.dual_at_residual(r, math.sqrt(r.dot(r)))
        assert capped.multiplier.tobytes() == multiplier.tobytes()

    def test_screened_solve_still_stops_within_eps_sub(self):
        oracle, f, z0 = hint_case("bp", 1.0)
        report, prox_calls, _, _ = counted_solve(oracle, f, z0, 20_000)
        assert report.converged and not report.certified
        # a prox call fewer for each step not tested
        assert prox_calls < report.trials + 1 + report.iterations
        assert report.stop_tests < report.iterations
        g = gradient_map(oracle, f, report.solution)
        assert math.sqrt(g.dot(g)) == report.final_grad_map_norm <= 0.1


class TestResidualHandoff:
    @pytest.mark.parametrize("kind,p", [("bp", 1.0), ("bp", 2.0), ("mc", 1.0), ("mc", 2.0)])
    def test_given_residual_leaves_report_unchanged(self, kind, p):
        oracle, f, z0 = hint_case(kind, p)
        z0 = z0 + np.random.default_rng(3).standard_normal(z0.size)
        computed = minimize_composite(oracle, f, z0, 0.1, 20_000)
        handed = minimize_composite(oracle, f, z0, 0.1, 20_000, residual=oracle.residual(z0))
        assert computed.converged and computed.iterations >= 1
        assert report_bytes(handed) == report_bytes(computed)

    @pytest.mark.parametrize("kind,p", [("bp", 1.0), ("bp", 3.0), ("mc", 2.0)])
    def test_report_residual_is_that_of_solution(self, kind, p):
        oracle, f, z0 = hint_case(kind, p)
        moved = minimize_composite(oracle, f, z0, 0.1, 20_000)
        assert moved.iterations >= 1
        expected = oracle.a_map.apply(moved.solution) - oracle.b
        assert moved.residual.tobytes() == expected.tobytes()
        # restarted at its own solution, the solve stops at entry
        still = minimize_composite(oracle, f, moved.solution, 0.1, 20_000)
        assert still.iterations == 0
        assert still.residual.tobytes() == expected.tobytes()

    def test_capped_solve_residual(self):
        inst = gen_bp(10, 30, 0.3, 1)
        oracle = PenaltyGradientOracle(MatrixMap(inst.a), inst.b, np.zeros(10), 2.0, 1.0)
        report = minimize_composite(oracle, l1_norm(), np.zeros(30), 1e-12, 3)
        assert not report.converged
        assert report.residual.tobytes() == (inst.a @ report.solution - inst.b).tobytes()


def accepted_step(oracle, f, y, L):
    """The trial x+ = prox_{f/L}(y - grad_psi(y)/L) and s = -(L (x+ - y) + grad_psi(y)).

    s is the subgradient of f at x+ that the prox's optimality condition
    supplies, so u = grad_psi(x+) + s bounds ||G(x+)|| for any psi.
    """
    grad_y = oracle.gradient(y)
    x_next = f.prox(y - grad_y / L, 1.0 / L)
    return x_next, -(L * (x_next - y) + grad_y)


def extended_gradient_map_norm(a, b, multiplier, p, kind, x):
    """||G(x)|| in np.longdouble for beta = 1 and f = ||.||_1 or 0, from its own formulas."""
    a, b, multiplier, x = (np.asarray(v, dtype=np.longdouble) for v in (a, b, multiplier, x))
    r = a @ x - b
    norm = np.sqrt(r @ r)
    direction = r * norm ** (np.longdouble(1) / np.longdouble(p) - 1) if norm else np.zeros_like(r)
    v = x - a.T @ (multiplier + direction)
    prox = np.sign(v) * np.maximum(np.abs(v) - 1, 0) if kind == "l1" else v
    d = x - prox
    return float(np.sqrt(d @ d))


# (seed, log_a, log_b, log_eps, kind) of extreme_scale_case
EXTREME_SCALE_EXAMPLES = [
    dict(seed=3, log_a=-1.66, log_b=0.18, log_eps=-10.0, kind="zero"),
    dict(seed=22, log_a=-0.53, log_b=0.0, log_eps=-8.0, kind="l1"),
    dict(seed=291, log_a=-1.23, log_b=1.41, log_eps=-9.0, kind="l1"),
    dict(seed=11, log_a=-0.43, log_b=1.69, log_eps=-12.0, kind="l1"),
    dict(seed=12, log_a=-0.39, log_b=2.34, log_eps=-10.0, kind="l1"),
]
# (seed, eps_sub, kind) of rounded_step_case
ROUNDED_STEP_CASES = [(1, 1e-8, "l1"), (29, 1e-10, "l1"), (30, 1e-12, "l1"), (34, 1e-12, "zero")]


def with_examples(cases):
    """A hypothesis ``@example`` for each keyword dict in ``cases``."""

    def decorate(test):
        for case in cases:
            test = example(**case)(test)
        return test

    return decorate


def extreme_scale_case(seed, log_a, log_b, log_eps, kind):
    """Oracle (p = 2, beta = 1), f and eps_sub = 10^log_eps, with A over 10^log_a and b over 10^log_b.

    f is ||.||_1 for kind "l1", else 0; the multiplier is random.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 8)) * 10.0 ** log_a
    b = rng.standard_normal(4) * 10.0 ** log_b
    oracle = PenaltyGradientOracle(MatrixMap(a), b, rng.standard_normal(4), 1.0, 2.0)
    return oracle, l1_norm() if kind == "l1" else zero_function(), 10.0 ** log_eps


def rounded_step_case(seed, eps_sub, kind):
    """Oracle (p = 2, beta = 1), f and eps_sub, with A and b over random decades.

    f is ||.||_1 for kind "l1", else 0; the multiplier is random.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 8)) * 10 ** rng.uniform(-1, 1)
    b = rng.standard_normal(4) * 10 ** rng.uniform(0, 3)
    oracle = PenaltyGradientOracle(MatrixMap(a), b, rng.standard_normal(4), 1.0, 2.0)
    return oracle, l1_norm() if kind == "l1" else zero_function(), eps_sub


class TestStoppingCertificate:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["l1", "nuclear"]),
        p=st.sampled_from([1.0, 2.0, 3.0]),
        log_l=st.floats(-3.0, 4.0),
        y=hnp.arrays(np.float64, 12, elements=st.floats(-10.0, 10.0)),
        multiplier=hnp.arrays(np.float64, 6, elements=st.floats(-10.0, 10.0)),
    )
    def test_bounds_the_gradient_map(self, kind, p, log_l, y, multiplier):
        # x+ = prox_f(x+ + s) and prox_f is nonexpansive, so
        # ||G(x+)|| = ||prox_f(x+ + s) - prox_f(x+ - grad_psi(x+))|| <= ||u||
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 12))
        oracle = PenaltyGradientOracle(MatrixMap(a), rng.standard_normal(6), multiplier, 2.0, p)
        f = l1_norm() if kind == "l1" else nuclear_norm_on_vectors(3, 4)
        L = 10.0 ** log_l
        x_next, s = accepted_step(oracle, f, y, L)
        u = oracle.gradient(x_next) + s
        exact = np.linalg.norm(gradient_map(oracle, f, x_next))
        rounding = 1e-12 * (1.0 + L * np.linalg.norm(y) + np.linalg.norm(oracle.gradient(y)))
        assert exact <= np.linalg.norm(u) + rounding

    @pytest.mark.parametrize(
        "kind,p,eps_sub", [("bp", 1.0, 0.1), ("mc", 1.0, 0.1), ("mc", 2.0, 0.1), ("mc", 1.0, 0.01)]
    )
    def test_certified_stops_are_sound(self, kind, p, eps_sub):
        # the BP case is the alm-bp cell of seed 3, whose x-updates 5, 7, 44 and
        # 48 certify; seed 0's cell stopped certifying when the first curvature
        # search lost its downward probe. The stalled MC p = 1 cell also stops
        # x-updates at entry on the subgradient the previous one handed on
        oracle, f, z0 = hint_case(kind, p, bp_seed=3)
        prob = CompositeProblem(f, oracle.a_map, oracle.b)
        cfg = AlmConfig(p=p, beta=HINT_BETA[kind], eps=1e-3, eps_sub=eps_sub, max_outer=60, max_inner=50_000)
        trace = run_alm(prob, z0, np.zeros_like(prob.b), cfg)
        certified = at_entry = 0
        for k, report in enumerate(trace.reports):
            if report.certified:
                certified += 1
                at_k = PenaltyGradientOracle(prob.a_map, prob.b, trace.multipliers[k], cfg.beta, p)
                exact = np.linalg.norm(gradient_map(at_k, f, report.solution))
                assert report.converged
                if report.iterations == 0:
                    at_entry += 1
                    assert report.solution is trace.iterates[k] and report.prox_calls == 0
                assert exact <= report.final_grad_map_norm <= (1.0 - 1e-6) * eps_sub
        assert certified >= 1
        assert (at_entry >= 1) == ((kind, p, eps_sub) == ("mc", 1.0, 0.1))

    @settings(max_examples=40, deadline=timedelta(seconds=5))
    @given(
        seed=st.integers(0, 2**16),
        log_a=st.floats(-2.0, 2.0),
        log_b=st.floats(-1.0, 4.0),
        log_eps=st.floats(-12.0, -6.0),
        kind=st.sampled_from(["l1", "zero"]),
    )
    @with_examples(EXTREME_SCALE_EXAMPLES)
    def test_certified_stop_at_extreme_scales(self, seed, log_a, log_b, log_eps, kind):
        # A and b scaled over four and five decades and eps_sub down to 1e-12:
        # each certified stop must bound the gradient map computed in extended
        # precision. The first three examples certify; without the rounding
        # bound on u the last two certify too, with ||G|| 1.5e4 and 692 times
        # eps_sub. Random draws certify mostly at eps_sub >= 1e-8
        oracle, f, eps_sub = extreme_scale_case(seed, log_a, log_b, log_eps, kind)
        report = minimize_composite(oracle, f, np.zeros(8), eps_sub, 2000)
        event(f"certified: {report.certified}")
        if report.certified:
            assert report.final_grad_map_norm <= (1.0 - 1e-6) * eps_sub
            exact = extended_gradient_map_norm(
                oracle.a_map.mat, oracle.b, oracle.multiplier, 2.0, kind, report.solution
            )
            assert exact <= eps_sub

    def quadratic_case(self):
        # psi = ||0.1 x - b||^2 / 2 has curvature 0.01, so from x0 = 0 iteration
        # 1 accepts L = 1 whatever eps_sub is: x1 = x0 - grad_psi(x0)
        oracle = PenaltyGradientOracle(MatrixMap(0.1 * np.eye(3)), np.array([1.0, -2.0, 0.5]), np.zeros(3), 1.0, 1.0)
        x0 = np.zeros(3)
        grad_0 = oracle.gradient(x0)
        x1 = x0 - grad_0
        u = oracle.gradient(x1) - grad_0 - 1.0 * (x1 - x0)
        return oracle, x0, math.sqrt(u @ u)

    @pytest.mark.parametrize("margin,certified", [(2e-6, True), (5e-7, False)])
    def test_margin_below_eps_sub(self, margin, certified):
        # ||u|| = (1 - margin) eps_sub: certified only below (1 - 1e-6) eps_sub,
        # otherwise the exact test decides
        oracle, x0, u_norm = self.quadratic_case()
        eps_sub = u_norm / (1.0 - margin)
        report = minimize_composite(oracle, zero_function(), x0, eps_sub, 1)
        assert report.converged and report.iterations == 1
        assert report.certified == certified
        exact = np.linalg.norm(gradient_map(oracle, zero_function(), report.solution))
        assert report.final_grad_map_norm == (u_norm if certified else exact)
        assert report.prox_calls == 2 + (not certified)

    @pytest.mark.parametrize("seed,eps_sub,kind", ROUNDED_STEP_CASES)
    def test_rounded_step_does_not_certify(self, seed, eps_sub, kind):
        # badly scaled A and b: near the solution L grows to 2^28 and beyond, the
        # step x - y rounds to nothing and L (x - y) loses about L ulp(y), so ||u||
        # came out at or below eps_sub while the exact ||G|| was far above it
        oracle, f, eps_sub = rounded_step_case(seed, eps_sub, kind)
        report = minimize_composite(oracle, f, np.zeros(8), eps_sub, 20_000)
        assert report.converged
        exact = np.linalg.norm(gradient_map(oracle, f, report.solution))
        assert exact <= report.final_grad_map_norm <= eps_sub

    def test_equals_exact_norm_when_f_is_zero(self):
        # with f = 0, s = 0 and u is grad_psi(x) = G(x), up to rounding
        oracle, x0, _ = self.quadratic_case()
        report = minimize_composite(oracle, zero_function(), x0, 1e-4, 50_000)
        assert report.converged and report.certified
        exact = np.linalg.norm(gradient_map(oracle, zero_function(), report.solution))
        assert report.final_grad_map_norm == pytest.approx(exact, rel=1e-9)


class TestCurvatureCeiling:
    @pytest.mark.parametrize(
        "case,max_iters",
        [(extreme_scale_case(**c), 2000) for c in EXTREME_SCALE_EXAMPLES]
        + [(rounded_step_case(*c), 20_000) for c in ROUNDED_STEP_CASES],
        ids=[f"extreme-s{c['seed']}" for c in EXTREME_SCALE_EXAMPLES]
        + [f"rounded-s{c[0]}" for c in ROUNDED_STEP_CASES],
    )
    def test_accepted_curvature_stays_below_ceiling(self, case, max_iters):
        # the badly scaled solves of TestStoppingCertificate drive L highest;
        # a search that passes _L_CEIL raises. Each trial's prox takes the
        # step 1/L and each search ends on the trial it accepts, so the
        # largest accepted L is 1 / the smallest step
        oracle, f, eps_sub = case
        steps = []
        counted = ProxFunction(f.value, lambda v, t: steps.append(t) or f.prox(v, t))
        minimize_composite(oracle, counted, np.zeros(8), eps_sub, max_iters)
        assert 1.0 / min(steps) <= _L_CEIL * 2.0 ** -40


def entry_case(seed, log_a, log_b, log_eps, kind, log_d):
    """A converged solve, a multiplier step d and the next solve started on its subgradient.

    A over 10^log_a, b over 10^log_b, eps_sub = 10^log_eps and d over
    10^log_d eps_sub. Returns the next solve's report, its eps_sub, the
    entry certificate ||u'|| the subgradient gives and the gradient map at
    the start in extended precision, or None when the first solve did not
    converge after a step.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 8)) * 10.0 ** log_a
    b = rng.standard_normal(4) * 10.0 ** log_b
    multiplier = rng.standard_normal(4)
    eps_sub = 10.0 ** log_eps
    moved = multiplier + rng.standard_normal(4) * eps_sub * 10.0 ** log_d
    f = l1_norm() if kind == "l1" else zero_function()
    before = PenaltyGradientOracle(MatrixMap(a), b, multiplier, 1.0, 2.0)
    first = minimize_composite(before, f, np.zeros(8), eps_sub, 2000)
    if first.subgradient is None:
        return None
    after = PenaltyGradientOracle(MatrixMap(a), b, moved, 1.0, 2.0)
    u = after.gradient(first.solution) + first.subgradient[0]
    report = minimize_composite(after, f, first.solution, eps_sub, 1, subgradient=first.subgradient)
    exact = extended_gradient_map_norm(a, b, moved, 2.0, kind, first.solution)
    return report, eps_sub, math.sqrt(u @ u), exact


class TestEntryCertificate:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["l1", "nuclear"]),
        p=st.sampled_from([1.0, 2.0, 3.0]),
        log_l=st.floats(-3.0, 4.0),
        y=hnp.arrays(np.float64, 12, elements=st.floats(-10.0, 10.0)),
        multiplier=hnp.arrays(np.float64, 6, elements=st.floats(-10.0, 10.0)),
        step=hnp.arrays(np.float64, 6, elements=st.floats(-10.0, 10.0)),
    )
    def test_bounds_the_gradient_map_after_a_multiplier_step(self, kind, p, log_l, y, multiplier, step):
        # the multiplier step changes psi but not f, so s stays in the
        # subdifferential of f at x+ and ||G'(x+)|| <= ||grad_psi'(x+) + s||
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 12))
        b = rng.standard_normal(6)
        f = l1_norm() if kind == "l1" else nuclear_norm_on_vectors(3, 4)
        L = 10.0 ** log_l
        before = PenaltyGradientOracle(MatrixMap(a), b, multiplier, 2.0, p)
        x_next, s = accepted_step(before, f, y, L)
        after = PenaltyGradientOracle(MatrixMap(a), b, multiplier + step, 2.0, p)
        u = after.gradient(x_next) + s
        exact = np.linalg.norm(gradient_map(after, f, x_next))
        rounding = 1e-12 * (1.0 + L * np.linalg.norm(y) + np.linalg.norm(before.gradient(y)) + np.linalg.norm(u))
        assert exact <= np.linalg.norm(u) + rounding

    @settings(max_examples=40, deadline=timedelta(seconds=5))
    @given(
        seed=st.integers(0, 2**16),
        log_a=st.floats(-2.0, 2.0),
        log_b=st.floats(-1.0, 4.0),
        log_eps=st.floats(-12.0, -6.0),
        kind=st.sampled_from(["l1", "zero"]),
        log_d=st.floats(-3.0, 0.0),
    )
    @example(seed=26473, log_a=-1.37, log_b=0.49, log_eps=-9.0, kind="zero", log_d=-2.28)
    @example(seed=1046, log_a=-0.56, log_b=1.9, log_eps=-7.0, kind="zero", log_d=-1.14)
    @example(seed=10432, log_a=-1.07, log_b=3.72, log_eps=-6.0, kind="zero", log_d=-2.76)
    def test_entry_certificate_at_extreme_scales(self, seed, log_a, log_b, log_eps, kind, log_d):
        # each stop at entry must bound the gradient map computed in extended
        # precision; the examples certify there
        case = entry_case(seed, log_a, log_b, log_eps, kind, log_d)
        if case is None:
            return
        report, eps_sub, u_norm, exact = case
        at_entry = report.certified and report.iterations == 0
        event(f"certified at entry: {at_entry}")
        if at_entry:
            assert report.prox_calls == 0 and report.final_grad_map_norm == u_norm
            assert u_norm <= (1.0 - 1e-6) * eps_sub
            assert exact <= eps_sub

    @pytest.mark.parametrize(
        "seed,log_a,log_b,log_eps,kind,log_d",
        [
            (27841, -1.09, 3.78, -12.0, "zero", -2.2),
            (30698, 0.16, 3.55, -12.0, "zero", -2.35),
            (26721, 1.0, 1.57, -12.0, "l1", -2.8),
        ],
    )
    def test_rounding_bound_refuses(self, seed, log_a, log_b, log_eps, kind, log_d):
        # ||u'|| is far below eps_sub, but the subgradient came from a step at
        # large L ||y - grad_psi(y)/L||, so its rounding is not: ||G|| is 587,
        # 14 and 5 times ||u'||, and above eps_sub in the first two
        report, eps_sub, u_norm, exact = entry_case(seed, log_a, log_b, log_eps, kind, log_d)
        assert u_norm <= (1.0 - 1e-6) * eps_sub and exact > u_norm
        assert not (report.certified and report.iterations == 0)
        assert report.prox_calls >= 1

    @pytest.mark.parametrize(
        "margin,rounding,certified", [(2e-6, 0.0, True), (5e-7, 0.0, False), (2e-6, 0.99, True), (2e-6, 1.01, False)]
    )
    def test_margin_and_rounding_bound(self, margin, rounding, certified):
        # with f = 0, s = 0 is a subgradient everywhere and u' = grad_psi(z0):
        # ||u'|| = (1 - margin) eps_sub certifies only below (1 - 1e-6) eps_sub,
        # and a scale that puts delta' above 1e-6 eps_sub refuses it
        oracle = PenaltyGradientOracle(MatrixMap(0.1 * np.eye(3)), np.array([1.0, -2.0, 0.5]), np.zeros(3), 1.0, 1.0)
        z0 = np.array([3.0, -1.0, 2.0])
        grad = oracle.gradient(z0)
        u_norm = math.sqrt(grad @ grad)
        eps_sub = u_norm / (1.0 - margin)
        scale = rounding * 2.0 ** 52 * 1e-6 * eps_sub
        report = minimize_composite(oracle, zero_function(), z0, eps_sub, 1, subgradient=(np.zeros(3), scale))
        # refused, the exact entry check passes with its one prox
        assert (report.iterations, report.prox_calls, report.certified) == (0, int(not certified), certified)
        assert report.final_grad_map_norm == u_norm or not certified

    @pytest.mark.parametrize("kind,p,entry", [("bp", 1.0, 0), ("mc", 1.0, 0), ("mc", 2.0, 1)])
    def test_handoff_moves_no_stop(self, kind, p, entry):
        # a chain of solves with small multiplier steps: handed the subgradient
        # of the last accepted step, each solve makes the same stops and calls
        # as without it, bar the entry prox that a certificate skips. Only the
        # MC p = 2 chain certifies at entry, in its fourth solve
        oracle, f, z0 = hint_case(kind, p)
        chains = {}
        for pass_on in (False, True):
            x, multiplier, subgradient = z0, oracle.multiplier, None
            chains[pass_on] = []
            for _ in range(8):
                at_k = PenaltyGradientOracle(oracle.a_map, oracle.b, multiplier, HINT_BETA[kind], p)
                report = minimize_composite(at_k, f, x, 0.1, 20_000, subgradient=subgradient)
                chains[pass_on].append((subgradient, report))
                x, subgradient = report.solution, report.subgradient if pass_on else None
                multiplier = multiplier + 1e-3 * HINT_BETA[kind] ** (1.0 / p) * norm_power_gradient(report.residual, p)
        at_entry = 0
        for (_, without), (handed_in, with_s) in zip(chains[False], chains[True]):
            skipped = with_s.certified and with_s.iterations == 0
            at_entry += skipped
            assert report_bytes(with_s)[:2] + report_bytes(with_s)[3:] == (
                report_bytes(without)[:2] + report_bytes(without)[3:]
            )
            assert (with_s.prox_calls, with_s.trials) == (without.prox_calls - skipped, without.trials)
            assert with_s.final_grad_map_norm == without.final_grad_map_norm or skipped
            if with_s.iterations == 0:
                assert with_s.subgradient is handed_in and without.subgradient is None
            else:
                assert with_s.subgradient is not None
        assert at_entry == entry
