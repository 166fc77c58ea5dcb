import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoprox.linalg import spectral_norm_estimate
from hoprox.operators import EntryMask
from hoprox.problems import gen_bp, gen_mc, mc_composite
from hoprox.prox import ProxFunction, l1_norm, norm_power_gradient, zero_function
from hoprox.subsolver import (
    PenaltyGradientOracle,
    gradient_map,
    holder_constant,
    iteration_bound,
    minimize_composite,
)


def reference_prox_gradient(a, b, multiplier, beta, p, x0, iters):
    """Slow independent oracle: own gradient formula, own shrinkage, Armijo halving."""
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

    def shrink(v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    for _ in range(iters):
        g = grad(x)
        while True:
            z = shrink(x - step * g, step)
            dz = z - x
            if psi(z) <= psi(x) + g @ dz + (dz @ dz) / (2 * step) + 1e-18:
                break
            step *= 0.5
        x = z
        step = min(step * 1.5, 1e6)
    return x


class TestPenaltyGradient:
    def test_zero_residual_gives_adjoint_multiplier(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 6))
        lam = rng.standard_normal(3)
        x_feasible, *_ = np.linalg.lstsq(a, a @ rng.standard_normal(6), rcond=None)
        oracle = PenaltyGradientOracle(a, a @ x_feasible, lam, beta=2.0, p=2.0)
        assert np.allclose(oracle.gradient(x_feasible), a.T @ lam, atol=1e-10)

    def test_first_order_is_classical(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 7))
        b = rng.standard_normal(4)
        lam = rng.standard_normal(4)
        beta = 3.0
        oracle = PenaltyGradientOracle(a, b, lam, beta, p=1.0)
        x = rng.standard_normal(7)
        expected = a.T @ lam + beta * a.T @ (a @ x - b)
        assert np.allclose(oracle.gradient(x), expected, rtol=1e-12)

    def test_value_matches_formula(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        lam = rng.standard_normal(3)
        oracle = PenaltyGradientOracle(a, b, lam, beta=5.0, p=3.0)
        x = rng.standard_normal(5)
        r = a @ x - b
        expected = lam @ r + 5.0 ** (1 / 3) / (4 / 3) * np.linalg.norm(r) ** (4 / 3)
        assert np.isclose(oracle.value(x), expected, rtol=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_holder_continuity(self, p):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((20, 50))
        b = rng.standard_normal(20)
        beta = 2.0
        oracle = PenaltyGradientOracle(a, b, rng.standard_normal(20), beta, p)
        m_p = holder_constant(p, beta, spectral_norm_estimate(a, tol=1e-10))
        for _ in range(200):
            x, y = rng.standard_normal((2, 50))
            lhs = np.linalg.norm(oracle.gradient(x) - oracle.gradient(y))
            assert lhs <= m_p * np.linalg.norm(x - y) ** (1.0 / p) + 1e-10

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PenaltyGradientOracle(np.eye(3), np.ones(3), np.ones(2), 1.0, 1.0)

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
            value, grad = oracle.value_and_gradient_at_residual(r)
            assert type(value) is float
            assert value == oracle.value_at_residual(r)
            reference_grad = oracle.a_map.adjoint(
                oracle.multiplier + oracle._beta_root * norm_power_gradient(r, p))
            assert grad.tobytes() == reference_grad.tobytes()
            # and the value as written with np.linalg.norm
            power = 1.0 + 1.0 / p
            reference = float(oracle.multiplier @ r + oracle._beta_root / power * np.linalg.norm(r) ** power)
            assert value == reference

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 600), elements=st.floats(-1e150, 1e150)))
    def test_sqrt_of_dot_is_numpy_norm(self, v):
        # the fused oracle's bitwise claim rests on this identity
        assert math.sqrt(v @ v) == np.linalg.norm(v)


class TestGradientMap:
    def test_zero_function_gives_gradient(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        oracle = PenaltyGradientOracle(a, rng.standard_normal(3), np.zeros(3), 1.0, 2.0)
        z = rng.standard_normal(4)
        grad = oracle.gradient(z)
        # z - (z - grad) reorders the arithmetic, so compare to rounding noise
        assert np.allclose(gradient_map(oracle, zero_function(), z), grad, atol=1e-14)

    def test_vanishes_at_minimizer(self):
        # psi = 0.5*x^2 (A=1, b=0, lam=0, beta=1, p=1); psi + |x| minimized at 0
        oracle = PenaltyGradientOracle(np.eye(1), np.zeros(1), np.zeros(1), 1.0, 1.0)
        g = gradient_map(oracle, l1_norm(), np.zeros(1))
        assert np.linalg.norm(g) <= 1e-10

    def test_double_entry_recomputation(self):
        rng = np.random.default_rng(5)
        inst = gen_bp(4, 9, 0.4, 0)
        beta, p = 2.0, 2.0
        lam = rng.standard_normal(4)
        oracle = PenaltyGradientOracle(inst.a, inst.b, lam, beta, p)
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
        oracle = PenaltyGradientOracle(np.eye(3), c, np.zeros(3), 1.0, 1.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(3), 1e-10, 10_000)
        assert report.converged
        assert report.final_grad_map_norm <= 1e-10
        assert np.allclose(report.solution, c, atol=1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_matches_slow_reference(self, p):
        inst = gen_bp(2, 4, 0.5, 3)
        oracle = PenaltyGradientOracle(inst.a, inst.b, np.zeros(2), 1.0, p)
        f = l1_norm()
        report = minimize_composite(oracle, f, np.zeros(4), 1e-8, 100_000)
        assert report.converged
        x_ref = reference_prox_gradient(inst.a, inst.b, np.zeros(2), 1.0, p, np.zeros(4), 20_000)
        obj = lambda x: oracle.value(x) + f.value(x)
        assert abs(obj(report.solution) - obj(x_ref)) <= 1e-7

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_experiment_scale_loose_tolerance(self, p):
        inst = gen_bp(100, 500, 0.2, 0)
        oracle = PenaltyGradientOracle(inst.a, inst.b, np.zeros(100), 2.0, p)
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
        oracle = PenaltyGradientOracle(a, b, lam, 4.0, 1.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(8), 1e-9, 50_000)
        assert report.converged
        # with f = 0 the gradient map is the penalty gradient itself
        grad = a.T @ lam + 4.0 * a.T @ (a @ report.solution - b)
        assert np.linalg.norm(grad) <= 1e-9

    def test_nonconvergence_reported_not_raised(self):
        inst = gen_bp(10, 30, 0.3, 1)
        oracle = PenaltyGradientOracle(inst.a, inst.b, np.zeros(10), 2.0, 1.0)
        report = minimize_composite(oracle, l1_norm(), np.zeros(30), 1e-12, 3)
        assert not report.converged
        assert report.iterations == 3
        assert report.final_grad_map_norm > 1e-12

    def test_invalid_arguments(self):
        oracle = PenaltyGradientOracle(np.eye(2), np.ones(2), np.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            minimize_composite(oracle, zero_function(), np.zeros(2), 0.0, 10)
        with pytest.raises(ValueError):
            minimize_composite(oracle, zero_function(), np.zeros(2), 1e-6, 0)
        for hint in (0.0, -1.0, np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError):
                minimize_composite(oracle, zero_function(), np.zeros(2), 1e-6, 10, curvature_hint=hint)

    def test_already_converged_start(self):
        oracle = PenaltyGradientOracle(np.eye(2), np.zeros(2), np.zeros(2), 1.0, 2.0)
        report = minimize_composite(oracle, zero_function(), np.zeros(2), 1e-8, 10, curvature_hint=12.0)
        assert report.converged and report.iterations == 0
        # the hint, taken down to a power of two, passes on to the next solve
        assert report.final_L_estimate == 1.0 and report.first_L_accepted == 8.0


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

    def test_non_finite_start_rejected(self):
        oracle = PenaltyGradientOracle(np.eye(2), np.ones(2), np.zeros(2), 1.0, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                minimize_composite(oracle, l1_norm(), np.array([0.0, bad]), 1e-6, 10)
            with pytest.raises(ValueError):
                minimize_composite(oracle, l1_norm(), np.zeros(2), 1e-6, 10, residual=np.array([bad, 0.0]))

    def test_residual_of_wrong_shape_rejected(self):
        oracle = PenaltyGradientOracle(np.ones((2, 3)), np.ones(2), np.zeros(2), 1.0, 1.0)
        for bad in (np.zeros(3), np.zeros(1), np.zeros((2, 1))):
            with pytest.raises(ValueError):
                minimize_composite(oracle, l1_norm(), np.zeros(3), 1e-6, 10, residual=bad)


def report_bytes(report):
    return (report.solution.tobytes(), report.iterations, report.final_grad_map_norm,
            report.final_L_estimate, report.converged, report.first_L_accepted, report.residual.tobytes())


def hint_case(kind, p):
    """Oracle, f and start of a benchmark-scale subproblem with a nonzero multiplier."""
    rng = np.random.default_rng(7)
    if kind == "bp":
        inst = gen_bp(100, 500, 0.2, 0)
        oracle = PenaltyGradientOracle(inst.a, inst.b, rng.standard_normal(100), 2.0, p)
        return oracle, l1_norm(), np.zeros(500)
    prob = mc_composite(gen_mc(50, 50, 0.1, 0))
    oracle = PenaltyGradientOracle(prob.a_map, prob.b, rng.standard_normal(prob.b.size), 5.0, p)
    return oracle, prob.f, np.zeros(2500)


class TestCurvatureHint:
    @pytest.mark.parametrize("kind,p", [("bp", 1.0), ("bp", 2.0), ("bp", 3.0), ("mc", 1.0), ("mc", 2.0)])
    def test_hint_leaves_report_unchanged(self, kind, p):
        oracle, f, z0 = hint_case(kind, p)
        cold = minimize_composite(oracle, f, z0, 0.1, 20_000, curvature_hint=1.0)
        assert cold.converged and cold.iterations >= 1
        for hint in (2.0, 8.0, 1024.0):
            warm = minimize_composite(oracle, f, z0, 0.1, 20_000, curvature_hint=hint)
            assert warm.solution.tobytes() == cold.solution.tobytes()
            assert warm.iterations == cold.iterations
            assert warm.final_grad_map_norm == cold.final_grad_map_norm
            assert warm.final_L_estimate == cold.final_L_estimate
            assert warm.first_L_accepted == cold.first_L_accepted

    @pytest.mark.parametrize(
        "hint,trial_ls",
        [
            (1.0, [2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0]),
            (128.0, [128.0, 64.0]),
            (1024.0, [1024.0, 512.0, 256.0, 128.0, 64.0]),
        ],
        ids=["cold", "hint-at-accepted", "hint-above"],
    )
    def test_first_iteration_prox_calls(self, hint, trial_ls):
        # iteration 1 of this case accepts L = 128. The entry check's prox is
        # the L = 1 trial, so the cold search calls the prox from L = 2 on;
        # a hinted search tests the hint, then halves until the half fails.
        oracle, f, z0 = hint_case("bp", 2.0)
        scales = []
        counted = ProxFunction(f.value, lambda v, t: scales.append(t) or f.prox(v, t))
        report = minimize_composite(oracle, counted, z0, 0.1, 1, curvature_hint=hint)
        assert report.first_L_accepted == 128.0
        assert scales == [1.0] + [1.0 / L for L in trial_ls] + [1.0]

    def test_descent_stops_at_one(self):
        # psi has curvature 0.01, so the test passes at every L used here; the
        # cold search accepts L = 1 in iteration 1, and so must a hinted one
        oracle = PenaltyGradientOracle(0.1 * np.eye(3), np.array([1.0, -2.0, 0.5]), np.zeros(3), 1.0, 1.0)
        cold = minimize_composite(oracle, zero_function(), np.zeros(3), 1e-6, 10_000)
        warm = minimize_composite(oracle, zero_function(), np.zeros(3), 1e-6, 10_000, curvature_hint=8.0)
        assert cold.converged and cold.first_L_accepted == warm.first_L_accepted == 1.0
        assert warm.solution.tobytes() == cold.solution.tobytes()
        assert warm.iterations == cold.iterations


def test_iteration_bound_diagnostic():
    # sanity only: positive, finite, monotone in the accuracy demand
    loose = iteration_bound(2.0, holder_coeff=10.0, eps=1e-1, dist=5.0)
    tight = iteration_bound(2.0, holder_coeff=10.0, eps=1e-3, dist=5.0)
    assert 0 < loose < tight < np.inf


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
        oracle = PenaltyGradientOracle(inst.a, inst.b, np.zeros(10), 2.0, 1.0)
        report = minimize_composite(oracle, l1_norm(), np.zeros(30), 1e-12, 3)
        assert not report.converged
        assert report.residual.tobytes() == (inst.a @ report.solution - inst.b).tobytes()
