import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hoprox.prox import l1_norm, singular_value_threshold, soft_threshold

from norm_power import norm_power_gradient
from zero_function import zero_function


def power_objective(x, p):
    return np.linalg.norm(x) ** (1.0 + 1.0 / p) / (1.0 + 1.0 / p)


def central_difference_gradient(x, p, h=1e-6):
    grad = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (power_objective(x + e, p) - power_objective(x - e, p)) / (2 * h)
    return grad


class TestNormPowerGradient:
    # the test reference the multiplier steps are checked against
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_zero_input(self, p):
        assert np.array_equal(norm_power_gradient(np.zeros(3), p), np.zeros(3))

    def test_order_one_is_identity(self):
        x = np.array([7.0, -2.0])
        assert np.array_equal(norm_power_gradient(x, 1.0), x)

    def test_order_two_frozen(self):
        out = norm_power_gradient(np.array([3.0, 4.0]), 2.0)
        expected = np.array([3.0, 4.0]) / np.sqrt(5.0)
        assert np.allclose(out, expected, rtol=1e-12)
        fd = central_difference_gradient(np.array([3.0, 4.0]), 2.0)
        assert np.allclose(out, fd, rtol=1e-5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_output_norm_identity(self, p):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.standard_normal(rng.integers(1, 8)) * rng.uniform(1e-3, 1e3)
            out = norm_power_gradient(x, p)
            target = np.linalg.norm(x) ** (1.0 / p)
            assert abs(np.linalg.norm(out) - target) <= 1e-12 * target

    # entries are 0 or bounded away from it: below ~1e-154 the squared sum
    # inside the Euclidean norm underflows and float64 loses the identity
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100)),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_norm_identity_hypothesis(self, entries, p):
        x = np.array(entries)
        out = norm_power_gradient(x, p)
        target = np.linalg.norm(x) ** (1.0 / p)
        assert abs(np.linalg.norm(out) - target) <= 1e-12 * max(target, 1e-300)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_finite_difference_gradient(self, p):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            x = rng.standard_normal(4)
            if np.linalg.norm(x) < 0.1:
                continue
            out = norm_power_gradient(x, p)
            fd = central_difference_gradient(x, p)
            assert np.linalg.norm(out - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
            checked += 1

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            norm_power_gradient(np.ones(2), 0.5)

    def test_nan_order_rejected(self):
        with pytest.raises(ValueError, match="^p must be >= 1, got nan"):
            norm_power_gradient(np.ones(2), float("nan"))


class TestSoftThreshold:
    def test_closed_form(self):
        assert np.allclose(soft_threshold(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])

    def test_zero_threshold(self):
        v = np.array([1.5, -2.5, 0.0])
        assert np.array_equal(soft_threshold(v, 0.0), v)

    @settings(max_examples=300, deadline=None)
    @given(
        hnp.arrays(np.float64, st.integers(0, 20), elements=st.floats(allow_nan=False, allow_infinity=False)),
        st.floats(0, 1e300),
    )
    @example(np.array([0.0, 1.0, -1.0, 2.5, -2.5, 5e-324]), 1.0)
    @example(np.array([0.0, 1.0, -1.0]), 0.0)
    def test_bitwise_the_product_form(self, v, t):
        # copysign(max(|v| - t, 0), v) gives the bits of the product form
        # sign(v) * max(|v| - t, 0) on every entry but -0.0, left out here
        v = np.where(v == 0.0, 0.0, v)
        expected = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
        assert soft_threshold(v, t).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_negative_zero_keeps_its_sign(self, t):
        # the one entry where the product form differs: it gives +0.0
        v = np.array([-0.0])
        assert np.signbit(soft_threshold(v, t)).all()
        assert not np.signbit(np.sign(v) * np.maximum(np.abs(v) - t, 0.0)).any()

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), -0.1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="^t must be nonnegative, got nan"):
            soft_threshold(np.ones(2), float("nan"))

    def test_local_optimality_probing(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(6)
        t = 0.3
        out = soft_threshold(v, t)

        def objective(z):
            return t * np.sum(np.abs(z)) + 0.5 * np.sum((z - v) ** 2)

        base = objective(out)
        for _ in range(1000):
            delta = rng.standard_normal(6)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(out + delta)

    def test_subgradient_inclusion(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.standard_normal(8) * rng.uniform(0.1, 10)
            t = float(rng.uniform(0.05, 2.0))
            out = soft_threshold(v, t)
            dual = (v - out) / t
            assert np.max(np.abs(dual)) <= 1.0 + 1e-12
            nonzero = out != 0
            assert np.allclose(dual[nonzero], np.sign(out[nonzero]), atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            u, v = rng.standard_normal((2, 5))
            t = float(rng.uniform(0.0, 3.0))
            lhs = np.linalg.norm(soft_threshold(u, t) - soft_threshold(v, t))
            assert lhs <= np.linalg.norm(u - v) + 1e-10

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8), st.floats(0, 50))
    @settings(max_examples=200, deadline=None)
    def test_minimizes_objective_hypothesis(self, entries, t):
        v = np.array(entries)
        out = soft_threshold(v, t)

        def objective(z):
            return t * np.sum(np.abs(z)) + 0.5 * np.sum((z - v) ** 2)

        # compare against the input itself and a few structured candidates
        for candidate in (v, np.zeros_like(v), v / 2.0):
            assert objective(out) <= objective(candidate) + 1e-9 * max(1.0, objective(candidate))


class TestSingularValueThreshold:
    def test_diagonal(self):
        out = singular_value_threshold(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold(self):
        rng = np.random.default_rng(4)
        mat = rng.standard_normal((4, 3))
        assert np.linalg.norm(singular_value_threshold(mat, 0.0) - mat) <= 1e-10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            singular_value_threshold(np.eye(2), -1.0)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="^t must be nonnegative, got nan"):
            singular_value_threshold(np.eye(2), float("nan"))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            singular_value_threshold(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0)

    def test_nan_matrix_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            singular_value_threshold(bad, 1.0)

    def test_local_optimality_probing(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((5, 5))
        t = 0.5
        out = singular_value_threshold(mat, t)

        def objective(z):
            return t * np.linalg.svd(z, compute_uv=False).sum() + 0.5 * np.linalg.norm(z - mat) ** 2

        base = objective(out)
        for _ in range(1000):
            delta = rng.standard_normal((5, 5))
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= objective(out + delta)

    def test_subgradient_dual_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mat = rng.standard_normal((6, 4)) * rng.uniform(0.1, 5)
            t = float(rng.uniform(0.1, 2.0))
            out = singular_value_threshold(mat, t)
            _, sigma, _ = np.linalg.svd((mat - out) / t)
            assert sigma[0] <= 1.0 + 1e-10

    def test_nonexpansive(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.standard_normal((4, 4))
            v = rng.standard_normal((4, 4))
            t = float(rng.uniform(0.0, 2.0))
            lhs = np.linalg.norm(singular_value_threshold(u, t) - singular_value_threshold(v, t))
            assert lhs <= np.linalg.norm(u - v) + 1e-10


class TestProxFunctionFactories:
    def test_l1(self):
        f = l1_norm()
        assert f.value(np.array([1.0, -2.0, 3.0])) == 6.0
        assert np.allclose(f.prox(np.array([2.0, -0.5]), 1.0), [1.0, 0.0])

    def test_zero(self):
        f = zero_function()
        v = np.array([1.0, -2.0])
        assert f.value(v) == 0.0
        assert np.array_equal(f.prox(v, 5.0), v)

    def test_l1_midpoint_convexity(self):
        f = l1_norm()
        rng = np.random.default_rng(8)
        for _ in range(100):
            x, y = rng.standard_normal((2, 6)) * rng.uniform(0.1, 10)
            mid = f.value((x + y) / 2.0)
            assert mid <= 0.5 * (f.value(x) + f.value(y)) + 1e-9
