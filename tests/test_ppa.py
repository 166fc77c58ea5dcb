import dataclasses

import numpy as np
import pytest

from hoprox.ppa import (
    MonotoneOperator,
    PpaConfig,
    SubproblemError,
    _make_affine_stepper,
    affine_operator,
    run_ppa,
)
from hoprox.problems import gen_vi_affine


def scalar_identity_op():
    return affine_operator(np.eye(1), np.zeros(1), known_solution=np.zeros(1))


def scalar_bisection_root(fun, lo, hi, iters=200):
    # independent root oracle for frozen expected values
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fun(lo) * fun(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def skew_operator(n, seed):
    # M = Q^T Q + (S - S^T): monotone but not symmetric
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, n))
    s = rng.standard_normal((n, n))
    mat = q.T @ q + s - s.T
    solution = rng.standard_normal(n)
    return affine_operator(mat, -mat @ solution, known_solution=solution), rng.standard_normal(n)


def one_step(op, x_k, cfg):
    # one run_ppa step, checked against the step optimality equation
    # lam*F(x+) + ||x+ - x_k||^(p-1) (x+ - x_k) = 0
    x_next = run_ppa(op, x_k, dataclasses.replace(cfg, max_iters=1)).iterates[1]
    mat, offset = op.affine_parts
    lam, p = cfg.lambda_ppa, cfg.p
    step = x_next - x_k
    residual = lam * (mat @ x_next + offset) + np.linalg.norm(step) ** (p - 1.0) * step
    assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(lam * offset))
    return x_next


def reference_step(mat, offset, x_k, p, lam):
    # dense reference: bisection on g(s) = ||x(s) - x_k||^(p-1) - s with a
    # fresh solve for x(s) at every s; ||x(s) - x_k|| <= ||lam*F(x_k)|| / s
    # for monotone M, so g < 0 at s = 1 + ||lam*F(x_k)||
    n = offset.shape[0]
    x_of = lambda s: np.linalg.solve(lam * mat + s * np.eye(n), s * x_k - lam * offset)
    g = lambda s: np.linalg.norm(x_of(s) - x_k) ** (p - 1.0) - s
    hi = 1.0 + np.linalg.norm(lam * (mat @ x_k + offset))
    return x_of(scalar_bisection_root(g, 0.0, hi))


class TestPpaStepAffine:
    def test_scalar_first_order(self):
        # x + (x - 1) = 0  ->  x = 1/2
        cfg = PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=10)
        out = one_step(scalar_identity_op(), np.array([1.0]), cfg)
        assert np.allclose(out, [0.5], atol=1e-12)

    def test_scalar_second_order_frozen(self):
        # x + |x-1|(x-1) = 0 on (0,1):  x - (1-x)^2 = 0  ->  x = (3 - sqrt 5)/2
        cfg = PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=10)
        out = one_step(scalar_identity_op(), np.array([1.0]), cfg)
        root = scalar_bisection_root(lambda x: x - (1.0 - x) ** 2, 0.0, 1.0)
        assert abs(root - (3.0 - np.sqrt(5.0)) / 2.0) < 1e-12
        assert abs(out[0] - root) < 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_zero_step_at_solution(self, p):
        op, _ = gen_vi_affine(6, 0)
        cfg = PpaConfig(p=p, lambda_ppa=0.7, max_iters=10)
        out = one_step(op, op.known_solution, cfg)
        assert np.array_equal(out, op.known_solution)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_optimality_residual(self, p):
        op, x0 = gen_vi_affine(8, 1)
        mat, offset = op.affine_parts
        lam = 0.5
        cfg = PpaConfig(p=p, lambda_ppa=lam, max_iters=10)
        out = one_step(op, x0, cfg)
        step = out - x0
        residual = lam * (mat @ out + offset) + np.linalg.norm(step) ** (p - 1.0) * step
        assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(lam * offset))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_nonsymmetric_monotone_operator(self, p):
        # rotation part keeps M + M^T PSD while M is asymmetric
        mat = np.array([[1.0, 2.0], [-2.0, 1.0]])
        op = affine_operator(mat, np.array([1.0, -1.0]))
        cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=10)
        x0 = np.array([0.3, -0.4])
        out = one_step(op, x0, cfg)
        step = out - x0
        residual = op.evaluate(out) + np.linalg.norm(step) ** (p - 1.0) * step
        assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(op.affine_parts[1]))


class TestStepRootSearch:
    @pytest.mark.parametrize("lam", [0.3, 3.0])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_matches_dense_reference(self, make_op, p, lam):
        cfg = PpaConfig(p=p, lambda_ppa=lam, max_iters=10)
        for seed in range(3):
            op, x0 = make_op(20, seed)
            mat, offset = op.affine_parts
            out = one_step(op, x0, cfg)
            expected = reference_step(mat, offset, x0, p, lam)
            assert np.linalg.norm(out - expected) <= 1e-8 * max(1.0, np.linalg.norm(expected - x0))
            step = out - x0
            residual = lam * (mat @ out + offset) + np.linalg.norm(step) ** (p - 1.0) * step
            assert np.linalg.norm(residual) <= 1e-10 * max(1.0, np.linalg.norm(lam * offset))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_evaluation_count(self, p):
        # a tenth of the 138 evaluations per step that plain bisection needed
        op, x0 = gen_vi_affine(20, 0)
        trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=200))
        counts = [c for c in trace.inner_solves if c > 0]
        assert np.mean(counts) <= 13.8

    def test_zero_step_counts_no_evaluation(self):
        op, _ = gen_vi_affine(6, 0)
        trace = run_ppa(op, op.known_solution, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=5))
        assert trace.step_norms == [0.0]
        assert trace.inner_solves == [0]

    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_search_starts_at_previous_root(self, make_op):
        op, x0 = make_op(20, 0)
        mat, offset = op.affine_parts
        step = _make_affine_stepper(mat, offset, PpaConfig(p=3.0, lambda_ppa=1.0, max_iters=1))
        x1, first = step(x0, mat @ x0 + offset)
        # the second search from the same point starts at the first one's root
        x1_again, second = step(x0, mat @ x0 + offset)
        assert first > 1 and second == 1
        assert np.array_equal(x1, x1_again)

    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_step_takes_f_from_caller(self, make_op):
        op, x0 = make_op(20, 0)
        mat, offset = op.affine_parts
        for p in (1.0, 2.0, 3.0):
            cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=1)
            # a zero F is a zero step whatever x0 is, so the handed value is used
            x_same, evaluations = _make_affine_stepper(mat, offset, cfg)(x0, np.zeros_like(x0))
            assert np.array_equal(x_same, x0) and evaluations == 0
            x1, _ = _make_affine_stepper(mat, offset, cfg)(x0, mat @ x0 + offset)
            assert np.array_equal(x1, one_step(op, x0, cfg))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_skew_search_reuses_last_inverse(self, monkeypatch, p):
        # each search after the first starts at the previous root, which the
        # previous search's last evaluation inverted
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(1) or inv(a))
        op, x0 = skew_operator(20, 0)
        trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=50))
        searched = [c for c in trace.inner_solves if c > 0]
        assert len(searched) > 1
        assert len(inverted) == sum(searched) - len(searched) + 1

    def test_interleaved_skew_steppers_match_lone_runs(self):
        # the first stepper's first root is its first shift s = 1, so the
        # second stepper's first evaluation, also at s = 1, would take the
        # first one's inverse if the kept inverse were shared
        cfg = PpaConfig(p=3.0, lambda_ppa=1.0, max_iters=1)
        (op_a, _), (op_b, x0_b) = skew_operator(20, 0), skew_operator(20, 1)
        mat_a, offset_a = op_a.affine_parts
        u = np.random.default_rng(0).standard_normal(20)
        u /= np.linalg.norm(u)
        # F(x0) = (M + I) u gives phi(1) = ||u|| = 1
        x0_a = np.linalg.solve(mat_a, (mat_a + np.eye(20)) @ u - offset_a)

        def stepper(op):
            mat, offset = op.affine_parts
            step = _make_affine_stepper(mat, offset, cfg)
            return lambda x: step(x, mat @ x + offset)

        def advance(runs):
            # one step of each (stepper, iterates) in turn; returns the evaluation counts
            counts = []
            for step, iterates in runs:
                x_next, count = step(iterates[-1])
                iterates.append(x_next)
                counts.append(count)
            return counts

        starts = [(op_a, x0_a), (op_b, x0_b)]
        alone = [(stepper(op), [x0]) for op, x0 in starts]
        for run in alone:
            for _ in range(20):
                advance([run])
        together = [(stepper(op), [x0]) for op, x0 in starts]
        assert advance(together)[0] == 1
        for _ in range(19):
            advance(together)
        for (_, lone), (_, mixed) in zip(alone, together):
            assert all(np.array_equal(a, b) for a, b in zip(lone, mixed))

    def test_non_finite_secular_function_raises(self):
        # (V^T lam*F)^2 overflows, so phi is NaN at the first shift
        op, x0 = gen_vi_affine(3, 0)
        with pytest.raises(SubproblemError, match="finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1e200, max_iters=5))

    def test_large_finite_lambda_still_solves(self):
        op, x0 = gen_vi_affine(3, 0)
        trace = run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1e150, max_iters=5))
        assert trace.inner_solves == [2, 2]
        assert trace.step_norms[-1] == 0.0


class TestRunPpa:
    def test_first_order_halving(self):
        cfg = PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=5)
        trace = run_ppa(scalar_identity_op(), np.array([1.0]), cfg)
        values = [float(x[0]) for x in trace.iterates]
        assert np.allclose(values, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], rtol=1e-12)

    def test_trace_lengths_consistent(self):
        op, x0 = gen_vi_affine(5, 2)
        cfg = PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=30)
        trace = run_ppa(op, x0, cfg)
        n = len(trace.step_norms)
        assert len(trace.iterates) == n + 1
        assert len(trace.residual_norms) == n
        assert len(trace.distances_to_solution) == n + 1
        assert len(trace.inner_solves) == n

    def test_step_tol_stops_early(self):
        op, x0 = gen_vi_affine(5, 2)
        cfg = PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=500, step_tol=1e-3)
        trace = run_ppa(op, x0, cfg)
        assert len(trace.step_norms) < 500
        assert trace.step_norms[-1] <= 1e-3

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_fejer_and_step_monotonicity(self, p):
        op, x0 = gen_vi_affine(20, 3)
        cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=200)
        trace = run_ppa(op, x0, cfg)
        dist = np.array(trace.distances_to_solution)
        steps = np.array(trace.step_norms)
        assert np.all(dist[1:] ** 2 + steps ** 2 <= dist[:-1] ** 2 + 1e-9)
        assert np.all(np.diff(steps) <= 1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_rate_bounds(self, p):
        op, x0 = gen_vi_affine(20, 4)
        cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=200)
        trace = run_ppa(op, x0, cfg)
        steps = np.array(trace.step_norms)
        resid = np.array(trace.residual_norms)
        d0 = trace.distances_to_solution[0]
        k = np.arange(len(steps))
        assert np.all(steps ** 2 <= d0 ** 2 / (k + 1) + 1e-9)
        assert np.all(resid <= d0 ** p / (k + 1) ** (p / 2.0) + 1e-9)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_residual_step_identity(self, p):
        op, x0 = gen_vi_affine(12, 5)
        mat, offset = op.affine_parts
        cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=120)
        trace = run_ppa(op, x0, cfg)
        steps = np.array(trace.step_norms)
        resid = np.array(trace.residual_norms)
        # floor covers the cancellation noise of evaluating F near the solution
        scale = np.linalg.norm(mat) * (np.linalg.norm(x0) + np.linalg.norm(op.known_solution))
        floor = 1e-12 * (scale + np.linalg.norm(offset))
        assert np.all(np.abs(resid - steps ** p) <= 1e-8 * np.maximum(resid, steps ** p) + floor)

    def test_deterministic_bitwise(self):
        op, x0 = gen_vi_affine(10, 6)
        cfg = PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=50)
        t1 = run_ppa(op, x0, cfg)
        t2 = run_ppa(op, x0, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(t1.iterates, t2.iterates))
        assert t1.step_norms == t2.step_norms
        assert t1.residual_norms == t2.residual_norms

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_one_evaluation_per_iterate(self, make_op, p):
        op, x0 = make_op(20, 0)
        calls = []
        counted = dataclasses.replace(op, evaluate=lambda x: calls.append(1) or op.evaluate(x))
        cfg = PpaConfig(p=p, lambda_ppa=0.7, max_iters=60)
        trace = run_ppa(counted, x0, cfg)
        assert len(calls) == len(trace.step_norms) + 1
        if p == 1.0:
            assert set(trace.inner_solves) == {1}
        # the loop's norms are bitwise the np.linalg.norm of its own iterates
        x = trace.iterates
        assert trace.step_norms == [float(np.linalg.norm(b - a)) for a, b in zip(x, x[1:])]
        assert trace.residual_norms == [float(cfg.lambda_ppa * np.linalg.norm(op.evaluate(b))) for b in x[1:]]
        assert trace.distances_to_solution == [float(np.linalg.norm(a - op.known_solution)) for a in x]

    def test_caller_may_reuse_x0(self):
        op, x0 = gen_vi_affine(6, 0)
        start = x0.copy()
        trace = run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=3))
        x0[:] = 0.0
        assert np.array_equal(trace.iterates[0], start)

    def test_non_affine_rejected(self):
        op = MonotoneOperator(evaluate=lambda x: x)
        with pytest.raises(ValueError, match="affine_parts"):
            run_ppa(op, np.ones(3), PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=5))


class TestNaturalResidual:
    def test_final_iterate_bound(self):
        op, x0 = gen_vi_affine(15, 8)
        lam = 1.3
        cfg = PpaConfig(p=2.0, lambda_ppa=lam, max_iters=80)
        trace = run_ppa(op, x0, cfg)
        k = len(trace.step_norms) - 1
        d0 = trace.distances_to_solution[0]
        bound = (1.0 / lam) * d0 ** 2 / (k + 1) + 1e-9
        assert np.linalg.norm(op.evaluate(trace.iterates[-1])) <= bound


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PpaConfig(p=0.5, lambda_ppa=1.0, max_iters=10)
        with pytest.raises(ValueError):
            PpaConfig(p=1.0, lambda_ppa=0.0, max_iters=10)
        with pytest.raises(ValueError):
            PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=0)
        with pytest.raises(ValueError):
            PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=10, step_tol=-1.0)

    @pytest.mark.parametrize("field", ["p", "lambda_ppa", "step_tol"])
    def test_config_rejects_nan(self, field):
        params = dict(p=2.0, lambda_ppa=1.0, max_iters=10, step_tol=0.0)
        with pytest.raises(ValueError, match=f"^{field} must"):
            PpaConfig(**{**params, field: float("nan")})

    def test_affine_operator_monotonicity_check(self):
        with pytest.raises(ValueError, match="monotone"):
            affine_operator(-np.eye(3), np.zeros(3))

    def test_monotonicity_probe(self):
        op, _ = gen_vi_affine(7, 9)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            gap = float((op.evaluate(x) - op.evaluate(y)) @ (x - y))
            assert gap >= -1e-10
