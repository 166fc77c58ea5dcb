import dataclasses

import numpy as np
import pytest

from hoprox import ppa
from hoprox.ppa import (
    _MAX_EVALUATIONS,
    MonotoneOperator,
    PpaConfig,
    SubproblemError,
    _make_affine_stepper,
    _secular_root,
    affine_operator,
    run_ppa,
)
from hoprox.problems import gen_vi_affine

from ppa_bounds import worst_bound_values


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


def rank_deficient_skew_operator(seed):
    # M = Q^T Q + (S - S^T) with a rank-5 Q: large and nearly singular, so
    # its searches end on spent brackets, often on an earlier shift
    rng = np.random.default_rng(seed)
    q = 1e3 * rng.standard_normal((5, 20))
    s = 1e-3 * rng.standard_normal((20, 20))
    mat = q.T @ q + (s - s.T)
    solution = rng.standard_normal(20)
    x0 = rng.standard_normal(20)
    return affine_operator(mat, -mat @ solution, known_solution=solution), x0


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


def assert_step_identity(op, x0, trace, cfg):
    # criterion 3 at every step, with the bound of perfbench/grid.py's check:
    # lam*||F(x_next)|| = step^p up to 1e-8 relative and 1e-12 of the scale
    mat, offset = op.affine_parts
    steps = np.array(trace.step_norms) ** cfg.p
    resid = np.array(trace.residual_norms)
    scale = cfg.lambda_ppa * (
        np.linalg.norm(mat) * (np.linalg.norm(x0) + np.linalg.norm(op.known_solution)) + np.linalg.norm(offset)
    )
    assert np.all(np.abs(resid - steps) <= 1e-8 * np.maximum(resid, steps) + 1e-12 * scale)


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
        assert trace.status == "rounding_floor"

    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_search_starts_at_previous_root(self, make_op):
        op, x0 = make_op(20, 0)
        mat, offset = op.affine_parts
        step = _make_affine_stepper(op, PpaConfig(p=3.0, lambda_ppa=1.0, max_iters=1))
        f0 = mat @ x0 + offset
        x1, first, root = step(x0, f0, f0 @ f0)
        # the second search from the same point starts at the first one's root
        x1_again, second, root_again = step(x0, f0, f0 @ f0)
        assert first > 1 and second == 1 and root_again == root
        assert np.array_equal(x1, x1_again)

    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_step_takes_f_from_caller(self, make_op):
        op, x0 = make_op(20, 0)
        mat, offset = op.affine_parts
        f0 = mat @ x0 + offset
        for p in (1.0, 2.0, 3.0):
            cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=1)
            x1, _, _ = _make_affine_stepper(op, cfg)(x0, f0, f0 @ f0)
            assert np.array_equal(x1, one_step(op, x0, cfg))

    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_zero_f_is_one_zero_step(self, make_op):
        # a zero F is a zero step whatever x0 is, so run_ppa steps on the F
        # that evaluate hands it, and takes that step without the stepper
        op, x0 = make_op(20, 0)
        zero_f = dataclasses.replace(op, evaluate=np.zeros_like)
        for p in (1.0, 2.0, 3.0):
            trace = run_ppa(zero_f, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=5))
            assert trace.step_norms == [0.0] and trace.inner_solves == [0]
            assert trace.status == "rounding_floor" and np.array_equal(trace.iterates[-1], x0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_skew_search_reuses_last_inverse(self, monkeypatch, p):
        # each search after the first starts at the previous root, whose
        # inverse the previous search returned, and x_next is formed from
        # it: only the shifts a search evaluated are inverted, once each,
        # also where a search ends on an earlier shift than its last
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(1) or inv(a))
        runs = [(skew_operator(20, 0), 50)] + [(rank_deficient_skew_operator(seed), 200) for seed in range(5)]
        for (op, x0), max_iters in runs:
            inverted.clear()
            trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=max_iters))
            searched = [c for c in trace.inner_solves if c > 0]
            assert len(searched) > 1
            assert len(inverted) == sum(searched) - len(searched) + 1

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_skew_step_calls_no_solve(self, monkeypatch, p):
        # x_next comes from the inverse the search holds at its root, so no
        # step solves a system; a p = 1 run inverts lam*M + I once
        op, x0 = skew_operator(20, 0)

        def refuse(*args):
            raise AssertionError("np.linalg.solve called on the step path")

        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(1) or inv(a))
        trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=200))
        assert trace.step_norms[-1] == 0.0
        if p == 1.0:
            assert len(inverted) == 1

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
            step = _make_affine_stepper(op, cfg)

            def advance_one(x):
                f = mat @ x + offset
                return step(x, f, f @ f)[:2]

            return advance_one

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

    @pytest.mark.parametrize("start", [1.0, 100.0])
    def test_search_ends_on_spent_bracket(self, start):
        # g jumps from +1e-3 to -1e-3 between 1.5 and the next double, so no
        # shift meets the tolerance; the search ends once bisection of
        # [1.5, 1.5 + ulp] lands on an end, and returns the better end
        secular = lambda s: (1.501 if s <= 1.5 else 1.499, 0.0, s)
        root, state, evaluations = _secular_root(secular, 2.0, start)
        assert root == 1.5 and state == root
        assert evaluations < 100

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("start", [1e-40, 1.0, 1e40])
    def test_one_pole_secular_function_is_solved_by_its_model(self, p, start):
        # phi(s) = 7/(3 + s) is its own rational model, so the first model
        # step lands on the root; from 1e40, where mu + s rounds to s, it
        # clips mu at 0 and needs one more
        secular = lambda s: (7.0 / (3.0 + s), -7.0 / (3.0 + s) ** 2, s)
        root, state, evaluations = _secular_root(secular, p, start)
        assert evaluations <= 3 and state == root
        assert abs((7.0 / (3.0 + root)) ** (p - 1.0) - root) <= 1e-9 * root

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("scale", [1e100, 1e140])
    def test_far_start_first_step_is_cheap(self, monkeypatch, scale, p):
        # the model step reaches a root many decades from the previous one in
        # a few evaluations; Newton on g climbed to it from below by about
        # x1.5 per evaluation, and from 1e140 ran out of its 500-evaluation
        # cap with no upper end of the bracket
        roots = []
        search = ppa._secular_root

        def recorded(secular, p, s):
            root, state, evaluations = search(secular, p, s)
            roots.append(root)
            return root, state, evaluations

        monkeypatch.setattr(ppa, "_secular_root", recorded)
        op, x0 = gen_vi_affine(20, 0)
        mat = op.affine_parts[0]
        lam = 1.0
        trace = run_ppa(op, scale * x0, PpaConfig(p=p, lambda_ppa=lam, max_iters=20))
        assert trace.inner_solves[0] <= 5
        assert len(roots) == len(trace.step_norms)
        # The exact step is below the rounding of x_k (about 1e-49 of it), so
        # the computed x_next - x_k is rounding noise and the identity is
        # checked on the step each root defines: d = (lam*M + s*I)^{-1}
        # lam*F(x_k) gives lam*F(x_k - d) = s*d, so lam*||F|| = ||d||^p
        # reads s*||d|| = ||d||^p.
        for x_k, root in zip(trace.iterates, roots):
            d = np.linalg.solve(lam * mat + root * np.eye(20), lam * op.evaluate(x_k))
            step = np.linalg.norm(d)
            assert abs(root * step - step ** p) <= 1e-8 * max(root * step, step ** p)

    def test_non_finite_secular_function_raises(self):
        # lam*M's largest eigenvalue, 3.3e308, overflows, so the step has
        # no finite secular function
        op, x0 = gen_vi_affine(3, 0)
        with pytest.raises(SubproblemError, match="finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1e308, max_iters=5))

    def test_overflowing_lam_f_raises(self):
        # lam*M's eigenvalues (up to 3.3e300) are finite, but lam*F(x0) and
        # so w = V^T lam*F(x0) are not
        op, x0 = gen_vi_affine(3, 0)
        with pytest.raises(SubproblemError, match="^secular function not finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                run_ppa(op, 1e10 * x0, PpaConfig(p=2.0, lambda_ppa=1e300, max_iters=5))

    def test_p1_step_with_overflowing_lam_f_solves(self):
        # lam*F(x0) overflows, but the p = 1 step (lam*M + I)^{-1} (x0 - lam*q)
        # does not: it lands on the solution, then comes the zero step
        op, x0 = gen_vi_affine(3, 0)
        mat, offset = op.affine_parts
        x0, lam = 1e10 * x0, 1e300
        with np.errstate(over="ignore"):
            trace = run_ppa(op, x0, PpaConfig(p=1.0, lambda_ppa=lam, max_iters=5))
        assert trace.inner_solves == [1, 0]
        expected = np.linalg.solve(lam * mat + np.eye(3), x0 - lam * offset)
        assert np.allclose(trace.iterates[1], expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [1e200, 1e300])
    def test_lambda_whose_squares_overflow_still_solves(self, lam, p):
        # w = V^T lam*F(x0) reaches 1e200 to 1e300, so w^2 would overflow,
        # but d = w / (l + s) and phi = ||d|| do not: the first step lands
        # on the rounding floor, then comes the zero step
        op, x0 = gen_vi_affine(3, 0)
        cfg = PpaConfig(p=p, lambda_ppa=lam, max_iters=5)
        # the zero-step test's ||lam*F||^2 overflows to inf, rightly not 0,
        # as a Python float, so numpy warns of nothing
        with np.errstate(all="raise"):
            trace = run_ppa(op, x0, cfg)
        assert trace.inner_solves == [1 if p == 1.0 else 2, 0]
        assert trace.step_norms[-1] == 0.0
        assert_step_identity(op, x0, trace, cfg)

    def test_overflowing_power_raises(self):
        # phi ~ 1e100 is finite, but phi^(p-1) = phi^4 overflows a float
        op, x0 = gen_vi_affine(3, 0)
        with pytest.raises(SubproblemError, match=r"finite .* phi\^\(p-1\) overflows"):
            run_ppa(op, 1e100 * x0, PpaConfig(p=5.0, lambda_ppa=1.0, max_iters=5))

    def test_large_finite_lambda_still_solves(self):
        # the first step lands on F(x_1) inside the rounding bound of
        # M x_1 + q, so the second is the zero step
        op, x0 = gen_vi_affine(3, 0)
        trace = run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1e150, max_iters=5))
        assert trace.inner_solves == [2, 0]
        assert trace.step_norms[-1] == 0.0

    def test_far_start_still_raises(self):
        # ||F(x0)||^2 and ||x0||^2 both overflow; the rounding-floor test
        # must not read inf <= inf as a zero step
        op, x0 = gen_vi_affine(3, 0)
        with pytest.raises(SubproblemError, match="finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                run_ppa(op, 1e160 * x0, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=5))


def rank_deficient_operator(n, seed):
    # M = Q^T Q with a rank-5 Q: symmetric PSD with n - 5 zero eigenvalues
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((5, n))
    mat = q.T @ q
    solution = rng.standard_normal(n)
    return affine_operator(mat, -mat @ solution, known_solution=solution), rng.standard_normal(n)


class TestEigenCoordinateStep:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("make_op", [gen_vi_affine, rank_deficient_operator], ids=["full-rank", "rank-deficient"])
    def test_matches_dense_solve(self, monkeypatch, make_op, lam, p):
        # phi, phi' at every shift the search evaluates, and x_next at its
        # root, against d(s) = np.linalg.solve(lam*M + s*I, lam*F(x_k)).
        # eigh and solve are backward stable, each exact for a matrix within
        # about n*u*||lam*M + s*I|| of lam*M + s*I, so to first order
        # ||d|| and d^T (lam*M + s*I)^{-1} d are off by at most n*u*kappa
        # relative per solve (Higham, Accuracy and Stability of Numerical
        # Algorithms, chapter 7), with kappa the 2-norm condition number of
        # lam*M + s*I; phi' takes two solves on each side, phi one. The
        # factor 10 covers the constants of the LAPACK bounds, and x_next
        # adds the rounding u*||x_k|| of x_k - V d.
        unit, n = 2.0 ** -53, 20
        evaluated = []
        search = ppa._secular_root

        def recorded(secular, p, s):
            def traced(t):
                phi, dphi, state = secular(t)
                evaluated[-1][1].append((t, phi, dphi))
                return phi, dphi, state

            evaluated.append([None, []])
            root, state, evaluations = search(traced, p, s)
            evaluated[-1][0] = root
            return root, state, evaluations

        monkeypatch.setattr(ppa, "_secular_root", recorded)
        op, x0 = make_op(n, 0)
        mat, offset = op.affine_parts
        trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=lam, max_iters=8))
        steps = [k for k, count in enumerate(trace.inner_solves) if count > 0]
        if p == 1.0:
            # the known root s = 1 takes no search
            assert not evaluated
            evaluated = [[1.0, []] for _ in steps]
        assert len(evaluated) == len(steps) > 0

        def reference(s, lam_f):
            shifted = lam * mat + s * np.eye(n)
            d = np.linalg.solve(shifted, lam_f)
            phi = np.linalg.norm(d)
            return d, phi, -d @ np.linalg.solve(shifted, d) / phi, 10 * n * unit * np.linalg.cond(shifted)

        for k, (root, shifts) in zip(steps, evaluated):
            x_k = trace.iterates[k]
            lam_f = lam * (mat @ x_k + offset)
            for s, phi, dphi in shifts:
                _, phi_ref, dphi_ref, rel = reference(s, lam_f)
                assert abs(phi - phi_ref) <= rel * phi_ref
                assert abs(dphi - dphi_ref) <= 3 * rel * abs(dphi_ref)
            d, _, _, rel = reference(root, lam_f)
            x_ref = x_k - d
            assert np.linalg.norm(trace.iterates[k + 1] - x_ref) <= rel * np.linalg.norm(d) + unit * np.linalg.norm(x_k)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_x_next_is_formed_at_the_root(self, monkeypatch, p):
        # a search that ends on a spent bracket returns its best shift, which
        # need not be the last one it evaluated; x_next must still be formed
        # at the returned root, on both step paths
        cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=5)
        search = ppa._secular_root

        def ends_on_earlier_shift(secular, p, s):
            root, state, evaluations = search(secular, p, s)
            secular(2.0 * root)
            return root, state, evaluations + 1

        for make_op in (gen_vi_affine, skew_operator):
            op, x0 = make_op(20, 0)
            expected = run_ppa(op, x0, cfg).iterates
            with monkeypatch.context() as patched:
                patched.setattr(ppa, "_secular_root", ends_on_earlier_shift)
                iterates = run_ppa(op, x0, cfg).iterates
            assert all(np.array_equal(a, b) for a, b in zip(iterates, expected))

    def test_each_operator_is_factorized_once(self, monkeypatch):
        # affine_operator eigendecomposes a symmetric M once; run_ppa then
        # factorizes nothing, whatever the order and lam. A nonsymmetric M
        # is checked on its symmetric part's eigenvalues and stores nothing.
        calls = []
        for name in ("eigh", "eigvalsh", "inv", "solve", "cholesky"):
            original = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=original: calls.append(_n) or _f(*a))
        op, x0 = gen_vi_affine(20, 0)
        assert calls == ["eigh"]
        for p, lam in ((1.0, 1.0), (2.0, 0.5), (3.0, 2.0)):
            run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=lam, max_iters=20))
        assert calls == ["eigh"]
        skew, _ = skew_operator(20, 0)
        assert calls == ["eigh", "eigvalsh"] and skew.eigen is None

    def test_symmetric_operator_built_directly_takes_eigen_path(self, monkeypatch):
        # the factorization comes from affine_parts, however the operator is
        # built, so a plain MonotoneOperator gets it too and inverts nothing
        op, x0 = gen_vi_affine(20, 0)
        mat, offset = op.affine_parts
        plain = MonotoneOperator(evaluate=op.evaluate, affine_parts=(mat, offset))
        assert np.array_equal(plain.eigen[0], op.eigen[0])
        monkeypatch.setattr(np.linalg, "inv", lambda a: pytest.fail("inverted lam*M + s*I"))
        cfg = PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=20)
        expected = run_ppa(op, x0, cfg).iterates
        assert all(np.array_equal(a, b) for a, b in zip(run_ppa(plain, x0, cfg).iterates, expected))

    def test_eigen_follows_affine_parts(self):
        op, _ = gen_vi_affine(6, 0)
        with pytest.raises(TypeError):
            MonotoneOperator(evaluate=op.evaluate, affine_parts=op.affine_parts, eigen=None)
        symmetric, _ = gen_vi_affine(6, 1)
        moved = dataclasses.replace(op, affine_parts=symmetric.affine_parts)
        assert np.array_equal(moved.eigen[1], symmetric.eigen[1])
        skew, _ = skew_operator(6, 0)
        assert dataclasses.replace(op, affine_parts=skew.affine_parts).eigen is None


def rounding_bound(op, x):
    # gamma_{n+1} (||M||_F ||x|| + ||q||): the error bound of computing M x + q
    mat, offset = op.affine_parts
    unit = (offset.shape[0] + 1) * 2.0 ** -53
    return unit / (1.0 - unit) * (np.linalg.norm(mat) * np.linalg.norm(x) + np.linalg.norm(offset))


class TestNonIntegerAndHigherOrders:
    @pytest.mark.parametrize("p", [1.5, 2.5, 4.0])
    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_step_identity_and_search_length(self, make_op, p):
        # p = 2 has a closed-form model root; other orders solve it by Newton in log t
        cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=50)
        runs = []
        for seed in range(3):
            op, x0 = make_op(20, seed)
            trace = run_ppa(op, x0, cfg)
            assert_step_identity(op, x0, trace, cfg)
            assert max(trace.inner_solves) <= 10
            runs.append((trace, p))
        # the rates of acceptance criteria 2 and 3, at their tolerance
        worst = worst_bound_values(runs)
        assert worst["step_rate"] <= 1e-9 and worst["residual_rate"] <= 1e-9, worst


class TestRoundingFloorStop:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("make_op, seed", [(gen_vi_affine, 2), (skew_operator, 0)], ids=["symmetric", "skew"])
    def test_run_stops_at_first_iterate_inside_bound(self, make_op, seed, p):
        op, x0 = make_op(20, seed)
        lam = 1.0
        trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=lam, max_iters=200))
        assert len(trace.step_norms) < 200
        assert trace.step_norms[-1] == 0.0 and trace.inner_solves[-1] == 0
        assert all(count > 0 for count in trace.inner_solves[:-1])
        # F(x_k) for the last step's x_k is inside the bound, every earlier one above it
        *earlier, last = trace.iterates[:-1]
        assert np.linalg.norm(op.evaluate(last)) <= rounding_bound(op, last)
        assert np.linalg.norm(op.evaluate(x0)) > rounding_bound(op, x0)
        for x, residual in zip(earlier[1:], trace.residual_norms):
            assert residual > lam * rounding_bound(op, x)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    def test_start_inside_bound_takes_zero_step(self, make_op, p):
        op, _ = make_op(20, 0)
        # one ulp from the solution: F is nonzero, but below its rounding bound
        start = np.nextafter(op.known_solution, np.inf)
        f0 = op.evaluate(start)
        assert 0.0 < np.linalg.norm(f0) <= rounding_bound(op, start)
        trace = run_ppa(op, start, PpaConfig(p=p, lambda_ppa=1.0, max_iters=5))
        assert trace.step_norms == [0.0]
        assert trace.inner_solves == [0]
        assert np.array_equal(trace.iterates[-1], start)

    @pytest.mark.parametrize("make_op", [gen_vi_affine, skew_operator], ids=["symmetric", "skew"])
    @pytest.mark.parametrize("scale, p", [(1e100, 2.0), (1e140, 3.0), (1e60, 2.0)])
    def test_far_start_stops_on_unresolved_step(self, make_op, scale, p):
        # the exact step, about 1e-49 of ||x0|| at 1e100, is far below the
        # rounding of x0 - d, so x_next rounds back to x0 while lam*||F||
        # is still huge: the run records that step and stops by its name
        op, x0 = make_op(20, 0)
        x0 = scale * x0
        trace = run_ppa(op, x0, PpaConfig(p=p, lambda_ppa=1.0, max_iters=200))
        assert trace.status == "unresolved_step"
        assert len(trace.step_norms) == 1 and trace.inner_solves[0] > 0
        assert trace.step_norms[0] <= 1e-15 * np.linalg.norm(x0)
        assert trace.residual_norms[0] > 1e10 * rounding_bound(op, x0)


class TestRunPpa:
    def test_first_order_halving(self):
        cfg = PpaConfig(p=1.0, lambda_ppa=1.0, max_iters=5)
        trace = run_ppa(scalar_identity_op(), np.array([1.0]), cfg)
        values = [float(x[0]) for x in trace.iterates]
        assert np.allclose(values, [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125], rtol=1e-12)
        assert trace.status == "max_iters"

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
        assert trace.status == "step_tol" and trace.inner_solves[-1] == 1

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

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_residual_step_identity_rank_deficient_skew(self, p):
        # M = Q^T Q + (S - S^T) with a rank-5 Q: x_next taken from the
        # inverse without its refinement step breaks the identity by up to
        # 2e-8 * scale here
        for seed in range(5):
            op, x0 = rank_deficient_skew_operator(seed)
            cfg = PpaConfig(p=p, lambda_ppa=1.0, max_iters=200)
            trace = run_ppa(op, x0, cfg)
            # a search whose bracket shrinks to adjacent doubles ends there,
            # not on the evaluation cap
            assert max(trace.inner_solves) < _MAX_EVALUATIONS
            assert_step_identity(op, x0, trace, cfg)

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
        # run_ppa solves every step from (M, q), so an operator cannot be built without them
        with pytest.raises(TypeError, match="affine_parts"):
            MonotoneOperator(evaluate=lambda x: x)


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

    @pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(2.0), True, "3"])
    def test_config_rejects_non_integer_cap(self, bad):
        # a float cap would fail only later, inside range(), and True would run as 1
        with pytest.raises(ValueError, match="^max_iters must be an integer"):
            PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=bad)

    def test_config_accepts_numpy_integer_cap(self):
        op, x0 = gen_vi_affine(6, 0)
        trace = run_ppa(op, x0, PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=np.int64(3)))
        assert len(trace.step_norms) == 3

    @pytest.mark.parametrize("field", ["p", "lambda_ppa", "step_tol"])
    def test_config_rejects_nan(self, field):
        params = dict(p=2.0, lambda_ppa=1.0, max_iters=10, step_tol=0.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"^{field} must"):
                PpaConfig(**{**params, field: bad})

    def test_affine_operator_monotonicity_check(self):
        with pytest.raises(ValueError, match="monotone"):
            affine_operator(-np.eye(3), np.zeros(3))

    def test_affine_operator_rejects_empty_operator(self):
        # an empty M has no eigenvalue to check monotonicity on
        with pytest.raises(ValueError, match="^affine operator needs at least one dimension$"):
            affine_operator(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(ValueError, match="^affine operator needs at least one dimension$"):
            gen_vi_affine(0, 0)

    def test_affine_operator_rejects_known_solution_of_other_length(self):
        with pytest.raises(ValueError, match="known_solution has length 4, the operator 3"):
            affine_operator(np.eye(3), np.zeros(3), known_solution=np.zeros(4))

    def test_run_rejects_start_of_other_length(self):
        # numpy would fail inside the first evaluation, on broadcast shapes
        op, _ = gen_vi_affine(5, 0)
        with pytest.raises(ValueError, match="^x0 has length 4, the operator 5$"):
            run_ppa(op, np.zeros(4), PpaConfig(p=2.0, lambda_ppa=1.0, max_iters=5))

    def test_monotonicity_probe(self):
        op, _ = gen_vi_affine(7, 9)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 7))
            gap = float((op.evaluate(x) - op.evaluate(y)) @ (x - y))
            assert gap >= -1e-10
