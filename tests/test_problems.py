import math
import re

import numpy as np
import pytest

from hoprox.linalg import as_matrix
from hoprox.operators import MatrixMap
from hoprox.problems import (
    McInstance,
    bp_composite,
    dump_instance,
    gen_bp,
    gen_mc,
    gen_vi_affine,
    load_instance,
    mc_composite,
    nuclear_norm_on_vectors,
)

from spectral_norm import spectral_norm_estimate


# The observed-entry mask on (m, n) matrices, independent of ``EntryMask``:
# TestMaskOperator pins the instance's row-major index layout with it.
def apply_mask_operator(inst: McInstance, data, mode: str):
    """Select (``forward``) or scatter (``adjoint``) the observed entries.

    Forward maps an (m, n) matrix to the observed-value vector in row-major
    index order; adjoint scatters a value vector back into an (m, n) matrix
    with zeros elsewhere.
    """
    m, n = inst.shape
    if mode == "forward":
        mat = as_matrix(data)
        if mat.shape != (m, n):
            raise ValueError(f"expected shape {(m, n)}, got {mat.shape}")
        return mat.ravel()[inst.observed_indices]
    if mode == "adjoint":
        vec = np.asarray(data, dtype=float)
        if vec.shape != inst.observed_indices.shape:
            raise ValueError(f"expected {inst.observed_indices.size} values, got {vec.shape}")
        out = np.zeros(m * n)
        out[inst.observed_indices] = vec
        return out.reshape(m, n)
    raise ValueError(f"mode must be 'forward' or 'adjoint', got {mode!r}")


class TestGenBp:
    def test_shapes_and_feasibility(self):
        inst = gen_bp(10, 50, 0.2, seed=0)
        assert inst.a.shape == (10, 50)
        assert np.count_nonzero(inst.ground_truth) == 10
        assert np.array_equal(inst.b, inst.a @ inst.ground_truth)

    def test_paper_scale_counts(self):
        inst = gen_bp(100, 500, 0.2, seed=1)
        assert inst.a.shape == (100, 500)
        assert np.count_nonzero(inst.ground_truth) == 100
        assert inst.b.shape == (100,)

    def test_full_density_boundary(self):
        inst = gen_bp(4, 8, 1.0, seed=2)
        assert np.count_nonzero(inst.ground_truth) == 8

    def test_deterministic_bitwise(self):
        a = gen_bp(6, 20, 0.3, seed=3)
        b = gen_bp(6, 20, 0.3, seed=3)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.ground_truth, b.ground_truth)
        assert np.array_equal(a.b, b.b)

    def test_overdetermined_warns(self):
        with pytest.warns(UserWarning, match="underdetermined"):
            gen_bp(8, 5, 0.5, seed=0)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="empty ground truth"):
            gen_bp(5, 10, 0.01, seed=0)

    def test_bad_density_rejected(self):
        with pytest.raises(ValueError):
            gen_bp(5, 10, 1.5, seed=0)
        with pytest.raises(ValueError):
            gen_bp(5, 10, 0.0, seed=0)


class TestGenMc:
    def test_observation_count(self):
        inst = gen_mc(50, 50, 0.1, seed=0)
        assert inst.observed_indices.size == 250
        assert inst.observed_values.size == 250

    def test_single_entry_boundary(self):
        inst = gen_mc(5, 4, 0.05, seed=1)
        assert inst.observed_indices.size == 1

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty observation"):
            gen_mc(5, 4, 0.01, seed=0)

    def test_row_major_order_and_values(self):
        inst = gen_mc(6, 7, 0.3, seed=2)
        assert np.all(np.diff(inst.observed_indices) > 0)
        assert np.array_equal(inst.matrix.ravel()[inst.observed_indices], inst.observed_values)

    def test_deterministic_bitwise(self):
        a = gen_mc(8, 8, 0.2, seed=5)
        b = gen_mc(8, 8, 0.2, seed=5)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.observed_indices, b.observed_indices)


class TestMaskOperator:
    def test_forward_then_adjoint_masks(self):
        inst = gen_mc(5, 6, 0.2, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 6))
        forward = apply_mask_operator(inst, x, "forward")
        masked = apply_mask_operator(inst, forward, "adjoint")
        pattern = np.zeros(30)
        pattern[inst.observed_indices] = 1.0
        assert np.array_equal(masked, x * pattern.reshape(5, 6))
        # the library's mask on the same instance gives the same bits
        mask = mc_composite(inst).a_map
        assert mask.apply(x.ravel()).tobytes() == forward.tobytes()
        assert mask.adjoint(forward).tobytes() == masked.ravel().tobytes()

    def test_forward_of_zero(self):
        inst = gen_mc(4, 4, 0.25, seed=1)
        forward = apply_mask_operator(inst, np.zeros((4, 4)), "forward")
        assert np.array_equal(forward, np.zeros(4))
        assert mc_composite(inst).a_map.apply(np.zeros(16)).tobytes() == forward.tobytes()

    def test_bad_mode_rejected(self):
        inst = gen_mc(4, 4, 0.25, seed=1)
        with pytest.raises(ValueError, match="mode"):
            apply_mask_operator(inst, np.zeros((4, 4)), "sideways")

    def test_adjoint_consistency(self):
        inst = gen_mc(7, 9, 0.15, seed=3)
        prob = mc_composite(inst)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(63)
            y = rng.standard_normal(inst.observed_indices.size)
            lhs = float(prob.a_map.apply(x) @ y)
            rhs = float(x @ prob.a_map.adjoint(y))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_mask_operator_norm_is_one(self):
        inst = gen_mc(6, 6, 0.3, seed=4)
        prob = mc_composite(inst)
        dense = np.column_stack([prob.a_map.apply(e) for e in np.eye(36)])
        assert abs(spectral_norm_estimate(dense) - 1.0) <= 1e-9
        assert abs(prob.a_map.norm_estimate() - 1.0) <= 1e-9


class TestMatrixMap:
    # a 40 x 30 matrix in three layouts; the strided one is a view that
    # MatrixMap keeps, so BLAS sees it only through ndarray.dot's copy
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_apply_and_adjoint_match_a_row_wise_fsum(self, layout):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((40, 60))
        mat = {"C": base[:, :30].copy(), "F": np.asfortranarray(base[:, :30]), "strided": base[:, ::2]}[layout]
        op = MatrixMap(mat)
        flags = op.mat.flags
        assert (flags.c_contiguous, flags.f_contiguous) == {"C": (True, False), "F": (False, True),
                                                           "strided": (False, False)}[layout]
        x, y = rng.standard_normal(30), rng.standard_normal(40)
        rows = mat.tolist()
        apply_ref = [math.fsum(a * b for a, b in zip(row, x)) for row in rows]
        adjoint_ref = [math.fsum(row[j] * b for row, b in zip(rows, y)) for j in range(30)]
        # relative to |A||x| and |A^T||y|, the scale of each entry's rounding
        assert np.all(np.abs(op.apply(x) - apply_ref) <= 1e-14 * (np.abs(mat) @ np.abs(x)))
        assert np.all(np.abs(op.adjoint(y) - adjoint_ref) <= 1e-14 * (np.abs(mat).T @ np.abs(y)))


class TestComposites:
    def test_bp_composite_wiring(self):
        inst = gen_bp(5, 12, 0.25, seed=0)
        prob = bp_composite(inst)
        assert prob.f.value(np.ones(12)) == 12.0
        assert np.array_equal(prob.b, inst.b)
        assert np.array_equal(prob.a_map.apply(inst.ground_truth), inst.b)

    def test_nuclear_norm_on_vectors(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((4, 6))
        f = nuclear_norm_on_vectors(4, 6)
        assert np.isclose(f.value(mat.ravel()), np.linalg.svd(mat, compute_uv=False).sum())
        shrunk = f.prox(mat.ravel(), 0.5).reshape(4, 6)
        sigma_in = np.linalg.svd(mat, compute_uv=False)
        sigma_out = np.linalg.svd(shrunk, compute_uv=False)
        assert np.allclose(sigma_out, np.maximum(sigma_in - 0.5, 0.0), atol=1e-10)

    def test_mc_composite_feasible_point(self):
        inst = gen_mc(5, 5, 0.2, seed=6)
        prob = mc_composite(inst)
        assert np.allclose(prob.a_map.apply(inst.matrix.ravel()), prob.b)

    def test_nuclear_value_midpoint_convexity(self):
        f = nuclear_norm_on_vectors(4, 5)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x, y = rng.standard_normal((2, 20)) * rng.uniform(0.1, 5)
            mid = f.value((x + y) / 2.0)
            assert mid <= 0.5 * (f.value(x) + f.value(y)) + 1e-9


class TestGenViAffine:
    def test_planted_solution_and_monotonicity(self):
        op, x0 = gen_vi_affine(12, 0)
        assert np.linalg.norm(op.evaluate(op.known_solution)) <= 1e-12
        mat, _ = op.affine_parts
        assert np.linalg.eigvalsh(0.5 * (mat + mat.T))[0] >= -1e-10
        assert x0.shape == (12,)

    def test_deterministic(self):
        op1, x1 = gen_vi_affine(8, 3)
        op2, x2 = gen_vi_affine(8, 3)
        assert np.array_equal(op1.affine_parts[0], op2.affine_parts[0])
        assert np.array_equal(x1, x2)


class TestInstanceSerialization:
    def test_bp_round_trip(self, tmp_path):
        inst = gen_bp(6, 15, 0.3, seed=7)
        path = tmp_path / "bp.instance.txt"
        dump_instance(inst, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.a, inst.a)
        assert np.array_equal(loaded.ground_truth, inst.ground_truth)
        assert np.array_equal(loaded.b, inst.b)
        assert loaded.density == inst.density and loaded.seed == inst.seed

    def test_mc_round_trip(self, tmp_path):
        inst = gen_mc(7, 5, 0.2, seed=8)
        path = tmp_path / "mc.instance.txt"
        dump_instance(inst, path)
        loaded = load_instance(path)
        assert np.array_equal(loaded.matrix, inst.matrix)
        assert np.array_equal(loaded.observed_indices, inst.observed_indices)
        assert np.array_equal(loaded.observed_values, inst.observed_values)

    def test_header_line(self, tmp_path):
        inst = gen_bp(3, 6, 0.5, seed=9)
        path = tmp_path / "inst.txt"
        dump_instance(inst, path)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == "bp"
        assert header[1:3] == ["3", "6"]
        assert float(header[3]) == 0.5 and int(header[4]) == 9

    @pytest.mark.parametrize(
        "text",
        ["", "bp 2\n", "bp 3 6 0.5\n", "bp 3.0 6 0.5 9\n", "bp 3 6 x 9\n", "bp 3 6 0.5 9.5\n", "bp -1 2 0.5 0\n",
         "mc 3 0 0.5 0\n"],
        ids=["empty", "two-fields", "four-fields", "float-m", "bad-density", "float-seed", "negative-m", "zero-n"],
    )
    def test_malformed_header_rejected(self, tmp_path, text):
        # an empty file raised a bare IndexError, a short header an unpack error,
        # and bp with m = -1 read its header line as the ground truth
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 1: expected the header"):
            load_instance(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("xy 2 2 0.5 0\n")
        with pytest.raises(ValueError, match="unknown instance kind"):
            load_instance(path)

    # bp lines: 1 the header, 2..4 the rows of A (6 values), 5 the ground truth (6), 6 b (3)
    @pytest.mark.parametrize(
        "line,count,expected",
        [(2, 5, 6), (5, 5, 6), (6, 2, 3), (6, 4, 3)],
        ids=["short-row", "short-ground-truth", "short-b", "long-b"],
    )
    def test_malformed_bp_rejected(self, tmp_path, line, count, expected):
        # a ground truth or b one short loaded silently
        path = tmp_path / "bp.txt"
        dump_instance(gen_bp(3, 6, 0.5, seed=9), path)
        lines = path.read_text().splitlines()
        lines[line - 1] = " ".join((lines[line - 1].split() * 2)[:count])
        path.write_text("\n".join(lines) + "\n")
        message = f"^{re.escape(str(path))} line {line}: expected {expected} values, got {count}$"
        with pytest.raises(ValueError, match=message):
            load_instance(path)

    def test_non_numeric_bp_value_rejected(self, tmp_path):
        # a bad value named neither the file nor the line
        path = tmp_path / "bp.txt"
        path.write_text("bp 1 2 0.5 0\n1 x\n0 1\n1\n")
        message = f"^{re.escape(str(path))} line 2: could not convert string to float: 'x'$"
        with pytest.raises(ValueError, match=message):
            load_instance(path)

    @pytest.mark.parametrize(
        "text,line",
        [("bp 1 2 0.5 0\n1 nan\n0 1\n1\n", 2), ("bp 1 2 0.5 0\n1 0\n0 -inf\n1\n", 3),
         ("bp 1 2 0.5 0\n1 0\n0 1\ninf\n", 4), ("mc 7 5 0.1 0\n2\n0 3\n1.0 nan\n", 4)],
        ids=["bp-row", "bp-ground-truth", "bp-b", "mc-values"],
    )
    def test_non_finite_value_rejected(self, tmp_path, text, line):
        # a bp row "1 nan" loaded, and the error came later from bp_composite
        # with no file or line
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line {line}: expected finite values, got"):
            load_instance(path)

    @pytest.mark.parametrize(
        "indices,match",
        [("0 3 35", "mc indices must be increasing"), ("-1 3 7", "mc indices must be increasing"),
         ("0 3 3", "mc indices must be increasing"), ("0 7 3", "mc indices must be increasing"),
         ("0 3", "expected 3 values, got 2$"), ("0 x 7", "invalid literal for int\\(\\) with base 10: 'x'$")],
        ids=["past-end", "negative", "repeated", "decreasing", "short", "non-numeric"],
    )
    def test_malformed_mc_rejected(self, tmp_path, indices, match):
        # an index >= m*n raised a bare IndexError, and a repeated one loaded
        # with the matrix disagreeing with the observed values
        path = tmp_path / "mc.txt"
        path.write_text(f"mc 7 5 0.1 0\n3\n{indices}\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: {match}"):
            load_instance(path)

    @pytest.mark.parametrize("count", [0, -1])
    def test_mc_count_below_one_rejected(self, tmp_path, count):
        # a count of -1 was reported against the index line, as its value count
        path = tmp_path / "mc.txt"
        path.write_text(f"mc 7 5 0.1 0\n{count}\n0\n1.0\n")
        message = f"^{re.escape(str(path))} line 2: expected an index count of at least 1, got {count}$"
        with pytest.raises(ValueError, match=message):
            load_instance(path)
