import os
import subprocess
import sys

import numpy as np
import pytest

import hoprox
from hoprox.linalg import solve_shifted_system

from spectral_norm import spectral_norm_estimate


def test_import_leaves_scipy_unloaded():
    # the package needs only numpy; importing scipy would about double the
    # time `import hoprox` takes
    path = [os.path.dirname(os.path.dirname(hoprox.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hoprox; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def random_psd(n, rng):
    q = rng.standard_normal((n, n))
    return q.T @ q


class TestSolveShiftedSystem:
    def test_identity_shift_one(self):
        y = solve_shifted_system(np.eye(2), 1.0, np.array([2.0, 4.0]))
        assert np.allclose(y, [1.0, 2.0], atol=1e-14)

    def test_scalar_zero_matrix(self):
        y = solve_shifted_system(np.zeros((1, 1)), 0.5, np.array([1.0]))
        assert np.allclose(y, [2.0], atol=1e-14)

    def test_residual_random_psd(self):
        rng = np.random.default_rng(7)
        mat = random_psd(5, rng)
        rhs = rng.standard_normal(5)
        y = solve_shifted_system(mat, 0.3, rhs)
        residual = (mat + 0.3 * np.eye(5)) @ y - rhs
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_property(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 12)
        mat = random_psd(n, rng)
        shift = float(rng.uniform(0.01, 5.0))
        rhs = rng.standard_normal(n) * rng.uniform(0.1, 100.0)
        y = solve_shifted_system(mat, shift, rhs)
        residual = (mat + shift * np.eye(n)) @ y - rhs
        assert np.linalg.norm(residual) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_zero_shift_nonsingular(self):
        rng = np.random.default_rng(3)
        mat = random_psd(4, rng) + np.eye(4)
        rhs = rng.standard_normal(4)
        y = solve_shifted_system(mat, 0.0, rhs)
        assert np.linalg.norm(mat @ y - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_singular_shift_error(self):
        singular = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="singular shift"):
            solve_shifted_system(singular, 0.0, np.array([1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_shifted_system(np.eye(2), 1.0, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            solve_shifted_system(np.ones((2, 3)), 1.0, np.array([1.0, 2.0, 3.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_shifted_system(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0, np.ones(2))

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            solve_shifted_system(np.eye(2), -0.1, np.ones(2))

    def test_nan_shift_rejected(self):
        with pytest.raises(ValueError, match="^shift must be nonnegative, got nan"):
            solve_shifted_system(np.eye(2), float("nan"), np.ones(2))


class TestSpectralNormEstimate:
    def test_diagonal(self):
        assert abs(spectral_norm_estimate(np.diag([2.0, 5.0]), tol=1e-9) - 5.0) <= 5.0 * 1e-6

    def test_zero_matrix(self):
        assert spectral_norm_estimate(np.zeros((3, 3))) == 0.0

    def test_matches_svd(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((10, 20))
        sigma = np.linalg.svd(mat, compute_uv=False)
        estimate = spectral_norm_estimate(mat, tol=1e-9)
        assert abs(estimate - sigma[0]) <= 1e-6 * sigma[0]

    @pytest.mark.parametrize("seed", range(8))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        mat = rng.standard_normal((rng.integers(2, 9), rng.integers(2, 9)))
        estimate = spectral_norm_estimate(mat, tol=1e-9)
        assert estimate <= np.linalg.norm(mat) * (1 + 1e-9)
        assert estimate >= np.linalg.norm(mat, axis=0).max() * (1 - 1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        mat = rng.standard_normal((7, 7))
        assert spectral_norm_estimate(mat) == spectral_norm_estimate(mat)
