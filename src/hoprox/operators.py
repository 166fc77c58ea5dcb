"""Linear maps used as the constraint operator A in composite problems.

A map carries ``apply`` (x -> Ax), ``adjoint`` (y -> A^T y) and a spectral
norm estimate. Matrix-free maps (entry masks) implement the same surface so
the solvers never branch on the representation.
"""

import numpy as np

from .linalg import as_matrix, as_vector, spectral_norm_estimate


class MatrixMap:
    """Dense matrix acting on vectors."""

    def __init__(self, mat: np.ndarray):
        self.mat = as_matrix(mat)
        self.shape = self.mat.shape
        self._norm = None

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.mat.T @ y

    def norm_estimate(self, tol: float = 1e-9) -> float:
        if self._norm is None:
            self._norm = spectral_norm_estimate(self.mat, tol=tol)
        return self._norm


class EntryMask:
    """Selection of a fixed set of entries from a row-major flattened matrix.

    ``apply`` picks the observed entries in index order; ``adjoint`` scatters
    them back with zeros elsewhere. The operator norm is exactly 1 whenever
    the index set is nonempty.
    """

    def __init__(self, flat_indices: np.ndarray, matrix_shape: tuple[int, int]):
        idx = np.asarray(flat_indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("index set must be a nonempty 1-d array")
        size = matrix_shape[0] * matrix_shape[1]
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError("mask index out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("mask indices must be distinct")
        self.indices = idx
        self.matrix_shape = matrix_shape
        self.shape = (idx.size, size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_vector(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"input length {x.shape[0]} != {self.shape[1]}")
        return x[self.indices]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = as_vector(y)
        if y.shape[0] != self.shape[0]:
            raise ValueError(f"input length {y.shape[0]} != {self.shape[0]}")
        out = np.zeros(self.shape[1])
        out[self.indices] = y
        return out

    def norm_estimate(self, tol: float = 1e-9) -> float:
        """Exactly 1: A^T A is a 0/1 diagonal with at least one 1."""
        return 1.0


def power_iteration_norm(op, tol: float = 1e-9, max_iters: int = 50_000) -> float:
    """Operator-norm estimate of a linear map via power iteration on A^T A.

    Same deterministic all-ones start as ``spectral_norm_estimate``, but
    phrased in terms of apply/adjoint so it also covers matrix-free maps.
    """
    n = op.shape[1]
    v = np.ones(n) / np.sqrt(n)
    estimate = 0.0
    basis_idx = 0
    for _ in range(max_iters):
        w = op.adjoint(op.apply(v))
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            if basis_idx >= n:
                return estimate
            v = np.zeros(n)
            v[basis_idx] = 1.0
            basis_idx += 1
            continue
        new_estimate = np.sqrt(norm_w)
        v = w / norm_w
        if abs(new_estimate - estimate) <= 0.01 * tol * new_estimate:
            return new_estimate
        estimate = new_estimate
    return estimate
