"""Linear maps used as the constraint operator A in composite problems.

A map carries ``apply`` (x -> Ax), ``adjoint`` (y -> A^T y) and ``shape``,
all that the solvers use (see ``CompositeProblem``); ``norm_estimate`` is
called by no solver. Matrix-free maps (entry masks) implement the same
surface so the solvers never branch on the representation.
"""

import numpy as np

from .linalg import as_matrix


class MatrixMap:
    """Dense matrix acting on vectors.

    ``apply`` and ``adjoint`` call ndarray.dot, not @: the same BLAS gemv and
    bits on a contiguous matrix, with less dispatch (a 500 x 100 transposed
    gemv 11.8 against 10.4 us; numpy 2.4.6, one OpenBLAS thread, Xeon). A
    strided matrix reaches BLAS as a copy, so its last bits may differ from @.
    """

    def __init__(self, mat: np.ndarray):
        self.mat = as_matrix(mat)
        self.shape = self.mat.shape

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.mat.dot(x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return self.mat.T.dot(y)

    def norm_estimate(self) -> float:
        return float(np.linalg.norm(self.mat, 2))


class EntryMask:
    """Selection of a fixed set of entries from a row-major flattened matrix.

    The indices must be distinct integers (an integer dtype) within
    [0, m * n). ``apply`` picks the observed entries in index order;
    ``adjoint`` scatters them back with zeros elsewhere. The operator norm
    is exactly 1 whenever the index set is nonempty. Inputs are checked for
    shape only: finiteness is the caller's to validate, once, at a solver's
    entry.
    """

    def __init__(self, flat_indices: np.ndarray, matrix_shape: tuple[int, int]):
        idx = np.asarray(flat_indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("index set must be a nonempty 1-d array")
        if not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"mask indices must be integers, got dtype {idx.dtype}")
        size = matrix_shape[0] * matrix_shape[1]
        if idx.min() < 0 or idx.max() >= size:
            raise ValueError("mask index out of range")
        if np.unique(idx).size != idx.size:
            raise ValueError("mask indices must be distinct")
        self.indices = idx.astype(int, copy=False)
        self.shape = (idx.size, size)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.shape[1],):
            raise ValueError(f"input shape {x.shape} != ({self.shape[1]},)")
        return x[self.indices]

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.shape[0],):
            raise ValueError(f"input shape {y.shape} != ({self.shape[0]},)")
        out = np.zeros(self.shape[1])
        out[self.indices] = y
        return out

    def norm_estimate(self) -> float:
        """Exactly 1: A^T A is a 0/1 diagonal with at least one 1."""
        return 1.0

