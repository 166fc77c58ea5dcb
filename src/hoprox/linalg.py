"""Dense numeric kernels and input checks shared by the solvers.

The kernels operate on plain numpy arrays: vectors are 1-d float64 arrays,
matrices are 2-d float64 arrays in row-major layout. All functions are pure
and deterministic.
"""

import numbers

import numpy as np


def check_cap(name: str, value) -> None:
    """Raise ValueError unless the iteration cap ``value`` is an integer >= 1.

    A bool is rejected although Python counts it an integer; numpy integers
    are accepted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not value >= 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-d float64 array."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def solve_shifted_system(mat: np.ndarray, shift: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (mat + shift*I) y = rhs for a symmetric PSD ``mat``.

    Uses a Cholesky factorization of the shifted matrix, with one step of
    iterative refinement so the relative residual stays at machine level,
    and a general-solve fallback if the factorization fails despite a
    positive shift.

    Raises
    ------
    ValueError
        On dimension mismatch, an asymmetric matrix, or a singular system
        ("singular shift": shift == 0 with ``mat`` singular).
    """
    mat = as_matrix(mat)
    rhs = as_vector(rhs)
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise ValueError(f"matrix must be square, got {mat.shape}")
    if rhs.shape[0] != n:
        raise ValueError(f"rhs length {rhs.shape[0]} != matrix order {n}")
    if not shift >= 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    if not np.allclose(mat, mat.T, rtol=0.0, atol=1e-10 * max(1.0, abs(mat).max())):
        raise ValueError("matrix must be symmetric")

    shifted = mat + shift * np.eye(n)
    try:
        lower = np.linalg.cholesky(shifted)
        solve = lambda b: np.linalg.solve(lower.T, np.linalg.solve(lower, b))
    except np.linalg.LinAlgError:
        if shift == 0.0:
            raise ValueError("singular shift: shift is zero and matrix is singular")
        # shift > 0 makes the system PD in exact arithmetic; fall back to a
        # general solve when rounding defeats the Cholesky.
        solve = lambda b: np.linalg.solve(shifted, b)

    y = solve(rhs)
    # one round of iterative refinement keeps the residual near machine precision
    residual = rhs - shifted @ y
    if np.linalg.norm(residual) > 1e-14 * max(1.0, np.linalg.norm(rhs)):
        y = y + solve(residual)
    return y

