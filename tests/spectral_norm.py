"""Power-iteration spectral norm, the test reference for ||A||.

Criterion 4 and the Hölder-continuity tests bound the penalty gradient with
``holder_constant(p, beta, ||A||)``, taking ||A|| from this estimate.
"""

import numpy as np

from hoprox.linalg import as_matrix


def spectral_norm_estimate(mat: np.ndarray, tol: float = 1e-9, max_iters: int = 50_000) -> float:
    """Largest singular value of ``mat`` via power iteration on mat.T @ mat.

    Starts from the normalized all-ones vector so repeated calls are
    bitwise-reproducible. Returns 0.0 for the zero matrix.
    """
    mat = as_matrix(mat)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.any(mat):
        return 0.0

    n = mat.shape[1]
    v = np.ones(n) / np.sqrt(n)
    estimate = 0.0
    basis_idx = 0
    for _ in range(max_iters):
        w = mat.T @ (mat @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # iterate landed in the null space; restart from the next basis vector
            if basis_idx >= n:
                return estimate
            v = np.zeros(n)
            v[basis_idx] = 1.0
            basis_idx += 1
            continue
        new_estimate = np.sqrt(norm_w)
        v = w / norm_w
        # safety factor on the change-based stop: power iteration's error is
        # larger than its per-step change when the spectral gap is small
        if abs(new_estimate - estimate) <= 0.01 * tol * new_estimate:
            return new_estimate
        estimate = new_estimate
    return estimate
