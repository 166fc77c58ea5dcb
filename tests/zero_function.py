"""The identically-zero ProxFunction, a test fixture.

With f = 0 the gradient map G(z) is the penalty gradient itself, so a
composite solve reduces to smooth minimization.
"""

import numpy as np

from hoprox.prox import ProxFunction


def zero_function() -> ProxFunction:
    """The identically-zero function; its prox is the identity."""
    return ProxFunction(
        value=lambda x: 0.0,
        prox=lambda v, t: np.asarray(v, dtype=float).copy(),
    )
