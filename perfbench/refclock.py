"""A fixed reference kernel that measures how fast the host is running right now.

On a shared host the same solve can take 1.6x longer from one minute to the
next, in CPU time as well as wall time. The benchmark therefore times this
kernel between solves and reports every time at reference speed:

    reported = measured * REF_S / (reference time around the measurement)

where the reference time is the mean of the kernel runs just before and just
after the measured interval. On a host where the kernel takes REF_S, the
reported times are plain wall-clock times. The kernel mixes the three kinds
of work the workloads do: LAPACK SVDs, BLAS matvecs, and interpreter-bound
small solves and matvecs like those of the PPA root search. It depends on numpy only, never on hoprox, so a change to the
solvers cannot move it.
"""

import time

import numpy as np

REF_S = 0.013


class RefClock:
    """The reference kernel plus the chain of its samples around timed intervals."""

    def __init__(self):
        rng = np.random.default_rng(20230815)
        self._square = rng.standard_normal((50, 50))
        self._wide = rng.standard_normal((100, 500))
        self._x = rng.standard_normal(500)
        self._small = rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
        self._rhs = rng.standard_normal(20)
        self._diag = rng.uniform(1.0, 2.0, 20)
        self.samples = [self.sample()]

    def sample(self) -> float:
        """Seconds one run of the reference kernel takes now."""
        t0 = time.perf_counter()
        for _ in range(16):
            np.linalg.svd(self._square, full_matrices=False)
        for _ in range(150):
            self._wide.T @ (self._wide @ self._x)
        for k in range(200):
            np.linalg.solve(self._small + (k % 7) * np.eye(20), self._rhs)
        for k in range(400):
            y = self._small @ ((self._small.T @ self._rhs) / (self._diag + k))
            np.linalg.norm(y - self._rhs)
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Rescaling to reference speed for the interval since the previous sample."""
        self.samples.append(self.sample())
        return REF_S / (0.5 * (self.samples[-2] + self.samples[-1]))
