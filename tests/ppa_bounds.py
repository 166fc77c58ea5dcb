"""The paper's PPA guarantees as worst values over a set of runs (acceptance criteria 1–3).

For a monotone operator with a solution x*, d_k = ||x_k - x*|| and step
s_k = ||x_{k+1} - x_k||, each step of the order-p PPA satisfies
- Fejér contraction: d_{k+1}^2 + s_k^2 <= d_k^2;
- step monotonicity: s_{k+1} <= s_k, and the step rate s_k^2 <= d_0^2/(k + 1);
- the residual rate: lam*||F(x_{k+1})|| <= d_0^p/(k + 1)^(p/2).
"""

import numpy as np


def worst_bound_values(runs) -> dict:
    """The largest value of each bound's left side minus its right side over ``runs``.

    ``runs`` holds (``PpaTrace``, p) pairs whose traces carry
    ``distances_to_solution``. A bound holds on every step where its value
    is at most 0. The keys are ``fejer``, ``monotonicity``, ``step_rate``
    and ``residual_rate``.
    """
    worst = dict.fromkeys(("fejer", "monotonicity", "step_rate", "residual_rate"), -np.inf)
    for trace, p in runs:
        dist = np.array(trace.distances_to_solution)
        steps = np.array(trace.step_norms)
        resid = np.array(trace.residual_norms)
        k = np.arange(len(steps))
        values = {
            "fejer": dist[1:] ** 2 + steps ** 2 - dist[:-1] ** 2,
            "monotonicity": np.diff(steps),
            "step_rate": steps ** 2 - dist[0] ** 2 / (k + 1),
            "residual_rate": resid - dist[0] ** p / (k + 1) ** (p / 2.0),
        }
        for name, value in values.items():
            worst[name] = max(worst[name], float(np.max(value, initial=-np.inf)))
    return worst
