"""The reference kernel: a plain-numpy exact MH chain on the workload's data.

It belongs to the benchmark, not to the library, and never changes with
it. Its chunks run interleaved with the samplers' chunks in every worker
process, and its rate around the time of each sampler chunk is the unit in
which the throughput metrics are reported (``*_per_ref_step``: a sampler's
steps in the time the reference kernel takes for one step). The shared
machine's speed drifts by up to 30% between runs, from one process to the
next and in spells of a few seconds, and it moves the reference kernel
with the samplers, so the ratio holds steadier than either rate.

The kernel does what an exact MH step on the workload must do: one
full-data log joint in numpy, a Gaussian proposal and a uniform draw, so
it is interpreter-bound at N = 1e3 and bound by the data sweep at
N = 1e5, as the full-data samplers are.
"""

import numpy as np

from workloads import GAUSS_PRIOR_VAR, LOGISTIC_PRIOR_SCALE

__all__ = ["reference_log_joint", "run_reference"]


def reference_log_joint(model: str, data):
    """The workload's log posterior, up to a constant, written in plain numpy."""
    if model == "logistic":
        X, y = data.X, data.y
        inv_var = 1.0 / LOGISTIC_PRIOR_SCALE ** 2

        def log_joint(theta):
            return -np.logaddexp(0.0, -y * (X @ theta)).sum() - 0.5 * inv_var * (theta @ theta)
    else:
        xs = data.xs

        def log_joint(theta):
            return -0.5 * np.square(xs - theta[0]).sum() - 0.5 * theta[0] ** 2 / GAUSS_PRIOR_VAR
    return log_joint


def run_reference(log_joint, theta, scale, steps: int, key: int) -> np.ndarray:
    """``steps`` random-walk MH steps from ``theta``; returns the last state."""
    rng = np.random.default_rng(key)
    lp = log_joint(theta)
    for _ in range(steps):
        prop = theta + scale * rng.standard_normal(theta.size)
        lp_prop = log_joint(prop)
        if np.log(rng.random()) < lp_prop - lp:
            theta, lp = prop, lp_prop
    return theta
