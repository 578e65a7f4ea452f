"""The benchmark's workloads: seeded data, the reference posterior summary,
and each sampler's chunk length and share of the run.

Why these workloads (README.md has the full table; ``gauss-1e6`` runs by
name but is not in BENCHMARK.json, because its subsampling step is too slow
and too variable to measure steadily within one run):

* ``logistic-1e3`` is small enough that fixed per-step costs (key
  derivation, proposal, MH core, speculation scheduling, message dispatch,
  KDE aggregation) carry most of a step.
* ``logistic-1e5`` uses the same model at N = 1e5, where the likelihood
  layer dominates the full-data samplers and O(N) bookkeeping dominates
  the subsampling ones.
* ``gauss-1e6`` is a 1-D conjugate model at N = 1e6: per-term work is one
  subtraction and a square, so the same code is bound by indexing and
  memory, and the exact posterior is an oracle for the checks.
"""

import math
from dataclasses import dataclass

import numpy as np

from bigbayes.models import gaussian_iid_posterior

__all__ = ["Workload", "WORKLOADS", "Data", "make_data"]

LOGISTIC_PRIOR_SCALE = 10.0   # logistic_regression_target's default
# The true coefficients are fixed, not drawn: how much data subsampling MH
# reads, and how often MH accepts, depend on their norm, so a drawn vector
# would spread those figures from seed to seed by far more than a run
# measures. The seed draws the features and the labels.
LOGISTIC_THETA = np.array([0.5, 1.0, -1.0, 0.5, -0.5])
GAUSS_PRIOR_VAR = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: str           # "logistic" | "gauss"
    n: int
    d: int
    steps: dict          # sampler or "ref" -> chain steps (draws for cons) per timed chunk;
                         # mh, pf and pfp must match, as their draws are compared
    share: dict          # sampler or "ref" -> fraction of --seconds spent on it
    compare_steps: int   # length of the untimed compare_exact pass of ss


def _shares(**weights):
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


WORKLOADS = {
    w.name: w for w in [
        Workload(
            "logistic-1e3", "logistic", 1_000, 5,
            steps=dict(mh=400, ss=150, fly=500, pf=400, pfp=400,
                       cons=150, ws=50, sgld=1000, ref=400),
            share=_shares(mh=1, ss=2, fly=1, pf=1, pfp=2, cons=1, ws=1, sgld=1, ref=2),
            compare_steps=300,
        ),
        Workload(
            "logistic-1e5", "logistic", 100_000, 5,
            steps=dict(mh=20, ss=6, fly=50, pf=20, pfp=20,
                       cons=100, ws=3, sgld=40, ref=10),
            share=_shares(mh=2, ss=8, fly=5, pf=2, pfp=5, cons=3, ws=1, sgld=2, ref=4),
            compare_steps=40,
        ),
        Workload(
            "gauss-1e6", "gauss", 1_000_000, 1,
            steps=dict(mh=25, ss=2, fly=50, pf=25, pfp=25,
                       cons=25, ws=4, sgld=10, ref=25),
            share=_shares(mh=1, ss=1, fly=1, pf=1, pfp=1, cons=1, ws=1, sgld=1, ref=1),
            compare_steps=6,
        ),
    ]
}


@dataclass
class Data:
    """Generated inputs plus the benchmark's own reference posterior summary.

    ``theta_hat`` is the MAP (logistic) or exact posterior mean (Gaussian);
    ``sd`` is the Laplace (logistic) or exact (Gaussian) posterior sd.
    """

    X: np.ndarray = None
    y: np.ndarray = None
    xs: np.ndarray = None
    theta_hat: np.ndarray = None
    sd: np.ndarray = None


def make_data(wl: Workload, seed: int) -> Data:
    """Inputs for one run; the same (workload, seed) gives the same inputs."""
    rng = np.random.default_rng(seed)
    if wl.model == "gauss":
        xs = rng.normal(1.0, 1.0, wl.n)
        mean, var = gaussian_iid_posterior(xs, prior_var=GAUSS_PRIOR_VAR)
        return Data(xs=xs, theta_hat=np.array([mean]), sd=np.array([math.sqrt(var)]))
    X = np.column_stack([np.ones(wl.n), rng.standard_normal((wl.n, wl.d - 1))])
    theta_true = LOGISTIC_THETA[:wl.d]
    y = np.where(rng.random(wl.n) < 1.0 / (1.0 + np.exp(-X @ theta_true)), 1.0, -1.0)
    theta_hat, cov = _logistic_laplace(X, y)
    return Data(X=X, y=y, theta_hat=theta_hat, sd=np.sqrt(np.diag(cov)))


def _logistic_laplace(X, y):
    """MAP and Laplace covariance of logistic regression by Newton's method."""
    d = X.shape[1]
    inv_var = 1.0 / LOGISTIC_PRIOR_SCALE ** 2
    theta = np.zeros(d)
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-y * (X @ theta)))     # P(label is right)
        grad = X.T @ (y * (1.0 - p)) - inv_var * theta
        H = (X * (p * (1.0 - p))[:, None]).T @ X + inv_var * np.eye(d)
        step = np.linalg.solve(H, grad)
        theta = theta + step
        if np.max(np.abs(step)) < 1e-12:
            break
    else:
        raise RuntimeError("Newton's method did not converge for the reference MAP")
    p = 1.0 / (1.0 + np.exp(-y * (X @ theta)))
    H = (X * (p * (1.0 - p))[:, None]).T @ X + inv_var * np.eye(d)
    return theta, np.linalg.inv(H)
