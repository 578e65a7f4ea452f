"""Weierstrass-transform augmented-model Gibbs sampling.

Each shard owns a noisy local copy xi_j of the global parameter, coupled
through Gaussian potentials of bandwidth h (per coordinate). Sampling
alternates exact draws of theta | xi with per-shard updates of
xi_j | theta, shrinking h trades sampling efficiency for fidelity to the
true posterior. On a ``SimCluster`` each round's xi updates are one
``map_on_workers`` fan-out.
"""

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .mcmc import ChainState, SampleBuffer, gaussian_random_walk, mh_step
from .rng import KeyedRng
from .simcluster import SimCluster

__all__ = [
    "WeierstrassState",
    "theta_update",
    "xi_update",
    "weierstrass_run",
    "augmented_gaussian_oracle",
]


@dataclass
class WeierstrassState:
    theta: np.ndarray      # (d,)
    xi: np.ndarray         # (J, d)
    h: np.ndarray          # (d,) positive bandwidths

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.xi = np.atleast_2d(np.asarray(self.xi, dtype=float))
        self.h = np.broadcast_to(np.asarray(self.h, dtype=float),
                                 self.theta.shape).copy()
        if np.any(self.h <= 0):
            raise ValueError("bandwidths must be positive")


def theta_update(state: WeierstrassState, rng: np.random.Generator) -> np.ndarray:
    """theta | xi ~ N(mean of local copies, h^2/J) per coordinate."""
    J = state.xi.shape[0]
    xi_bar = state.xi.mean(axis=0)
    return xi_bar + state.h / math.sqrt(J) * rng.standard_normal(state.theta.shape)


def xi_update(state: WeierstrassState, j: int, subposterior, inner_steps: int,
              rng: np.random.Generator):
    """Advance xi_j targeting N(xi; theta, h^2) f_j(xi).

    ``subposterior`` is either a tuple (mu, cov) of an analytic Gaussian
    f_j, in which case the conditional is drawn exactly, or a callable
    log f_j(xi), in which case xi_j takes ``inner_steps`` ``mcmc.mh_step``
    moves on log f_j(xi) - |(xi - theta)/h|^2 / 2 with a random walk of scale
    min(h), all drawn from ``rng``.
    """
    if inner_steps < 1:
        raise ValueError("inner_steps must be >= 1")
    theta, h = state.theta, state.h
    if isinstance(subposterior, tuple):
        mu, cov = subposterior
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        prec = np.linalg.inv(cov) + np.diag(1.0 / h**2)
        cond_cov = np.linalg.inv(prec)
        cond_mu = cond_cov @ (np.linalg.inv(cov) @ mu + theta / h**2)
        return rng.multivariate_normal(cond_mu, cond_cov, method="cholesky")
    coupled = SimpleNamespace(log_joint=lambda x: float(subposterior(x))
                              - 0.5 * float(np.sum((x - theta) ** 2 / h**2)))
    walk = gaussian_random_walk(float(np.min(h)))
    chain = ChainState(state.xi[j].copy())
    for _ in range(inner_steps):
        chain = mh_step(coupled, walk, chain, rng)[0]
    return chain.theta


class _RoundMemo:
    """A callable log f_j that keeps the values of the current round by
    ``xi.tobytes()``. ``keep(xi)`` drops all but the value at the new xi_j,
    where the next round's chain starts, so no round re-reads it."""

    def __init__(self, log_f):
        self.log_f = log_f
        self.values = {}

    def __call__(self, xi):
        key = xi.tobytes()
        if key not in self.values:
            self.values[key] = self.log_f(xi)
        return self.values[key]

    def keep(self, xi):
        key = xi.tobytes()
        self.values = {key: self.values[key]}


def weierstrass_run(subposteriors: Sequence, theta0, h, T: int,
                    inner_steps: int = 5, sync_every: int = 1, *,
                    rng: KeyedRng,
                    cluster: Optional[SimCluster] = None) -> SampleBuffer:
    """Alternate parallel xi updates with synchronized theta draws.

    ``subposteriors`` is a list whose entries are (mu, cov) tuples or
    callables as in ``xi_update``. Each round updates every xi_j on worker j
    through ``SimCluster.map_on_workers`` (tag ``"weier-update"``, charged
    ``inner_steps``) and redraws theta; ``sync_every`` > 1 redraws theta only
    every s-th round (the communication-avoiding variant). A callable f_j is
    evaluated once per proposal plus once at theta0: its value at xi_j is
    carried from one round to the next.
    """
    if not isinstance(sync_every, numbers.Integral) or sync_every < 1:
        raise ValueError(f"sync_every must be an integer >= 1, got {sync_every!r}")
    subs = [f if isinstance(f, tuple) else _RoundMemo(f) for f in subposteriors]
    J = len(subs)
    if cluster is None:
        cluster = SimCluster(J, seed=rng.seed)
    if cluster.n_workers != J:
        raise ValueError("need one worker per shard")
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    state = WeierstrassState(theta=theta0.copy(),
                             xi=np.tile(theta0, (J, 1)), h=h)
    draws = np.empty((T, theta0.size))
    flags = np.ones(T, dtype=bool)

    def update_task(j, t):
        gen = cluster.worker_rng(j).derive("xi", t)
        return xi_update(state, j, subs[j], inner_steps, gen), float(inner_steps)

    for t in range(T):
        state.xi[:] = cluster.map_on_workers(
            [lambda j=j: update_task(j, t) for j in range(J)], tag="weier-update")
        for f, xi in zip(subs, state.xi):
            if isinstance(f, _RoundMemo):
                f.keep(xi)
        if (t + 1) % sync_every == 0:
            state.theta = theta_update(state, rng.derive("theta", t))
        draws[t] = state.theta
    return SampleBuffer(draws=draws, accept_flags=flags)


def augmented_gaussian_oracle(subposteriors, h):
    """Exact (theta mean, theta variance) of the 1D augmented model by dense
    linear algebra, for Gaussian subposteriors (mu_j, var_j)."""
    J = len(subposteriors)
    h = float(np.atleast_1d(np.asarray(h, float))[0])
    n = J + 1
    prec = np.zeros((n, n))
    lin = np.zeros(n)
    prec[0, 0] = J / h**2
    for j, (mu, var) in enumerate(subposteriors, start=1):
        mu = float(np.ravel(mu)[0])
        var = float(np.ravel(var)[0])
        prec[j, j] = 1.0 / h**2 + 1.0 / var
        prec[0, j] = prec[j, 0] = -1.0 / h**2
        lin[j] = mu / var
    cov = np.linalg.inv(prec)
    mean = cov @ lin
    return float(mean[0]), float(cov[0, 0])
