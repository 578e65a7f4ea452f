"""Stochastic gradient Langevin dynamics.

Minibatches are consecutive slices of a fresh per-epoch permutation, so a
full epoch visits every datum exactly once. The permutation is drawn only as
far as the epoch's batches have been served (``rng._LazyPermutation``), so
the first batches of an epoch cost O(m), not O(N). The decaying step schedule
eps_t = alpha (beta + t)^-gamma satisfies the usual divergent-sum /
convergent-square-sum conditions whenever gamma lies in (0.5, 1]. SGLD never
applies an accept/reject correction.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .models import FactoredTarget
from .rng import KeyedRng, _LazyPermutation

__all__ = [
    "StepSchedule",
    "MinibatchPlan",
    "stochastic_grad",
    "sgld_step",
    "run_sgld",
]


@dataclass(frozen=True)
class StepSchedule:
    """eps_t = max(alpha (beta + t)^-gamma, floor)."""

    alpha: float = 1.0
    beta: float = 10.0
    gamma: float = 0.55
    floor: float = 0.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError(f"alpha and beta must be positive, got {self.alpha} and {self.beta}")
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1] for a valid schedule, got {self.gamma!r}")
        if self.floor < 0:
            raise ValueError(f"floor must be nonnegative, got {self.floor!r}")

    def __call__(self, t: int) -> float:
        return max(self.alpha * (self.beta + t) ** (-self.gamma), self.floor)


@dataclass(frozen=True)
class MinibatchPlan:
    """Epoch-permuted minibatches of size m over N data.

    When m does not divide N the final batch of each epoch is short; the
    gradient estimator rescales by N/|batch| either way so it stays
    unbiased. Epoch e's permutation is ``rng.derive("epoch", e)``'s
    ``_LazyPermutation``: it is drawn in blocks of m, 2m, 4m, ... as the
    epoch's batches are served, and a batch depends only on (seed, t), not
    on which batches were asked for before. Where N is small next to m
    (N <= 4 (m + 1024)) the first batch draws the whole ``permutation(N)``.
    The current epoch's permutation is cached.
    """

    n_data: int
    batch_size: int
    rng: KeyedRng
    # (epoch, _LazyPermutation) of the last epoch served; outside eq, hash and repr
    _epoch_perm: tuple = field(default=(None, None), init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        for name in ("n_data", "batch_size"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise TypeError(f"MinibatchPlan {name} must be an int, "
                                f"got {v!r} ({type(v).__name__})")
        if self.n_data < 1:
            raise ValueError(f"MinibatchPlan n_data must be at least 1, got {self.n_data}")
        if not 1 <= self.batch_size <= self.n_data:
            raise ValueError(f"MinibatchPlan batch_size must lie in 1..n_data = "
                             f"{self.n_data}, got {self.batch_size}")

    @property
    def batches_per_epoch(self) -> int:
        return math.ceil(self.n_data / self.batch_size)

    def indices(self, t: int) -> np.ndarray:
        """Batch for global step t."""
        epoch, slot = divmod(t, self.batches_per_epoch)
        start = slot * self.batch_size
        stop = start + self.batch_size
        cached_epoch, perm = self._epoch_perm
        if cached_epoch != epoch:
            perm = _LazyPermutation(self.n_data, self.batch_size,
                                    self.rng.derive("epoch", epoch))
            object.__setattr__(self, "_epoch_perm", (epoch, perm))
        return perm.read(start, stop).copy()


def stochastic_grad(target: FactoredTarget, theta, batch_indices) -> np.ndarray:
    """grad log prior + (N/m) * sum of batch gradient terms."""
    idx = np.asarray(batch_indices, dtype=int)
    if len(idx) == 0:
        raise ValueError("batch must be nonempty")
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(target.grad_log_prior(theta), dtype=float).copy()
    g += (target.n_data / len(idx)) * np.sum(
        target.grad_log_lik_terms(idx, theta), axis=0
    )
    return g


def sgld_step(theta, target, plan: MinibatchPlan, schedule: StepSchedule, t: int,
              rng: np.random.Generator) -> np.ndarray:
    """theta + (eps_t/2) * stochastic gradient + N(0, eps_t I); no MH test."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    eps = schedule(t)
    g = stochastic_grad(target, theta, plan.indices(t))
    noise = math.sqrt(eps) * rng.standard_normal(np.shape(theta))
    return np.asarray(theta, float) + 0.5 * eps * g + noise


def run_sgld(target, theta0, T: int, plan: MinibatchPlan, schedule: StepSchedule,
             rng: KeyedRng) -> np.ndarray:
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T!r}")
    theta = np.asarray(theta0, dtype=float).copy()
    gen = rng.generator()
    out = np.empty((T, theta.size))
    for t in range(T):
        theta = sgld_step(theta, target, plan, schedule, t, gen)
        out[t] = theta
    return out

