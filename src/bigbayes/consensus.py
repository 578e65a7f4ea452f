"""Embarrassingly parallel subposterior sampling and consensus aggregation.

Shards carry a 1/J-downweighted prior so the subposterior product recovers
the posterior. Aggregation is weighted averaging (precision weights),
a product of Gaussian fits, or a product of Gaussian kernel density
estimates sampled by component-index Gibbs. Shard sampling is independent
until the single aggregation step; on a ``SimCluster`` it is one
``map_on_workers`` fan-out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .models import FactoredTarget, _rows, _take
from .simcluster import SimCluster

__all__ = [
    "ShardPlan",
    "subposterior_target",
    "consensus_weighted",
    "consensus_gaussian_fit",
    "consensus_kde",
    "scott_bandwidth",
    "sample_subposteriors_on_cluster",
]


def _check_int(name: str, value):
    """Reject a size that is not an int (a bool included), naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {value!r} ({type(value).__name__})")


@dataclass(frozen=True)
class ShardPlan:
    """Disjoint cover of 0..N-1 by J index sets."""

    n_data: int
    shards: tuple

    def __post_init__(self):
        shards = tuple(np.asarray(s, dtype=int) for s in self.shards)
        n = self.n_data
        seen = np.zeros(n, dtype=bool)
        for s in shards:
            if s.size and (s.min() < 0 or s.max() >= n):
                bad = s[(s < 0) | (s >= n)][0]
                raise ValueError(f"shards must partition 0..{n - 1}: index {bad} is outside it")
            seen[s] = True
        # n indices, all in range, cover 0..n-1 exactly when none repeats
        if sum(len(s) for s in shards) != n or not seen.all():
            counts = np.bincount(np.concatenate([np.zeros(0, int), *shards]), minlength=n)
            dup = np.flatnonzero(counts > 1)
            what = (f"index {dup[0]} is in more than one shard" if dup.size
                    else f"index {np.flatnonzero(counts == 0)[0]} is in no shard")
            raise ValueError(f"shards must partition 0..{n - 1}: {what}")
        object.__setattr__(self, "shards", shards)

    @classmethod
    def contiguous(cls, n_data: int, J: int) -> "ShardPlan":
        _check_int("J", J)
        if J < 1:
            raise ValueError(f"J must be >= 1, got {J!r}")
        if J > n_data >= 1:  # with no data every shard is empty, whatever J
            raise ValueError(f"J must be <= n_data, got J={J!r} for n_data={n_data!r}")
        return cls(n_data, tuple(np.array_split(np.arange(n_data), J)))

    @property
    def J(self) -> int:
        return len(self.shards)


def _as_range(shard: np.ndarray):
    """The shard as a ``range`` when it is consecutive increasing indices,
    else the array itself."""
    if len(shard) and np.all(np.diff(shard) == 1):
        return range(int(shard[0]), int(shard[-1]) + 1)
    return shard


def _shard_rows(shard: np.ndarray):
    """``idx -> shard[idx]`` as base-target term indices.

    A unit-step range inside a contiguous shard maps to the range it
    stands for, which the base kernel reads as a view; every other index
    is gathered through the shard array.
    """
    base = _as_range(shard)

    def rows(idx):
        sel = _rows(idx, len(shard))
        return base[sel] if isinstance(sel, slice) else _take(shard, sel)

    return rows


def subposterior_target(target: FactoredTarget, plan: ShardPlan, j: int) -> FactoredTarget:
    """Shard j's target: prior downweighted to the 1/J power plus the
    shard's likelihood terms.

    A contiguous shard (as in ``ShardPlan.contiguous``) passes its
    full-shard sums to the base kernels as a range, so the shipped models
    read it as a view of the data rather than a gathered copy.
    """
    if not 0 <= j < plan.J:
        raise ValueError(f"shard index {j} out of range")
    shard = plan.shards[j]
    rows = _shard_rows(shard)
    J = plan.J
    base_prior, base_grad = target.log_prior, target.grad_log_prior
    base_terms, base_grad_terms = target.log_lik_terms, target.grad_log_lik_terms

    return FactoredTarget(
        dim=target.dim,
        n_data=len(shard),
        log_prior=lambda th: base_prior(th) / J,
        grad_log_prior=lambda th: np.asarray(base_grad(th), float) / J,
        log_lik_terms=lambda idx, th: base_terms(rows(idx), th),
        grad_log_lik_terms=lambda idx, th: base_grad_terms(rows(idx), th),
    )


def _as_draws_array(draws) -> np.ndarray:
    arr = np.asarray(draws, dtype=float)
    if arr.ndim == 2:  # J x T of scalars
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("draws must be a (J, T, d) array")
    T = arr.shape[1]
    if T < 2:
        raise ValueError("need at least two draws per shard")
    finite = np.isfinite(arr)
    if not finite.all():
        j, t, k = np.argwhere(~finite)[0]
        raise ValueError(f"shard {j}, draw {t}, coordinate {k} is not finite: "
                         f"{float(arr[j, t, k])}")
    return arr


def _shard_inv_cov(arr, j):
    cov = np.cov(arr[j].T, ddof=1).reshape(arr.shape[2], arr.shape[2])
    try:
        return np.linalg.inv(cov)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"singular sample covariance for shard {j}") from e


def consensus_weighted(draws, *, diagonal: bool = False) -> np.ndarray:
    """Weighted-average consensus: theta_t = sum_j W_j theta_{j,t}.

    Weights are normalized subposterior precisions, W_j = Sigma SigmaBar_j^-1
    with Sigma = (sum_k SigmaBar_k^-1)^-1 and SigmaBar_j the shard sample
    covariance (unbiased). Because each subposterior already carries a 1/J
    share of the prior, the subposterior precisions sum to the posterior
    precision; adding the prior precision again, as a literal reading of
    the averaging pseudocode suggests, would double-count it and bias the
    mean whenever the prior is informative, so no prior enters the weights.
    ``diagonal`` restricts the weights to per-dimension reciprocal-variance form.
    """
    arr = _as_draws_array(draws)
    J, T, d = arr.shape
    if diagonal:
        precs = 1.0 / arr.var(axis=1, ddof=1)        # (J, d)
        total = precs.sum(axis=0)
        out = np.zeros((T, d))
        for j in range(J):
            out += arr[j] * (precs[j] / total)[None, :]
        return out
    inv_covs = [_shard_inv_cov(arr, j) for j in range(J)]
    sigma = np.linalg.inv(sum(inv_covs))
    out = np.zeros((T, d))
    for j in range(J):
        out += arr[j] @ (sigma @ inv_covs[j]).T
    return out


def consensus_gaussian_fit(draws):
    """Product of per-shard Gaussian fits; returns (mean, cov, sampler)."""
    arr = _as_draws_array(draws)
    J, T, d = arr.shape
    prec = np.zeros((d, d))
    lin = np.zeros(d)
    for j in range(J):
        inv = _shard_inv_cov(arr, j)
        prec += inv
        lin += inv @ arr[j].mean(axis=0)
    cov = np.linalg.inv(prec)
    cov = 0.5 * (cov + cov.T)
    mean = cov @ lin

    def sampler(n_out, rng: np.random.Generator):
        return rng.multivariate_normal(mean, cov, size=n_out, method="cholesky")

    return mean, cov, sampler


def scott_bandwidth(draws_j: np.ndarray) -> np.ndarray:
    """Per-dimension Scott factor T^(-1/(d+4)) times the sample deviation."""
    T, d = draws_j.shape
    return draws_j.std(axis=0, ddof=1) * T ** (-1.0 / (d + 4))


def consensus_kde(draws, bandwidth=None, n_out: int = 1000, *,
                  rng: np.random.Generator, return_indices: bool = False):
    """Sample the product of J Gaussian KDEs by component-index Gibbs.

    The product mixture has T^J components indexed by (t_1..t_J); each
    Gibbs update resamples one index from its T unnormalized weights, and a
    draw from the selected component product is emitted per sweep.

    With S the sum of the other shards' selected centres, candidate t of
    shard j has log weight
    -[(1 - 1/J) x_t^2 - (2/J) x_t . S] / (2 h^2) = a_t + B_t . S, where
    a_t = -(1 - 1/J) (x_t^2 . h^-2) / 2 and B_t = x_t h^-2 / J are fixed for
    the call, so an update is one matrix-vector product. The index is drawn
    as ``Generator.choice(T, p=w)`` draws it, by inverting the normalized
    cumulative weights at one ``rng.random()``, without its validation.
    """
    _check_int("n_out", n_out)
    if n_out < 0:
        raise ValueError(f"n_out must be >= 0, got {n_out!r}")
    arr = _as_draws_array(draws)
    J, T, d = arr.shape
    if bandwidth is None:
        h = np.mean([scott_bandwidth(arr[j]) for j in range(J)], axis=0)
    else:
        h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,)).copy()
    if not np.all(h > 0):
        raise ValueError(f"bandwidth must be positive, got h = {h.tolist()}")
    inv_h2 = 1.0 / h**2
    a = -0.5 * (1.0 - 1.0 / J) * (arr**2 @ inv_h2)     # (J, T)
    B = arr * (inv_h2 / J)                              # (J, T, d)
    others = [np.delete(np.arange(J), j) for j in range(J)]

    idx = rng.integers(0, T, size=J)
    centers = arr[np.arange(J), idx, :]                 # (J, d) selected atoms
    out = np.empty((n_out, d))
    visited = np.empty((n_out, J), dtype=int)
    for s in range(n_out):
        for j in range(J):
            w = a[j] + B[j] @ centers[others[j]].sum(axis=0)
            w -= w.max()
            np.exp(w, out=w)
            tot = w.sum()
            if not math.isfinite(tot) or tot <= 0:
                raise FloatingPointError(
                    "all KDE component weights underflowed; increase the bandwidth h"
                )
            w /= tot
            cdf = w.cumsum()
            cdf /= cdf[-1]
            idx[j] = cdf.searchsorted(rng.random(), side="right")
            centers[j] = arr[j, idx[j]]
        visited[s] = idx
        mean = centers.mean(axis=0)
        # degenerate product: even the selected component's weight underflows
        state_logw = -0.5 * float((((centers - mean) ** 2) * inv_h2[None, :]).sum())
        if state_logw < -745.0:
            raise FloatingPointError(
                "all KDE component weights underflowed; increase the bandwidth h"
            )
        out[s] = mean + rng.standard_normal(d) * h / math.sqrt(J)
    return (out, visited) if return_indices else out


def sample_subposteriors_on_cluster(target: FactoredTarget, plan: ShardPlan,
                                    sampler, cluster: SimCluster):
    """Run per-shard samplers as independent workers; one gather at the end.

    ``sampler(subtarget, worker_rng) -> (T, d) draws``. Shard j runs on
    worker j through ``SimCluster.map_on_workers`` (tag
    ``"consensus-sample"``), charged T times its number of data. Returns
    (J, T, d) draws; the trace holds only the J task messages and their J
    replies to the master, no inter-worker traffic.
    """
    J = plan.J
    if cluster.n_workers != J:
        raise ValueError(f"need one worker per shard, got {cluster.n_workers} for {J} shards")

    def shard_task(j):
        sub = subposterior_target(target, plan, j)
        draws = sampler(sub, cluster.worker_rng(j))
        return np.asarray(draws, dtype=float), float(len(draws) * max(sub.n_data, 1))

    results = cluster.map_on_workers([lambda j=j: shard_task(j) for j in range(J)],
                                     tag="consensus-sample")
    arr = np.stack(results)
    return arr if arr.ndim == 3 else arr[:, :, None]
