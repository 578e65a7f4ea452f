"""Chain-quality diagnostics and estimator error decomposition.

Potential scale reduction, effective sample size, autocovariance-aware
asymptotic variance, and the transient-bias versus Monte-Carlo-standard-error
experiment. The scale-reduction and effective-sample formulas follow the
standard multi-chain heuristics; treat them as heuristics, not guarantees.

All functions are pure: same input, same output, bit-exact.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "rhat",
    "n_eff",
    "asymptotic_variance",
    "mcmc_se",
    "ErrorCurves",
    "error_decomposition_experiment",
    "write_error_curves_csv",
]


def _chain_matrix(chains) -> np.ndarray:
    arr = np.asarray(chains, dtype=float)
    if arr.ndim != 2:
        raise ValueError("chains must be a (S, T) array of scalar statistics")
    if arr.shape[0] < 2 or arr.shape[1] < 2:
        raise ValueError(f"need at least 2 chains of length 2, got (S, T) = {arr.shape}")
    return arr


def _b_w_nu(arr):
    S, T = arr.shape
    means = arr.mean(axis=1)
    B = T / (S - 1) * np.sum((means - means.mean()) ** 2)
    W = np.mean(arr.var(axis=1, ddof=1))
    nu = (T - 1) / T * W + B / T
    return B, W, nu


def rhat(chains) -> float:
    """Potential scale reduction sqrt(nu/W) across S >= 2 chains of T >= 2."""
    B, W, nu = _b_w_nu(_chain_matrix(chains))
    if W == 0.0:
        raise ValueError("degenerate chains: within-chain variance is zero")
    return float(np.sqrt(nu / W))


def n_eff(chains):
    """Effective number of samples S*T*nu/B, capped at S*T.

    Returns (value, capped), for S >= 2 chains of T >= 2. B = 0 (identical
    chain means) yields the cap with the degenerate flag set.
    """
    arr = _chain_matrix(chains)
    S, T = arr.shape
    B, W, nu = _b_w_nu(arr)
    cap = float(S * T)
    if B == 0.0:
        return cap, True
    val = S * T * nu / B
    return (cap, True) if val > cap else (float(val), False)


def asymptotic_variance(samples) -> float:
    """MCMC CLT variance: Var[x] + 2 * sum of autocovariances.

    The sum is truncated at the first negative even-pair sum (initial
    positive sequence rule). The caller supplies a stationary segment of
    scalar samples.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n == 0:
        raise ValueError(f"need at least one sample, got size {n}")
    x = x - x.mean()
    c0 = float(x @ x) / n
    if c0 == 0.0:
        return 0.0
    # pair sums Gamma_k = c_{2k} + c_{2k+1}; sigma^2 = -c0 + 2 * sum Gamma_k,
    # truncated at the first nonpositive pair
    acc = -c0
    t = 0
    while t + 1 < n:
        pair = (c0 if t == 0 else _autocov(x, t)) + _autocov(x, t + 1)
        if pair <= 0.0:
            break
        acc += 2.0 * pair
        t += 2
    return float(max(acc, 0.0))


def _autocov(centered, lag):
    n = centered.size
    return float(centered[:-lag] @ centered[lag:]) / n


def mcmc_se(samples) -> float:
    """Standard error of the sample mean, accounting for autocorrelation."""
    x = np.asarray(samples, dtype=float)
    return math.sqrt(max(asymptotic_variance(x), 0.0) / x.size)


# ---------------------------------------------------------------------------
# Transient bias vs Monte Carlo standard error
# ---------------------------------------------------------------------------

def _burn_in_window(policy: str, n: int) -> slice:
    """The draws of the first n that a burn-in policy averages: "all" of
    them, the "last_half" (last ceil(n/2)) or the "last_one"."""
    if policy == "all":
        return slice(0, n)
    if policy == "last_half":
        return slice(n - math.ceil(n / 2), n)
    if policy == "last_one":
        return slice(n - 1, n)
    raise ValueError(f"unknown policy {policy!r}")


@dataclass
class ErrorCurves:
    ns: np.ndarray          # checkpoint iteration counts
    policies: tuple         # policy names
    bias_abs: dict          # policy -> array over ns
    mcse: dict              # policy -> array over ns

    def total_rmse(self, policy):
        return np.sqrt(self.bias_abs[policy] ** 2 + self.mcse[policy] ** 2)


def error_decomposition_experiment(step_chains: Callable, truth: float,
                                   s_runs: int, T: int, n_checkpoints: int = 12,
                                   policies=("all", "last_half")) -> ErrorCurves:
    """Decompose estimator error into transient bias and MCSE.

    ``step_chains(t) -> (s_runs,)`` advances all independent replicate
    chains one step (from an overdispersed start chosen by the caller) and
    returns the current scalar statistic per chain. For each checkpoint n,
    the estimator under each policy is computed per run; transient bias is
    |mean over runs - truth| and MCSE is the standard deviation across runs.
    """
    ns = np.unique(np.geomspace(4, T, n_checkpoints).astype(int))
    history = np.empty((T, s_runs))
    for t in range(T):
        history[t] = step_chains(t)
    bias, mcse = {}, {}
    for policy in policies:
        b, m = [], []
        for n in ns:
            est = history[_burn_in_window(policy, n)].mean(axis=0)
            b.append(abs(est.mean() - truth))
            m.append(est.std(ddof=1))
        bias[policy] = np.array(b)
        mcse[policy] = np.array(m)
    return ErrorCurves(ns=ns, policies=tuple(policies), bias_abs=bias, mcse=mcse)


def write_error_curves_csv(curves: ErrorCurves, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "policy", "bias_abs", "mcse", "total_rmse"])
        for policy in curves.policies:
            rmse = curves.total_rmse(policy)
            for i, n in enumerate(curves.ns):
                w.writerow([int(n), policy, curves.bias_abs[policy][i],
                            curves.mcse[policy][i], rmse[i]])
