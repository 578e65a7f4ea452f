"""Approximate Metropolis-Hastings with adaptive data-subsampling stopping rules.

Each test reads likelihood terms in batches that are consecutive slices of
its own lazily drawn order of the data (``rng._LazyPermutation`` with
``ordered=False``: blocks of ``batch``, then doubling, each a sorted
uniform random subset of the indices not yet read), until either a
t-statistic test or a concentration inequality (Hoeffding without
replacement, or empirical Bernstein) says the subsampled accept/reject
decision matches the full-data decision with high probability. Exhausting
the data always recovers the exact MH test. A test reads each batch only
as a set, so the order is not shuffled within a block unless a batch ends
inside one. No index is read twice in one test by construction: the
accumulator's read count is its position in the order, so a step does
O(read) index work. Where N <= 4 (batch + 1024) the first read draws the
whole ``permutation(N)``.

Each batch is gathered once: ``llr_terms`` evaluates the terms at theta'
and theta in one call of the target's batch kernel, on the stacked (2, d)
parameters.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .mcmc import ChainState, ProposalDist, mh_log_alpha, mh_propose, run_chain
from .models import FactoredTarget
from .rng import KeyedRng, _LazyPermutation
from .special import student_t_sf

__all__ = [
    "LLRAccumulator",
    "StopRuleConfig",
    "mh_log_threshold",
    "llr_terms",
    "llr_update",
    "ttest_should_stop",
    "concentration_should_stop",
    "adaptive_mh_step",
    "run_adaptive_mh",
    "pilot_c_bound",
]

PILOT_SIZE = 1000
PILOT_SAFETY = 1.5


@dataclass
class LLRAccumulator:
    """Running first and second raw moments of the log-likelihood ratios at
    the first ``m`` entries of ``order``, the test's index order.

    ``order`` only grows, and an entry once read keeps its block (a block
    held as a set may later be shuffled within itself), so accumulators that
    share it may branch: each reads on from its own ``m``.
    """

    m: int = 0
    mean: float = 0.0
    mean_sq: float = 0.0
    order: Optional[_LazyPermutation] = field(default=None, repr=False, compare=False)

    def std(self) -> float:
        if self.m < 2:
            raise ValueError("need m >= 2 for a standard deviation")
        return math.sqrt(max(self.m / (self.m - 1) * (self.mean_sq - self.mean**2), 0.0))


@dataclass(frozen=True)
class StopRuleConfig:
    """Stopping rule parameters; defaults follow the reported robust choice
    p=2, gamma=2, epsilon=0.01."""

    batch: int = 10
    epsilon: float = 0.01
    rule: str = "ttest"  # ttest | hoeffding | bernstein
    p: float = 2.0
    geometric: float = 2.0
    c_bound: Union[None, float, Callable] = None
    per_batch_delta: bool = False

    def __post_init__(self):
        b = self.batch
        if isinstance(b, bool) or not isinstance(b, (int, np.integer)) or b < 1:
            raise ValueError(f"batch must be an int >= 1, got {b!r} ({type(b).__name__})")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0,1), got {self.epsilon!r}")
        if self.rule not in ("ttest", "hoeffding", "bernstein"):
            raise ValueError(f"unknown rule {self.rule!r}")
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p!r}")
        if not self.geometric >= 1.0:
            raise ValueError(f"geometric growth factor must be >= 1, got {self.geometric!r}")


def mh_log_threshold(u: float, theta, theta_new, proposal: ProposalDist,
                     log_prior: Callable, N: int) -> float:
    """psi(u, theta, theta') = (1/N) log[u q(theta'|theta) pi0(theta) /
    (q(theta|theta') pi0(theta'))], with the prior and Hastings terms
    formed by ``mcmc.mh_log_alpha``."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie in (0,1)")
    log_prior_ratio = float(log_prior(theta_new)) - float(log_prior(theta))
    return (math.log(u) - mh_log_alpha(log_prior_ratio, proposal, theta, theta_new)) / N


def llr_terms(target: FactoredTarget, idx, theta, theta_new) -> np.ndarray:
    """Log-likelihood ratios l_n(theta') - l_n(theta) at the term indices
    ``idx``, from one kernel call on the stacked (2, d) parameters, so the
    batch is gathered once."""
    pair = np.stack([np.asarray(theta_new, float), np.asarray(theta, float)])
    terms = target.log_lik_terms(idx, pair)
    want = (2, len(idx))
    if np.shape(terms) != want:
        raise ValueError(f"log_lik_terms on a stacked (2, d) theta returned shape "
                         f"{np.shape(terms)}, expected {want}: a batch kernel must take "
                         f"theta of shape (k, d) and return (k, m)")
    return terms[0] - terms[1]


def llr_update(acc: LLRAccumulator, target: FactoredTarget, theta, theta_new,
               k: int) -> LLRAccumulator:
    """Fold the next ``k`` entries of ``acc.order`` (all that remain, if
    fewer) into the running moments; ``acc`` itself is left unchanged.

    The entries after position ``acc.m`` have never been read in this test,
    so no index repeats, and updating one accumulator twice reads the same
    indices both times. The order is drawn only as far as it is read.
    """
    if acc.order is None:
        raise ValueError("llr_update needs an accumulator with an order to read "
                         "(LLRAccumulator.order is None)")
    idx = acc.order.read(acc.m, acc.m + k)
    ell = llr_terms(target, idx, theta, theta_new)
    m_new = acc.m + len(idx)
    mean = (acc.m * acc.mean + float(np.sum(ell))) / m_new
    mean_sq = (acc.m * acc.mean_sq + float(ell @ ell)) / m_new
    return LLRAccumulator(m=m_new, mean=mean, mean_sq=mean_sq, order=acc.order)


def ttest_should_stop(acc: LLRAccumulator, psi: float, N: int, epsilon: float):
    """t-statistic stopping rule; returns (stop, rho).

    rho is the probability the subsampled decision disagrees with the
    full-data decision under the normal model. Zero spread means the
    estimate is exact: stop immediately unless it sits exactly on the
    threshold.
    """
    if acc.m < 2:
        raise ValueError("t-test needs at least two terms")
    s = acc.std()
    sigma = s / math.sqrt(acc.m) * math.sqrt((N - acc.m) / (N - 1))
    if sigma == 0.0:
        rho = 0.5 if acc.mean == psi else 0.0
    else:
        t = (acc.mean - psi) / sigma
        rho = student_t_sf(abs(t), acc.m - 1)
    return rho <= epsilon or acc.m >= N, rho


def _delta(cfg: StopRuleConfig, m: int, k: int) -> float:
    unit = k if cfg.per_batch_delta else m
    return (cfg.p - 1.0) / (cfg.p * unit**cfg.p) * cfg.epsilon


def concentration_should_stop(acc: LLRAccumulator, psi: float, N: int,
                              cfg: StopRuleConfig, batches_seen: int,
                              c_value: float):
    """Concentration-inequality stopping rule; returns (stop, c_m)."""
    if c_value <= 0.0:
        raise ValueError("C bound must be positive")
    if acc.m < 1 or (cfg.rule == "bernstein" and acc.m < 2):
        raise ValueError("not enough terms seen for the rule")
    delta = _delta(cfg, acc.m, batches_seen)
    if cfg.rule == "hoeffding":
        c_m = c_value * math.sqrt(
            2.0 / acc.m * (1.0 - (acc.m - 1.0) / N) * math.log(2.0 / delta)
        )
    elif cfg.rule == "bernstein":
        s = acc.std()
        c_m = s * math.sqrt(2.0 * math.log(3.0 / delta) / acc.m) + 6.0 * c_value * math.log(
            3.0 / delta
        ) / acc.m
    else:
        raise ValueError(f"{cfg.rule!r} is not a concentration rule")
    stop = abs(acc.mean - psi) > c_m or acc.m >= N
    return stop, c_m


def pilot_c_bound(target: FactoredTarget, theta, theta_new,
                  rng: np.random.Generator) -> float:
    """Estimate C = max |l_n| from a pilot subsample of ``PILOT_SIZE`` terms,
    times ``PILOT_SAFETY``."""
    n = min(PILOT_SIZE, target.n_data)
    idx = rng.choice(target.n_data, size=n, replace=False)
    ell = llr_terms(target, idx, theta, theta_new)
    return PILOT_SAFETY * float(np.max(np.abs(ell))) + 1e-12


def _resolve_c(cfg: StopRuleConfig, target, theta, theta_new, rng) -> float:
    if callable(cfg.c_bound):
        return float(cfg.c_bound(theta, theta_new))
    if cfg.c_bound is not None:
        return float(cfg.c_bound)
    return pilot_c_bound(target, theta, theta_new, rng)


def _run_stopping_rule(target, theta, theta_new, psi, cfg, rng):
    """Read batches from a fresh lazy order until the rule stops; a
    concentration rule resolves C at its first stop check.

    Returns (accept, m_used).
    """
    N = target.n_data
    acc = LLRAccumulator(order=_LazyPermutation(N, cfg.batch, rng, ordered=False))
    c_value = None
    min_m = 1 if cfg.rule == "hoeffding" else 2
    batch = cfg.batch
    k = 0
    while acc.m < N:
        acc = llr_update(acc, target, theta, theta_new, batch)
        k += 1
        if min_m <= acc.m < N:
            if cfg.rule == "ttest":
                stop, _ = ttest_should_stop(acc, psi, N, cfg.epsilon)
            else:
                if c_value is None:
                    c_value = _resolve_c(cfg, target, theta, theta_new, rng)
                stop, _ = concentration_should_stop(acc, psi, N, cfg, k, c_value)
            if stop:
                break
        batch = int(math.ceil(batch * cfg.geometric))
    return acc.mean > psi, acc.m


def _check_has_data(target: FactoredTarget):
    if target.n_data < 1:
        raise ValueError(f"subsampling MH needs at least one term, got n_data={target.n_data}")


def _subsampled_decision(target, proposal, theta, cfg, gen):
    """(theta', psi, accept, m_used) of one step; draws follow
    ``mcmc.mh_propose``, then the order's first block at the first
    read, then (Hoeffding and Bernstein without a given C) the pilot at the
    first stop check, then any later blocks as they are read."""
    theta_new, u = mh_propose(proposal, theta, gen)
    psi = mh_log_threshold(u, theta, theta_new, proposal, target.log_prior, target.n_data)
    accept, m_used = _run_stopping_rule(target, theta, theta_new, psi, cfg, gen)
    return theta_new, psi, accept, m_used


def adaptive_mh_step(target: FactoredTarget, proposal: ProposalDist,
                     state: ChainState, cfg: StopRuleConfig,
                     rng: np.random.Generator):
    """One approximate MH step; returns (state', data_used).

    A step is reproducible from its generator alone.
    """
    _check_has_data(target)
    theta_new, _, accept, m_used = _subsampled_decision(target, proposal, state.theta, cfg, rng)
    new_theta = theta_new if accept else state.theta
    return ChainState(np.asarray(new_theta, float)), m_used


def run_adaptive_mh(target, proposal, theta0, T: int, cfg: StopRuleConfig,
                    rng: KeyedRng, compare_exact: bool = False):
    """Run the adaptive chain; returns (SampleBuffer, m_used array[, disagreements]).

    With ``compare_exact`` the exact full-data MH decision is evaluated for
    the same (theta', u) at every step and the count of decision mismatches
    is returned; the chain still follows the approximate decisions.
    """
    _check_has_data(target)
    all_idx = target.all_indices()

    def step(state, t, gen):
        theta = state.theta
        theta_new, psi, accept, m = _subsampled_decision(target, proposal, theta, cfg, gen)
        disagree = False
        if compare_exact:
            lam = float(np.mean(llr_terms(target, all_idx, theta, theta_new)))
            disagree = (lam > psi) != accept
        return ChainState(theta_new if accept else theta), accept, m, disagree

    buf, _, stats = run_chain(step, ChainState(np.array(theta0, dtype=float)), T, rng)
    m_used, disagree = stats.reshape(T, 2).T
    if compare_exact:
        return buf, m_used, int(disagree.sum())
    return buf, m_used
