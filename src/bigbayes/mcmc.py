"""Serial Metropolis-Hastings and Gibbs kernels.

Monte Carlo estimators with burn-in policies, finite-space detailed balance
checking, and the fixed tree-order parallel likelihood reduction.

All densities are handled in log space and acceptance is decided via
``log u < log alpha``. ``mh_step`` is the one full MH transition: exact MH,
FlyMC's theta-move on its augmented joint and the Weierstrass xi-chains all
take it. Its parts, ``mh_propose`` (the draw-order contract is stated there)
and ``mh_log_alpha``, are composed apart only where the split is by design:
``prefetch`` evaluates densities on workers and ``subsample`` tests against
a threshold. Chain drivers run their T steps with ``run_chain``.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .consensus import ShardPlan, _as_range
from .diagnostics import _burn_in_window
from .models import FactoredTarget
from .rng import KeyedRng

__all__ = [
    "ProposalDist",
    "gaussian_random_walk",
    "ChainState",
    "SampleBuffer",
    "mh_propose",
    "mh_log_alpha",
    "mh_step",
    "run_chain",
    "run_mh",
    "gibbs_sweep",
    "run_gibbs",
    "mc_estimate",
    "detailed_balance_check",
    "enumerate_mh_kernel",
    "parallel_log_lik",
]

DETAILED_BALANCE_MAX_STATES = 10_000


@dataclass(frozen=True)
class ProposalDist:
    """Proposal q(theta' | theta) with a sampler and a log density.

    ``sample`` must consume a fixed number of draws from its generator
    regardless of theta (see ``mh_propose``).
    """

    sample: Callable[[np.ndarray, np.random.Generator], np.ndarray]
    log_density: Callable[[np.ndarray, np.ndarray], float]
    is_symmetric: bool = False


def gaussian_random_walk(scale) -> ProposalDist:
    scale = np.asarray(scale, dtype=float)

    def sample(theta, rng):
        return theta + scale * rng.standard_normal(theta.shape)

    def log_density(new, old):
        z = (np.asarray(new) - np.asarray(old)) / scale
        return float(-0.5 * np.sum(z**2))

    return ProposalDist(sample=sample, log_density=log_density, is_symmetric=True)


@dataclass
class ChainState:
    theta: np.ndarray
    log_joint: Optional[float] = None


@dataclass
class SampleBuffer:
    draws: np.ndarray          # (T, d)
    accept_flags: np.ndarray   # (T,) bool

    def __post_init__(self):
        if len(self.draws) != len(self.accept_flags):
            raise ValueError("draws and accept_flags lengths differ")

    def __len__(self):
        return len(self.draws)

    @property
    def acceptance_rate(self) -> float:
        return float(np.mean(self.accept_flags))


def _finite_or_neginf(fn, theta):
    try:
        v = fn(theta)
    except FloatingPointError:
        return -math.inf
    return v if np.isfinite(v) else -math.inf


def _start_log_joint(target, theta) -> float:
    """``target.log_joint(theta)`` at a chain's start. NaN or +inf there
    would make every proposal reject, so it raises ValueError naming theta
    and the value; -inf is a legal start."""
    lj = target.log_joint(theta)
    if math.isnan(lj) or lj == math.inf:
        raise ValueError(f"log joint at the starting state theta={theta} is {lj}")
    return lj


def mh_propose(proposal: ProposalDist, theta, gen: np.random.Generator):
    """(theta', u) for one MH decision, drawn from ``gen``.

    The one draw-order contract of every MH sampler in the package: the
    proposal's draws first, then one uniform, redrawn until 0 < u < 1 so
    that log u exists. The proposal consumes a fixed number of draws
    whatever theta is, so step t reads the same pair from the stream keyed
    ("step", t) serially (``run_chain``), speculatively (``prefetch``), on an
    augmented state (``firefly``, whose brightness resample follows the
    pair on the same stream) or before a subsampled test (``subsample``,
    whose lazily drawn permutation and pilot draws follow the pair).
    """
    theta_new = proposal.sample(theta, gen)
    u = gen.uniform()
    while not 0.0 < u < 1.0:  # u = 0 has measure zero but log(u) must exist
        u = gen.uniform()
    return theta_new, u


def mh_log_alpha(log_ratio: float, proposal: ProposalDist, theta, theta_new) -> float:
    """log alpha from the target log ratio at (theta', theta), adding the
    Hastings term log q(theta | theta') - log q(theta' | theta) when the
    proposal is asymmetric."""
    if proposal.is_symmetric:
        return log_ratio
    return log_ratio + (proposal.log_density(theta, theta_new)
                        - proposal.log_density(theta_new, theta))


def mh_step(target, proposal: ProposalDist, state: ChainState, rng: np.random.Generator):
    """One MH update; returns (state', accepted).

    ``target`` may be a FactoredTarget or any object with ``log_joint``.
    A non-finite log joint at the proposal counts as a rejection, never a
    crash. A state without a log joint (a chain's start, or a FlyMC state
    whose indicators flipped) is evaluated first, and a NaN or +inf there
    raises ValueError. Draws follow ``mh_propose``.
    """
    theta = state.theta
    if state.log_joint is None:
        state.log_joint = _start_log_joint(target, theta)
    theta_new, u = mh_propose(proposal, theta, rng)
    lj_new = _finite_or_neginf(target.log_joint, theta_new)
    log_alpha = mh_log_alpha(lj_new - state.log_joint, proposal, theta, theta_new)
    if math.log(u) < log_alpha:
        return ChainState(theta_new, lj_new), True
    return ChainState(theta, state.log_joint), False


def run_chain(step: Callable, state, T: int, rng: KeyedRng):
    """T steps of ``step(state, t, rng.derive("step", t))``, which returns
    (state', accepted, *int_stats); no other stream is keyed ("step", t),
    so prefetching (``bigbayes.prefetch``) can reproduce the chain exactly.

    Returns (SampleBuffer of state'.theta, final state, (T, k) int array of
    the stats); with T = 0 that array has shape (0,), so callers reshape it.
    """
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T!r}")
    draws = np.empty((T, state.theta.size))
    flags = np.empty(T, dtype=bool)
    stats = []
    for t in range(T):
        state, flags[t], *extra = step(state, t, rng.derive("step", t))
        draws[t] = state.theta
        stats.append(extra)
    return SampleBuffer(draws=draws, accept_flags=flags), state, np.array(stats, dtype=int)


def run_mh(target, proposal: ProposalDist, theta0, T: int, rng: KeyedRng) -> SampleBuffer:
    """T MH steps (``mh_step`` driven by ``run_chain``) from theta0."""

    def step(state, t, gen):
        return mh_step(target, proposal, state, gen)

    return run_chain(step, ChainState(np.array(theta0, dtype=float)), T, rng)[0]


# ---------------------------------------------------------------------------
# Gibbs
# ---------------------------------------------------------------------------

def gibbs_sweep(conditionals: Sequence[Callable], state, rng: np.random.Generator,
                scan: str = "systematic"):
    """One full pass of single-site conditional resampling.

    Each conditional is called as ``conditionals[i](state, rng)`` and returns
    the new value of coordinate i given the rest (its Markov blanket).
    ``scan`` is "systematic" (index order) or "random" (fresh permutation).
    """
    state = np.array(state, copy=True)
    if scan == "systematic":
        order = range(len(conditionals))
    elif scan == "random":
        order = rng.permutation(len(conditionals))
    else:
        raise ValueError(f"unknown scan {scan!r}")
    for i in order:
        try:
            state[i] = conditionals[i](state, rng)
        except Exception as e:
            raise RuntimeError(f"conditional sampler for variable {i} failed") from e
    return state


def run_gibbs(conditionals, state0, T: int, rng: np.random.Generator,
              scan: str = "systematic") -> np.ndarray:
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T!r}")
    state = np.array(state0, copy=True)
    out = np.empty((T, len(state)))
    for t in range(T):
        state = gibbs_sweep(conditionals, state, rng, scan)
        out[t] = state
    return out


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------

def mc_estimate(buffer, f: Callable, policy: str = "last_half") -> float:
    """Monte Carlo estimate of E[f(theta)] from recorded draws.

    policy "all" averages every draw, "last_half" the last ceil(T/2) draws,
    and "last_one" uses the final draw alone.
    """
    draws = buffer.draws if isinstance(buffer, SampleBuffer) else np.asarray(buffer)
    T = len(draws)
    if T == 0:
        raise ValueError("empty sample buffer")
    return float(np.mean([f(th) for th in draws[_burn_in_window(policy, T)]]))


# ---------------------------------------------------------------------------
# Finite-space checks
# ---------------------------------------------------------------------------

def detailed_balance_check(kernel: np.ndarray, pi: np.ndarray) -> float:
    """Max over state pairs of |T(x->x') pi(x) - T(x'->x) pi(x')|."""
    kernel = np.asarray(kernel, dtype=float)
    pi = np.asarray(pi, dtype=float)
    n = pi.size
    if n > DETAILED_BALANCE_MAX_STATES:
        raise ValueError(f"state space too large ({n} > {DETAILED_BALANCE_MAX_STATES})")
    if kernel.shape != (n, n):
        raise ValueError("kernel shape inconsistent with pi")
    flow = kernel * pi[:, None]
    return float(np.max(np.abs(flow - flow.T)))


def enumerate_mh_kernel(pi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact MH transition matrix on a finite space, rejection mass included."""
    pi = np.asarray(pi, dtype=float)
    q = np.asarray(q, dtype=float)
    n = pi.size
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (pi[None, :] * q.T) / (pi[:, None] * q)
    ratio = np.where(q > 0, np.nan_to_num(ratio, nan=0.0, posinf=np.inf), 0.0)
    T = q * np.minimum(1.0, ratio)
    np.fill_diagonal(T, 0.0)
    T = T + np.diag(1.0 - T.sum(axis=1))
    return T


# ---------------------------------------------------------------------------
# Parallel likelihood evaluation
# ---------------------------------------------------------------------------

def _tree_reduce(values):
    """Deterministic pairwise reduction in index order."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def parallel_log_lik(target: FactoredTarget, theta, plan: ShardPlan, cluster=None) -> float:
    """Full-data log likelihood via per-shard partial sums over ``plan``.

    ``plan`` checked its partition when it was built, so here it is only
    checked to cover ``target``'s N terms. Partials are combined in a fixed
    binary tree over shard order, so the result is bit-identical whether
    partials are computed serially or by simulated workers. With
    ``cluster`` supplied, each shard is evaluated on a worker by
    ``SimCluster.map_on_workers`` (charging one work unit per likelihood
    term) and the partials are gathered to the master before the same fixed
    reduction. A contiguous shard is passed to ``target.log_lik_terms`` as a
    range, which the shipped models read as a view of the data.
    """
    if plan.n_data != target.n_data:
        raise ValueError(f"plan covers {plan.n_data} terms but the target has {target.n_data}")
    theta = np.asarray(theta, dtype=float)
    shards = [_as_range(s) for s in plan.shards]

    def shard_partial(idx):
        if len(idx) == 0:
            return 0.0
        return float(np.sum(target.log_lik_terms(idx, theta)))

    if cluster is None:
        partials = [shard_partial(s) for s in shards]
    else:
        partials = cluster.map_on_workers(
            [lambda idx=s: (shard_partial(idx), float(len(idx))) for s in shards],
            tag="loglik-shard",
        )
    return _tree_reduce(partials)
