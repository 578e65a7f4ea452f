"""Firefly Monte Carlo: exact-posterior sampling that touches only bright data.

Each datum carries a binary brightness indicator. Dark points contribute
through a collapsible lower bound on their likelihood, summarized by a
fixed-dimension aggregate statistic, so a step evaluates likelihood terms
only for bright points and for the indicators being resampled. The theta
marginal of the augmented chain is the exact posterior.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mcmc import ProposalDist, mh_log_alpha, mh_propose, run_chain
from .models import FactoredTarget
from .rng import KeyedRng

__all__ = [
    "LikelihoodBound",
    "FireflyState",
    "scaled_gaussian_bound",
    "logistic_quadratic_bound",
    "brightness_prob",
    "resample_brightness",
    "flymc_log_joint",
    "flymc_step",
    "run_flymc",
    "init_firefly",
    "check_coherence",
]

BOUND_SLACK = 1e-9


class BoundViolationError(RuntimeError):
    pass


@dataclass(frozen=True)
class LikelihoodBound:
    """Strictly positive lower bound B_n(theta) <= L_n(theta) with a collapse.

    ``dark_stats`` maps term indices to per-datum statistic rows whose sum
    lets ``collapsed_log_product`` evaluate sum(log B_n) over any dark set
    without reading the data again.
    """

    stat_dim: int
    log_bound_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dark_stats: Callable[[np.ndarray], np.ndarray]
    collapsed_log_product: Callable[[np.ndarray, np.ndarray], float]


def scaled_gaussian_bound(xs, delta: float, lik_var: float = 1.0) -> LikelihoodBound:
    """Testing-device bound B = exp(-delta) L for a 1D Gaussian-mean target.

    Collapsible because sum(log L_n) over any set is a function of
    (count, sum x, sum x^2).
    """
    xs = np.asarray(xs, dtype=float)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    const = -0.5 * math.log(2 * math.pi * lik_var)

    def log_bound_batch(idx, theta):
        x = xs[np.asarray(idx)]
        return -0.5 * (x - theta[0]) ** 2 / lik_var + const - delta

    def dark_stats(idx):
        x = xs[np.asarray(idx)]
        return np.column_stack([np.ones_like(x), x, x**2])

    def collapsed(theta, s):
        cnt, s1, s2 = s
        quad = s2 - 2.0 * theta[0] * s1 + cnt * theta[0] ** 2
        return float(-0.5 * quad / lik_var + cnt * (const - delta))

    return LikelihoodBound(3, log_bound_batch, dark_stats, collapsed)


def logistic_quadratic_bound(X, y, theta_ref) -> LikelihoodBound:
    """Tangent quadratic minorizer of the logistic log likelihood.

    log sigma(z) >= log sigma(xi) + (z - xi)/2 - lam(xi)(z^2 - xi^2) with
    lam(xi) = tanh(xi/2) / (4 xi); tangency points are fixed at the
    reference parameter (typically a MAP estimate), where the bound is tight.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    theta_ref = np.asarray(theta_ref, dtype=float)
    A = X * y[:, None]                      # a_n = y_n x_n, z_n = a_n . theta
    xi = np.abs(A @ theta_ref)
    lam = np.where(xi > 1e-8, np.tanh(xi / 2.0) / (4.0 * np.where(xi > 0, xi, 1.0)), 0.125)
    log_sig_xi = -np.logaddexp(0.0, -xi)
    c = log_sig_xi - xi / 2.0 + lam * xi**2
    d = X.shape[1]

    def log_bound_batch(idx, theta):
        idx = np.asarray(idx)
        z = A[idx] @ theta
        return c[idx] + z / 2.0 - lam[idx] * z**2

    def dark_stats(idx):
        idx = np.asarray(idx)
        quad = lam[idx, None, None] * (A[idx][:, :, None] * A[idx][:, None, :])
        return np.column_stack([c[idx], A[idx] / 2.0, quad.reshape(len(idx), d * d)])

    def collapsed(theta, s):
        const = s[0]
        lin = s[1:1 + d]
        quad = s[1 + d:].reshape(d, d)
        return float(const + lin @ theta - theta @ quad @ theta)

    return LikelihoodBound(1 + d + d * d, log_bound_batch, dark_stats, collapsed)


@dataclass
class FireflyState:
    theta: np.ndarray
    z: np.ndarray                      # (N,) bool, True = bright
    dark_stat_sum: np.ndarray          # (stat_dim,)
    log_joint_aug: Optional[float] = None

    @property
    def bright_count(self) -> int:
        return int(np.count_nonzero(self.z))


def _log_diff(log_l, log_b):
    """log(L - B) computed stably from the two logs; -inf when tight."""
    diff = np.minimum(log_b - log_l, 0.0)
    with np.errstate(divide="ignore"):
        return log_l + np.log(-np.expm1(diff))


def _check_bound(log_l, log_b):
    worst = np.max(log_b - log_l) if np.size(log_l) else 0.0
    if worst > BOUND_SLACK:
        raise BoundViolationError(f"lower bound exceeds likelihood by {worst:.3e}")


def brightness_prob(n: int, theta, target: FactoredTarget, bound: LikelihoodBound) -> float:
    """P(z_n = 1 | theta) = (L_n - B_n)/L_n, clipped to [0, 1]."""
    return float(_brightness_probs(np.array([n]), np.asarray(theta, float), target, bound)[0])


def _brightness_probs(idx, theta, target, bound):
    log_l = target.log_lik_terms(idx, theta)
    log_b = bound.log_bound_batch(idx, theta)
    _check_bound(log_l, log_b)
    return np.clip(-np.expm1(np.minimum(log_b - log_l, 0.0)), 0.0, 1.0)


def init_firefly(target, bound, theta0, rng: np.random.Generator,
                 init: str = "sample") -> FireflyState:
    theta0 = np.asarray(theta0, dtype=float)
    N = target.n_data
    if init == "dark":
        z = np.zeros(N, dtype=bool)
    elif init == "sample":
        probs = _brightness_probs(np.arange(N), theta0, target, bound)
        z = rng.random(N) < probs
    else:
        raise ValueError(f"unknown init {init!r}")
    stats = bound.dark_stats(np.arange(N))
    dark_sum = stats[~z].sum(axis=0) if N else np.zeros(bound.stat_dim)
    return FireflyState(theta=theta0.copy(), z=z, dark_stat_sum=dark_sum)


def flymc_log_joint(state: FireflyState, target, bound) -> float:
    """Augmented log joint; likelihood terms touched only for bright points."""
    theta = state.theta
    bright = np.flatnonzero(state.z)
    val = float(target.log_prior(theta))
    if len(bright):
        log_l = target.log_lik_terms(bright, theta)
        log_b = bound.log_bound_batch(bright, theta)
        _check_bound(log_l, log_b)
        val += float(np.sum(_log_diff(log_l, log_b)))
    val += bound.collapsed_log_product(theta, state.dark_stat_sum)
    return val


def resample_brightness(state: FireflyState, target, bound, rho_z: float,
                        rng: np.random.Generator):
    """Redraw a random ceil(rho_z N) subset of indicators at the current theta.

    Returns (state', n_likelihood_evals). The dark statistic aggregate and
    the cached augmented log joint are updated incrementally.
    """
    if not 0.0 < rho_z <= 1.0:
        raise ValueError("rho_z must lie in (0, 1]")
    N = target.n_data
    k = math.ceil(rho_z * N)
    idx = rng.choice(N, size=k, replace=False)
    theta = state.theta
    log_l = target.log_lik_terms(idx, theta)
    log_b = bound.log_bound_batch(idx, theta)
    _check_bound(log_l, log_b)
    probs = np.clip(-np.expm1(np.minimum(log_b - log_l, 0.0)), 0.0, 1.0)
    new_z = rng.random(k) < probs

    z = state.z.copy()
    old_z = z[idx]
    changed = old_z != new_z
    stat_sum = state.dark_stat_sum
    lj = state.log_joint_aug
    if np.any(changed):
        ch_idx = idx[changed]
        stats = bound.dark_stats(ch_idx)
        to_bright = new_z[changed]
        # entering bright removes mass from the dark aggregate and vice versa
        sign = np.where(to_bright, -1.0, 1.0)
        stat_sum = stat_sum + (sign[:, None] * stats).sum(axis=0)
        if lj is not None:
            contrib_bright = _log_diff(log_l[changed], log_b[changed])
            contrib_dark = log_b[changed]
            lj = lj + float(np.sum(np.where(to_bright,
                                            contrib_bright - contrib_dark,
                                            contrib_dark - contrib_bright)))
        z[idx] = new_z
    return FireflyState(theta=theta.copy(), z=z, dark_stat_sum=stat_sum,
                        log_joint_aug=lj), k


def flymc_step(state: FireflyState, target, bound, proposal: ProposalDist,
               rho_z: float, rng_mh: np.random.Generator,
               rng_z: np.random.Generator):
    """One MH update of theta under the augmented joint (drawing from
    ``rng_mh`` by ``mcmc.mh_propose``), then a brightness resample from
    ``rng_z``; returns (state', accepted, n_likelihood_evals)."""
    if state.log_joint_aug is None:
        state.log_joint_aug = flymc_log_joint(state, target, bound)
    theta = state.theta
    theta_new, u = mh_propose(proposal, theta, rng_mh)
    prop_state = FireflyState(theta=np.asarray(theta_new, float), z=state.z,
                              dark_stat_sum=state.dark_stat_sum)
    evals = state.bright_count
    try:
        lj_new = flymc_log_joint(prop_state, target, bound)
    except FloatingPointError:
        lj_new = -math.inf
    log_alpha = mh_log_alpha(lj_new - state.log_joint_aug, proposal, theta, theta_new)
    accepted = math.log(u) < log_alpha
    if accepted:
        state = FireflyState(theta=np.asarray(theta_new, float), z=state.z.copy(),
                             dark_stat_sum=state.dark_stat_sum,
                             log_joint_aug=lj_new)
    state, k = resample_brightness(state, target, bound, rho_z, rng_z)
    return state, accepted, evals + k


def run_flymc(target, bound, proposal, theta0, T: int, rho_z: float,
              rng: KeyedRng, init: str = "sample"):
    """Drive the chain for T steps; returns (SampleBuffer, info).

    The MH part of step t reads the stream keyed ("step", t) as in
    ``run_mh``, so a tight bound with an all-dark state reproduces plain MH
    decisions draw for draw; the resample reads the one keyed ("z", t).
    """

    def step(state, t, gen):
        state, accepted, n_ev = flymc_step(state, target, bound, proposal, rho_z,
                                           gen, rng.derive("z", t))
        return state, accepted, state.bright_count, n_ev

    state = init_firefly(target, bound, theta0, rng.derive("init"), init=init)
    buf, state, stats = run_chain(step, state, T, rng)
    bright, evals = stats.reshape(T, 2).T
    info = {
        "bright_counts": bright,
        "likelihood_evals": evals,
        "mean_evals_per_step": float(evals.mean()) if T else float("nan"),
        "final_state": state,
    }
    return buf, info


def check_coherence(state: FireflyState, target, bound, atol: float = 1e-8):
    """Debug invariant: the dark aggregate equals a fresh sum over dark points."""
    dark = np.flatnonzero(~state.z)
    fresh = (bound.dark_stats(dark).sum(axis=0) if len(dark)
             else np.zeros(bound.stat_dim))
    if not np.allclose(fresh, state.dark_stat_sum, atol=atol, rtol=1e-8):
        raise AssertionError(
            f"dark statistic cache incoherent: {state.dark_stat_sum} vs {fresh}"
        )
    if state.log_joint_aug is not None:
        fresh_lj = flymc_log_joint(
            FireflyState(state.theta, state.z, fresh), target, bound
        )
        if not math.isclose(fresh_lj, state.log_joint_aug, rel_tol=1e-8, abs_tol=1e-6):
            raise AssertionError("augmented log joint cache incoherent")
    return True
