"""Firefly Monte Carlo: exact-posterior sampling that touches only bright data.

Each datum carries a binary brightness indicator. Dark points contribute
through a collapsible lower bound on their likelihood, summarized by the sum
of their sufficient statistics (``LikelihoodBound.dark_stat_sum``), one
fixed-size vector kept incrementally as indicators flip, so a step
evaluates likelihood terms only for bright points and for the indicators
being resampled. The theta marginal of the augmented chain is the exact
posterior.

That sum is the one incremental cache: a flip sets
``FireflyState.log_joint_aug`` to None, and the next theta-move computes
the augmented log joint afresh with ``flymc_log_joint``.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .mcmc import ChainState, ProposalDist, mh_step, run_chain
from .models import FactoredTarget, _check_logistic_data, _log_sigmoid, _rows, _take
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

    ``dark_stat_sum(idx)`` returns the sum over the terms ``idx`` of their
    sufficient statistics, one fixed-size vector (zero for an empty
    ``idx``), from which ``collapsed_log_product(theta, s)`` evaluates
    sum(log B_n) over that set without reading the data again. Term indices
    follow the ``FactoredTarget`` contract: an integer array or a ``range``.
    """

    log_bound_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dark_stat_sum: Callable[[np.ndarray], np.ndarray]
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
        x = _take(xs, _rows(idx, len(xs)))
        return -0.5 * (x - theta[0]) ** 2 / lik_var + const - delta

    def dark_stat_sum(idx):
        x = _take(xs, _rows(idx, len(xs)))
        return np.array([x.size, np.sum(x), np.sum(x**2)], dtype=float)

    def collapsed(theta, s):
        cnt, s1, s2 = s
        quad = s2 - 2.0 * theta[0] * s1 + cnt * theta[0] ** 2
        return float(-0.5 * quad / lik_var + cnt * (const - delta))

    return LikelihoodBound(log_bound_batch, dark_stat_sum, collapsed)


def logistic_quadratic_bound(X, y, theta_ref) -> LikelihoodBound:
    """Tangent quadratic minorizer of the logistic log likelihood.

    log sigma(z) >= log sigma(xi) + (z - xi)/2 - lam(xi)(z^2 - xi^2) with
    lam(xi) = tanh(xi/2) / (4 xi) and the margin z_n = y_n x_n . theta;
    tangency points are fixed at the reference parameter (typically a MAP
    estimate), where the bound is tight. log sigma(xi) is
    ``models._log_sigmoid``, the logistic target's own log-sigmoid.

    Unlike ``logistic_regression_target``, which copies the data, the bound
    reads the caller's ``X`` and ``y`` in place (float64 arrays are not
    copied) and stores only the N-vectors of its constants. Changing ``X``
    or ``y`` after construction changes the bound, which then need no
    longer lie below the likelihood.
    """
    X, y = _check_logistic_data(X, y)
    theta_ref = np.asarray(theta_ref, dtype=float)
    xi = np.abs(X @ theta_ref)              # |z_n| at theta_ref: y_n = +-1
    lam = np.where(xi > 1e-8, np.tanh(xi / 2.0) / (4.0 * np.where(xi > 0, xi, 1.0)), 0.125)
    log_sig_xi = _log_sigmoid(xi)
    c = log_sig_xi - xi / 2.0 + lam * xi**2
    n, d = X.shape

    def log_bound_batch(idx, theta):
        rows = _rows(idx, n)
        z = (_take(X, rows) @ theta) * _take(y, rows)
        return _take(c, rows) + z / 2.0 - _take(lam, rows) * z**2

    def dark_stat_sum(idx):
        # sum of [c_n, a_n/2, lam_n a_n a_n^T] with a_n = y_n x_n, in closed
        # form: y_n^2 = 1, so a_n a_n^T = x_n x_n^T
        rows = _rows(idx, n)
        x = _take(X, rows)
        quad = (x * _take(lam, rows)[:, None]).T @ x
        return np.concatenate([[np.sum(_take(c, rows))], _take(y, rows) @ x / 2.0, quad.ravel()])

    def collapsed(theta, s):
        const = s[0]
        lin = s[1:1 + d]
        quad = s[1 + d:].reshape(d, d)
        return float(const + lin @ theta - theta @ quad @ theta)

    return LikelihoodBound(log_bound_batch, dark_stat_sum, collapsed)


@dataclass
class FireflyState:
    """The chain's theta and brightness indicators. ``z`` is never changed
    in place: a resample that flips an indicator makes a new array, so
    ``bright``, the sorted bright indices (found from ``z`` when not given),
    is read without another O(N) scan."""

    theta: np.ndarray
    z: np.ndarray                      # (N,) bool, True = bright
    dark_stat_sum: np.ndarray          # bound.dark_stat_sum of the dark points
    log_joint_aug: Optional[float] = None  # flymc_log_joint; None after a flip
    bright: Optional[np.ndarray] = None    # np.flatnonzero(z)

    def __post_init__(self):
        if self.bright is None:
            self.bright = np.flatnonzero(self.z)

    @property
    def bright_count(self) -> int:
        return len(self.bright)


def _log_diff(log_l, log_b):
    """log(L - B) computed stably from the two logs; -inf when tight."""
    diff = np.minimum(log_b - log_l, 0.0)
    with np.errstate(divide="ignore"):
        return log_l + np.log(-np.expm1(diff))


def _check_bound(diff):
    """Raise unless every log B - log L in ``diff`` is at most BOUND_SLACK."""
    worst = np.max(diff) if np.size(diff) else 0.0
    if worst > BOUND_SLACK:
        raise BoundViolationError(f"lower bound exceeds likelihood by {worst:.3e}")


def brightness_prob(n: int, theta, target: FactoredTarget, bound: LikelihoodBound) -> float:
    """P(z_n = 1 | theta) = (L_n - B_n)/L_n, clipped to [0, 1]."""
    return float(_brightness_probs(np.array([n]), np.asarray(theta, float), target, bound)[0])


def _brightness_probs(idx, theta, target, bound):
    """P(z = 1 | theta) at the terms ``idx``."""
    diff = bound.log_bound_batch(idx, theta) - target.log_lik_terms(idx, theta)
    _check_bound(diff)
    # -expm1 of a value <= 0 lies in [0, 1), so no clip is needed; NaN stays NaN
    return -np.expm1(np.minimum(diff, 0.0))


def init_firefly(target, bound, theta0, rng: np.random.Generator,
                 init: str = "sample") -> FireflyState:
    theta0 = np.asarray(theta0, dtype=float)
    N = target.n_data
    if init == "dark":
        z = np.zeros(N, dtype=bool)
    elif init == "sample":
        probs = _brightness_probs(range(N), theta0, target, bound)
        z = rng.random(N) < probs
    else:
        raise ValueError(f"unknown init {init!r}")
    # the full-data sum reads the data as views; the bright set is small
    bright = np.flatnonzero(z)
    dark_sum = bound.dark_stat_sum(target.all_indices()) - bound.dark_stat_sum(bright)
    return FireflyState(theta=theta0.copy(), z=z, dark_stat_sum=dark_sum, bright=bright)


def flymc_log_joint(state: FireflyState, target, bound) -> float:
    """Augmented log joint; likelihood terms touched only for bright points."""
    theta = state.theta
    bright = state.bright
    val = float(target.log_prior(theta))
    if len(bright):
        log_l = target.log_lik_terms(bright, theta)
        log_b = bound.log_bound_batch(bright, theta)
        _check_bound(log_b - log_l)
        val += float(np.sum(_log_diff(log_l, log_b)))
    val += bound.collapsed_log_product(theta, state.dark_stat_sum)
    return val


def resample_brightness(state: FireflyState, target, bound, rho_z: float,
                        rng: np.random.Generator):
    """Redraw a random ceil(rho_z N) subset of indicators at the current theta.

    Returns (state', n_likelihood_evals). The dark statistic aggregate is
    updated incrementally; ``z`` is copied and the bright indices found
    again only when an indicator flips. A flip drops the cached augmented
    log joint (``log_joint_aug`` becomes None), which the next theta-move's
    ``mh_step`` evaluates afresh with ``flymc_log_joint``.
    """
    if not 0.0 < rho_z <= 1.0:
        raise ValueError("rho_z must lie in (0, 1]")
    N = target.n_data
    k = math.ceil(rho_z * N)
    idx = rng.choice(N, size=k, replace=False)
    theta = state.theta
    new_z = rng.random(k) < _brightness_probs(idx, theta, target, bound)

    z, bright = state.z, state.bright
    changed = z[idx] != new_z
    stat_sum = state.dark_stat_sum
    lj = state.log_joint_aug
    if np.any(changed):
        ch_idx = idx[changed]
        to_bright = new_z[changed]
        stat_sum = (stat_sum + bound.dark_stat_sum(ch_idx[~to_bright])
                    - bound.dark_stat_sum(ch_idx[to_bright]))
        lj = None
        z = z.copy()
        z[idx] = new_z
        bright = np.flatnonzero(z)
    return FireflyState(theta=theta.copy(), z=z, dark_stat_sum=stat_sum,
                        log_joint_aug=lj, bright=bright), k


def flymc_step(state: FireflyState, target, bound, proposal: ProposalDist,
               rho_z: float, rng_mh: np.random.Generator,
               rng_z: np.random.Generator):
    """One ``mcmc.mh_step`` on theta under the augmented joint at fixed
    brightness (drawing from ``rng_mh``), then a brightness resample from
    ``rng_z``; returns (state', accepted, n_likelihood_evals). The caller's
    ``state`` is not modified."""
    z, dark, bright = state.z, state.dark_stat_sum, state.bright
    augmented = SimpleNamespace(log_joint=lambda th: flymc_log_joint(
        FireflyState(th, z, dark, bright=bright), target, bound))
    moved, accepted = mh_step(augmented, proposal,
                              ChainState(state.theta, log_joint=state.log_joint_aug), rng_mh)
    state = FireflyState(theta=np.asarray(moved.theta, float), z=z, dark_stat_sum=dark,
                         log_joint_aug=moved.log_joint, bright=bright)
    state, k = resample_brightness(state, target, bound, rho_z, rng_z)
    return state, accepted, len(bright) + k


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
    """Debug invariant: the bright indices, the dark aggregate and any cached
    augmented log joint equal a fresh recomputation."""
    if not np.array_equal(state.bright, np.flatnonzero(state.z)):
        raise AssertionError(f"bright index cache incoherent: {state.bright}")
    fresh = bound.dark_stat_sum(np.flatnonzero(~state.z))
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
