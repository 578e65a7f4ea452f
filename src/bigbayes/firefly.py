"""Firefly Monte Carlo: exact-posterior sampling that touches only bright data.

Each datum carries a binary brightness indicator, held only as the sorted
bright indices, so a state and a flip take O(bright) memory. Dark points
contribute through a collapsible lower bound on their likelihood, summed
as sufficient statistics (``LikelihoodBound.dark_stat_sum``) into one
fixed-size vector kept incrementally as indicators flip. A step evaluates
likelihood terms only for bright points and for the resampled indicators
that can change: the resample thins its dark members by the bound's largest
gap from the likelihood (``LikelihoodBound.max_log_gap``), so a dark datum
is read only when it is a candidate to turn bright. The theta marginal of
the augmented chain is the exact posterior.

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
from .models import _check_logistic_data, _log_sigmoid, _rows, _take
from .rng import KeyedRng

__all__ = [
    "LikelihoodBound",
    "FireflyState",
    "scaled_gaussian_bound",
    "logistic_quadratic_bound",
    "resample_brightness",
    "flymc_log_joint",
    "flymc_step",
    "run_flymc",
    "init_firefly",
    "check_coherence",
]

BOUND_SLACK = 1e-9
_NO_INDEX = np.zeros(0, dtype=np.intp)


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

    ``max_log_gap(theta)`` returns a G >= max_n (log L_n - log B_n) at
    ``theta`` without reading the data, so every brightness probability is
    at most 1 - exp(-G). ``math.inf`` is a valid (if uninformative) answer:
    the resample then evaluates every dark datum it draws. A G below some
    datum's gap makes ``resample_brightness`` raise ``BoundViolationError``
    when it evaluates that datum.
    """

    log_bound_batch: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dark_stat_sum: Callable[[np.ndarray], np.ndarray]
    collapsed_log_product: Callable[[np.ndarray, np.ndarray], float]
    max_log_gap: Callable[[np.ndarray], float]


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
        return np.array([x.size, np.sum(x), x @ x], dtype=float)

    def collapsed(theta, s):
        cnt, s1, s2 = s
        quad = s2 - 2.0 * theta[0] * s1 + cnt * theta[0] ** 2
        return float(-0.5 * quad / lik_var + cnt * (const - delta))

    return LikelihoodBound(log_bound_batch, dark_stat_sum, collapsed, lambda theta: delta)


def logistic_quadratic_bound(X, y, theta_ref) -> LikelihoodBound:
    """Tangent quadratic minorizer of the logistic log likelihood.

    log sigma(z) >= log sigma(xi) + (z - xi)/2 - lam(xi)(z^2 - xi^2) with
    lam(xi) = tanh(xi/2) / (4 xi) and the margin z_n = y_n x_n . theta;
    tangency points are fixed at the reference parameter (typically a MAP
    estimate), where the bound is tight. log sigma(xi) is
    ``models._log_sigmoid``, the logistic target's own log-sigmoid.

    The gap g_n(z) = log sigma(z) - log B_n and its derivative vanish at the
    reference margin, and g_n'' = 2 lam_n - sigma(z) sigma(-z) <= 2 lam_n, so
    g_n <= lam_n (x_n . (theta - theta_ref))^2; ``max_log_gap`` returns
    curv |theta - theta_ref|^2 with curv = max_n lam_n |x_n|^2, computed once.

    Unlike ``logistic_regression_target``, which copies the data, the bound
    reads the caller's ``X`` and ``y`` in place (float64 arrays are not
    copied) and stores only the N-vectors of its constants. Changing ``X``
    or ``y`` after construction changes the bound, which then need no
    longer lie below the likelihood, nor its gap below ``max_log_gap``.
    """
    X, y = _check_logistic_data(X, y)
    theta_ref = np.asarray(theta_ref, dtype=float)
    xi = np.abs(X @ theta_ref)              # |z_n| at theta_ref: y_n = +-1
    lam = np.where(xi > 1e-8, np.tanh(xi / 2.0) / (4.0 * np.where(xi > 0, xi, 1.0)), 0.125)
    log_sig_xi = _log_sigmoid(xi)
    c = log_sig_xi - xi / 2.0 + lam * xi**2
    curv = float(np.max(lam * np.einsum("ij,ij->i", X, X), initial=0.0))
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

    def max_log_gap(theta):
        step = np.asarray(theta, dtype=float) - theta_ref
        return curv * float(step @ step)

    return LikelihoodBound(log_bound_batch, dark_stat_sum, collapsed, max_log_gap)


@dataclass
class FireflyState:
    """The chain's theta and brightness: ``bright`` holds the sorted, distinct
    indices (intp) of the bright data; the rest are dark. It is never changed
    in place; a resample that flips an indicator makes a new array. A step
    builds two states, so construction checks nothing; ``check_coherence`` does."""

    theta: np.ndarray
    bright: np.ndarray                 # sorted bright indices, z_n = 1
    dark_stat_sum: np.ndarray          # bound.dark_stat_sum of the dark points
    log_joint_aug: Optional[float] = None  # flymc_log_joint; None after a flip

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


def _brightness_probs(idx, theta, target, bound):
    """P(z_n = 1 | theta) = (L_n - B_n) / L_n at the terms ``idx``."""
    diff = bound.log_bound_batch(idx, theta) - target.log_lik_terms(idx, theta)
    _check_bound(diff)
    # -expm1 of a value <= 0 lies in [0, 1), so no clip is needed; NaN stays NaN
    return -np.expm1(np.minimum(diff, 0.0))


def init_firefly(target, bound, theta0, rng: np.random.Generator,
                 init: str = "sample") -> FireflyState:
    """An all-dark state at ``theta0``. ``init="sample"`` then draws every
    indicator from its conditional with one ``resample_brightness`` at
    rho_z = 1, which reads only the data that can turn bright."""
    if init not in ("dark", "sample"):
        raise ValueError(f"unknown init {init!r}")
    # the full-data sum reads the data as views
    state = FireflyState(np.array(theta0, dtype=float), _NO_INDEX,
                         bound.dark_stat_sum(target.all_indices()))
    if init == "sample":
        state, _ = resample_brightness(state, target, bound, 1.0, rng)
    return state


def flymc_log_joint(state: FireflyState, target, bound) -> float:
    """Augmented log joint; likelihood terms touched only for bright points."""
    theta, bright = state.theta, state.bright
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
    """Redraw the indicators of a uniform ceil(rho_z N)-subset at the current theta.

    The law is that of drawing a uniform k-subset, k = ceil(rho_z N), and
    redrawing each member's z_n from Bern(p_n), but a dark member is read
    only when it is a candidate to turn bright. With b bright points and
    pbar = 1 - exp(-G), G = ``bound.max_log_gap(theta)``, the draws from
    ``rng`` are, in order:

    1. h ~ Hypergeometric(b, N - b, k), the subset's bright members (not
       drawn when b = 0);
    2. c ~ Binomial(k - h, pbar), the dark members that are candidates;
    3. the h members, a uniform subset of ``state.bright``, and then the c
       candidates, a uniform subset of the dark data drawn as ranks among
       them and mapped to indices through the sorted bright set;
    4. one uniform u per member read: a bright member stays bright when
       u < p_n, and a candidate turns bright when u pbar < p_n.

    A subset of size 0 is not drawn, and step 4 is not drawn when
    h + c = 0. A dark member turns bright with probability
    pbar (p_n / pbar) = p_n, as in the subset Gibbs kernel. A candidate
    with p_n above pbar (beyond ``BOUND_SLACK`` in the log gap) raises
    ``BoundViolationError``; a negative or NaN G fails the Binomial draw
    with ValueError.

    Returns (state', n_likelihood_evals), the evaluations being the h + c
    members read. The dark statistic aggregate is updated incrementally. A
    flip makes a new ``bright`` in O(b + h + c) memory and drops the cached
    augmented log joint (``log_joint_aug`` becomes None), which the next
    theta-move's ``mh_step`` evaluates afresh with ``flymc_log_joint``. A
    resample that flips nothing hands on the caller's ``bright``.
    """
    if not 0.0 < rho_z <= 1.0:
        raise ValueError(f"rho_z must lie in (0, 1], got {rho_z!r}")
    N = target.n_data
    k = math.ceil(rho_z * N)
    theta, bright = state.theta, state.bright
    stat_sum, lj = state.dark_stat_sum, state.log_joint_aug
    b = len(bright)
    h = int(rng.hypergeometric(b, N - b, k)) if b else 0
    gap = bound.max_log_gap(theta)
    p_bar = -math.expm1(-gap)
    c = int(rng.binomial(k - h, p_bar))
    if h + c:
        # Generator.choice costs microseconds even for an empty draw
        pos = rng.choice(b, h, replace=False, shuffle=False) if h else _NO_INDEX
        ranks = rng.choice(N - b, c, replace=False, shuffle=False) if c else _NO_INDEX
        cands = ranks + np.searchsorted(bright - np.arange(b), ranks, side="right")
        idx = np.concatenate([bright[pos], cands])
        u = rng.random(h + c)
        p = _brightness_probs(idx, theta, target, bound)
        if c and np.max(p[h:]) > -math.expm1(-(gap + BOUND_SLACK)):
            i = h + int(np.argmax(p[h:]))
            raise BoundViolationError(
                f"datum {idx[i]} has brightness probability {p[i]:.6g} above "
                f"{p_bar:.6g}, the bound's max_log_gap {gap:.6g}")
        u[h:] *= p_bar
        lit = u < p
        gone, to_bright = pos[~lit[:h]], cands[lit[h:]]
        if gone.size or to_bright.size:
            stat_sum = (stat_sum + bound.dark_stat_sum(bright[gone])
                        - bound.dark_stat_sum(to_bright))
            lj = None
            bright = np.sort(np.concatenate([np.delete(bright, gone), to_bright]))
    return FireflyState(theta.copy(), bright, stat_sum, lj), h + c


def flymc_step(state: FireflyState, target, bound, proposal: ProposalDist,
               rho_z: float, rng: np.random.Generator):
    """One ``mcmc.mh_step`` on theta under the augmented joint at fixed
    brightness, then a brightness resample, both drawing from ``rng``: the
    MH draws (``mcmc.mh_propose``) first, the resample from the rest of the
    stream. Returns (state', accepted, n_likelihood_evals). The caller's
    ``state`` is not modified."""
    bright, dark = state.bright, state.dark_stat_sum
    augmented = SimpleNamespace(log_joint=lambda th: flymc_log_joint(
        FireflyState(th, bright, dark), target, bound))
    moved, accepted = mh_step(augmented, proposal,
                              ChainState(state.theta, log_joint=state.log_joint_aug), rng)
    state = FireflyState(np.asarray(moved.theta, float), bright, dark, moved.log_joint)
    state, n_read = resample_brightness(state, target, bound, rho_z, rng)
    return state, accepted, len(bright) + n_read


def run_flymc(target, bound, proposal, theta0, T: int, rho_z: float,
              rng: KeyedRng, init: str = "sample"):
    """Drive the chain for T steps; returns (SampleBuffer, info).

    Step t is ``flymc_step`` on the one stream keyed ("step", t). Its MH
    part reads that stream first, as ``run_mh`` does, so a tight bound with
    an all-dark state reproduces plain MH decisions draw for draw; the
    resample reads the rest of the stream. The initial state reads the
    stream keyed ("init",).
    ``info["likelihood_evals"][t]`` counts step t's bright points (the
    likelihood terms of its augmented joint at theta') plus the terms its
    resample evaluated.
    """
    if not 0.0 < rho_z <= 1.0:  # before init_firefly reads the data
        raise ValueError(f"rho_z must lie in (0, 1], got {rho_z!r}")
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T!r}")

    def step(state, t, gen):
        state, accepted, n_ev = flymc_step(state, target, bound, proposal, rho_z, gen)
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
    """Debug invariant: ``bright`` is sorted, distinct intp in [0, N), and the
    dark aggregate and any cached augmented log joint equal a fresh
    recomputation over its complement, which reads O(N)."""
    bright, N = state.bright, target.n_data
    if not (bright.dtype == np.intp and np.all(np.diff(bright) > 0)
            and np.all((bright >= 0) & (bright < N))):
        raise AssertionError(f"bright indices not sorted, distinct and in [0, {N}): {bright!r}")
    fresh = bound.dark_stat_sum(np.delete(np.arange(N), bright))
    if not np.allclose(fresh, state.dark_stat_sum, atol=atol, rtol=1e-8):
        raise AssertionError(f"dark statistic cache incoherent: {state.dark_stat_sum} vs {fresh}")
    if state.log_joint_aug is not None:
        fresh_lj = flymc_log_joint(FireflyState(state.theta, bright, fresh), target, bound)
        if not math.isclose(fresh_lj, state.log_joint_aug, rel_tol=1e-8, abs_tol=1e-6):
            raise AssertionError("augmented log joint cache incoherent")
    return True
