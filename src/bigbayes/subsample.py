"""Approximate Metropolis-Hastings with adaptive data-subsampling stopping rules.

A step first asks its control variate (below) whether a deterministic bound
on the residuals settles the exact full-data decision; where it does, the
step takes that decision and reads no data (``m_used`` 0). Otherwise each
test reads likelihood terms in batches that are consecutive slices of
its own lazily drawn order of the data (``rng._LazyPermutation``, the
shuffled order SGLD's epochs read: blocks of ``batch``, then doubling, so
every prefix is a uniform sample without replacement), until either a
t-statistic test or a concentration inequality (Hoeffding without
replacement, or empirical Bernstein) says the subsampled accept/reject
decision matches the full-data decision with high probability. Exhausting
the data always recovers the exact MH test. No index is read twice in one
test by construction: the accumulator's read count is its position in the
order, so a step does O(read) index work. Where N <= 4 (batch + 1024) the
first read draws the whole ``permutation(N)``.

Every rule averages control-variate residuals, not raw log-likelihood
ratios: the difference estimator of Bardenet, Doucet & Holmes, "On Markov
chain Monte Carlo methods for tall data" (JMLR 2017), and Quiroz et al.,
"Speeding up MCMC by efficient data subsampling" (JASA 2019), with a
second-order Taylor proxy at a centre c (``TaylorProxy``). With
q_n(theta) = g_n . (theta - c) + (theta - c)^T H_n (theta - c) / 2, where
g_n and H_n are the gradient and Hessian of l_n at c, the residual of term
n for a move theta -> theta' is
r_n = [l_n(theta') - l_n(theta)] - [q_n(theta') - q_n(theta)], and
sum_n r_n + L = sum_n [l_n(theta') - l_n(theta)] for every c, where
L = G . (theta' - theta) + [(theta' - c)^T H (theta' - c)
- (theta - c)^T H (theta - c)] / 2 with G = sum_n g_n and H = sum_n H_n.
So the rule compares the mean residual with psi - L / N: the estimate is
unbiased, and reading all the data still gives the exact decision. A chain
takes c at its start, theta0, and sums G and H there in one O(N d^2) pass
over blocks of the target's ``taylor_log_lik_terms`` kernel. ``taylor_proxy``
keeps that proxy on the target, keyed on the centre's bytes, the data's size
and the kernels it read, so later runs from the same start and a prefetch
predictor rooted there reuse it without a pass; a single long chain pays the
pass once either way and gains nothing. A target without that kernel gets
the first-order proxy (H = 0, g_n from the gradient kernel). Near c the
residuals are third order in the move (a first-order proxy leaves
second-order ones), so a step reads a small share of the data; a chain
that wanders far from its start reads more, but stays unbiased.

The second-order proxy also bounds its residuals. The Taylor kernel's pass
sums R = sum_n R_n beside G and H, where |l_n(theta) - l_n(c) - q_n(theta)|
<= ||v|| v^T R_n v for v = theta - c (for logistic terms,
R_n = K ||a_n|| a_n a_n^T by Lagrange's remainder), so
|sum_n r_n| <= B = ||v'|| v'^T R v' + ||v|| v^T R v. With
gap = N psi - L, a step with |gap| > B (plus a floating-point margin) has
the exact decision, accept iff gap < 0, at O(d^2) cost and no read: the
certificate of Cornish et al., "Scalable Metropolis-Hastings for exact
Bayesian inference with large datasets" (ICML 2019), applied to one MH
test (``TaylorProxy.certify``). Such a step draws nothing after its
proposal and uniform, and every step has its own keyed stream, so no later
step shifts: a chain differs from one that runs the rule at every step
only where the rule's decision was the wrong one.

The t-test's statistic is t = (mean - psi) / sigma, the distance of the
running mean from the threshold in standard errors (sampling without
replacement). The rule stops when rho = ``student_t_sf(|t|, m - 1)``, the
probability under the normal model that the subsampled decision is the
wrong one, is at most epsilon. It decides on a cached bracket of |t| around
the crossing rho = epsilon, so a batch costs O(1) Python operations beyond
the kernel call; rho is computed only for a |t| inside that bracket.

Each batch is gathered once for the likelihood: ``llr_terms`` evaluates the
terms at theta' and theta in one call of the batch kernel, on the stacked
(2, d) parameters. The rules read ``TaylorProxy``'s residual target, whose
kernel adds one call of the wrapped target's Taylor kernel at c (or of its
gradient kernel, for the first-order proxy) on the same indices.
"""

import functools
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
    "TaylorProxy",
    "taylor_proxy",
    "mh_log_threshold",
    "llr_terms",
    "llr_update",
    "ttest_should_stop",
    "concentration_should_stop",
    "run_adaptive_mh",
    "pilot_c_bound",
]

PILOT_SIZE = 1000
PILOT_SAFETY = 1.5
# Relative margin in rho at a cached t-test bracket's ends. In a scan of df
# from 1 to 1e6, ``student_t_sf`` never rose by more than 4e-13 of its value
# as |t| grew (the largest rise was at its continued fraction's branch
# switch), so outside a bracket with this margin every decision equals
# ``rho <= epsilon``.
_SF_MARGIN = 1e-9
_BRACKET_EVALS = 30
# Terms per kernel call in a proxy's one-time pass. Each call carries about
# 20 us of fixed cost: the first-order logistic pass at N = 1e5, d = 5 took
# 1.0 ms in 4096-term blocks and 2.9 ms in 1024 (2 vCPUs, one BLAS thread).
# 16384-term blocks made the second-order pass only 3% faster (1.29 against
# 1.33 ms), while their 655 KB (d, block) temporaries slowed the other
# samplers in the benchmark's processes by about 6%. Scratch memory is
# O(block d).
_PASS_BLOCK = 4096
# Relative floating-point margin of a certified decision (``TaylorProxy.certify``).
CERT_MARGIN = 1e-9


class TaylorProxy:
    """Second-order Taylor control variate for log-likelihood ratios,
    centred at ``centre`` (c): the package's one estimator of them. The
    samplers get it through ``taylor_proxy``, which keeps one per target,
    keyed on the centre's bytes, the data's size and the kernels, so runs
    and predictors from one start share its pass; a single long chain builds
    one either way and gains nothing.

    ``target`` is the residual target. Its term n at theta is
    l_n(theta) - q_n(theta), with the likelihood term from the wrapped
    target's ``log_lik_terms`` and the quadratic model
    q_n(theta) = g_n . (theta - c) + (theta - c)^T H_n (theta - c) / 2 from
    one call of its ``taylor_log_lik_terms`` at c, so ``llr_terms`` on it
    gives the residuals r_n = [l_n(theta') - l_n(theta)] - [q_n(theta') -
    q_n(theta)] of a batch gathered once for the likelihood; each rounds at
    the size of those terms, not of their difference. ``grad_sum`` is
    G = sum_n g_n and ``hess_sum`` H = sum_n H_n, both summed at
    construction in one pass over unit-step ``range`` blocks of
    ``_PASS_BLOCK`` terms of the Taylor kernel, so no N-sized array is
    made. N times a batch mean of residuals plus ``llr_sum`` estimates the
    full-data ratio without bias, for every c.

    ``rem_sum`` is the kernel's third sum, R = sum_n R_n, from the same
    pass: ``remainder_bound`` turns it into a bound on |sum_n r_n|, and
    ``certify`` into exact decisions that read no data.

    A target without ``taylor_log_lik_terms`` gets the first-order form:
    q_n(theta) = g_n . (theta - c), g_n from ``grad_log_lik_terms`` in both
    the pass and the residual target, and H = 0. It has no remainder bound
    (``rem_sum`` is None), so it certifies no step.
    """

    def __init__(self, target: FactoredTarget, centre):
        centre = np.array(centre, dtype=float)
        n, d = target.n_data, target.dim
        blocks = (range(s, min(s + _PASS_BLOCK, n)) for s in range(0, n, _PASS_BLOCK))
        self.centre, self.n_data = centre, n
        self.grad_sum, self.hess_sum = np.zeros(d), np.zeros((d, d))
        self.rem_sum = None
        if target.taylor_log_lik_terms is None:
            for b in blocks:
                self.grad_sum += target.grad_log_lik_terms(b, centre).sum(axis=0)

            def model(idx, th):
                return (th - centre) @ target.grad_log_lik_terms(idx, centre).T
        else:
            self.rem_sum = np.zeros((d, d))
            for b in blocks:
                sums = target.taylor_log_lik_terms(b, centre)
                if len(sums) != 3:
                    raise ValueError(
                        "taylor_log_lik_terms(idx, c) must return three sums "
                        "(G, H, R), R bounding the quadratic model's remainder; "
                        f"got {len(sums)}")
                g, h, r = sums
                self.grad_sum += g
                self.hess_sum += h
                self.rem_sum += r

            def model(idx, th):
                return target.taylor_log_lik_terms(idx, centre, th)

        def residual_terms(idx, th):
            return target.log_lik_terms(idx, th) - model(idx, th)

        self.target = FactoredTarget(dim=d, n_data=n, log_prior=target.log_prior,
                                     grad_log_prior=target.grad_log_prior,
                                     log_lik_terms=residual_terms)

    def llr_sum(self, theta, theta_new) -> float:
        """The proxy's full-data log-likelihood ratio, sum_n q_n(theta') -
        q_n(theta) = G . (theta' - theta) + [(theta' - c)^T H (theta' - c) -
        (theta - c)^T H (theta - c)] / 2, formed as
        (theta' - theta) . [G + H ((theta + theta') / 2 - c)]."""
        mid = 0.5 * (theta + theta_new) - self.centre
        return float((theta_new - theta) @ (self.grad_sum + self.hess_sum @ mid))

    def remainder_bound(self, theta, theta_new) -> float:
        """B(theta, theta') = ||v'|| v'^T R v' + ||v|| v^T R v, with
        v = theta - c and v' = theta' - c, from the kernel's remainder sum
        R = sum_n R_n; at least sum_n |r_n| >= |sum_n r_n|, since each
        residual is the difference of two remainders. inf for a first-order
        proxy, which has no bound."""
        if self.rem_sum is None:
            return math.inf
        v, w = theta - self.centre, theta_new - self.centre
        return (math.sqrt(w @ w) * float(w @ self.rem_sum @ w)
                + math.sqrt(v @ v) * float(v @ self.rem_sum @ v))

    def certify(self, theta, theta_new, psi: float):
        """(accept, shifted) for a step theta -> theta' at the threshold psi.

        ``shifted`` = psi - ``llr_sum`` / N is the threshold that the
        residuals' mean is tested against. ``accept`` is the exact
        full-data decision, sum_n [l_n(theta') - l_n(theta)] > N psi, when
        ``remainder_bound`` settles it, else None: with
        gap = N psi - ``llr_sum``, the residual sum lies within B of 0, so
        |gap| > B decides, and the step accepts iff gap < 0. It reads no
        data.

        |gap| must exceed B by the floating-point margin ``CERT_MARGIN``
        (|gap| + |llr_sum| + B + N). The relative part covers the rounding
        of the values compared. The N part covers the rounding of sums over
        N terms, which grows with N: the pass's G, H and R, and the
        full-data sum of ratios that exact MH compares. A sum of N terms of
        size at most M rounds by at most N M u (u = 2^-53) times a factor
        below 5000 at N <= 1e6: log2 N for numpy's pairwise sums, about
        4096 + N / 4096 for the pass's blocks. So 1e-9 N covers terms up to
        about 2e3 in the pass, where M is a datum's share of L (about 1e-2
        for the benchmark's moves), and up to about 4e5 in the ratio sum.
        """
        n = self.n_data
        lam = self.llr_sum(theta, theta_new)
        shifted = psi - lam / n
        bound = self.remainder_bound(theta, theta_new)
        gap = n * psi - lam
        if abs(gap) > bound + CERT_MARGIN * (abs(gap) + abs(lam) + bound + n):
            return gap < 0.0, shifted
        return None, shifted


_KERNELS = ("log_lik_terms", "grad_log_lik_terms", "taylor_log_lik_terms")


def taylor_proxy(target: FactoredTarget, centre) -> TaylorProxy:
    """``target``'s ``TaylorProxy`` at ``centre``, built at most once per
    (target, centre): the one place a sampler gets a proxy.

    The last proxy built is kept in one slot on the target instance (the
    attribute ``_taylor_proxy``, not a dataclass field, so a ``replace``d
    target starts without one) and is returned again while the centre is
    the same bytes, ``n_data`` and ``dim`` are unchanged and the target
    still holds the kernels it was built from (``log_lik_terms``,
    ``grad_log_lik_terms`` and ``taylor_log_lik_terms``, compared with
    ``is``) and the slot was filled on this instance, not copied from
    another; otherwise the O(N d^2) pass runs again and replaces it. The
    cached G and H are the floats a fresh build gives, so no chain changes.
    Repeated runs from one start, and a ``prefetch.subsample_predictor``
    beside a run, share one pass; a single long chain gains nothing.
    """
    centre = np.array(centre, dtype=float)
    built = (target, *(getattr(target, k) for k in _KERNELS))
    key = (target.n_data, target.dim, centre.shape, centre.tobytes())
    slot = getattr(target, "_taylor_proxy", None)
    if (slot is not None and slot[1] == key
            and all(a is b for a, b in zip(slot[0], built))):
        return slot[2]
    proxy = TaylorProxy(target, centre)
    target._taylor_proxy = (built, key, proxy)
    return proxy


@dataclass
class LLRAccumulator:
    """Running first and second raw moments of the log-likelihood ratios at
    the first ``m`` entries of ``order``, the test's index order.

    ``order`` only grows, and no read reorders an entry once read, so
    accumulators that share it may branch: each reads on from its own ``m``.
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
    p=2, gamma=2, epsilon=0.01.

    ``c_bound`` is the C of Hoeffding and Bernstein: a bound on the range
    max_n |r_n| of the control-variate residuals the rules average, given
    as a number or as a function of (theta, theta'). A number must be
    positive; a step that the proxy certifies never reads C, so a bad one is
    rejected here, not at the first step that runs a rule. None estimates it
    with ``pilot_c_bound``, which makes the bound uncertified.
    """

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
        c = self.c_bound
        if c is not None and not callable(c) and not c > 0.0:
            raise ValueError(f"c_bound must be positive, got {c!r}")


def mh_log_threshold(u: float, theta, theta_new, proposal: ProposalDist,
                     log_prior: Callable, N: int) -> float:
    """psi(u, theta, theta') = (1/N) log[u q(theta'|theta) pi0(theta) /
    (q(theta|theta') pi0(theta'))], with the prior and Hastings terms
    formed by ``mcmc.mh_log_alpha``."""
    if not 0.0 < u < 1.0:
        raise ValueError(f"u must lie in (0,1), got {u!r}")
    log_prior_ratio = float(log_prior(theta_new)) - float(log_prior(theta))
    return (math.log(u) - mh_log_alpha(log_prior_ratio, proposal, theta, theta_new)) / N


def llr_terms(target: FactoredTarget, idx, theta, theta_new) -> np.ndarray:
    """Log-likelihood ratios l_n(theta') - l_n(theta) at the term indices
    ``idx``, from one kernel call on the stacked (2, d) parameters, so the
    batch is gathered once."""
    try:
        pair = np.array((theta_new, theta), dtype=float)
    except ValueError:
        if np.shape(theta_new) != np.shape(theta):
            raise ValueError(f"theta' and theta must have one shape, got "
                             f"{np.shape(theta_new)} and {np.shape(theta)}") from None
        raise
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
    mean = (acc.m * acc.mean + float(ell.sum())) / m_new
    mean_sq = (acc.m * acc.mean_sq + float(ell @ ell)) / m_new
    return LLRAccumulator(m=m_new, mean=mean, mean_sq=mean_sq, order=acc.order)


@functools.lru_cache(maxsize=256)
def _t_bracket(df: int, epsilon: float):
    """(lo, hi): ``student_t_sf(a, df)`` exceeds epsilon (1 + margin) at a
    lo above 0 and is at most epsilon (1 - margin) at hi, so
    ``rho <= epsilon`` is false for |t| < lo and true for |t| >= hi.

    Newton steps on log rho against log |t| aim alternately just above and
    just below epsilon, until both ends lie within 4 margins of it. Each
    evaluation only narrows a valid bracket, starting from [0, inf), so a
    search that runs out of steps returns a wider bracket, never a wrong one.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0,1), got {epsilon!r}")
    above, below = epsilon * (1.0 + _SF_MARGIN), epsilon * (1.0 - _SF_MARGIN)
    lo, hi, sf_lo, sf_hi = 0.0, math.inf, 0.5, 0.0
    log_pdf0 = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    # start where the normal tail bound exp(-a^2 / 2) / 2 equals epsilon
    a = math.sqrt(-2.0 * math.log(2.0 * epsilon)) if epsilon < 0.5 else 0.0
    for _ in range(_BRACKET_EVALS):
        sf = student_t_sf(a, df)
        if sf > above:
            lo, sf_lo = a, sf
        elif sf <= below:
            hi, sf_hi = a, sf
        if hi <= lo or (sf_lo <= epsilon * (1.0 + 4.0 * _SF_MARGIN)
                        and sf_hi >= epsilon * (1.0 - 4.0 * _SF_MARGIN)):
            break
        aim = epsilon * (1.0 - 2.0 * _SF_MARGIN if sf > epsilon else 1.0 + 2.0 * _SF_MARGIN)
        # d log rho / d log a = -a pdf(a) / rho
        slope = 0.0
        if sf > 0.0:
            slope = a * math.exp(log_pdf0 - 0.5 * (df + 1) * math.log1p(a * a / df)) / sf
        if slope > 0.0:
            a *= math.exp(max(-30.0, min(30.0, math.log(sf / aim) / slope)))
        if slope <= 0.0 or not lo < a < hi:  # no usable step: split the bracket
            if hi == math.inf:
                a = 4.0 * lo if lo > 0.0 else 1.0
            else:
                a = hi / 4.0 if lo == 0.0 else math.sqrt(lo) * math.sqrt(hi)
    return lo, hi


def ttest_should_stop(acc: LLRAccumulator, psi: float, N: int, epsilon: float):
    """t-statistic stopping rule; returns (stop, t).

    t = (mean - psi) / sigma, where sigma is the standard error of the mean
    of m terms drawn without replacement from N. The rule stops when
    rho = ``student_t_sf(|t|, m - 1)``, the probability under the normal
    model that the subsampled decision disagrees with the full-data one, is
    at most epsilon, or when the data are exhausted. Zero spread means the
    estimate is exact: t is +-inf (rho = 0, stop) unless the mean sits
    exactly on the threshold, where t = 0 (rho = 1/2).

    The decision compares |t| with a bracket cached per (m - 1, epsilon)
    around the crossing rho = epsilon; only a |t| inside it computes rho.
    Every decision equals ``rho <= epsilon``.
    """
    if acc.m < 2:
        raise ValueError("t-test needs at least two terms")
    s = acc.std()
    sigma = s / math.sqrt(acc.m) * math.sqrt((N - acc.m) / (N - 1))
    if sigma == 0.0:
        t = 0.0 if acc.mean == psi else math.copysign(math.inf, acc.mean - psi)
    else:
        t = (acc.mean - psi) / sigma
    if acc.m >= N:
        return True, t
    lo, hi = _t_bracket(acc.m - 1, epsilon)
    a = abs(t)
    if a < lo:
        return False, t
    if a >= hi:
        return True, t
    return student_t_sf(a, acc.m - 1) <= epsilon, t


def _delta(cfg: StopRuleConfig, m: int, k: int) -> float:
    unit = k if cfg.per_batch_delta else m
    return (cfg.p - 1.0) / (cfg.p * unit**cfg.p) * cfg.epsilon


def concentration_should_stop(acc: LLRAccumulator, psi: float, N: int,
                              cfg: StopRuleConfig, batches_seen: int,
                              c_value: float):
    """Concentration-inequality stopping rule; returns (stop, c_m)."""
    if c_value <= 0.0:
        raise ValueError(f"C bound must be positive, got {c_value!r}")
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
    times ``PILOT_SAFETY``. On a ``TaylorProxy``'s residual target, which
    the rules read, the l_n are the residuals r_n, so C estimates their
    range max_n |r_n|."""
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
    acc = LLRAccumulator(order=_LazyPermutation(N, cfg.batch, rng))
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


def _subsampled_decision(target, proposal, theta, cfg, gen, proxy):
    """(theta', psi, accept, m_used) of one step: the exact decision with
    m_used = 0 where ``proxy.certify`` settles it, else the rule's, testing
    ``proxy``'s residuals against the threshold less the proxy's share,
    psi - ``proxy.llr_sum`` / N. Draws follow ``mcmc.mh_propose``, then, for
    a step the rule decides, the order's first block at the first read,
    then (Hoeffding and Bernstein without a given C) the pilot at the first
    stop check, then any later blocks as they are read."""
    theta_new, u = mh_propose(proposal, theta, gen)
    psi = mh_log_threshold(u, theta, theta_new, proposal, target.log_prior, target.n_data)
    accept, shifted = proxy.certify(theta, theta_new, psi)
    if accept is not None:
        return theta_new, psi, accept, 0
    accept, m_used = _run_stopping_rule(proxy.target, theta, theta_new, shifted, cfg, gen)
    return theta_new, psi, accept, m_used


def run_adaptive_mh(target, proposal, theta0, T: int, cfg: StopRuleConfig,
                    rng: KeyedRng, compare_exact: bool = False):
    """Run the adaptive chain; returns (SampleBuffer, m_used array[, disagreements]).

    Every step's rule averages control-variate residuals (the difference
    estimator of Bardenet, Doucet & Holmes, JMLR 2017, and Quiroz et al.,
    JASA 2019) of a second-order Taylor proxy centred at c = ``theta0``
    (``TaylorProxy``; first order for a target without a Taylor kernel),
    whose sums G and H are taken before the first step in one pass over
    blocks of the kernel, or reused from ``taylor_proxy``'s slot on the
    target when an earlier run or predictor built them at the same start
    with the same kernels. A long chain pays that pass once either way; the
    reuse helps only repeated runs from one start. Each batch then reads
    the terms at theta and theta' and the Taylor kernel at c on the same
    indices. The estimate is unbiased at every state, but the residuals
    grow with the distance from c, so a chain that wanders far from its
    start reads more data per step.

    A step whose decision the proxy's remainder bound settles
    (``TaylorProxy.certify``) takes the exact full-data decision and reads
    no data: ``m_used`` 0 marks such a certified, exact step. A first-order
    proxy certifies none.

    With ``compare_exact`` the exact full-data MH decision is evaluated for
    the same (theta', u) at every step and the count of decision mismatches
    is returned; the chain still follows the approximate decisions.
    """
    _check_has_data(target)
    if T < 0:  # before the proxy's pass reads the data
        raise ValueError(f"T must be >= 0, got {T!r}")
    all_idx = target.all_indices()
    theta0 = np.array(theta0, dtype=float)
    proxy = taylor_proxy(target, theta0)

    def step(state, t, gen):
        theta = state.theta
        theta_new, psi, accept, m = _subsampled_decision(target, proposal, theta, cfg, gen,
                                                         proxy)
        disagree = False
        if compare_exact:
            lam = float(np.mean(llr_terms(target, all_idx, theta, theta_new)))
            disagree = (lam > psi) != accept
        return ChainState(theta_new if accept else theta), accept, m, disagree

    buf, _, stats = run_chain(step, ChainState(theta0), T, rng)
    m_used, disagree = stats.reshape(T, 2).T
    if compare_exact:
        return buf, m_used, int(disagree.sum())
    return buf, m_used
