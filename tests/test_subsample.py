import collections
import copy
import gc
import itertools
import math
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bigbayes import rng as rng_module
from bigbayes import subsample
from bigbayes.mcmc import gaussian_random_walk, mh_propose, run_mh
from bigbayes.models import FactoredTarget, gaussian_iid_target, logistic_regression_target
from bigbayes.rng import KeyedRng, _LazyPermutation
from bigbayes.special import betainc_regularized, student_t_cdf, student_t_sf
from bigbayes.subsample import (
    LLRAccumulator,
    StopRuleConfig,
    TaylorProxy,
    concentration_should_stop,
    llr_terms,
    llr_update,
    mh_log_threshold,
    pilot_c_bound,
    run_adaptive_mh,
    taylor_proxy,
    ttest_should_stop,
)


def flat_prior_target(values):
    """1D target with per-datum terms -(x_n - theta)^2 / 2 and a flat prior."""
    xs = np.asarray(values, dtype=float)

    def terms(idx, th):
        return -0.5 * (xs[np.asarray(idx)] - th[..., :1]) ** 2

    return FactoredTarget(dim=1, n_data=len(xs), log_prior=lambda th: 0.0,
                          log_lik_terms=terms)


def logistic_target(n, seed, d=1):
    """Logistic regression on ``n`` seeded standard-normal feature rows of
    length ``d``, labels drawn at coefficients all 1. A stopping rule
    averages residuals of a second-order Taylor proxy, which have real but
    small spread here; on ``flat_prior_target`` they are the same for
    every n."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-X.sum(axis=1))), 1.0, -1.0)
    return logistic_regression_target(X, y)


def first_order(target):
    """``target`` without its Taylor kernel, so its proxy is first order.
    Its residuals are second order in the move, large enough that a step
    near the start reads several batches; tests of the stopping rules'
    reading use it, since with the second-order proxy most steps stop at
    their first batch."""
    return replace(target, taylor_log_lik_terms=None)


# -- special functions --------------------------------------------------------

def test_incomplete_beta_matches_scipy():
    from scipy.special import betainc

    rng = np.random.default_rng(0)
    for _ in range(200):
        a, b = rng.uniform(0.3, 80, 2)
        x = rng.uniform(0, 1)
        assert betainc_regularized(a, b, x) == pytest.approx(betainc(a, b, x), abs=1e-10)


def test_student_t_cdf_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        df = rng.integers(1, 200)
        t = rng.uniform(-6, 6)
        assert student_t_cdf(t, df) == pytest.approx(stats.t.cdf(t, df), abs=1e-10)


# -- threshold ----------------------------------------------------------------

def test_symmetric_flat_u1():
    target = flat_prior_target([0.0])
    prop = gaussian_random_walk(1.0)
    psi = mh_log_threshold(1.0 - 1e-16, np.zeros(1), np.ones(1), prop,
                           target.log_prior, N=10)
    assert psi == pytest.approx(0.0, abs=1e-15)


def test_symmetric_flat_u_exp_minus_n():
    target = flat_prior_target(np.zeros(5))
    prop = gaussian_random_walk(1.0)
    psi = mh_log_threshold(math.exp(-5.0), np.zeros(1), np.ones(1), prop,
                           target.log_prior, N=5)
    assert psi == pytest.approx(-1.0)


def test_u_outside_unit_interval_rejected():
    target = flat_prior_target([0.0])
    prop = gaussian_random_walk(1.0)
    for u in (0.0, 1.5):
        with pytest.raises(ValueError):
            mh_log_threshold(u, np.zeros(1), np.ones(1), prop, target.log_prior, 1)


def test_threshold_sign_agrees_with_exact_mh_decision():
    # asymmetric proposal + informative prior: Lambda > psi iff exact accept
    rng = np.random.default_rng(2)
    xs = rng.standard_normal(30)
    N = len(xs)

    def log_prior(th):
        return -0.5 * float(th @ th) / 4.0

    def terms(idx, th):
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2

    target = FactoredTarget(dim=1, n_data=N, log_prior=log_prior, log_lik_terms=terms)

    def q_sample(th, g):
        return th + g.normal(0.3, 1.0, th.shape)  # drifted, asymmetric

    def q_logd(new, old):
        return float(-0.5 * np.sum((np.asarray(new) - np.asarray(old) - 0.3) ** 2))

    from bigbayes.mcmc import ProposalDist

    prop = ProposalDist(sample=q_sample, log_density=q_logd, is_symmetric=False)
    all_idx = np.arange(N)
    for _ in range(10**3):
        th = rng.standard_normal(1)
        thp = q_sample(th, rng)
        u = rng.uniform()
        if not 0 < u < 1:
            continue
        psi = mh_log_threshold(u, th, thp, prop, log_prior, N)
        lam = float(np.mean(terms(all_idx, thp) - terms(all_idx, th)))
        # exact MH: accept iff log u < log alpha
        log_alpha = (target.log_joint(thp) - target.log_joint(th)
                     + q_logd(th, thp) - q_logd(thp, th))
        assert (lam > psi) == (math.log(u) < log_alpha)


# -- accumulator --------------------------------------------------------------

def fresh(n, seed, block=4):
    """An empty accumulator over its own lazy order of range(n)."""
    return LLRAccumulator(order=_LazyPermutation(n, block, np.random.default_rng(seed)))


def test_constant_terms_exact_moments():
    target = flat_prior_target(np.full(8, 1.0))
    # theta -> theta' shifts every term by the same amount
    acc = llr_update(fresh(8, 0), target, np.array([0.0]), np.array([2.0]), 4)
    assert acc.mean_sq == pytest.approx(acc.mean**2)
    acc2 = llr_update(acc, target, np.array([0.0]), np.array([2.0]), 4)
    assert acc2.mean == pytest.approx(acc.mean)


def test_two_batches_equal_one_batch():
    rng = np.random.default_rng(3)
    target = flat_prior_target(rng.standard_normal(10))
    th, thp = np.array([0.1]), np.array([0.6])
    a = llr_update(fresh(10, 3), target, th, thp, 4)
    a = llr_update(a, target, th, thp, 4)
    b = llr_update(fresh(10, 3), target, th, thp, 8)
    assert a.m == b.m == 8
    assert a.mean == pytest.approx(b.mean, abs=1e-12)
    assert a.mean_sq == pytest.approx(b.mean_sq, abs=1e-12)


def test_batching_order_invariance():
    rng = np.random.default_rng(4)
    target = flat_prior_target(rng.standard_normal(12))
    th, thp = np.array([-0.2]), np.array([0.4])
    for cuts in ([3, 7], [1, 2, 11], [6]):
        acc = fresh(12, 4)
        start = 0
        for c in list(cuts) + [12]:
            acc = llr_update(acc, target, th, thp, c - start)
            start = c
        ref = llr_update(fresh(12, 4), target, th, thp, 12)
        assert acc.mean == pytest.approx(ref.mean, abs=1e-12)


def test_full_sample_recovers_exact_average():
    rng = np.random.default_rng(5)
    target = flat_prior_target(rng.standard_normal(9))
    th, thp = np.array([0.0]), np.array([1.0])
    acc = llr_update(fresh(9, 5), target, th, thp, 9)
    lam = float(np.mean(target.log_lik_terms(np.arange(9), thp)
                        - target.log_lik_terms(np.arange(9), th)))
    assert acc.m == 9
    assert acc.mean == pytest.approx(lam, abs=1e-14)
    # asking for more than remains reads the rest and no more
    over = llr_update(llr_update(fresh(9, 5), target, th, thp, 5), target, th, thp, 100)
    assert over.m == 9
    assert over.mean == pytest.approx(lam, abs=1e-14)


def test_update_leaves_its_input_accumulator_unchanged():
    rng = np.random.default_rng(13)
    target = flat_prior_target(rng.standard_normal(6))
    th, thp = np.array([0.0]), np.array([0.7])
    a1 = llr_update(fresh(6, 13), target, th, thp, 2)
    before = (a1.m, a1.mean, a1.mean_sq)
    a2 = llr_update(a1, target, th, thp, 2)
    # a1 has read only the first two entries, so it may branch onto the next two again
    b2 = llr_update(a1, target, th, thp, 2)
    assert (a1.m, a1.mean, a1.mean_sq) == before
    assert (b2.m, b2.mean, b2.mean_sq) == (a2.m, a2.mean, a2.mean_sq)


def test_llr_terms_rejects_a_kernel_that_reads_only_the_first_theta():
    # th[0] of a (2, d) stack is theta' alone: its terms come back as one row
    xs = np.arange(5.0)
    target = FactoredTarget(dim=1, n_data=5, log_prior=lambda th: 0.0,
                            log_lik_terms=lambda idx, th: -0.5 * (xs[idx] - th[0]) ** 2)
    with pytest.raises(ValueError, match=r"returned shape \(3,\), expected \(2, 3\)"):
        llr_terms(target, np.array([0, 2, 4]), np.zeros(1), np.ones(1))


@pytest.mark.parametrize("theta, theta_new", [(np.zeros(1), np.ones(2)),
                                               (np.zeros((1, 1)), np.ones(1)),
                                               (0.0, np.ones(1))])
def test_llr_terms_rejects_parameters_of_two_shapes_naming_both(theta, theta_new):
    target = flat_prior_target(np.zeros(4))
    want = f"{np.shape(theta_new)} and {np.shape(theta)}"
    with pytest.raises(ValueError, match=re.escape(want)):
        llr_terms(target, np.array([0, 1]), theta, theta_new)


def test_llr_terms_is_one_kernel_call_per_batch(monkeypatch):
    xs = np.random.default_rng(30).standard_normal(20)
    target = flat_prior_target(xs)
    read = record_reads(monkeypatch, target)
    idx = np.array([3, 1, 4, 1, 5])
    th, thp = np.array([0.2]), np.array([-0.4])
    ell = llr_terms(target, idx, th, thp)
    assert len(read) == 1 and np.array_equal(read[0], idx)
    want = -0.5 * (xs[idx] - thp[0]) ** 2 + 0.5 * (xs[idx] - th[0]) ** 2
    assert ell == pytest.approx(want, abs=1e-12)


def test_update_without_an_order_names_it():
    target = flat_prior_target(np.zeros(4))
    with pytest.raises(ValueError, match="order"):
        llr_update(LLRAccumulator(), target, np.zeros(1), np.ones(1), 2)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 40))
def test_batched_moments_match_recompute(data, n):
    finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    target = flat_prior_target(data.draw(st.lists(finite, min_size=n, max_size=n)))
    th = np.array([data.draw(finite)])
    thp = np.array([data.draw(finite)])
    acc = fresh(n, data.draw(st.integers(0, 2**32 - 1)), block=data.draw(st.integers(1, n)))
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6)))
    for start, stop in zip([0] + cuts, cuts + [n]):
        acc = llr_update(acc, target, th, thp, stop - start)
    order = acc.order.read(0, n)
    assert np.array_equal(np.sort(order), np.arange(n))
    ell = target.log_lik_terms(order, thp) - target.log_lik_terms(order, th)
    big = 1.0 + np.max(np.abs(ell))  # rounding error follows the terms, not their mean
    assert acc.m == n
    assert acc.mean == pytest.approx(np.mean(ell), abs=1e-12 * big)
    assert acc.mean_sq == pytest.approx(np.mean(ell**2), abs=1e-12 * big**2)


# -- t-test rule --------------------------------------------------------------

def test_zero_variance_stops_immediately():
    for mean, sign in ((0.5, 1.0), (0.1, -1.0)):
        acc = LLRAccumulator(m=4, mean=mean, mean_sq=mean**2)
        stop, t = ttest_should_stop(acc, psi=0.3, N=100, epsilon=0.01)
        assert stop and t == sign * math.inf
        assert student_t_sf(abs(t), 3) == 0.0  # rho


def test_zero_variance_on_threshold_continues():
    acc = LLRAccumulator(m=4, mean=0.3, mean_sq=0.09)
    stop, t = ttest_should_stop(acc, psi=0.3, N=100, epsilon=0.01)
    assert not stop and t == 0.0
    assert student_t_sf(abs(t), 3) == 0.5  # rho


def test_exhaustion_forces_stop():
    acc = LLRAccumulator(m=100, mean=0.3, mean_sq=0.09 + 1e-4)
    stop, _ = ttest_should_stop(acc, psi=0.3, N=100, epsilon=1e-9)
    assert stop


def test_ttest_derived_numbers():
    # m=100, N=10000, mean=0.5, psi=0.3, s=1.0
    m, N = 100, 10000
    s = 1.0
    mean_sq = (m - 1) / m * s**2 + 0.5**2
    acc = LLRAccumulator(m=m, mean=0.5, mean_sq=mean_sq)
    assert acc.std() == pytest.approx(1.0)
    sigma = s / math.sqrt(m) * math.sqrt((N - m) / (N - 1))
    assert sigma == pytest.approx(0.099504, abs=1e-6)
    t = (0.5 - 0.3) / sigma
    assert t == pytest.approx(2.0100, abs=1e-4)
    stop, t_rule = ttest_should_stop(acc, psi=0.3, N=N, epsilon=0.05)
    assert t_rule == pytest.approx(2.0100, abs=1e-4)
    rho = student_t_sf(abs(t_rule), m - 1)
    # oracle: independent statistics routine
    assert rho == pytest.approx(stats.t.sf(t, m - 1), abs=1e-10)
    assert rho == pytest.approx(0.0236, abs=2e-4)
    assert stop  # 0.0236 <= 0.05


def test_m_too_small_rejected():
    with pytest.raises(ValueError):
        ttest_should_stop(LLRAccumulator(m=1, mean=0.0, mean_sq=0.0), 0.0, 10, 0.1)


@pytest.mark.parametrize("epsilon", [0.0, -0.1, 1.0, math.nan])
def test_ttest_rejects_an_epsilon_outside_the_unit_interval_naming_it(epsilon):
    acc = LLRAccumulator(m=4, mean=0.5, mean_sq=0.5)
    with pytest.raises(ValueError, match=f"epsilon.*{epsilon!r}"):
        ttest_should_stop(acc, psi=0.3, N=100, epsilon=epsilon)


def accumulator_with_t(m, t, N=10**30):
    """(acc, psi, N) whose t statistic is exactly ``t``: at this N the
    finite-population factor rounds to 1, mean_sq is stepped until sigma is
    exactly 1, and psi = -t against a zero mean."""
    mean_sq = m - 1.0
    for _ in range(100):
        acc = LLRAccumulator(m=m, mean=0.0, mean_sq=mean_sq)
        sigma = acc.std() / math.sqrt(m) * math.sqrt((N - m) / (N - 1))
        if sigma == 1.0:
            return acc, -t, N
        mean_sq = math.nextafter(mean_sq, math.inf if sigma < 1.0 else -math.inf)
    raise AssertionError(f"no mean_sq gives sigma = 1 at m = {m}")


@settings(max_examples=200, deadline=None)
@given(df=st.integers(1, 10**6), epsilon=st.floats(1e-12, 0.99), data=st.data())
def test_ttest_decides_as_rho_at_most_epsilon(df, epsilon, data):
    lo, hi = subsample._t_bracket(df, epsilon)
    assert 0.0 <= lo <= hi
    ends = [lo, hi] + [math.nextafter(x, to) for x in (lo, hi) for to in (0.0, math.inf)]
    near = data.draw(st.lists(st.floats(-1e-6, 1e-6), max_size=4))
    wide = data.draw(st.lists(st.floats(-1e4, 1e4, allow_nan=False), max_size=4))
    for t in ends + [lo * (1.0 + r) for r in near] + [hi * (1.0 + r) for r in near] + wide:
        acc, psi, N = accumulator_with_t(df + 1, t)
        stop, t_rule = ttest_should_stop(acc, psi, N, epsilon)
        assert t_rule == t
        assert stop == (student_t_sf(abs(t), df) <= epsilon), (t, lo, hi)


def test_ttest_chain_computes_rho_rarely(monkeypatch):
    # a 300-step chain at N = 1e3 runs about 800 t-tests over a few values
    # of m - 1; rho is computed to build each bracket and for a |t| inside it
    rng = np.random.default_rng(32)
    N = 1000
    X = np.column_stack([np.ones(N), rng.standard_normal((N, 4))])
    theta = np.array([0.5, 1.0, -1.0, 0.5, -0.5])
    y = np.where(rng.random(N) < 1.0 / (1.0 + np.exp(-X @ theta)), 1.0, -1.0)
    target = first_order(logistic_regression_target(X, y))
    calls = collections.Counter()
    real = subsample.student_t_sf

    def counting(a, df):
        calls[df] += 1
        return real(a, df)

    monkeypatch.setattr(subsample, "student_t_sf", counting)
    subsample._t_bracket.cache_clear()
    cfg = StopRuleConfig(rule="ttest", batch=100, epsilon=0.05)
    _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.1), theta, 300, cfg,
                                KeyedRng(33))
    assert np.mean(m_used) > 150  # most steps run more than one test
    assert calls and max(calls.values()) <= 40, calls


# -- concentration rules ------------------------------------------------------

def test_hoeffding_derived_value():
    # per-batch delta with k=1 gives delta = (p-1)/p * eps; pick eps so delta=0.01
    p = 2.0
    eps = 0.01 * p / (p - 1.0)
    cfg = StopRuleConfig(rule="hoeffding", epsilon=eps, p=p, c_bound=1.0,
                         per_batch_delta=True)
    acc = LLRAccumulator(m=100, mean=5.0, mean_sq=25.0)
    stop, c_m = concentration_should_stop(acc, psi=0.0, N=10000, cfg=cfg,
                                          batches_seen=1, c_value=1.0)
    assert c_m == pytest.approx(0.32391, abs=1e-5)
    assert stop  # |5 - 0| > 0.32


def test_exhaustion_forces_stop_concentration():
    cfg = StopRuleConfig(rule="hoeffding", epsilon=0.01, c_bound=1.0)
    acc = LLRAccumulator(m=50, mean=0.0, mean_sq=0.0)
    stop, _ = concentration_should_stop(acc, psi=0.0, N=50, cfg=cfg,
                                        batches_seen=3, c_value=1.0)
    assert stop


def test_bernstein_beats_hoeffding_on_constant_data():
    # s = 0: bernstein c_m = 6 C log(3/delta)/m, below hoeffding for large m
    cfgH = StopRuleConfig(rule="hoeffding", epsilon=0.01, c_bound=1.0)
    cfgB = StopRuleConfig(rule="bernstein", epsilon=0.01, c_bound=1.0)
    N = 10**6
    crossed = False
    for m in (10, 100, 1000, 10000):
        acc = LLRAccumulator(m=m, mean=0.2, mean_sq=0.04)
        _, cH = concentration_should_stop(acc, 0.0, N, cfgH, 1, 1.0)
        _, cB = concentration_should_stop(acc, 0.0, N, cfgB, 1, 1.0)
        delta = (cfgB.p - 1) / (cfgB.p * m**cfgB.p) * cfgB.epsilon
        assert cB == pytest.approx(6.0 * math.log(3.0 / delta) / m)
        if cB < cH:
            crossed = True
    assert crossed


def test_hoeffding_monotone_decreasing_in_m():
    prev = math.inf
    N = 10**4
    for m in (10, 50, 100, 500, 1000, 5000, N - 1):
        c_m = 1.0 * math.sqrt(2.0 / m * (1.0 - (m - 1) / N) * math.log(2.0 / 0.01))
        assert c_m < prev
        prev = c_m


def test_c_bound_validation():
    cfg = StopRuleConfig(rule="hoeffding", epsilon=0.01)
    acc = LLRAccumulator(m=10, mean=0.0, mean_sq=0.0)
    with pytest.raises(ValueError):
        concentration_should_stop(acc, 0.0, 100, cfg, 1, c_value=0.0)


BAD_CONFIG = [("batch", 2.5), ("batch", np.float64(3.0)), ("batch", True), ("batch", 0),
              ("batch", -3), ("epsilon", 1.5), ("epsilon", math.nan), ("p", 1.0),
              ("p", math.nan), ("geometric", 0.5), ("geometric", math.nan)]


@pytest.mark.parametrize("name, value", BAD_CONFIG, ids=[f"{n}={v!r}" for n, v in BAD_CONFIG])
def test_config_rejects_a_bad_value_naming_it(name, value):
    with pytest.raises(ValueError, match=rf"{name}.*{re.escape(str(value))}"):
        StopRuleConfig(**{name: value})


def test_config_accepts_a_numpy_integer_batch():
    target = flat_prior_target(np.random.default_rng(26).standard_normal(200))
    runs = [run_adaptive_mh(target, gaussian_random_walk(0.3), np.zeros(1), 20,
                            StopRuleConfig(batch=b), KeyedRng(27)) for b in (5, np.int64(5))]
    assert np.array_equal(runs[0][0].draws, runs[1][0].draws)
    assert np.array_equal(runs[0][1], runs[1][1])


def test_config_validation():
    with pytest.raises(ValueError):
        StopRuleConfig(batch=0)
    with pytest.raises(ValueError):
        StopRuleConfig(epsilon=1.5)
    with pytest.raises(ValueError):
        StopRuleConfig(rule="magic")
    with pytest.raises(ValueError):
        StopRuleConfig(p=1.0)
    with pytest.raises(ValueError):
        StopRuleConfig(geometric=0.5)


# -- whole-step behaviour -----------------------------------------------------

def test_tiny_epsilon_recovers_exact_decisions():
    target = logistic_target(40, 6)
    prop = gaussian_random_walk(0.8)
    cfg = StopRuleConfig(batch=5, epsilon=1e-300, rule="ttest")
    buf, m_used, disagreements = run_adaptive_mh(target, prop, np.zeros(1), 300,
                                                 cfg, KeyedRng(7), compare_exact=True)
    assert disagreements == 0
    # residuals with spread: the rule stops only at exhaustion, unless the
    # proxy's remainder bound certifies the step, which then reads nothing
    assert np.all(np.isin(m_used, (0, 40)))


# Above 4 (10 + 1024), so an order drawn in blocks of 10 is drawn lazily.
LAZY_N = 6000


def record_reads(monkeypatch, target):
    """Wrap ``target.log_lik_terms``; returns the list of index arrays it reads."""
    read = []
    terms = target.log_lik_terms

    def recording(idx, th):
        read.append(np.array(idx))
        return terms(idx, th)

    monkeypatch.setattr(target, "log_lik_terms", recording)
    return read


def after_proposal(prop, theta0, seed, t):
    """Step t's generator of a run keyed ``KeyedRng(seed)``, past its proposal pair."""
    gen = KeyedRng(seed).derive("step", t)
    mh_propose(prop, theta0, gen)
    return gen


def test_step_reads_a_prefix_of_its_permutation(monkeypatch):
    N = 500
    target = first_order(logistic_target(N, 14, d=5))
    read = record_reads(monkeypatch, target)
    prop = gaussian_random_walk(0.1)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    theta0 = np.ones(5)
    _, m_used = run_adaptive_mh(target, prop, theta0, 1, cfg, KeyedRng(15))
    # llr_update reads each batch once, for theta' and theta together
    got = np.concatenate(read)
    perm = after_proposal(prop, theta0, 15, 0).permutation(N)
    assert len(read) > 1 and got.size == m_used[0] < N
    assert np.array_equal(got, perm[:got.size])
    assert np.unique(got).size == got.size


def test_step_batches_go_through_the_module_llr_update(monkeypatch):
    calls = []
    real = subsample.llr_update

    def counting(*args):
        out = real(*args)
        calls.append(out.m - args[0].m)
        return out

    monkeypatch.setattr(subsample, "llr_update", counting)
    target = first_order(logistic_target(300, 16))
    cfg = StopRuleConfig(batch=10, epsilon=1e-300, rule="ttest")
    _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.5), np.zeros(1), 1,
                                cfg, KeyedRng(17))
    assert calls[:5] == [10, 20, 40, 80, 150] and sum(calls) == m_used[0] == 300


@pytest.mark.parametrize("t", range(6))
def test_lazy_step_reads_a_distinct_prefix_of_its_lazy_order(monkeypatch, t):
    # the gradient kernel is not the recorded one, so only the ratios' reads
    # show; the proxy is first order, which certifies no step, so every step
    # reads its order
    target = first_order(logistic_target(LAZY_N, 20, d=5))
    read = record_reads(monkeypatch, target)
    prop = gaussian_random_walk(0.1)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    theta0 = np.ones(5)
    *_, m = subsample._subsampled_decision(target, prop, theta0, cfg,
                                           KeyedRng(21).derive("step", t),
                                           TaylorProxy(target, theta0))
    # llr_update reads each batch once, for theta' and theta together
    got = np.concatenate(read)
    assert got.size == m < LAZY_N
    assert np.unique(got).size == m
    order = _LazyPermutation(LAZY_N, 10, after_proposal(prop, theta0, 21, t))
    start = 0
    for batch in read:
        stop = start + len(batch)
        assert np.array_equal(batch, order.read(start, stop))
        start = stop


@pytest.mark.parametrize("rule", ["hoeffding", "bernstein"])
def test_lazy_step_draws_the_pilot_after_the_first_batch(monkeypatch, rule):
    target = first_order(logistic_target(LAZY_N, 20))
    read = record_reads(monkeypatch, target)
    prop = gaussian_random_walk(0.05)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule=rule)
    theta0 = np.array([0.3])
    _, (m,) = run_adaptive_mh(target, prop, theta0, 1, cfg, KeyedRng(22))
    gen = after_proposal(prop, theta0, 22, 0)
    order = _LazyPermutation(LAZY_N, 10, gen)
    first = order.read(0, 10)
    pilot = gen.choice(LAZY_N, subsample.PILOT_SIZE, replace=False)
    assert m > 10
    # one read per batch and one for the pilot, each for theta' and theta together
    assert np.array_equal(read[0], first)
    assert np.array_equal(read[1], pilot)
    rest = np.concatenate(read[2:])
    assert np.array_equal(rest, order.read(10, m))
    assert np.unique(np.concatenate([first, rest])).size == m


@pytest.mark.parametrize("rule", ["ttest", "hoeffding", "bernstein"])
def test_tiny_epsilon_recovers_exact_decisions_on_a_lazy_order(rule):
    # five coefficients, from near the mode: with one, the residuals are so
    # small next to |Lambda - psi| that even this epsilon settles many steps
    # within a few hundred terms; with the second-order proxy's residuals,
    # even five settle most steps within a few batches
    target = first_order(logistic_target(LAZY_N, 23, d=5))
    cfg = StopRuleConfig(batch=10, epsilon=1e-300, rule=rule)
    _, m_used, disagreements = run_adaptive_mh(target, gaussian_random_walk(0.05),
                                               np.ones(5), 30, cfg, KeyedRng(24),
                                               compare_exact=True)
    assert disagreements == 0
    assert np.mean(m_used) > LAZY_N / 2


def test_one_batch_step_at_a_million_data_allocates_under_2_mb():
    # equal data: every LLR is the same, so the t-test stops after the first batch
    target = flat_prior_target(np.ones(10**6))
    cfg = StopRuleConfig(batch=100, epsilon=0.05, rule="ttest")
    prop = gaussian_random_walk(0.5)
    tracemalloc.start()
    try:
        _, (m,) = run_adaptive_mh(target, prop, np.zeros(1), 1, cfg, KeyedRng(25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 100
    assert peak < 2_000_000


def test_first_batch_at_a_million_data_allocates_no_data_sized_mask():
    # nothing has been read before the first batch, so it is drawn without
    # the n-byte mask of the indices already read (1 MB here)
    target = flat_prior_target(np.ones(10**6))
    cfg = StopRuleConfig(batch=100, epsilon=0.05, rule="ttest")
    tracemalloc.start()
    try:
        _, (m,) = run_adaptive_mh(target, gaussian_random_walk(0.5), np.zeros(1), 1, cfg,
                                  KeyedRng(28))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 100
    assert peak < 100_000


def test_set_batches_are_uniform_subsets(monkeypatch):
    # every block lazy until the last at n = 6: the first batch of 2 is a
    # rejection draw, uniform over the 15 pairs; the second is the head of
    # the last block (the 4 left, shuffled), uniform over the 6 pairs of those 4
    monkeypatch.setattr(rng_module, "_EAGER_FACTOR", 0)
    n, seeds = 6, 6000
    pairs = list(itertools.combinations(range(n), 2))
    counts = {(a, b): 0 for a in pairs for b in pairs if not set(a) & set(b)}
    for seed in range(seeds):
        order = _LazyPermutation(n, 2, np.random.default_rng(seed))
        first = tuple(sorted(order.read(0, 2).tolist()))
        second = tuple(sorted(order.read(2, 4).tolist()))
        counts[first, second] += 1
    assert len(counts) == 15 * 6 and sum(counts.values()) == seeds
    assert stats.chisquare(list(counts.values())).pvalue > 1e-4


def test_a_read_inside_a_set_block_keeps_what_was_read(monkeypatch):
    # blocks 0..4, 4..12 and 12..28 are lazy, 28..50 eager; no later read,
    # from inside a block or across blocks, changes what an earlier one returned
    monkeypatch.setattr(rng_module, "_EAGER_FACTOR", 0)
    order = _LazyPermutation(50, 4, np.random.default_rng(29))
    first_view = order.read(0, 4)  # a view of the first block
    first, second = first_view.copy(), order.read(4, 12).copy()
    assert np.unique(np.concatenate([first, second])).size == 12
    head = order.read(0, 6).copy()  # ends inside the block 4..12
    assert np.array_equal(head, np.concatenate([first, second[:2]]))
    mid = order.read(2, 9).copy()  # starts inside the block 0..4
    assert np.array_equal(mid, np.concatenate([first[2:], second[:5]]))
    assert np.array_equal(order.read(2, 9), mid) and np.array_equal(order.read(0, 6), head)
    whole = order.read(0, 50)
    assert np.array_equal(whole[:12], np.concatenate([first, second]))
    assert np.array_equal(np.sort(whole), np.arange(50))
    assert np.array_equal(first_view, first) and np.array_equal(order.read(4, 12), second)


def test_a_read_from_inside_a_set_block_is_a_uniform_subset(monkeypatch):
    # read(1, 2) starts and ends inside the first block, a rejection draw
    # whose rounds come out sorted: without the block's shuffle it would
    # mostly return the larger index
    monkeypatch.setattr(rng_module, "_EAGER_FACTOR", 0)
    got = [_LazyPermutation(6, 2, np.random.default_rng(s)).read(1, 2)[0]
           for s in range(3000)]
    counts = np.bincount(got, minlength=6)
    assert stats.chisquare(counts).pvalue > 1e-4


def test_pilot_c_bound_positive_and_scaled():
    rng = np.random.default_rng(8)
    target = flat_prior_target(rng.standard_normal(2000))
    c = pilot_c_bound(target, np.zeros(1), np.ones(1), np.random.default_rng(0))
    ell = np.abs(target.log_lik_terms(np.arange(2000), np.ones(1))
                 - target.log_lik_terms(np.arange(2000), np.zeros(1)))
    assert c > 0.9 * np.max(ell)  # pilot of 1000 with x1.5 slack nearly always covers


def test_adaptive_step_reports_data_usage():
    rng = np.random.default_rng(9)
    target = flat_prior_target(rng.standard_normal(100))
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    *_, m = subsample._subsampled_decision(target, gaussian_random_walk(0.5), np.zeros(1),
                                           cfg, np.random.default_rng(1),
                                           TaylorProxy(target, np.zeros(1)))
    assert 10 <= m <= 100


@pytest.mark.parametrize("rule", ["ttest", "hoeffding", "bernstein"])
def test_run_adaptive_mh_is_steps_on_keyed_streams(rule):
    target = logistic_target(300, 13)
    cfg = StopRuleConfig(batch=20, epsilon=0.05, rule=rule)
    prop = gaussian_random_walk(0.3)
    buf, m_used = run_adaptive_mh(target, prop, np.zeros(1), 40, cfg, KeyedRng(14))
    proxy = TaylorProxy(target, np.zeros(1))  # the run's centre is its start
    theta = np.zeros(1)
    for t in range(40):
        theta_new, _, accept, m = subsample._subsampled_decision(
            target, prop, theta, cfg, KeyedRng(14).derive("step", t), proxy)
        theta = theta_new if accept else theta
        assert np.array_equal(buf.draws[t], theta)
        assert accept == buf.accept_flags[t] and m == m_used[t]


def test_tail_proposals_use_less_data_than_mode_proposals():
    # far-out proposals decide early; near-mode proposals read more data.
    # Each chain's proxy is centred at its start, and on this target a first
    # batch of 50 first-order residuals decides almost every step anywhere,
    # so the batch is 10; a first batch of second-order ones decides nearly
    # every step at either start
    target = first_order(logistic_target(5000, 10, d=5))
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    prop = gaussian_random_walk(0.05)

    def usage(theta0, T=60, seed=0):
        _, m_used = run_adaptive_mh(target, prop, np.full(5, theta0), T, cfg,
                                    KeyedRng(seed))
        return np.median(m_used)

    m_tail = usage(4.0)   # chain out in the tail: |Lambda - psi| large
    m_mode = usage(1.0)   # chain near the mode, the coefficients the labels were drawn at
    assert m_tail < m_mode


def test_disagreement_rate_bounded_with_true_c():
    # Hoeffding with a true per-pair C: disagreement rate <= epsilon
    rng = np.random.default_rng(11)
    xs = rng.standard_normal(500)
    target = flat_prior_target(xs)

    def true_c(th, thp):
        ell = np.abs(target.log_lik_terms(np.arange(500), np.asarray(thp, float))
                     - target.log_lik_terms(np.arange(500), np.asarray(th, float)))
        return float(np.max(ell)) + 1e-12

    cfg = StopRuleConfig(batch=50, epsilon=0.05, rule="hoeffding", c_bound=true_c)
    _, m_used, disagreements = run_adaptive_mh(target, gaussian_random_walk(0.3),
                                               np.zeros(1), 2000, cfg, KeyedRng(12),
                                               compare_exact=True)
    # binomial 99% upper bound on the per-step disagreement probability
    from scipy.stats import beta as beta_dist

    upper = beta_dist.ppf(0.99, disagreements + 1, 2000 - disagreements)
    assert upper <= 0.05
    assert np.mean(m_used) < 500


@pytest.mark.parametrize("rule", ["hoeffding", "bernstein"])
def test_disagreement_rate_bounded_with_the_true_residual_range(rule):
    # the rules average residuals, so a true C bounds their range max |r_n|;
    # here the residuals vary, unlike on flat_prior_target
    N = 2000
    target = logistic_target(N, 11, d=5)
    theta0 = np.ones(5)
    residual = TaylorProxy(target, theta0).target  # the run's centre is its start

    def true_c(th, thp):
        r = llr_terms(residual, residual.all_indices(), th, thp)
        return float(np.max(np.abs(r))) + 1e-12

    cfg = StopRuleConfig(batch=50, epsilon=0.05, rule=rule, c_bound=true_c)
    _, m_used, disagreements = run_adaptive_mh(target, gaussian_random_walk(0.3), theta0,
                                               2000, cfg, KeyedRng(12), compare_exact=True)
    # binomial 99% upper bound on the per-step disagreement probability
    upper = stats.beta.ppf(0.99, disagreements + 1, 2000 - disagreements)
    assert upper <= 0.05
    assert np.mean(m_used) < N


def test_empty_target_rejected_before_any_draw(monkeypatch):
    target = FactoredTarget(dim=1, n_data=0, log_prior=lambda th: 0.0)
    derived = []
    real = KeyedRng.derive

    def recording(self, *key):
        derived.append(key)
        return real(self, *key)

    monkeypatch.setattr(KeyedRng, "derive", recording)
    with pytest.raises(ValueError, match="n_data=0"):
        run_adaptive_mh(target, gaussian_random_walk(0.5), np.zeros(1), 5, StopRuleConfig(),
                        KeyedRng(1))
    assert derived == []


# -- the Taylor proxy -----------------------------------------------------------

def test_gaussian_residuals_decide_at_the_first_batch_as_exact_mh_does():
    # a Gaussian mean model's terms are quadratic, so the second-order proxy
    # is exact: r_n = 0 up to rounding for every n, the t-test sees no
    # spread and the first batch decides
    xs = np.random.default_rng(34).normal(0.5, 1.0, 1000)
    target = gaussian_iid_target(xs)
    theta0 = np.array([0.3])
    th, thp = np.array([0.45]), np.array([0.62])
    r = llr_terms(TaylorProxy(target, theta0).target, target.all_indices(), th, thp)
    assert np.all(np.abs(r) <= 1e-14)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    buf, m_used, disagreements = run_adaptive_mh(target, gaussian_random_walk(0.1), theta0,
                                                 200, cfg, KeyedRng(35), compare_exact=True)
    assert disagreements == 0
    # the rule's first batch, or no read where R = 0 certifies the step
    assert np.all(np.isin(m_used, (0, 10)))
    assert 0.0 < buf.acceptance_rate < 1.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9000))
def test_residuals_plus_the_proxy_sum_are_the_full_data_ratio(data, n):
    # n up to 9000 spans one to three blocks of the one-time gradient pass
    target = logistic_target(n, data.draw(st.integers(0, 2**32 - 1)), d=2)
    near = st.floats(-3.0, 3.0)
    far = st.floats(-50.0, 50.0)  # centres far from theta make large residuals
    theta = np.array(data.draw(st.lists(near, min_size=2, max_size=2)))
    theta_new = np.array(data.draw(st.lists(near, min_size=2, max_size=2)))
    centre = np.array(data.draw(st.lists(far, min_size=2, max_size=2)))
    proxy = TaylorProxy(target, centre)
    idx = target.all_indices()
    ell = llr_terms(target, idx, theta, theta_new)
    r = llr_terms(proxy.target, idx, theta, theta_new)
    # a residual is a difference of the residual target's terms at theta'
    # and theta, l_n - q_n, so it rounds at the size of l_n and of q_n's
    # first- and second-order parts (the latter at most |q_n| plus the former)
    grads = target.grad_log_lik_terms(idx, centre)
    pair = np.array([theta_new, theta])
    terms = target.log_lik_terms(idx, pair)
    first = np.abs((pair - centre) @ grads.T).sum()
    model = np.abs(target.taylor_log_lik_terms(idx, centre, pair)).sum()
    scale = float(np.abs(terms).sum() + 2.0 * first + model)
    total = float(r.sum()) + proxy.llr_sum(theta, theta_new)
    # tiny: a sum of subnormals can be off by one subnormal step
    assert abs(total - float(ell.sum())) <= 1e-12 * scale + np.finfo(float).tiny


def test_a_run_reads_the_gradients_at_its_start_once_in_blocks(monkeypatch):
    n = 10_000  # blocks of 4096, 4096 and 1808 terms
    target = first_order(logistic_target(n, 36))
    calls = []
    grad = target.grad_log_lik_terms

    def counting(idx, th):
        calls.append((idx, np.array(th)))
        return grad(idx, th)

    monkeypatch.setattr(target, "grad_log_lik_terms", counting)
    theta0 = np.array([0.8])
    cfg = StopRuleConfig(batch=20, epsilon=0.05, rule="ttest")
    m_total = 0
    for seed in (37, 38):
        _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.3), theta0, 30, cfg,
                                    KeyedRng(seed))
        m_total += int(m_used.sum())
    # one set-up pass for both runs, which share its proxy: unit-step
    # ranges, in order, that cover the data once
    setup = list(itertools.takewhile(lambda call: isinstance(call[0], range), calls))
    assert len(setup) > 1 and all(len(idx) < n for idx, _ in setup)
    assert np.array_equal(np.concatenate([np.asarray(idx) for idx, _ in setup]),
                          np.arange(n))
    # then one call per batch of either run, at the same indices the ratios read
    batches = calls[len(setup):]
    assert not any(isinstance(idx, range) for idx, _ in batches)
    assert sum(len(idx) for idx, _ in batches) == m_total < 60 * n
    assert all(np.array_equal(th, theta0) for _, th in calls)


def test_a_run_reads_the_taylor_kernel_at_its_start_once_in_blocks(monkeypatch):
    n = 10_000  # blocks of 4096, 4096 and 1808 terms
    target = logistic_target(n, 36)
    calls = []
    taylor = target.taylor_log_lik_terms

    def counting(idx, c, th=None):
        calls.append((idx, np.array(c), None if th is None else np.shape(th)))
        return taylor(idx, c) if th is None else taylor(idx, c, th)

    monkeypatch.setattr(target, "taylor_log_lik_terms", counting)
    monkeypatch.setattr(target, "grad_log_lik_terms", None)  # never read
    reads = record_reads(monkeypatch, target)
    theta0 = np.array([0.8])
    cfg = StopRuleConfig(batch=20, epsilon=0.05, rule="ttest")
    _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.3), theta0, 30, cfg,
                                KeyedRng(37))
    # the set-up pass: unit-step ranges, in order, that cover the data once,
    # each asking for the sums
    setup = list(itertools.takewhile(lambda call: isinstance(call[0], range), calls))
    assert len(setup) == 3 and all(shape is None for *_, shape in setup)
    assert np.array_equal(np.concatenate([np.asarray(idx) for idx, *_ in setup]),
                          np.arange(n))
    # then one call per batch, on the stacked pair, at the indices the ratios read
    batches = calls[len(setup):]
    assert [len(idx) for idx, *_ in batches] == [len(idx) for idx in reads]
    assert all(np.array_equal(a, b) for (a, *_), b in zip(batches, reads))
    assert all(shape == (2, 1) for *_, shape in batches)
    assert sum(len(idx) for idx in reads) == m_used.sum() < 30 * n
    assert all(np.array_equal(c, theta0) for _, c, _ in calls)


def test_a_residual_batch_reads_its_rows_once_through_log_lik_terms(monkeypatch):
    # from a start in the tail the chain drifts away from its centre, so
    # some steps read several batches of the second-order residuals
    target = logistic_target(5000, 10, d=5)
    reads = record_reads(monkeypatch, target)
    cfg = StopRuleConfig(batch=2, epsilon=0.05, rule="ttest")
    _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.05), np.full(5, 4.0), 60,
                                cfg, KeyedRng(1))
    assert m_used.max() > 8 * cfg.batch  # several batches
    assert all(r.shape == (len(np.unique(r)),) for r in reads)
    assert sum(len(r) for r in reads) == m_used.sum()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_taylor_kernel_curvature_matches_differenced_gradients(data):
    # per datum, (theta - c)^T H_n (theta - c) from the kernel's model at
    # c + v and c - v against central differences of grad_log_lik_terms
    # along v; and the sums against the per-datum kernels
    seed = data.draw(st.integers(0, 2**32 - 1))
    d = data.draw(st.integers(1, 4))
    target = logistic_target(50, seed, d=d)
    coord = st.floats(-3.0, 3.0)
    c = np.array(data.draw(st.lists(coord, min_size=d, max_size=d)))
    v = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    idx = np.arange(50)
    steps = target.taylor_log_lik_terms(idx, c, np.array([c + v, c - v]))
    grad_sum, hess_sum, _ = target.taylor_log_lik_terms(idx, c)
    curv = steps[0] + steps[1]      # v^T H_n v: the odd first-order parts cancel
    slope = 0.5 * (steps[0] - steps[1])  # g_n . v
    h = 1e-5
    fd = (target.grad_log_lik_terms(idx, c + h * v)
          - target.grad_log_lik_terms(idx, c - h * v)) @ v / (2.0 * h)
    assert curv == pytest.approx(fd, abs=1e-6)
    assert np.all(curv <= 1e-12)    # log sigma is concave
    grads = target.grad_log_lik_terms(idx, c)
    assert slope == pytest.approx(grads @ v, rel=1e-9, abs=1e-12)
    assert grad_sum == pytest.approx(grads.sum(axis=0), rel=1e-9, abs=1e-12)
    assert float(v @ hess_sum @ v) == pytest.approx(float(curv.sum()), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("rule", ["hoeffding", "bernstein"])
def test_gaussian_concentration_rules_stop_at_their_first_batch(rule):
    # the second-order proxy is exact on gaussian_iid_target, so the rules
    # see residuals of 0, and with a C that bounds them decide on their
    # first batch as exact MH does (the t-test's case is
    # test_gaussian_residuals_decide_at_the_first_batch_as_exact_mh_does)
    xs = np.random.default_rng(40).normal(0.5, 1.0, 5000)
    target = gaussian_iid_target(xs)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule=rule, c_bound=1e-12)
    buf, m_used, disagreements = run_adaptive_mh(target, gaussian_random_walk(0.02),
                                                 np.array([0.4]), 300, cfg, KeyedRng(41),
                                                 compare_exact=True)
    assert disagreements == 0
    # the rule's first batch, or no read where R = 0 certifies the step
    assert np.all(np.isin(m_used, (0, 10)))
    assert 0.1 < buf.acceptance_rate < 0.9


def test_the_proxy_pass_at_a_million_data_allocates_no_data_sized_array():
    # an N-sized float array would be 8 MB; a pass block's scratch is O(block d)
    rng = np.random.default_rng(42)
    n = 10**6
    target = logistic_regression_target(rng.standard_normal((n, 2)),
                                        np.where(rng.random(n) < 0.5, 1.0, -1.0))
    tracemalloc.start()
    try:
        proxy = TaylorProxy(target, np.array([0.3, -0.2]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.linalg.eigvalsh(proxy.hess_sum) < 0.0)  # log sigma is concave
    assert peak < 1_000_000


# -- the proxy built once per (target, centre) ---------------------------------

def count_passes(target):
    """Wrap ``target.taylor_log_lik_terms``; returns the list of centres of
    the passes it serves (a pass starts with a sums call at index 0)."""
    passes = []
    taylor = target.taylor_log_lik_terms

    def counting(idx, c, th=None):
        if th is None:
            if isinstance(idx, range) and idx.start == 0:
                passes.append(np.array(c))
            return taylor(idx, c)
        return taylor(idx, c, th)

    target.taylor_log_lik_terms = counting
    return passes


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 9000))
def test_a_cached_proxy_equals_a_fresh_one_bit_for_bit(data, n):
    # centres drawn from two, so the cache both hits and misses
    target = logistic_target(n, data.draw(st.integers(0, 2**32 - 1)), d=2)
    pair = st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2)
    centres = [np.array(data.draw(pair)) for _ in range(2)]
    for _ in range(data.draw(st.integers(1, 4))):
        centre = centres[data.draw(st.integers(0, 1))]
        cached, fresh = taylor_proxy(target, centre), TaylorProxy(target, centre)
        assert cached.centre.tobytes() == fresh.centre.tobytes()
        assert cached.grad_sum.tobytes() == fresh.grad_sum.tobytes()
        assert cached.hess_sum.tobytes() == fresh.hess_sum.tobytes()
        assert cached.rem_sum.tobytes() == fresh.rem_sum.tobytes()
        theta, theta_new = np.array(data.draw(pair)), np.array(data.draw(pair))
        assert cached.llr_sum(theta, theta_new) == fresh.llr_sum(theta, theta_new)
        idx = np.random.default_rng(n).choice(n, size=min(n, 50), replace=False)
        assert (llr_terms(cached.target, idx, theta, theta_new).tobytes()
                == llr_terms(fresh.target, idx, theta, theta_new).tobytes())


@pytest.mark.parametrize("change", ["centre", "log_lik_terms", "grad_log_lik_terms",
                                    "taylor_log_lik_terms", "replace", "copy"])
def test_a_new_centre_kernel_or_target_makes_exactly_one_new_pass(change):
    target = logistic_target(5000, 43, d=2)
    passes = count_passes(target)
    centre = np.array([0.4, -0.1])
    first = taylor_proxy(target, centre)
    assert taylor_proxy(target, centre.copy()) is first and len(passes) == 1
    if change == "centre":
        centre = np.nextafter(centre, 1.0)  # one ulp is a new centre
    elif change == "replace":
        target = replace(target)
    elif change == "copy":
        # the copied slot's residual closure reads the original's kernels
        target = copy.copy(target)
    else:
        kernel = getattr(target, change)
        setattr(target, change, lambda *args: kernel(*args))
    second = taylor_proxy(target, centre)
    assert second is not first and len(passes) == 2
    assert taylor_proxy(target, centre) is second and len(passes) == 2
    assert second.centre.tobytes() == centre.tobytes()


def test_a_second_run_from_the_same_start_makes_no_pass():
    target = logistic_target(5000, 44, d=2)
    passes = count_passes(target)
    prop, theta0 = gaussian_random_walk(0.05), np.array([0.9, 1.1])
    cfg = StopRuleConfig(batch=20, epsilon=0.05, rule="ttest")
    first = run_adaptive_mh(target, prop, theta0, 20, cfg, KeyedRng(45))
    assert len(passes) == 1
    again = run_adaptive_mh(target, prop, theta0.copy(), 20, cfg, KeyedRng(45))
    assert len(passes) == 1
    # the shared proxy gives the chain a fresh target's proxy gives
    fresh = run_adaptive_mh(logistic_target(5000, 44, d=2), prop, theta0, 20, cfg,
                            KeyedRng(45))
    for run in (first, again):
        assert run[0].draws.tobytes() == fresh[0].draws.tobytes()
        assert np.array_equal(run[1], fresh[1])
    run_adaptive_mh(target, prop, theta0 + 0.01, 5, cfg, KeyedRng(46))
    assert len(passes) == 2  # a new start is a new centre


def test_a_target_holding_a_cached_proxy_is_collected():
    # the slot makes a cycle target -> proxy -> residual closure -> target
    target = logistic_target(100, 47)
    taylor_proxy(target, np.zeros(1))
    ref = weakref.ref(target)
    del target
    gc.collect()
    assert ref() is None


# -- the certified decision -------------------------------------------------------

# K = sup |f'''| / 6 for f = log sigma
LOG_SIGMOID_K = 1.0 / (36.0 * math.sqrt(3.0))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), n=st.integers(1, 300))
def test_the_remainder_bound_holds_per_datum_and_in_sum(data, d, n):
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = gen.standard_normal((n, d)) * data.draw(st.floats(0.1, 5.0))
    y = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    target = logistic_regression_target(X, y)

    def vector(bound):
        return np.array(data.draw(st.lists(st.floats(-bound, bound), min_size=d, max_size=d)))

    # each of theta and theta' near the centre or far from it, where the
    # remainder is large
    centre = vector(3.0)
    theta, theta_new = (centre + vector(data.draw(st.sampled_from([1e-3, 0.1, 1.0, 10.0])))
                        for _ in range(2))
    proxy = TaylorProxy(target, centre)
    idx = target.all_indices()
    r = llr_terms(proxy.target, idx, theta, theta_new)
    A = X * y[:, None]  # rows a_n = y_n x_n
    per_datum = LOG_SIGMOID_K * (np.abs(A @ (theta_new - centre)) ** 3
                                 + np.abs(A @ (theta - centre)) ** 3)
    # a residual rounds at the size of l_n and of q_n, not of r_n
    pair = np.array([theta_new, theta])
    slack = 1e-12 * (np.abs(target.log_lik_terms(idx, pair)).sum(axis=0)
                     + np.abs(target.taylor_log_lik_terms(idx, centre, pair)).sum(axis=0))
    tiny = np.finfo(float).tiny
    assert np.all(np.abs(r) <= per_datum + slack + tiny)
    bound = proxy.remainder_bound(theta, theta_new)
    assert per_datum.sum() <= bound * (1.0 + 1e-12) + tiny
    assert abs(float(r.sum())) <= bound + slack.sum() + tiny
    # the kernel's third sum against a direct per-datum sum
    direct = sum(LOG_SIGMOID_K * np.linalg.norm(a) * np.outer(a, a) for a in A)
    rem = target.taylor_log_lik_terms(np.arange(n), centre)[2]
    assert rem == pytest.approx(direct, rel=1e-12, abs=1e-300)
    assert proxy.rem_sum == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_the_gaussian_models_remainder_sum_is_zero():
    # its terms are exactly quadratic, so the proxy has no remainder
    target = gaussian_iid_target(np.random.default_rng(48).normal(0.5, 1.0, 5000))
    centre = np.array([0.3])
    rem = target.taylor_log_lik_terms(target.all_indices(), centre)[2]
    assert rem.shape == (1, 1) and not rem.any()
    proxy = TaylorProxy(target, centre)
    assert not proxy.rem_sum.any()
    assert proxy.remainder_bound(np.array([-20.0]), np.array([40.0])) == 0.0


def record_taylor(monkeypatch, target):
    """Wrap ``target.taylor_log_lik_terms``; returns the list of (indices,
    theta) of its calls, theta None for a sums call."""
    calls = []
    taylor = target.taylor_log_lik_terms

    def recording(idx, c, th=None):
        calls.append((idx, th))
        return taylor(idx, c) if th is None else taylor(idx, c, th)

    monkeypatch.setattr(target, "taylor_log_lik_terms", recording)
    return calls


def test_a_gaussian_run_reads_no_data_after_the_pass_and_is_exact_mh(monkeypatch):
    # R = 0, so every step is certified: no likelihood row is read, the
    # Taylor kernel serves only the pass, and the chain is exact MH's
    xs = np.random.default_rng(49).normal(0.5, 1.0, 10_000)
    target = gaussian_iid_target(xs)
    reads, taylor = record_reads(monkeypatch, target), record_taylor(monkeypatch, target)
    prop, theta0 = gaussian_random_walk(0.02), np.array([0.4])
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    buf, m_used = run_adaptive_mh(target, prop, theta0, 300, cfg, KeyedRng(50))
    assert reads == [] and np.all(m_used == 0)
    assert all(isinstance(idx, range) and th is None for idx, th in taylor)
    assert sum(len(idx) for idx, _ in taylor) == len(xs)
    exact = run_mh(gaussian_iid_target(xs), prop, theta0, 300, KeyedRng(50))
    assert buf.draws.tobytes() == exact.draws.tobytes()
    assert np.array_equal(buf.accept_flags, exact.accept_flags)
    assert 0.1 < buf.acceptance_rate < 0.9


def test_a_step_that_reads_nothing_takes_the_exact_decision(monkeypatch):
    # replayed step by step on the run's keyed streams: a step with
    # m_used == 0 reads no row and decides as all the data do, at its psi
    n, T = 2000, 80
    target = logistic_target(n, 51, d=3)
    plain = logistic_target(n, 51, d=3)  # the same data, never recorded
    prop, theta0 = gaussian_random_walk(0.08), np.ones(3)
    cfg = StopRuleConfig(batch=20, epsilon=0.05, rule="ttest")
    buf, m_used = run_adaptive_mh(target, prop, theta0, T, cfg, KeyedRng(52))
    proxy = taylor_proxy(target, theta0)  # the run's
    reads = record_reads(monkeypatch, target)
    theta = theta0
    for t in range(T):
        reads.clear()
        theta_new, psi, accept, m = subsample._subsampled_decision(
            target, prop, theta, cfg, KeyedRng(52).derive("step", t), proxy)
        assert accept == buf.accept_flags[t] and m == m_used[t]
        assert sum(len(r) for r in reads) == m
        if m == 0:
            lam = float(np.mean(llr_terms(plain, plain.all_indices(), theta, theta_new)))
            assert accept == (lam > psi)
        theta = theta_new if accept else theta
        assert np.array_equal(buf.draws[t], theta)
    assert 0 < np.sum(m_used == 0) < T


def test_a_first_order_proxy_certifies_no_step():
    target = first_order(logistic_target(2000, 53, d=2))
    proxy = TaylorProxy(target, np.zeros(2))
    assert proxy.rem_sum is None
    gen = np.random.default_rng(54)
    for _ in range(50):
        theta, theta_new = gen.normal(size=2), gen.normal(size=2)
        assert proxy.remainder_bound(theta, theta_new) == math.inf
        # a |gap| this far above any finite bound would settle the step
        assert proxy.certify(theta, theta_new, 10.0 * gen.normal())[0] is None
    _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.05), np.zeros(2), 30,
                                StopRuleConfig(batch=20), KeyedRng(55))
    assert np.all(m_used >= 20)


def test_a_gap_inside_the_margin_falls_back_to_the_rule(monkeypatch):
    # on the Gaussian model B = 0, so only the floating-point margin
    # separates a certified step from one the rule decides
    target = gaussian_iid_target(np.random.default_rng(56).normal(0.5, 1.0, 1000))
    n, theta0 = target.n_data, np.array([0.3])
    proxy = TaylorProxy(target, theta0)

    def threshold(frac, theta, theta_new):
        # the psi whose gap, N psi - llr_sum, is frac margins from 0
        lam = proxy.llr_sum(theta, theta_new)
        return (lam + frac * subsample.CERT_MARGIN * (abs(lam) + n)) / n

    theta, theta_new = np.array([0.45]), np.array([0.5])
    for frac, settled in ((0.5, None), (-0.5, None), (3.0, False), (-3.0, True)):
        assert proxy.certify(theta, theta_new, threshold(frac, theta, theta_new))[0] is settled
    monkeypatch.setattr(subsample, "mh_log_threshold",
                        lambda u, th, thn, *_: threshold(0.5, th, thn))
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    *_, m = subsample._subsampled_decision(target, gaussian_random_walk(0.1), theta0, cfg,
                                           np.random.default_rng(57), proxy)
    assert m >= cfg.batch
