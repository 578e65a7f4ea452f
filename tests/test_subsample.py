import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bigbayes import subsample
from bigbayes.mcmc import ChainState, gaussian_random_walk, mh_propose
from bigbayes.models import FactoredTarget, logistic_regression_target
from bigbayes.rng import KeyedRng, _LazyPermutation
from bigbayes.special import betainc_regularized, student_t_cdf, student_t_sf
from bigbayes.subsample import (
    LLRAccumulator,
    StopRuleConfig,
    adaptive_mh_step,
    concentration_should_stop,
    llr_update,
    mh_log_threshold,
    pilot_c_bound,
    run_adaptive_mh,
    ttest_should_stop,
)


def flat_prior_target(values):
    """1D target with per-datum terms -(x_n - theta)^2 / 2 and a flat prior."""
    xs = np.asarray(values, dtype=float)

    def terms(idx, th):
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2

    return FactoredTarget(dim=1, n_data=len(xs), log_prior=lambda th: 0.0,
                          log_lik_terms=terms)


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
    order = acc.order.drawn
    assert np.array_equal(np.sort(order), np.arange(n))
    ell = target.log_lik_terms(order, thp) - target.log_lik_terms(order, th)
    big = 1.0 + np.max(np.abs(ell))  # rounding error follows the terms, not their mean
    assert acc.m == n
    assert acc.mean == pytest.approx(np.mean(ell), abs=1e-12 * big)
    assert acc.mean_sq == pytest.approx(np.mean(ell**2), abs=1e-12 * big**2)


# -- t-test rule --------------------------------------------------------------

def test_zero_variance_stops_immediately():
    acc = LLRAccumulator(m=4, mean=0.5, mean_sq=0.25)
    stop, rho = ttest_should_stop(acc, psi=0.3, N=100, epsilon=0.01)
    assert stop and rho == 0.0


def test_zero_variance_on_threshold_continues():
    acc = LLRAccumulator(m=4, mean=0.3, mean_sq=0.09)
    stop, rho = ttest_should_stop(acc, psi=0.3, N=100, epsilon=0.01)
    assert not stop and rho == 0.5


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
    stop, rho = ttest_should_stop(acc, psi=0.3, N=N, epsilon=0.05)
    # oracle: independent statistics routine
    assert rho == pytest.approx(stats.t.sf(t, m - 1), abs=1e-10)
    assert rho == pytest.approx(0.0236, abs=2e-4)
    assert stop  # 0.0236 <= 0.05


def test_m_too_small_rejected():
    with pytest.raises(ValueError):
        ttest_should_stop(LLRAccumulator(m=1, mean=0.0, mean_sq=0.0), 0.0, 10, 0.1)


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
    rng = np.random.default_rng(6)
    xs = rng.standard_normal(40)
    target = flat_prior_target(xs)
    prop = gaussian_random_walk(0.8)
    cfg = StopRuleConfig(batch=5, epsilon=1e-300, rule="ttest")
    buf, m_used, disagreements = run_adaptive_mh(target, prop, np.zeros(1), 300,
                                                 cfg, KeyedRng(7), compare_exact=True)
    assert disagreements == 0
    assert np.all(m_used == 40)  # continuous data: stops only at exhaustion


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
    rng = np.random.default_rng(14)
    N = 500
    target = flat_prior_target(rng.standard_normal(N))
    read = record_reads(monkeypatch, target)
    prop = gaussian_random_walk(0.05)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    theta0 = np.array([0.3])
    _, m_used = run_adaptive_mh(target, prop, theta0, 1, cfg, KeyedRng(15))
    # llr_update reads each batch twice, at theta' and at theta
    assert all(np.array_equal(a, b) for a, b in zip(read[::2], read[1::2]))
    got = np.concatenate(read[::2])
    perm = after_proposal(prop, theta0, 15, 0).permutation(N)
    assert len(read) > 2 and got.size == m_used[0] < N
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
    target = flat_prior_target(np.random.default_rng(16).standard_normal(300))
    cfg = StopRuleConfig(batch=10, epsilon=1e-300, rule="ttest")
    _, m_used = run_adaptive_mh(target, gaussian_random_walk(0.5), np.zeros(1), 1,
                                cfg, KeyedRng(17))
    assert calls[:5] == [10, 20, 40, 80, 150] and sum(calls) == m_used[0] == 300


@pytest.mark.parametrize("t", range(6))
def test_lazy_step_reads_a_distinct_prefix_of_its_lazy_order(monkeypatch, t):
    target = flat_prior_target(np.random.default_rng(20).standard_normal(LAZY_N))
    read = record_reads(monkeypatch, target)
    prop = gaussian_random_walk(0.05)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule="ttest")
    theta0 = np.array([0.3])
    _, m = adaptive_mh_step(target, prop, ChainState(theta0), cfg,
                            KeyedRng(21).derive("step", t))
    # llr_update reads each batch twice, at theta' and at theta
    assert all(np.array_equal(a, b) for a, b in zip(read[::2], read[1::2]))
    got = np.concatenate(read[::2])
    assert got.size == m < LAZY_N
    assert np.unique(got).size == m
    order = _LazyPermutation(LAZY_N, 10, after_proposal(prop, theta0, 21, t))
    assert np.array_equal(got, order.draw_to(m)[:m])


@pytest.mark.parametrize("rule", ["hoeffding", "bernstein"])
def test_lazy_step_draws_the_pilot_after_the_first_batch(monkeypatch, rule):
    target = flat_prior_target(np.random.default_rng(20).standard_normal(LAZY_N))
    read = record_reads(monkeypatch, target)
    prop = gaussian_random_walk(0.05)
    cfg = StopRuleConfig(batch=10, epsilon=0.05, rule=rule)
    theta0 = np.array([0.3])
    _, m = adaptive_mh_step(target, prop, ChainState(theta0), cfg,
                            KeyedRng(22).derive("step", 0))
    gen = after_proposal(prop, theta0, 22, 0)
    order = _LazyPermutation(LAZY_N, 10, gen)
    first = order.draw_to(10)[:10]
    pilot = gen.choice(LAZY_N, subsample.PILOT_SIZE, replace=False)
    assert m > 10
    assert np.array_equal(read[0], first) and np.array_equal(read[1], first)
    assert np.array_equal(read[2], pilot) and np.array_equal(read[3], pilot)
    rest = np.concatenate(read[4::2])
    assert np.array_equal(rest, order.draw_to(m)[10:m])
    assert np.unique(np.concatenate([first, rest])).size == m


@pytest.mark.parametrize("rule", ["ttest", "hoeffding", "bernstein"])
def test_tiny_epsilon_recovers_exact_decisions_on_a_lazy_order(rule):
    target = flat_prior_target(np.random.default_rng(23).standard_normal(LAZY_N))
    cfg = StopRuleConfig(batch=10, epsilon=1e-300, rule=rule)
    _, m_used, disagreements = run_adaptive_mh(target, gaussian_random_walk(0.05),
                                               np.zeros(1), 30, cfg, KeyedRng(24),
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
        _, m = adaptive_mh_step(target, prop, ChainState(np.zeros(1)), cfg,
                                KeyedRng(25).derive("step", 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m == 100
    assert peak < 2_000_000


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
    state = ChainState(np.zeros(1))
    state, m = adaptive_mh_step(target, gaussian_random_walk(0.5), state, cfg,
                                np.random.default_rng(1))
    assert 10 <= m <= 100
    assert state.it == 1


@pytest.mark.parametrize("rule", ["ttest", "hoeffding", "bernstein"])
def test_run_adaptive_mh_is_steps_on_keyed_streams(rule):
    rng = np.random.default_rng(13)
    target = flat_prior_target(rng.standard_normal(300))
    cfg = StopRuleConfig(batch=20, epsilon=0.05, rule=rule)
    prop = gaussian_random_walk(0.3)
    buf, m_used = run_adaptive_mh(target, prop, np.zeros(1), 40, cfg, KeyedRng(14))
    state = ChainState(np.zeros(1))
    for t in range(40):
        state, m = adaptive_mh_step(target, prop, state, cfg, KeyedRng(14).derive("step", t))
        assert np.array_equal(buf.draws[t], state.theta)
        assert m == m_used[t]


def test_tail_proposals_use_less_data_than_mode_proposals():
    # far-out proposals decide early; near-mode proposals read more data
    rng = np.random.default_rng(10)
    xs = rng.standard_normal(5000)
    target = flat_prior_target(xs)
    cfg = StopRuleConfig(batch=50, epsilon=0.05, rule="ttest")
    prop = gaussian_random_walk(0.05)

    def usage(theta0, T=60, seed=0):
        _, m_used = run_adaptive_mh(target, prop, np.array([theta0]), T, cfg,
                                    KeyedRng(seed))
        return np.median(m_used)

    m_tail = usage(4.0)   # chain out in the tail: |Lambda - psi| large
    m_mode = usage(0.0)   # chain near the mode
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


def test_empty_target_rejected_before_any_draw():
    target = FactoredTarget(dim=1, n_data=0, log_prior=lambda th: 0.0)
    cfg = StopRuleConfig()
    prop = gaussian_random_walk(0.5)
    gen = np.random.default_rng(5)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match="n_data=0"):
        adaptive_mh_step(target, prop, ChainState(np.zeros(1)), cfg, gen)
    assert gen.bit_generator.state == before
    with pytest.raises(ValueError, match="n_data=0"):
        run_adaptive_mh(target, prop, np.zeros(1), 5, cfg, KeyedRng(1))
