import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from bigbayes.diagnostics import mcmc_se
from bigbayes.firefly import (
    BoundViolationError,
    FireflyState,
    _brightness_probs,
    check_coherence,
    flymc_log_joint,
    flymc_step,
    init_firefly,
    logistic_quadratic_bound,
    resample_brightness,
    run_flymc,
    scaled_gaussian_bound,
)
from bigbayes.mcmc import ProposalDist, gaussian_random_walk, run_mh
from bigbayes.models import (
    gaussian_iid_posterior,
    gaussian_iid_target,
    logistic_regression_target,
)
from bigbayes.rng import KeyedRng


def gaussian_setup(n=40, delta=0.1, seed=0, lik_var=1.0, prior_var=10.0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(1.0, math.sqrt(lik_var), n)
    target = gaussian_iid_target(xs, prior_var=prior_var, lik_var=lik_var)
    bound = scaled_gaussian_bound(xs, delta, lik_var=lik_var)
    return xs, target, bound


# -- bounds and brightness probabilities --------------------------------------

def test_tight_bound_gives_probability_zero():
    _, target, bound = gaussian_setup(delta=0.0)
    assert np.all(_brightness_probs(np.array([0, 3, 7]), np.array([0.4]), target, bound) == 0.0)


def test_scaled_bound_constant_probability():
    delta = 0.25
    _, target, bound = gaussian_setup(delta=delta)
    expected = 1.0 - math.exp(-delta)
    for theta in (np.array([-1.0]), np.array([0.7])):
        assert _brightness_probs(np.array([0, 5]), theta, target, bound) == pytest.approx(expected)


def test_logistic_bound_tight_at_reference():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 3))
    y = np.where(rng.random(30) < 0.5, -1.0, 1.0)
    theta_map = rng.standard_normal(3) * 0.5
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, theta_map)
    probs = _brightness_probs(np.arange(30), theta_map, target, bound)
    assert np.max(probs) < 1e-10


def test_logistic_bound_valid_on_grid():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((25, 2))
    y = np.where(rng.random(25) < 0.5, -1.0, 1.0)
    bound = logistic_quadratic_bound(X, y, np.array([0.3, -0.2]))
    target = logistic_regression_target(X, y)
    idx = np.arange(25)
    for _ in range(50):
        th = rng.standard_normal(2) * 2.0
        log_l = target.log_lik_terms(idx, th)
        log_b = bound.log_bound_batch(idx, th)
        assert np.all(log_b <= log_l + 1e-9)


def test_bound_violation_raises():
    xs, target, _ = gaussian_setup()
    from bigbayes.firefly import LikelihoodBound

    bad = LikelihoodBound(
        log_bound_batch=lambda idx, th: target.log_lik_terms(idx, th) + 1.0,
        dark_stat_sum=lambda idx: np.array([float(len(np.asarray(idx)))]),
        collapsed_log_product=lambda th, s: 0.0,
        max_log_gap=lambda th: math.inf,
    )
    with pytest.raises(BoundViolationError):
        _brightness_probs(np.array([0]), np.zeros(1), target, bad)


def test_collapsed_product_matches_direct_sum():
    _, target, bound = gaussian_setup(n=30, delta=0.2)
    rng = np.random.default_rng(3)
    for _ in range(5):
        th = rng.standard_normal(1)
        subset = rng.choice(30, size=12, replace=False)
        direct = float(np.sum(bound.log_bound_batch(subset, th)))
        stats = bound.dark_stat_sum(subset)
        assert bound.collapsed_log_product(th, stats) == pytest.approx(direct, abs=1e-10)


def test_logistic_collapsed_product_matches_direct_sum():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 2))
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    bound = logistic_quadratic_bound(X, y, np.zeros(2))
    th = np.array([0.4, -1.1])
    subset = rng.choice(20, size=9, replace=False)
    direct = float(np.sum(bound.log_bound_batch(subset, th)))
    stats = bound.dark_stat_sum(subset)
    assert bound.collapsed_log_product(th, stats) == pytest.approx(direct, abs=1e-10)


def _logistic_stat_rows(X, y, theta_ref):
    """Per-datum [c_n, a_n/2, lam_n a_n a_n^T] of the tangent bound at theta_ref."""
    rows = []
    for x_n, y_n in zip(X, y):
        a = y_n * x_n
        xi = abs(float(a @ theta_ref))
        lam = math.tanh(xi / 2.0) / (4.0 * xi) if xi > 1e-8 else 0.125
        c = -math.log1p(math.exp(-xi)) - xi / 2.0 + lam * xi**2
        rows.append(np.concatenate([[c], a / 2.0, (lam * np.outer(a, a)).ravel()]))
    return np.array(rows)


def _stat_sum_cases():
    rng = np.random.default_rng(30)
    n, d = 17, 3
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    xs = rng.normal(1.0, 2.0, n)
    theta_ref = 0.5 * rng.standard_normal(d)
    return {
        "logistic": (logistic_quadratic_bound(X, y, theta_ref),
                     _logistic_stat_rows(X, y, theta_ref), theta_ref),
        # every xi is 0 at the origin, so every lam takes its limit 1/8
        "logistic_at_zero": (logistic_quadratic_bound(X, y, np.zeros(d)),
                             _logistic_stat_rows(X, y, np.zeros(d)), theta_ref),
        "gaussian": (scaled_gaussian_bound(xs, 0.2, lik_var=1.5),
                     np.column_stack([np.ones(n), xs, xs**2]), np.array([0.4])),
    }


STAT_SUM_CASES = _stat_sum_cases()
_index_sets = st.one_of(
    st.lists(st.integers(0, 16), unique=True).map(lambda v: np.array(v, dtype=int)),
    st.tuples(st.integers(0, 17), st.integers(0, 17)).map(lambda ab: range(*ab)),
)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(STAT_SUM_CASES)), idx=_index_sets)
def test_dark_stat_sum_equals_summed_per_datum_rows(name, idx):
    bound, rows, theta = STAT_SUM_CASES[name]
    picked = rows[np.asarray(idx, dtype=int)]
    got = bound.dark_stat_sum(idx)
    assert got.shape == (rows.shape[1],)
    assert np.all(np.abs(got - picked.sum(axis=0)) <= 1e-12 * np.abs(picked).sum(axis=0))
    if len(picked) == 0:
        assert bound.collapsed_log_product(theta, got) == 0.0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), d=st.integers(1, 4),
       x_scale=st.floats(0.1, 3.0), ref_scale=st.sampled_from([0.0, 0.5, 2.0]),
       step=st.floats(0.0, 20.0))
def test_logistic_max_log_gap_bounds_every_gap(seed, n, d, x_scale, ref_scale, step):
    # ref_scale 0 puts every tangency at the origin, where lam = 1/8
    rng = np.random.default_rng(seed)
    X = x_scale * rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    theta_ref = ref_scale * rng.standard_normal(d)
    direction = rng.standard_normal(d)
    theta = theta_ref + step * direction / max(np.linalg.norm(direction), 1e-12)
    bound = logistic_quadratic_bound(X, y, theta_ref)
    idx = np.arange(n)
    log_b = bound.log_bound_batch(idx, theta)
    gaps = logistic_regression_target(X, y).log_lik_terms(idx, theta) - log_b
    assert np.max(gaps) <= bound.max_log_gap(theta) + 1e-9 * (1.0 + np.max(np.abs(log_b)))


@settings(max_examples=50, deadline=None)
@given(delta=st.floats(0.0, 10.0), theta=st.floats(-1e3, 1e3))
def test_scaled_gaussian_max_log_gap_is_delta(delta, theta):
    _, _, bound = gaussian_setup(n=5, delta=delta)
    assert bound.max_log_gap(np.array([theta])) == delta


@settings(max_examples=30, deadline=None)
@given(delta=st.floats(0.5, 5.0), understate=st.floats(0.2, 0.9), seed=st.integers(0, 2**16))
def test_understated_gap_raises_naming_the_datum(delta, understate, seed):
    # every candidate has p_n = 1 - exp(-delta) above the claimed bound; with
    # about N (1 - exp(-understate delta)) >= 45 candidates, some are read
    _, target, bound = gaussian_setup(n=500, delta=delta)
    bad = replace(bound, max_log_gap=lambda th: understate * delta)
    state = init_firefly(target, bad, np.zeros(1), np.random.default_rng(0), init="dark")
    with pytest.raises(BoundViolationError, match=r"datum \d+ has brightness probability"):
        resample_brightness(state, target, bad, 1.0, np.random.default_rng(seed))


# -- resampling ----------------------------------------------------------------

def test_tight_bound_resample_all_dark():
    _, target, bound = gaussian_setup(delta=0.0)
    state = init_firefly(target, bound, np.zeros(1), np.random.default_rng(0))
    state, _ = resample_brightness(state, target, bound, 1.0, np.random.default_rng(1))
    assert state.bright_count == 0


def test_scaled_bound_bright_fraction():
    delta = 0.3
    n = 400
    _, target, bound = gaussian_setup(n=n, delta=delta)
    p = 1.0 - math.exp(-delta)
    counts = []
    for seed in range(20):
        state = init_firefly(target, bound, np.zeros(1), np.random.default_rng(seed),
                             init="dark")
        state, _ = resample_brightness(state, target, bound, 1.0,
                                       np.random.default_rng(100 + seed))
        counts.append(state.bright_count)
    se = math.sqrt(n * p * (1 - p))
    assert abs(np.mean(counts) - n * p) < 3 * se / math.sqrt(len(counts))


def test_incremental_dark_stats_match_recompute():
    _, target, bound = gaussian_setup(n=60, delta=0.15)
    rng = np.random.default_rng(5)
    state = init_firefly(target, bound, np.array([0.2]), rng)
    state.log_joint_aug = flymc_log_joint(state, target, bound)
    for i in range(30):
        state, _ = resample_brightness(state, target, bound, 0.2, rng)
        assert check_coherence(state, target, bound)


def test_incremental_dark_stats_match_recompute_logistic():
    rng = np.random.default_rng(31)
    n, d = 200, 3
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, np.zeros(d))
    # away from the tangency point many points are bright, so indicators flip
    state = init_firefly(target, bound, np.full(d, 0.8), rng)
    state.log_joint_aug = flymc_log_joint(state, target, bound)
    flips = 0
    for _ in range(30):
        before = state.bright
        state, _ = resample_brightness(state, target, bound, 0.2, rng)
        flips += len(np.setxor1d(before, state.bright))
        assert check_coherence(state, target, bound)
    assert flips > 0


def test_resample_never_changes_indicators_in_place():
    # bright is never changed in place: a resample that flips nothing hands
    # on the same array, and one that flips makes a new one
    rng = np.random.default_rng(34)
    n, d = 200, 3
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, np.zeros(d))
    state = init_firefly(target, bound, np.full(d, 0.5), rng)
    kept = flipped = 0
    lit = None
    for _ in range(40):
        before, bright_before = state, state.bright.copy()
        state, _ = resample_brightness(state, target, bound, 0.05, rng)
        assert np.array_equal(before.bright, bright_before)
        assert check_coherence(state, target, bound)
        if np.array_equal(state.bright, bright_before):
            assert state.bright is before.bright
            kept += 1
        else:
            assert state.bright is not before.bright
            flipped += 1
        if state.bright.size:
            lit = state
    assert kept and flipped and lit is not None
    # well-formed but wrong: as many indices, all of them dark
    saved = lit.bright.copy()
    lit.bright[:] = np.delete(np.arange(n), saved)[:saved.size]
    with pytest.raises(AssertionError, match="dark statistic cache incoherent"):
        check_coherence(lit, target, bound)
    lit.bright[:] = saved
    lit.bright[-1] = n
    with pytest.raises(AssertionError, match="bright indices not sorted, distinct and in"):
        check_coherence(lit, target, bound)


def test_init_firefly_never_holds_per_datum_stat_rows():
    # per-datum statistic rows would take N (1 + d + d^2) 8 bytes; the
    # closed-form sum needs a few length-N vectors and one (N, d) product
    rng = np.random.default_rng(32)
    N, d = 20_000, 5
    X = rng.standard_normal((N, d))
    y = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    theta_ref = 0.3 * rng.standard_normal(d)
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, theta_ref)
    tracemalloc.start()
    try:
        state = init_firefly(target, bound, theta_ref + 0.05, np.random.default_rng(33),
                             init="sample")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < state.bright_count < N
    assert check_coherence(state, target, bound)
    limit = N * (1 + d + d * d) * 8 / 2
    assert peak < limit, f"peak {peak} bytes against {limit:.0f}"


def test_dark_init_at_a_million_data_allocates_under_1_mb():
    # the Gaussian bound's dark statistics read the data as a view: an
    # N-float temporary alone would be 8 MB
    xs, target, bound = gaussian_setup(n=10**6)
    tracemalloc.start()
    try:
        state = init_firefly(target, bound, np.zeros(1), np.random.default_rng(34), init="dark")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.bright_count == 0
    assert np.allclose(state.dark_stat_sum, [xs.size, xs.sum(), np.sum(xs**2)])
    assert peak < 1_000_000, f"peak {peak} bytes"


def test_rho_z_out_of_range():
    _, target, bound = gaussian_setup()
    state = init_firefly(target, bound, np.zeros(1), np.random.default_rng(0))
    with pytest.raises(ValueError):
        resample_brightness(state, target, bound, 0.0, np.random.default_rng(0))


def _subset_gibbs_law(z, p, k):
    """Exact law of z' when a uniform k-subset's indicators are redrawn from
    Bern(p) and the rest kept, as a dict from z' (a tuple) to probability."""
    subsets = list(itertools.combinations(range(len(z)), k))
    law = {}
    for subset in subsets:
        for bits in itertools.product((False, True), repeat=k):
            new = list(z)
            prob = 1.0 / len(subsets)
            for i, bit in zip(subset, bits):
                new[i] = bit
                prob *= p[i] if bit else 1.0 - p[i]
            law[tuple(new)] = law.get(tuple(new), 0.0) + prob
    return law


@pytest.mark.parametrize("gap", ["finite", "infinite"])
def test_thinned_resample_has_the_subset_gibbs_law(gap):
    rng = np.random.default_rng(40)
    n, rho_z = 5, 0.6
    X = rng.standard_normal((n, 2))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    theta_ref = np.array([0.3, -0.2])
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, theta_ref)
    theta = theta_ref + 2.0 * X[0] / np.linalg.norm(X[0])
    if gap == "infinite":
        bound = replace(bound, max_log_gap=lambda th: math.inf)
    else:
        # candidates are thinned, and each turns bright with p_n / pbar < 1
        assert 0.5 < -math.expm1(-bound.max_log_gap(theta)) < 0.9
    p = _brightness_probs(np.arange(n), theta, target, bound)
    assert max(p) > 0.2
    z = np.array([True, False, False, True, False])
    state = FireflyState(theta, np.flatnonzero(z), bound.dark_stat_sum(np.flatnonzero(~z)))
    law = _subset_gibbs_law(z.tolist(), p, math.ceil(rho_z * n))
    draws = 40_000
    gen = np.random.default_rng(41)
    counts = {}
    for _ in range(draws):
        new, _ = resample_brightness(state, target, bound, rho_z, gen)
        key = tuple(np.isin(np.arange(n), new.bright).tolist())
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(law)
    for key, prob in law.items():
        freq = counts.get(key, 0) / draws
        assert abs(freq - prob) <= 4 * math.sqrt(prob * (1 - prob) / draws), (key, freq, prob)


def test_resample_reads_and_allocates_little_at_a_million():
    # k = 1e4 of N = 1e6 are resampled, but with pbar = 1 - exp(-1e-4) about
    # one dark member is a candidate: the resample reads no k-sized index set,
    # and one that flips allocates O(bright), not an N-sized mask
    N = 1_000_000
    xs = np.random.default_rng(42).normal(1.0, 1.0, N)
    target = gaussian_iid_target(xs)
    bound = scaled_gaussian_bound(xs, 1e-4)
    read = [0]
    lik = target.log_lik_terms

    def counting(idx, th):
        read[0] += len(idx)
        return lik(idx, th)

    target.log_lik_terms = counting
    state = init_firefly(target, bound, np.array([1.0]), np.random.default_rng(0), init="dark")
    unflipped = flipped = 0
    for seed in range(8):
        read[0] = 0
        gen = np.random.default_rng(seed)
        tracemalloc.start()
        try:
            new, n_read = resample_brightness(state, target, bound, 0.01, gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read[0] == n_read < 50
        if new.bright is state.bright:
            unflipped += 1
        else:
            flipped += 1
        assert peak < 16 * 1024, f"peak {peak} bytes"
    assert unflipped and flipped


# -- augmented joint -----------------------------------------------------------

def test_all_dark_joint_uses_collapse_only():
    calls = {"n": 0}
    _, target, bound = gaussian_setup(n=25, delta=0.1)
    orig = target.log_lik_terms

    def counting(idx, th):
        calls["n"] += len(np.asarray(idx))
        return orig(idx, th)

    target.log_lik_terms = counting
    state = FireflyState(theta=np.array([0.3]), bright=np.zeros(0, np.intp),
                         dark_stat_sum=bound.dark_stat_sum(np.arange(25)))
    val = flymc_log_joint(state, target, bound)
    assert calls["n"] == 0
    expected = target.log_prior(state.theta) + bound.collapsed_log_product(
        state.theta, state.dark_stat_sum)
    assert val == pytest.approx(expected)


def test_all_bright_joint():
    _, target, bound = gaussian_setup(n=12, delta=0.4)
    th = np.array([0.1])
    state = FireflyState(theta=th, bright=np.arange(12), dark_stat_sum=np.zeros(3))
    idx = np.arange(12)
    log_l = target.log_lik_terms(idx, th)
    log_b = bound.log_bound_batch(idx, th)
    expected = target.log_prior(th) + np.sum(log_l + np.log(-np.expm1(log_b - log_l)))
    assert flymc_log_joint(state, target, bound) == pytest.approx(expected)


def test_z_marginalization_recovers_exact_joint():
    # summing the augmented joint over all 2^N configurations gives the
    # exact joint; N=8 brute force
    n = 8
    _, target, bound = gaussian_setup(n=n, delta=0.3)
    rng = np.random.default_rng(6)
    ratios = []
    for _ in range(5):
        th = rng.standard_normal(1)
        vals = []
        for mask in range(2**n):
            z = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
            state = FireflyState(theta=th, bright=np.flatnonzero(z),
                                 dark_stat_sum=bound.dark_stat_sum(np.flatnonzero(~z)))
            vals.append(flymc_log_joint(state, target, bound))
        ratios.append(logsumexp(vals) - target.log_joint(th))
    assert np.ptp(ratios) < 1e-8
    assert abs(ratios[0]) < 1e-8  # the augmentation telescopes exactly


# -- full chain ----------------------------------------------------------------

def test_tight_bound_reproduces_plain_mh_decisions():
    xs, target, bound = gaussian_setup(n=50, delta=0.0)
    prop = gaussian_random_walk(0.3)
    buf_fly, _ = run_flymc(target, bound, prop, np.zeros(1), 300, 0.1, KeyedRng(9))
    buf_mh = run_mh(target, prop, np.zeros(1), 300, KeyedRng(9))
    assert np.array_equal(buf_fly.accept_flags, buf_mh.accept_flags)
    assert np.allclose(buf_fly.draws, buf_mh.draws)


def test_tight_bound_reproduces_plain_mh_with_asymmetric_proposal():
    # the Hastings term enters the augmented move as it does plain MH
    _, target, bound = gaussian_setup(n=50, delta=0.0)

    def sample(theta, rng):
        return 0.7 * theta + 0.4 * rng.standard_normal(theta.shape)

    def log_density(new, old):
        return float(-0.5 * np.sum(((np.asarray(new) - 0.7 * np.asarray(old)) / 0.4) ** 2))

    prop = ProposalDist(sample=sample, log_density=log_density, is_symmetric=False)
    buf_fly, _ = run_flymc(target, bound, prop, np.zeros(1), 300, 0.1, KeyedRng(19))
    buf_mh = run_mh(target, prop, np.zeros(1), 300, KeyedRng(19))
    assert 0.0 < buf_mh.acceptance_rate < 1.0
    assert np.array_equal(buf_fly.accept_flags, buf_mh.accept_flags)
    assert np.allclose(buf_fly.draws, buf_mh.draws)


def test_cached_augmented_joint_is_only_an_optimisation(monkeypatch):
    # a chain that recomputes the augmented joint at every theta-move draws
    # exactly what the cached chain draws, on a target where indicators flip
    rng = np.random.default_rng(35)
    n, d = 200, 3
    X = rng.standard_normal((n, d))
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-X @ np.array([1.5, -1.0, 0.5]))),
                 1.0, -1.0)
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, np.zeros(d))  # tight far from the MAP
    prop = gaussian_random_walk(0.15)
    resample = resample_brightness
    flips = []

    def counting(state, *args):
        new, k = resample(state, *args)
        flips.append(new.bright is not state.bright)
        return new, k

    def uncached(state, *args):
        new, k = resample(state, *args)
        new.log_joint_aug = None
        return new, k

    monkeypatch.setattr("bigbayes.firefly.resample_brightness", counting)
    cached, _ = run_flymc(target, bound, prop, np.full(d, 0.8), 300, 0.1, KeyedRng(36))
    monkeypatch.setattr("bigbayes.firefly.resample_brightness", uncached)
    fresh, _ = run_flymc(target, bound, prop, np.full(d, 0.8), 300, 0.1, KeyedRng(36))
    assert np.mean(flips) >= 0.1
    assert 0.0 < cached.acceptance_rate < 1.0
    assert np.array_equal(cached.draws, fresh.draws)
    assert np.array_equal(cached.accept_flags, fresh.accept_flags)


def test_eval_counter_matches_bright_plus_resampled(monkeypatch):
    # a step's count is its bright points plus the likelihood terms its
    # resample evaluated, counted here by a wrapper on the target
    _, target, bound = gaussian_setup(n=100, delta=0.2)
    terms = [0]
    lik = target.log_lik_terms

    def counting_lik(idx, th):
        terms[0] += len(idx)
        return lik(idx, th)

    target.log_lik_terms = counting_lik
    resample = resample_brightness
    expected = []

    def counting_resample(state, *args):
        before = terms[0]
        new, n_read = resample(state, *args)
        expected.append(state.bright_count + terms[0] - before)
        return new, n_read

    monkeypatch.setattr("bigbayes.firefly.resample_brightness", counting_resample)
    buf, info = run_flymc(target, bound, gaussian_random_walk(0.2), np.zeros(1),
                          400, 0.1, KeyedRng(10))
    # the first resample is the init's, outside the chain's steps
    assert len(expected) == 401
    assert np.array_equal(info["likelihood_evals"], expected[1:])
    assert info["mean_evals_per_step"] == pytest.approx(np.mean(expected[1:]))
    assert info["mean_evals_per_step"] < info["bright_counts"].mean() + math.ceil(0.1 * 100)


def test_bright_count_scales_with_delta():
    means = []
    for delta in (0.05, 0.2):
        n = 300
        _, target, bound = gaussian_setup(n=n, delta=delta)
        _, info = run_flymc(target, bound, gaussian_random_walk(0.15), np.zeros(1),
                            500, 0.3, KeyedRng(11))
        means.append(info["bright_counts"][100:].mean() / n)
    assert means[0] < means[1]
    assert means[1] == pytest.approx(1 - math.exp(-0.2), abs=0.03)


def test_flymc_posterior_moments_match_oracle():
    # moderately long run; the acceptance suite runs the full-scale version
    lik_var = 1.0
    xs, target, bound = gaussian_setup(n=200, delta=0.1, seed=12,
                                       prior_var=10.0, lik_var=lik_var)
    mu, var = gaussian_iid_posterior(xs, prior_var=10.0, lik_var=lik_var)
    prop = gaussian_random_walk(2.4 * math.sqrt(var))
    buf, info = run_flymc(target, bound, prop, np.array([mu]), 40000, 0.1,
                          KeyedRng(13))
    half = buf.draws[20000:, 0]
    se_mean = mcmc_se(half)
    assert abs(half.mean() - mu) < 3 * se_mean
    sq = (half - half.mean()) ** 2
    se_var = mcmc_se(sq)
    assert abs(sq.mean() - var) < 3 * se_var + 0.05 * var


def test_coherence_after_random_interleaving():
    _, target, bound = gaussian_setup(n=80, delta=0.25)
    rng = np.random.default_rng(14)
    state = init_firefly(target, bound, np.zeros(1), rng)
    prop = gaussian_random_walk(0.2)
    key = KeyedRng(15)
    for t in range(60):
        if rng.random() < 0.5:
            state, _, _ = flymc_step(state, target, bound, prop, 0.15, key.derive("a", t))
        else:
            state, _ = resample_brightness(state, target, bound,
                                           float(rng.uniform(0.05, 1.0)), rng)
        assert check_coherence(state, target, bound)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
       delta=st.one_of(st.none(), st.floats(0.0, 3.0)), rho_z=st.floats(0.01, 1.0),
       steps=st.integers(1, 25))
def test_random_flymc_steps_stay_coherent(seed, n, delta, rho_z, steps):
    # delta None draws a logistic target with its tangent bound off the MAP
    rng = np.random.default_rng(seed)
    if delta is None:
        X = rng.standard_normal((n, 2))
        y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        target = logistic_regression_target(X, y)
        bound = logistic_quadratic_bound(X, y, 0.5 * rng.standard_normal(2))
        theta0 = rng.standard_normal(2)
    else:
        _, target, bound = gaussian_setup(n=n, delta=delta, seed=seed)
        theta0 = rng.standard_normal(1)
    prop = gaussian_random_walk(0.5)
    state = init_firefly(target, bound, theta0, rng)
    assert check_coherence(state, target, bound)
    for _ in range(steps):
        b = state.bright_count
        state, _, n_ev = flymc_step(state, target, bound, prop, rho_z, rng)
        assert check_coherence(state, target, bound)
        assert b <= n_ev <= b + math.ceil(rho_z * n)


def test_run_flymc_steps_are_flymc_step_on_the_step_streams():
    _, target, bound = gaussian_setup(n=80, delta=0.25)
    prop = gaussian_random_walk(0.3)
    key = KeyedRng(17)
    T = 40
    buf, info = run_flymc(target, bound, prop, np.zeros(1), T, 0.2, key)
    state = init_firefly(target, bound, np.zeros(1), key.derive("init"))
    flipped = False
    for t in range(T):
        before = state.bright
        state, accepted, n_ev = flymc_step(state, target, bound, prop, 0.2,
                                           key.derive("step", t))
        flipped |= state.bright is not before
        assert np.array_equal(state.theta, buf.draws[t])
        assert accepted == buf.accept_flags[t]
        assert n_ev == info["likelihood_evals"][t]
        assert state.bright_count == info["bright_counts"][t]
    assert flipped and 0.0 < buf.acceptance_rate < 1.0
    assert np.array_equal(state.bright, info["final_state"].bright)


def test_infinite_proposal_density_rejects_as_in_plain_mh():
    # a tight bound makes FlyMC's decisions MH's; +inf must reject in both
    xs, target, bound = gaussian_setup(n=50, delta=0.0)
    finite_prior = target.log_prior
    above = []

    def log_prior(th):
        if th[0] > 0.5:
            above.append(float(th[0]))
            return math.inf
        return finite_prior(th)

    target.log_prior = log_prior
    prop = gaussian_random_walk(0.3)
    buf_fly, _ = run_flymc(target, bound, prop, np.zeros(1), 300, 0.1, KeyedRng(9))
    buf_mh = run_mh(target, prop, np.zeros(1), 300, KeyedRng(9))
    assert above, "no proposal crossed 0.5"
    assert np.all(buf_fly.draws <= 0.5)
    assert np.array_equal(buf_fly.accept_flags, buf_mh.accept_flags)
    assert np.allclose(buf_fly.draws, buf_mh.draws)
