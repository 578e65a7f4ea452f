import hashlib
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bigbayes import rng as rng_module

from bigbayes.models import (
    gaussian_iid_posterior,
    gaussian_iid_target,
)
from bigbayes.rng import KeyedRng
from bigbayes.sgld import (
    MinibatchPlan,
    StepSchedule,
    run_sgld,
    sgld_step,
    stochastic_grad,
)


def small_target(seed=0, n=24):
    xs = np.random.default_rng(seed).normal(0.5, 1.0, n)
    return xs, gaussian_iid_target(xs, prior_var=4.0)


# -- schedule and plan ---------------------------------------------------------

def test_schedule_formula_and_floor():
    s = StepSchedule(alpha=1.0, beta=10.0, gamma=0.6, floor=0.0)
    assert s(0) == pytest.approx(10.0**-0.6)
    s2 = StepSchedule(alpha=1.0, beta=10.0, gamma=0.6, floor=0.05)
    assert s2(10**9) == 0.05


def test_schedule_validates_gamma():
    for g in (0.5, 0.3, 1.2):
        with pytest.raises(ValueError):
            StepSchedule(gamma=g)
    StepSchedule(gamma=1.0)  # boundary allowed


def test_schedule_square_summable_conditions():
    # symbolic check for the power family: sum eps = inf iff gamma <= 1,
    # sum eps^2 < inf iff gamma > 1/2; the valid range is (0.5, 1]
    s = StepSchedule(alpha=2.0, beta=5.0, gamma=0.75)
    ts = np.arange(1, 10**6)
    eps = s.alpha * (s.beta + ts) ** -s.gamma
    # partial sums grow without bound: compare t^(1-gamma) growth
    assert eps.sum() > 100
    assert (eps**2).sum() < (s.alpha**2) * (1.0 / (2 * s.gamma - 1) + 1.0)


def test_epoch_permutation_visits_each_index_once():
    plan = MinibatchPlan(n_data=17, batch_size=5, rng=KeyedRng(1).child("mb"))
    J = plan.batches_per_epoch
    assert J == 4
    for epoch in range(3):
        seen = np.concatenate([plan.indices(epoch * J + k) for k in range(J)])
        assert np.array_equal(np.sort(seen), np.arange(17))
    # histogram over E epochs is exactly E per index
    E = 5
    all_idx = np.concatenate([plan.indices(t) for t in range(E * J)])
    assert np.all(np.bincount(all_idx, minlength=17) == E)


def test_out_of_order_batches_match_a_fresh_plan():
    rng = KeyedRng(5).child("mb")
    plan = MinibatchPlan(n_data=17, batch_size=5, rng=rng)
    for t in (0, 9, 1, 13, 2, 3, 8, 0, 12, 4):  # epochs 0, 2, 0, 3, 0, 0, 2, 0, 3, 1
        got = plan.indices(t)
        assert np.array_equal(got, MinibatchPlan(17, 5, rng).indices(t))
        got[:] = -1  # a caller writing into its batch leaves the plan intact
    assert np.array_equal(plan.indices(4), MinibatchPlan(17, 5, rng).indices(4))
    assert plan == MinibatchPlan(17, 5, rng)
    assert hash(plan) == hash(MinibatchPlan(17, 5, rng))


@pytest.mark.parametrize("n, m, bad", [
    (10, 2.5, "batch_size must be an int, got 2.5 (float)"),
    (10.0, 2, "n_data must be an int, got 10.0 (float)"),
    (10, True, "batch_size must be an int, got True (bool)"),
    (0, 1, "n_data must be at least 1, got 0"),
    (10, 0, "batch_size must lie in 1..n_data = 10, got 0"),
    (10, 11, "batch_size must lie in 1..n_data = 10, got 11"),
])
def test_plan_checks_and_names_its_sizes(n, m, bad):
    error = TypeError if "an int" in bad else ValueError
    with pytest.raises(error, match=re.escape(bad)):
        MinibatchPlan(n, m, KeyedRng(1).child("mb"))


def test_small_plan_slices_the_eager_permutation():
    # below the lazy threshold the epoch stream is exactly permutation(N)
    rng = KeyedRng(8).child("mb")
    plan = MinibatchPlan(n_data=1000, batch_size=100, rng=rng)
    numpy_sized = MinibatchPlan(np.int64(1000), np.int64(100), rng)
    for t in (0, 9, 3, 10, 25):
        epoch, slot = divmod(t, 10)
        perm = rng.derive("epoch", epoch).permutation(1000)
        assert np.array_equal(plan.indices(t), perm[slot * 100:(slot + 1) * 100])
        assert np.array_equal(numpy_sized.indices(t), plan.indices(t))


# a plan this large draws its epochs lazily: 200 slots of 100
LAZY_N, LAZY_M = 20_000, 100


def test_lazy_epochs_partition_the_data():
    plan = MinibatchPlan(LAZY_N, LAZY_M, KeyedRng(16).child("mb"))
    J = plan.batches_per_epoch
    for epoch in range(3):
        seen = np.concatenate([plan.indices(epoch * J + k) for k in range(J)])
        assert np.array_equal(np.sort(seen), np.arange(LAZY_N))


def test_lazy_out_of_order_batches_match_a_fresh_plan():
    rng = KeyedRng(17).child("mb")
    plan = MinibatchPlan(LAZY_N, LAZY_M, rng)
    for t in (150, 3, 199, 0, 350, 201, 0, 599, 150):  # epochs 0, 0, 0, 0, 1, 1, 0, 2, 0
        got = plan.indices(t)
        assert np.array_equal(got, MinibatchPlan(LAZY_N, LAZY_M, rng).indices(t))
        got[:] = -1  # a caller writing into its batch leaves the plan intact
    in_order = MinibatchPlan(LAZY_N, LAZY_M, rng)
    batches = [in_order.indices(t) for t in range(200)]
    assert all(np.array_equal(plan.indices(t), batches[t]) for t in (199, 3, 150, 0))


@pytest.mark.parametrize("m", [1, 2])
def test_lazy_blocks_are_uniform_ordered_draws(monkeypatch, m):
    # every block lazy at n = 5; the first three draws, which span the first
    # block (rejecting repeats) and the next (rejecting what the first drew),
    # must be uniform over the 60 ordered triples
    monkeypatch.setattr(rng_module, "_EAGER_FACTOR", 0)
    n, seeds = 5, 6000
    triples = list(itertools.permutations(range(n), 3))
    counts = dict.fromkeys(triples, 0)
    for seed in range(seeds):
        plan = MinibatchPlan(n, m, KeyedRng(seed).child("mb"))
        first = np.concatenate([plan.indices(t) for t in range(3)])[:3]
        counts[tuple(first.tolist())] += 1
    assert sum(counts.values()) == seeds
    assert stats.chisquare(list(counts.values())).pvalue > 1e-4


def test_lazy_epoch_batches_are_pinned():
    # sha256 of one epoch of batches (int64, little-endian): any change to
    # how an ordered lazy epoch is drawn, or to its generator calls, moves it
    plan = MinibatchPlan(10**5, 100, KeyedRng(0))
    h = hashlib.sha256()
    for t in range(plan.batches_per_epoch):
        h.update(plan.indices(t).astype("<i8").tobytes())
    assert h.hexdigest() == "64519beb9f844e41c38808f0de29cb0259551eb5eb478adf9423859255e07e69"


def test_lazy_plan_reads_only_what_it_serves():
    # a full permutation of 1e6 indices alone is 8 MB
    plan = MinibatchPlan(10**6, 100, KeyedRng(18).child("mb"))
    tracemalloc.start()
    try:
        for t in range(10):
            plan.indices(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_short_final_batch_scale():
    xs, target = small_target(n=10)
    plan = MinibatchPlan(n_data=10, batch_size=4, rng=KeyedRng(2).child("mb"))
    J = plan.batches_per_epoch
    # average of per-batch stochastic gradients weighted by batch size over
    # one epoch equals the full gradient (unbiasedness under the visit law)
    th = np.array([0.3])
    full = target.grad_log_joint(th)
    weighted = np.zeros(1)
    for k in range(J):
        idx = plan.indices(k)
        weighted += len(idx) / 10 * (stochastic_grad(target, th, idx)
                                     - target.grad_log_prior(th))
    weighted += target.grad_log_prior(th)
    assert np.allclose(weighted, full, atol=1e-10)


# -- gradients -----------------------------------------------------------------

def test_full_batch_equals_grad_log_joint():
    xs, target = small_target()
    th = np.array([-0.4])
    got = stochastic_grad(target, th, np.arange(len(xs)))
    assert np.allclose(got, target.grad_log_joint(th), atol=1e-12)


def test_epoch_average_equals_full_gradient():
    xs, target = small_target(n=24)
    plan = MinibatchPlan(n_data=24, batch_size=6, rng=KeyedRng(3).child("mb"))
    th = np.array([0.9])
    grads = [stochastic_grad(target, th, plan.indices(k)) for k in range(4)]
    assert np.allclose(np.mean(grads, axis=0), target.grad_log_joint(th), atol=1e-10)


def test_stochastic_grad_unbiased_over_random_batches():
    xs, target = small_target(n=30)
    th = np.array([0.2])
    rng = np.random.default_rng(4)
    draws = np.array([
        stochastic_grad(target, th, rng.choice(30, size=5, replace=False))[0]
        for _ in range(10**4)
    ])
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - target.grad_log_joint(th)[0]) < 3 * se


def test_empty_batch_rejected():
    xs, target = small_target()
    with pytest.raises(ValueError):
        stochastic_grad(target, np.zeros(1), [])


# -- steps ---------------------------------------------------------------------

def test_sgld_step_is_a_half_gradient_step_plus_gaussian_noise():
    # theta + (eps_t / 2) * stochastic gradient + sqrt(eps_t) z, bit for bit,
    # with z the generator's next standard normals
    xs, target = small_target(n=16)
    plan = MinibatchPlan(n_data=16, batch_size=4, rng=KeyedRng(9).child("mb"))
    sched = StepSchedule(alpha=0.3, beta=1.0, gamma=1.0)
    th = np.array([0.4])
    for t in range(6):
        eps = sched(t)
        g = stochastic_grad(target, th, plan.indices(t))
        z = np.random.default_rng(t).standard_normal(1)
        new = sgld_step(th, target, plan, sched, t, np.random.default_rng(t))
        assert np.array_equal(new, th + 0.5 * eps * g + math.sqrt(eps) * z)
        th = new


def test_sgld_full_batch_matches_langevin_proposal_form():
    # m = N and fixed eps: the update is exactly a MALA proposal (no accept)
    xs, target = small_target(n=16)
    plan = MinibatchPlan(n_data=16, batch_size=16, rng=KeyedRng(7).child("mb"))
    sched = StepSchedule(alpha=0.3, beta=1.0, gamma=1.0, floor=0.3)  # eps = 0.3
    th = np.array([0.4])
    gen = np.random.default_rng(8)
    draws = np.array([sgld_step(th, target, plan, sched, 0, gen)[0]
                      for _ in range(20000)])
    drift = th[0] + 0.15 * target.grad_log_joint(th)[0]
    assert draws.mean() == pytest.approx(drift, abs=3 * math.sqrt(0.3 / 20000))
    assert draws.var() == pytest.approx(0.3, rel=0.05)


def test_injected_noise_variance_matches_eps_t():
    xs, target = small_target(n=16)
    plan = MinibatchPlan(n_data=16, batch_size=16, rng=KeyedRng(9).child("mb"))
    sched = StepSchedule(alpha=0.2, beta=10.0, gamma=0.55)
    t = 137
    eps = sched(t)
    th = np.array([0.0])
    gen = np.random.default_rng(10)
    # full batch makes the gradient term deterministic; residual spread is noise
    draws = np.array([sgld_step(th, target, plan, sched, t, gen)[0]
                      for _ in range(10**5)])
    var = draws.var(ddof=1)
    se = eps * math.sqrt(2.0 / (10**5 - 1))
    assert abs(var - eps) < 3 * se


def test_noise_dominates_gradient_noise_along_schedule():
    # minibatch-gradient variance scales as eps^2 while injected noise is eps
    rng = np.random.default_rng(11)
    xs = rng.normal(2.0, math.sqrt(1000.0), 1000)
    target = gaussian_iid_target(xs, prior_var=1.0, lik_var=1000.0)
    plan = MinibatchPlan(n_data=1000, batch_size=10, rng=KeyedRng(12).child("mb"))
    sched = StepSchedule(alpha=0.2, beta=10.0, gamma=0.55)
    th = np.array([1.0])
    ratios = []
    for t in (0, 10**2, 10**4):
        eps = sched(t)
        grads = np.array([
            stochastic_grad(target, th, rng.choice(1000, 10, replace=False))[0]
            for _ in range(2000)
        ])
        grad_term_var = (eps / 2) ** 2 * grads.var(ddof=1)
        ratios.append(grad_term_var / eps)
    assert ratios[2] < ratios[1] < ratios[0]


def test_sgld_samples_posterior_loose():
    # pooled short chains; the acceptance suite runs the full experiment
    rng = np.random.default_rng(13)
    xs = rng.normal(2.0, math.sqrt(1000.0), 1000)
    xs = xs - xs.mean() + 2.0  # pin the posterior exactly at N(1, 0.5)
    target = gaussian_iid_target(xs, prior_var=1.0, lik_var=1000.0)
    mu, var = gaussian_iid_posterior(xs, prior_var=1.0, lik_var=1000.0)
    assert (mu, var) == (pytest.approx(1.0), pytest.approx(0.5))
    plan = MinibatchPlan(n_data=1000, batch_size=10, rng=KeyedRng(14).child("mb"))
    sched = StepSchedule(alpha=0.2, beta=10.0, gamma=0.55)
    draws = run_sgld(target, np.array([1.0]), 20000, plan, sched, KeyedRng(15))
    half = draws[10000:, 0]
    assert abs(half.mean() - 1.0) < 0.5  # smoke-level tolerance at this length
