import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from bigbayes.consensus import ShardPlan
from bigbayes.firefly import run_flymc, scaled_gaussian_bound
from bigbayes.mcmc import (
    ChainState,
    ProposalDist,
    SampleBuffer,
    adaptive_proposal_update,
    adaptation_rate,
    detailed_balance_check,
    enumerate_mh_kernel,
    gaussian_random_walk,
    gibbs_sweep,
    mc_estimate,
    mh_propose,
    mh_step,
    parallel_log_lik,
    run_gibbs,
    run_mh,
)
from bigbayes.models import (
    FactoredTarget,
    GaussianModelSpec,
    gaussian_iid_target,
    gaussian_mean_target,
)
from bigbayes.prefetch import prefetch_run
from bigbayes.rng import KeyedRng
from bigbayes.subsample import StopRuleConfig, run_adaptive_mh
from bigbayes.weierstrass import WeierstrassState, weierstrass_run, xi_update


def std_normal_target():
    return FactoredTarget(dim=1, n_data=0, log_prior=lambda th: -0.5 * float(th @ th))


# -- mh_step -----------------------------------------------------------------

def test_identity_proposal_always_accepts():
    prop = ProposalDist(sample=lambda th, rng: th, log_density=lambda a, b: 0.0,
                        is_symmetric=True)
    state = ChainState(np.array([0.4]))
    for t in range(5):
        state, accepted, alpha = mh_step(std_normal_target(), prop, state,
                                         KeyedRng(1).derive(t))
        assert accepted and alpha == 1.0


def test_symmetric_proposal_alpha_is_density_ratio():
    target = std_normal_target()
    prop = gaussian_random_walk(1.0)
    rng = KeyedRng(3)
    state = ChainState(np.array([1.0]), log_joint=target.log_joint(np.array([1.0])))
    for t in range(20):
        gen = rng.derive(t)
        theta_new = prop.sample(state.theta, gen)
        expected = min(1.0, np.exp(target.log_joint(theta_new) - state.log_joint))
        _, _, alpha = mh_step(target, prop, state, rng.derive(t))
        assert alpha == pytest.approx(expected, abs=1e-12)


def test_nonfinite_proposal_rejected_not_crash():
    def log_prior(th):
        if abs(th[0]) > 1.0:
            return -np.inf
        return 0.0

    target = FactoredTarget(dim=1, n_data=0, log_prior=log_prior)
    prop = gaussian_random_walk(10.0)
    buf = run_mh(target, prop, np.zeros(1), 200, KeyedRng(5))
    assert np.all(np.abs(buf.draws) <= 1.0)


def _start_density_target(at_start):
    """log joint ``at_start`` at theta = 0.5 and a standard normal elsewhere."""
    return SimpleNamespace(n_data=0, log_joint=lambda th: at_start if th[0] == 0.5
                           else -0.5 * float(th @ th))


_STARTS = {
    "run_mh": lambda target: run_mh(target, gaussian_random_walk(1.0), np.full(1, 0.5), 5,
                                    KeyedRng(2)),
    "prefetch_naive": lambda target: prefetch_run(target, gaussian_random_walk(1.0),
                                                  np.full(1, 0.5), 5, 4, KeyedRng(2))[0],
    "prefetch_predictive": lambda target: prefetch_run(
        target, gaussian_random_walk(1.0), np.full(1, 0.5), 5, 4, KeyedRng(2),
        policy="predictive")[0],
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", list(_STARTS))
def test_nan_or_positive_inf_start_density_raises_naming_it(name, bad):
    with pytest.raises(ValueError, match=rf"theta=\[0\.5\] is {bad}"):
        _STARTS[name](_start_density_target(bad))


@pytest.mark.parametrize("name", list(_STARTS))
def test_negative_inf_start_accepts_its_first_finite_proposal(name):
    buf = _STARTS[name](_start_density_target(-np.inf))
    assert buf.accept_flags[0] and buf.draws[0, 0] != 0.5
    assert np.array_equal(buf.draws, _STARTS["run_mh"](_start_density_target(-np.inf)).draws)


def test_optimal_scale_acceptance_rate_near_0234():
    # Gaussian-case optimal acceptance 0.234; scale 5.19 realizes it in 1D.
    buf = run_mh(std_normal_target(), gaussian_random_walk(5.19), np.zeros(1),
                 10**5, KeyedRng(42))
    assert abs(buf.acceptance_rate - 0.234) < 0.02


def test_rerun_reproduces_chain_bit_exactly():
    target = std_normal_target()
    prop = gaussian_random_walk(2.0)
    a = run_mh(target, prop, np.zeros(1), 500, KeyedRng(11))
    b = run_mh(target, prop, np.zeros(1), 500, KeyedRng(11))
    assert np.array_equal(a.draws, b.draws)
    assert np.array_equal(a.accept_flags, b.accept_flags)


class FirstUniformZero:
    """Generator stand-in whose first ``uniform()`` is exactly 0.0."""

    def __init__(self, gen):
        self.gen = gen
        self.first = True

    def uniform(self):
        if self.first:
            self.first = False
            return 0.0
        return self.gen.uniform()

    def __getattr__(self, name):
        return getattr(self.gen, name)


def test_zero_uniform_is_redrawn():
    prop = ProposalDist(sample=lambda th, rng: th, log_density=lambda a, b: 0.0,
                        is_symmetric=True)
    u_next = KeyedRng(4).derive(0).uniform()
    _, u = mh_propose(prop, np.zeros(1), FirstUniformZero(KeyedRng(4).derive(0)))
    assert u == u_next
    state, accepted, _ = mh_step(std_normal_target(), prop, ChainState(np.array([0.3])),
                                 FirstUniformZero(KeyedRng(4).derive(0)))
    assert accepted and state.it == 1


def test_xi_update_redraws_zero_uniform():
    state = WeierstrassState(theta=np.zeros(1), xi=np.zeros((1, 1)), h=0.5)
    xi = xi_update(state, 0, lambda x: -0.5 * float(x @ x), 3,
                   FirstUniformZero(KeyedRng(4).derive(0)))
    assert np.all(np.isfinite(xi))


def test_rejections_advance_cursor_identically():
    target = std_normal_target()
    state = ChainState(np.zeros(1))
    rng = KeyedRng(8)
    for t in range(50):
        state, _, _ = mh_step(target, gaussian_random_walk(50.0), state, rng.derive(t))
    assert state.it == 50


def test_mh_kernel_detailed_balance_on_enumerable_targets():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        pi = rng.random(n) + 0.1
        pi /= pi.sum()
        q = rng.random((n, n)) + 0.05
        q /= q.sum(axis=1, keepdims=True)
        T = enumerate_mh_kernel(pi, q)
        assert np.allclose(T.sum(axis=1), 1.0)
        assert detailed_balance_check(T, pi) < 1e-10


# -- gibbs -------------------------------------------------------------------

def two_state_conditionals(joint):
    """Single-site conditionals for a 2-variable 2-state table of probabilities."""

    def cond0(state, rng):
        col = joint[:, int(state[1])]
        return float(rng.random() < col[1] / col.sum())

    def cond1(state, rng):
        row = joint[int(state[0]), :]
        return float(rng.random() < row[1] / row.sum())

    return [cond0, cond1]


def single_site_kernel(joint, axis):
    """8 upto 4-state matrix of resampling one coordinate of a 2x2 joint."""
    T = np.zeros((4, 4))
    for a, b in itertools.product(range(2), range(2)):
        i = 2 * a + b
        if axis == 0:
            col = joint[:, b] / joint[:, b].sum()
            for a2 in range(2):
                T[i, 2 * a2 + b] = col[a2]
        else:
            row = joint[a, :] / joint[a, :].sum()
            for b2 in range(2):
                T[i, 2 * a + b2] = row[b2]
    return T


def test_gibbs_independent_variables_match_marginals():
    # independent coins with P(1)=0.3 and P(1)=0.7
    joint = np.outer([0.7, 0.3], [0.3, 0.7])
    conds = two_state_conditionals(joint)
    rng = np.random.default_rng(21)
    T = 20000
    draws = run_gibbs(conds, np.zeros(2), T, rng)
    counts0 = np.bincount(draws[:, 0].astype(int), minlength=2)
    counts1 = np.bincount(draws[:, 1].astype(int), minlength=2)
    # chi-square test against the true marginals, independence makes draws iid
    from scipy.stats import chisquare

    assert chisquare(counts0, T * np.array([0.7, 0.3])).pvalue > 0.01
    assert chisquare(counts1, T * np.array([0.3, 0.7])).pvalue > 0.01


def test_gibbs_systematic_sweep_matches_enumerated_kernel():
    joint = np.array([[0.35, 0.15], [0.05, 0.45]])
    conds = two_state_conditionals(joint)
    sweep_kernel = single_site_kernel(joint, 0) @ single_site_kernel(joint, 1)
    evals, evecs = np.linalg.eig(sweep_kernel.T)
    stat = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
    stat = stat / stat.sum()

    T = 10**6
    rng = np.random.default_rng(77)
    draws = run_gibbs(conds, np.zeros(2), T, rng)
    idx = (2 * draws[:, 0] + draws[:, 1]).astype(int)
    emp = np.bincount(idx, minlength=4) / T
    assert 0.5 * np.abs(emp - stat).sum() < 0.01


def spin_conditionals_and_kernels():
    """3 coupled binary spins; returns conditionals plus exact G_i matrices."""
    W = np.array([[0.0, 0.8, -0.4], [0.8, 0.0, 0.5], [-0.4, 0.5, 0.0]])

    def energy(x):
        s = 2 * np.asarray(x) - 1
        return float(s @ W @ s)

    states = [np.array(s) for s in itertools.product(range(2), repeat=3)]
    pi = np.exp([energy(s) for s in states])
    pi /= pi.sum()

    def cond(i):
        def sampler(state, rng):
            x1 = state.copy(); x1[i] = 1
            x0 = state.copy(); x0[i] = 0
            p1 = np.exp(energy(x1))
            p1 = p1 / (p1 + np.exp(energy(x0)))
            return float(rng.random() < p1)

        return sampler

    def site_kernel(i):
        G = np.zeros((8, 8))
        for si, s in enumerate(states):
            x1 = list(s); x1[i] = 1
            x0 = list(s); x0[i] = 0
            e1, e0 = np.exp(energy(x1)), np.exp(energy(x0))
            p1 = e1 / (e1 + e0)
            j1 = int("".join(map(str, x1)), 2)
            j0 = int("".join(map(str, x0)), 2)
            G[si, j1] += p1
            G[si, j0] += 1 - p1
        return G

    states_idx = [int("".join(map(str, s)), 2) for s in states]
    assert states_idx == list(range(8))
    return [cond(i) for i in range(3)], [site_kernel(i) for i in range(3)], pi


def test_random_scan_satisfies_detailed_balance_by_enumeration():
    _, site_kernels, pi = spin_conditionals_and_kernels()
    perms = list(itertools.permutations(range(3)))
    T = np.zeros((8, 8))
    for p in perms:
        K = np.eye(8)
        for i in p:
            K = K @ site_kernels[i]
        T += K / len(perms)
    assert detailed_balance_check(T, pi) < 1e-12
    # systematic order, by contrast, is not reversible for this model
    K = site_kernels[0] @ site_kernels[1] @ site_kernels[2]
    assert detailed_balance_check(K, pi) > 1e-6


def test_random_scan_runs_and_preserves_target():
    conds, site_kernels, pi = spin_conditionals_and_kernels()
    rng = np.random.default_rng(4)
    draws = run_gibbs(conds, np.zeros(3), 40000, rng, scan="random")
    idx = (draws @ np.array([4, 2, 1])).astype(int)
    emp = np.bincount(idx, minlength=8) / len(idx)
    assert 0.5 * np.abs(emp - pi).sum() < 0.02


def test_gibbs_conditional_failure_names_variable():
    def bad(state, rng):
        raise ValueError("boom")

    with pytest.raises(RuntimeError, match="variable 1"):
        gibbs_sweep([lambda s, r: 0.0, bad], np.zeros(2), np.random.default_rng(0))


# -- estimators ---------------------------------------------------------------

def constant_buffer(c, T):
    return SampleBuffer(draws=np.full((T, 1), float(c)), accept_flags=np.ones(T, bool))


def test_constant_chain_all_policies():
    buf = constant_buffer(3.0, 7)
    for policy in ("all", "last_half", "last_one"):
        assert mc_estimate(buf, lambda th: th[0] ** 2, policy) == pytest.approx(9.0)


def test_policy_arithmetic():
    buf = SampleBuffer(draws=np.array([[0.0], [0.0], [2.0], [2.0]]),
                       accept_flags=np.ones(4, bool))
    f = lambda th: th[0]
    assert mc_estimate(buf, f, "all") == pytest.approx(1.0)
    assert mc_estimate(buf, f, "last_half") == pytest.approx(2.0)
    assert mc_estimate(buf, f, "last_one") == pytest.approx(2.0)


def test_iid_normal_clt_bound():
    T = 10**5
    draws = np.random.default_rng(6).standard_normal((T, 1))
    buf = SampleBuffer(draws=draws, accept_flags=np.ones(T, bool))
    assert abs(mc_estimate(buf, lambda th: th[0], "all")) < 3 / np.sqrt(T)


def test_empty_buffer_rejected():
    buf = SampleBuffer(draws=np.empty((0, 1)), accept_flags=np.empty(0, bool))
    with pytest.raises(ValueError):
        mc_estimate(buf, lambda th: th[0], "all")


# -- adaptive proposal --------------------------------------------------------

def test_gamma_one_forgets_mean():
    mu, sigma = adaptive_proposal_update(np.zeros(2), np.eye(2), np.array([1.0, 2.0]), 1.0)
    assert np.allclose(mu, [1.0, 2.0])


def test_stationary_point_shrinks_covariance():
    mu0 = np.array([0.5])
    mu, sigma = adaptive_proposal_update(mu0, np.array([[2.0]]), mu0, 0.25)
    assert np.allclose(mu, mu0)
    assert sigma[0, 0] == pytest.approx(1.5)


def test_gamma_out_of_range_rejected():
    for g in (0.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            adaptive_proposal_update(np.zeros(1), np.eye(1), np.zeros(1), g)


def test_adaptation_rate_domain():
    with pytest.raises(ValueError):
        adaptation_rate(3, alpha=0.4)
    with pytest.raises(ValueError, match="t=0"):
        adaptation_rate(0)
    assert adaptation_rate(4, alpha=0.5) == pytest.approx(0.5)
    assert adaptation_rate(1) == 1.0


def test_stochastic_approximation_consistency():
    # feeding iid N(0,1) with gamma_t = t^-0.6 recovers mean 0 and variance 1
    rng = np.random.default_rng(123)
    mu, sigma = np.zeros(1), np.eye(1)
    for t in range(1, 10**5 + 1):
        mu, sigma = adaptive_proposal_update(mu, sigma, rng.standard_normal(1),
                                             adaptation_rate(t, 0.6))
    assert abs(mu[0]) < 0.05
    assert abs(sigma[0, 0] - 1.0) < 0.1
    assert np.all(np.linalg.eigvalsh(sigma) > 0)


# -- detailed balance utilities ----------------------------------------------

def test_identity_kernel_zero_violation():
    pi = np.array([0.2, 0.3, 0.5])
    assert detailed_balance_check(np.eye(3), pi) == 0.0


def test_cyclic_shift_violation_one_third():
    T = np.roll(np.eye(3), 1, axis=1)
    pi = np.full(3, 1 / 3)
    assert detailed_balance_check(T, pi) == pytest.approx(1 / 3)


def test_capacity_error():
    n = 10_001
    with pytest.raises(ValueError):
        detailed_balance_check(np.eye(n), np.full(n, 1 / n))


# -- parallel likelihood -----------------------------------------------------

def make_target(n=20):
    rng = np.random.default_rng(14)
    xs = rng.standard_normal(n)

    def terms(idx, th):
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2

    return FactoredTarget(dim=1, n_data=n, log_prior=lambda th: 0.0, log_lik_terms=terms)


def test_single_shard_equals_serial_sum():
    t = make_target()
    th = np.array([0.3])
    assert parallel_log_lik(t, th, ShardPlan(20, (np.arange(20),))) == t.log_likelihood(th)


def test_four_shards_bit_exact_fixed_tree():
    t = make_target()
    th = np.array([-0.7])
    plan = ShardPlan.contiguous(20, 4)
    got = parallel_log_lik(t, th, plan)
    partials = [float(np.sum(t.log_lik_terms(s, th))) for s in plan.shards]
    expected = (partials[0] + partials[1]) + (partials[2] + partials[3])
    assert got == expected


def test_empty_shard_contributes_zero():
    t = make_target()
    th = np.array([0.1])
    plan = ShardPlan(20, (np.arange(20), np.array([], dtype=int)))
    assert parallel_log_lik(t, th, plan) == t.log_likelihood(th)


def test_non_partition_rejected():
    t = make_target()
    with pytest.raises(ValueError, match="10 terms.* 20"):
        parallel_log_lik(t, np.zeros(1), ShardPlan(10, (np.arange(10),)))
    with pytest.raises(ValueError):
        parallel_log_lik(t, np.zeros(1), ShardPlan(20, (np.arange(20), np.array([0]))))


# -- zero-length runs -------------------------------------------------------------

_XS = np.linspace(-1.0, 2.0, 20)
_PROP = gaussian_random_walk(0.3)
_ZERO_STEP_RUNS = {
    "run_mh": lambda: run_mh(gaussian_iid_target(_XS), _PROP, np.zeros(1), 0, KeyedRng(1)),
    "run_adaptive_mh": lambda: run_adaptive_mh(
        gaussian_iid_target(_XS), _PROP, np.zeros(1), 0,
        StopRuleConfig(rule="ttest", epsilon=0.05), KeyedRng(1))[0],
    "run_flymc": lambda: run_flymc(gaussian_iid_target(_XS), scaled_gaussian_bound(_XS, 0.1),
                                   _PROP, np.zeros(1), 0, 0.1, KeyedRng(1)),
    "prefetch_run": lambda: prefetch_run(gaussian_iid_target(_XS), _PROP, np.zeros(1), 0, 4,
                                         KeyedRng(1)),
    "weierstrass_run": lambda: weierstrass_run([(0.0, 1.0), (1.0, 1.0)], np.zeros(1), 0.5, 0,
                                               rng=KeyedRng(1)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_ZERO_STEP_RUNS))
def test_zero_steps_return_no_draws_without_warnings(name):
    out = _ZERO_STEP_RUNS[name]()
    buf, info = out if isinstance(out, tuple) else (out, {})
    assert buf.draws.shape == (0, 1) and buf.accept_flags.shape == (0,)
    for key in ("steps_per_superstep", "mean_evals_per_step"):
        if key in info:
            assert np.isnan(info[key])
