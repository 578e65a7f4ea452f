import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bigbayes.mcmc import ProposalDist, gaussian_random_walk, run_mh
from bigbayes.models import FactoredTarget, gaussian_iid_target, logistic_regression_target
from bigbayes.prefetch import (
    SpecTree,
    constant_predictor,
    naive_schedule,
    predictive_schedule,
    prefetch_run,
    subsample_predictor,
)
from bigbayes.rng import KeyedRng
from bigbayes.simcluster import SimCluster
from bigbayes.subsample import (StopRuleConfig, TaylorProxy, llr_terms, mh_log_threshold,
                                run_adaptive_mh, taylor_proxy)


def std_normal_target():
    return FactoredTarget(dim=1, n_data=0, log_prior=lambda th: -0.5 * float(th @ th))


def make_tree(seed=0, theta0=None):
    prop = gaussian_random_walk(1.0)
    return SpecTree(prop, np.zeros(1) if theta0 is None else theta0, KeyedRng(seed))


# -- tree state materialization -------------------------------------------------

def test_empty_key_is_current_state_no_draw():
    tree = make_tree()
    assert np.array_equal(tree.state_for_prefix(""), tree.root_theta)
    assert tree.nodes == {}


def test_same_node_materialized_twice_identical():
    tree = make_tree(seed=3)
    a = tree.materialize("011").theta.copy()
    b = make_tree(seed=3).materialize("011").theta
    assert np.array_equal(a, b)
    again = tree.materialize("011").theta
    assert np.array_equal(a, again)


def test_reject_nodes_share_parent_state():
    tree = make_tree(seed=4)
    th_after_accept = tree.state_for_prefix("1")
    assert np.array_equal(tree.state_for_prefix("10"), th_after_accept)
    assert np.array_equal(tree.state_for_prefix("100"), th_after_accept)


def test_draws_keyed_by_depth_not_history():
    # the proposal increment at a given chain step is shared by all branches
    tree = make_tree(seed=5)
    inc_after_accept = tree.state_for_prefix("11") - tree.state_for_prefix("1")
    inc_after_reject = tree.state_for_prefix("01") - tree.state_for_prefix("0")
    assert np.allclose(inc_after_accept, inc_after_reject)


def test_serial_and_prefetch_consume_same_draw_pairs():
    prop = gaussian_random_walk(1.0)
    key = KeyedRng(6)
    tree = SpecTree(prop, np.zeros(1), key)
    tree.materialize("1")
    # replicate serial mh draw order for step 0
    gen = key.derive("step", 0)
    theta_serial = prop.sample(np.zeros(1), gen)
    u_serial = gen.uniform()
    assert np.array_equal(tree.nodes["1"].theta, theta_serial)
    assert tree.us[0] == u_serial


# -- schedules -------------------------------------------------------------------

def test_naive_j1_single_node():
    assert naive_schedule(make_tree(), 1) == ["1"]


def test_naive_bfs_counts():
    keys = naive_schedule(make_tree(), 7)
    assert keys == ["1", "01", "11", "001", "011", "101", "111"]
    keys8 = naive_schedule(make_tree(), 8)
    assert keys8[-1] == "0001"


def test_naive_skips_evaluated_nodes():
    tree = make_tree()
    node = tree.materialize("1")
    node.lj = 0.0
    assert naive_schedule(tree, 2) == ["01", "11"]


def test_predictive_reject_limit_is_reject_chain():
    keys = predictive_schedule(make_tree(), 4, constant_predictor(0.0))
    assert keys == ["1", "01", "001", "0001"]


def test_predictive_accept_limit_is_accept_chain():
    keys = predictive_schedule(make_tree(), 4, constant_predictor(1.0))
    assert keys == ["1", "11", "111", "1111"]


def test_predictive_utility_dominates_naive():
    # the selected set's total path probability is >= naive's under the
    # same predictor
    p = 0.234
    tree = make_tree()

    def utility(key):
        u = 1.0
        for bit in key[:-1]:
            u *= p if bit == "1" else (1 - p)
        return u

    for J in (2, 4, 8):
        pred = sum(utility(k) for k in predictive_schedule(make_tree(), J,
                                                           constant_predictor(p)))
        naive = sum(utility(k) for k in naive_schedule(make_tree(), J))
        assert pred >= naive - 1e-12


def test_predictor_out_of_range_rejected():
    with pytest.raises(ValueError):
        predictive_schedule(make_tree(), 2, lambda tree, a, b: 1.5)


# -- full runs -------------------------------------------------------------------

def test_j1_equals_serial_trace():
    target = std_normal_target()
    prop = gaussian_random_walk(1.2)
    serial = run_mh(target, prop, np.zeros(1), 400, KeyedRng(7))
    buf, info = prefetch_run(target, prop, np.zeros(1), 400, 1, KeyedRng(7))
    assert np.array_equal(buf.draws, serial.draws)
    assert np.array_equal(buf.accept_flags, serial.accept_flags)
    assert info["steps_per_superstep"] == pytest.approx(1.0)


@pytest.mark.parametrize("J", [2, 4, 8])
@pytest.mark.parametrize("policy", ["naive", "predictive"])
def test_bit_exact_equivalence_all_policies(J, policy):
    rng_data = np.random.default_rng(8)
    xs = rng_data.normal(0.5, 1.0, 30)
    target = gaussian_iid_target(xs)
    prop = gaussian_random_walk(0.4)
    serial = run_mh(target, prop, np.zeros(1), 300, KeyedRng(9))
    buf, _ = prefetch_run(target, prop, np.zeros(1), 300, J, KeyedRng(9),
                          policy=policy)
    assert np.array_equal(buf.draws, serial.draws)
    assert np.array_equal(buf.accept_flags, serial.accept_flags)


def test_bit_exact_with_subsample_predictor():
    rng_data = np.random.default_rng(10)
    xs = rng_data.normal(0.0, 1.0, 50)
    target = gaussian_iid_target(xs)
    prop = gaussian_random_walk(0.3)
    serial = run_mh(target, prop, np.zeros(1), 150, KeyedRng(11))
    buf, _ = prefetch_run(target, prop, np.zeros(1), 150, 4, KeyedRng(11),
                          policy="predictive",
                          predictor=subsample_predictor(target, batch_size=10))
    assert np.array_equal(buf.draws, serial.draws)


def autoregressive_proposal(rho, scale):
    """Asymmetric proposal theta' ~ N(rho theta, scale^2)."""

    def sample(theta, rng):
        return rho * theta + scale * rng.standard_normal(theta.shape)

    def log_density(new, old):
        z = (np.asarray(new) - rho * np.asarray(old)) / scale
        return float(-0.5 * np.sum(z**2))

    return ProposalDist(sample=sample, log_density=log_density, is_symmetric=False)


@pytest.mark.parametrize("J", [1, 4])
@pytest.mark.parametrize("policy", ["naive", "predictive"])
def test_bit_exact_with_asymmetric_proposal(J, policy):
    # the Hastings term enters the speculative decisions as it does the serial ones
    xs = np.random.default_rng(16).normal(0.5, 1.0, 30)
    target = gaussian_iid_target(xs)
    prop = autoregressive_proposal(0.7, 0.4)
    serial = run_mh(target, prop, np.zeros(1), 300, KeyedRng(17))
    buf, _ = prefetch_run(target, prop, np.zeros(1), 300, J, KeyedRng(17),
                          policy=policy)
    assert 0.0 < serial.acceptance_rate < 1.0
    assert np.array_equal(buf.draws, serial.draws)
    assert np.array_equal(buf.accept_flags, serial.accept_flags)


def exact_decision(target, tree, parent, child):
    """[log u < log alpha] for the node ``child`` from the full-data log
    joints, Hastings term included, and that log q ratio."""
    theta, theta_new = tree.state_for_prefix(parent), tree.materialize(child).theta
    prop = tree.proposal
    log_q = prop.log_density(theta, theta_new) - prop.log_density(theta_new, theta)
    log_alpha = target.log_joint(theta_new) - target.log_joint(theta) + log_q
    u = tree.us[tree.steps_done + len(child) - 1]
    return float(math.log(u) < log_alpha), log_q


def test_a_full_batch_predicts_the_exact_decision_hastings_term_included():
    # the residuals have spread, but a batch of all N terms has no standard
    # error, so the prediction is the step's decision at its known u
    rng = np.random.default_rng(18)
    X = rng.standard_normal((30, 2))
    target = logistic_regression_target(X, np.where(rng.random(30) < 0.5, 1.0, -1.0))
    prop = autoregressive_proposal(0.5, 0.4)
    predict = subsample_predictor(target, batch_size=30)
    got, want, hastings = [], [], []
    for seed in range(20):
        tree = SpecTree(prop, np.array([1.5, -1.0]), KeyedRng(seed))
        for parent in ("", "1", "0"):
            got.append(predict(tree, parent, parent + "1"))
            decision, log_q = exact_decision(target, tree, parent, parent + "1")
            want.append(decision)
            hastings.append(log_q)
    assert got == want
    assert 0 < sum(got) < len(got)
    assert max(np.abs(hastings)) > 0.5


# -- the control-variate predictor -----------------------------------------------

@pytest.mark.parametrize("batch_size", [0, -3, True, 2.5, "4", None])
def test_subsample_predictor_rejects_a_bad_batch_size_when_built(batch_size):
    target = gaussian_iid_target(np.zeros(5))
    with pytest.raises(ValueError, match=f"batch_size must be an int >= 1, got {batch_size!r}"):
        subsample_predictor(target, batch_size=batch_size)


def test_subsample_predictor_accepts_a_numpy_int_batch_size():
    predict = subsample_predictor(gaussian_iid_target(np.zeros(5)), batch_size=np.int64(2))
    assert 0.0 <= predict(make_tree(), "", "1") <= 1.0


def test_nan_estimate_predicts_a_rejection():
    # every term is -inf at theta and theta', so each residual is -inf - (-inf)
    def log_lik_terms(idx, th):
        return np.full((np.atleast_2d(th).shape[0], len(idx)), -np.inf)

    target = FactoredTarget(dim=1, n_data=5, log_prior=lambda th: 0.0,
                            log_lik_terms=log_lik_terms,
                            grad_log_lik_terms=lambda idx, th: np.zeros((len(idx), 1)))
    with np.errstate(invalid="ignore"):
        assert subsample_predictor(target, batch_size=3)(make_tree(), "", "1") == 0.0


def test_prediction_is_the_t_tests_normal_confidence_on_its_batch():
    # recompute each prediction from the same batch: the mean residual
    # against psi', in standard errors without replacement, through Phi
    target, theta0, prop = logistic_setup(28, n=300)
    m, n = 20, target.n_data
    predict = subsample_predictor(target, batch_size=m, seed=29)
    gen = np.random.default_rng(29)
    tree = SpecTree(replace(prop, sample=lambda th, g: th + 4.0 * (prop.sample(th, g) - th)),
                    theta0, KeyedRng(30))
    proxy = TaylorProxy(target, theta0)
    inside = 0
    keys = [format(i, "b")[1:] + "1" for i in range(1, 16)]  # "1", "01", "11", "001", ...
    for key in keys:
        p = predict(tree, key[:-1], key)
        theta, theta_new = tree.state_for_prefix(key[:-1]), tree.materialize(key).theta
        u = tree.us[len(key) - 1]
        psi = mh_log_threshold(u, theta, theta_new, prop, target.log_prior, n)
        settled, _ = proxy.certify(theta, theta_new, psi)
        if settled is not None:  # certified: the exact decision, with no draw
            assert p == float(settled)
            continue
        r = llr_terms(proxy.target, gen.choice(n, size=m, replace=False), theta, theta_new)
        shifted = psi - proxy.llr_sum(theta, theta_new) / n
        se = r.std(ddof=1) / math.sqrt(m) * math.sqrt((n - m) / (n - 1))
        want = stats.norm.cdf((r.mean() - shifted) / se)
        assert p == pytest.approx(want, rel=1e-6, abs=1e-12)
        inside += 0.01 < p < 0.99
    assert inside >= 3


def test_a_target_with_no_data_predicts_the_exact_decision():
    target = std_normal_target()
    predict = subsample_predictor(target)
    got, want = [], []
    for seed in range(20):
        tree = SpecTree(gaussian_random_walk(2.0), np.array([0.5]), KeyedRng(seed))
        got.append(predict(tree, "", "1"))
        want.append(exact_decision(target, tree, "", "1")[0])
    assert got == want and 0 < sum(got) < len(got)


def test_a_batch_of_two_predicts_the_exact_decision_on_a_gaussian_target():
    # the second-order proxy is exact on a Gaussian mean model, so every
    # residual is 0 up to rounding and a batch of 2 decides as all the data
    # do; the parent "1" is not the centre, the first root
    target = gaussian_iid_target(np.random.default_rng(19).normal(0.5, 1.0, 40))
    prop = autoregressive_proposal(0.5, 0.4)
    predict = subsample_predictor(target, batch_size=2)
    got, want = [], []
    for seed in range(20):
        tree = SpecTree(prop, np.array([1.5]), KeyedRng(seed))
        for parent in ("", "1"):
            got.append(predict(tree, parent, parent + "1"))
            want.append(exact_decision(target, tree, parent, parent + "1")[0])
    assert got == want
    assert 0 < sum(got) < len(got)


def counting_target(target, reads):
    """``target`` with each of its kernels appending the number of terms it
    reads to ``reads["lik"]``, ``reads["grad"]`` and, if it has a Taylor
    kernel, ``reads["taylor"]``."""
    lik, grad, taylor = (target.log_lik_terms, target.grad_log_lik_terms,
                         target.taylor_log_lik_terms)

    def log_lik_terms(idx, th):
        reads["lik"].append(len(idx))
        return lik(idx, th)

    def grad_log_lik_terms(idx, th):
        reads["grad"].append(len(idx))
        return grad(idx, th)

    def taylor_log_lik_terms(idx, c, th=None):
        reads["taylor"].append(len(idx))
        return taylor(idx, c) if th is None else taylor(idx, c, th)

    return replace(target, log_lik_terms=log_lik_terms, grad_log_lik_terms=grad_log_lik_terms,
                   taylor_log_lik_terms=None if taylor is None else taylor_log_lik_terms)


def certified_at(proxy, target, tree, key):
    """``proxy.certify``'s decision for the step from ``key``'s parent to
    ``key`` in ``tree``: the exact one, or None where the proxy's remainder
    bound does not settle it."""
    parent, node = tree.state_for_prefix(key[:-1]), tree.materialize(key).theta
    psi = mh_log_threshold(tree.us[len(key) - 1], parent, node, tree.proposal,
                           target.log_prior, target.n_data)
    return proxy.certify(parent, node, psi)[0]


def test_predictor_reads_the_gradients_once_then_one_batch_per_call():
    # a target without a Taylor kernel: the proxy is first order
    n, m = 10_000, 7
    reads = {"lik": [], "grad": []}
    target = counting_target(replace(gaussian_iid_target(np.linspace(-1.0, 1.0, n)),
                                     taylor_log_lik_terms=None), reads)
    predict = subsample_predictor(target, batch_size=m)
    assert reads == {"lik": [], "grad": []}
    calls = 0
    # the second tree, rooted elsewhere, reuses the first centre and its sum
    trees = [(make_tree(20), ["1", "01", "11"]), (make_tree(21, np.ones(1)), ["1", "01"])]
    for tree, keys in trees:
        for key in keys:
            predict(tree, key[:-1], key)
            calls += 1
            assert sum(reads["grad"]) == n + calls * m
            assert reads["lik"] == [m] * calls
    assert max(reads["grad"]) < n


def test_predictor_reads_the_taylor_kernel_once_then_one_batch_per_call():
    # every call reads exactly batch_size rows of log_lik_terms, and the
    # Taylor kernel at the same rows, or none if the proxy certifies the
    # node; the first call also makes the pass
    n, m = 40_000, 7
    reads = {"lik": [], "grad": [], "taylor": []}
    plain = logistic_setup(26, n)[0]
    target = counting_target(logistic_setup(26, n)[0], reads)
    predict = subsample_predictor(target, batch_size=m)
    assert reads == {"lik": [], "grad": [], "taylor": []}
    tree = make_tree(27, np.zeros(3))
    proxy = taylor_proxy(plain, tree.root_theta)  # an uncounted twin of the predictor's
    for key in ["1", "01", "11", "011"]:
        before = len(reads["lik"])
        predict(tree, key[:-1], key)
        settled = certified_at(proxy, plain, tree, key)
        assert reads["lik"][before:] == ([m] if settled is None else [])
        assert sum(reads["taylor"]) == n + len(reads["lik"]) * m
    assert reads["grad"] == [] and max(reads["taylor"]) < n


def test_a_predictor_after_a_subsampling_run_from_its_root_makes_no_pass():
    # the run leaves its proxy on the target, and the predictor's first
    # call finds it there: every Taylor read is then a batch of m
    n, m, keys = 5000, 7, ["1", "01", "11", "011"]
    reads = {"lik": [], "grad": [], "taylor": []}
    target, theta, prop = logistic_setup(28, n)
    target = counting_target(target, reads)
    run_adaptive_mh(target, prop, theta, 5, StopRuleConfig(batch=20), KeyedRng(29))
    assert reads["taylor"][:2] == [4096, n - 4096]  # the run made the pass
    before = len(reads["taylor"])
    predict = subsample_predictor(target, batch_size=m, seed=30)
    tree = SpecTree(prop, theta, KeyedRng(32))
    ps = [predict(tree, key[:-1], key) for key in keys]
    # a batch of m, or no read at a node the proxy certifies; this tree has both
    plain = logistic_setup(28, n)[0]
    proxy = taylor_proxy(plain, theta)
    want = [m for key in keys if certified_at(proxy, plain, tree, key) is None]
    assert reads["taylor"][before:] == want and 0 < len(want) < len(keys)
    # the same predictions as a predictor with a pass of its own
    fresh = subsample_predictor(logistic_setup(28, n)[0], batch_size=m, seed=30)
    tree = SpecTree(prop, theta, KeyedRng(32))
    assert ps == [fresh(tree, key[:-1], key) for key in keys]


def test_predictor_set_up_at_a_million_data_allocates_no_data_sized_array():
    # an N-sized float array would be 8 MB, a boolean mask 1 MB
    target = gaussian_iid_target(np.ones(10**6))
    predict = subsample_predictor(target)
    tree = make_tree(seed=22)
    tracemalloc.start()
    try:
        p = predict(tree, "", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 <= p <= 1.0
    assert peak < 500_000


def logistic_setup(seed, n=2000):
    """A seeded 3-parameter logistic target, its Laplace mode and a random
    walk scaled 2.38 / sqrt(d) by the Laplace standard deviations."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = np.where(rng.random(n) < 1 / (1 + np.exp(-X @ np.array([0.5, -1.0, 0.8]))), 1.0, -1.0)
    theta = np.zeros(3)
    for _ in range(30):
        p = 1 / (1 + np.exp(-y * (X @ theta)))
        H = (X * (p * (1 - p))[:, None]).T @ X + np.eye(3) / 100.0
        theta = theta + np.linalg.solve(H, X.T @ (y * (1 - p)) - theta / 100.0)
    sd = np.sqrt(np.diag(np.linalg.inv(H)))
    return logistic_regression_target(X, y), theta, gaussian_random_walk(2.38 / np.sqrt(3) * sd)


@pytest.mark.parametrize("J", [1, 4])
def test_bit_exact_with_subsample_predictor_on_a_logistic_target(J):
    target, theta, prop = logistic_setup(23)
    serial = run_mh(target, prop, theta, 300, KeyedRng(24))
    buf, _ = prefetch_run(target, prop, theta, 300, J, KeyedRng(24), policy="predictive",
                          predictor=subsample_predictor(target, seed=25))
    assert 0.1 < serial.acceptance_rate < 0.5
    assert np.array_equal(buf.draws, serial.draws)
    assert np.array_equal(buf.accept_flags, serial.accept_flags)


def test_subsample_predictor_speculates_deeper_than_naive_on_a_logistic_target():
    # measured 4.00 steps per superstep against naive's 2.50 (3.37 when the
    # predictor returned exp(min(0, log alpha)) from a first-order proxy)
    target, theta, prop = logistic_setup(0)
    _, info = prefetch_run(target, prop, theta, 300, 4, KeyedRng(0), policy="predictive",
                           predictor=subsample_predictor(target, seed=0))
    _, naive = prefetch_run(target, prop, theta, 300, 4, KeyedRng(0))
    assert info["steps_per_superstep"] >= 3.8 > 3.0 > naive["steps_per_superstep"]


def test_naive_j8_speedup_at_least_log2():
    # rejection-heavy tuning; naive full-tree coverage gives >= 3 = log2(8)
    target = std_normal_target()
    prop = gaussian_random_walk(6.0)
    buf, info = prefetch_run(target, prop, np.zeros(1), 3000, 8, KeyedRng(12))
    assert info["steps_per_superstep"] >= 3.0


def test_predictive_beats_naive_on_rejection_heavy_chain():
    target = std_normal_target()
    prop = gaussian_random_walk(8.0)  # acceptance ~ 0.16
    _, naive_info = prefetch_run(target, prop, np.zeros(1), 3000, 8, KeyedRng(13),
                                 policy="naive")
    _, pred_info = prefetch_run(target, prop, np.zeros(1), 3000, 8, KeyedRng(13),
                                policy="predictive",
                                predictor=constant_predictor(0.234))
    assert pred_info["steps_per_superstep"] > naive_info["steps_per_superstep"]


def test_simulated_speedup_tracks_steps_per_superstep():
    target = gaussian_iid_target(np.random.default_rng(14).normal(0, 1, 20))
    prop = gaussian_random_walk(2.0)
    buf, info = prefetch_run(target, prop, np.zeros(1), 500, 4, KeyedRng(15))
    assert info["speedup"] == pytest.approx(info["steps_per_superstep"], rel=0.25)


@pytest.mark.parametrize("policy", ["naive", "predictive"])
def test_eval_messages_count_every_eval_but_the_initial_one(policy):
    target = gaussian_iid_target(np.random.default_rng(16).normal(0, 1, 20))
    _, info = prefetch_run(target, gaussian_random_walk(0.8), np.zeros(1), 200, 4,
                           KeyedRng(17), policy=policy)
    cluster = info["cluster"]
    assert cluster.message_counts("prefetch-eval") == info["evals"] - 1
    assert cluster.message_counts("prefetch-eval-result") == info["evals"] - 1


# -- the one best-first search ----------------------------------------------------

ACCEPT_KEYS_TO_DEPTH_6 = [format(i, f"0{n}b") + "1" for n in range(6) for i in range(2 ** n)]


def tree_with_evaluated(keys):
    tree = make_tree()
    for key in keys:
        tree.materialize(key).lj = 0.0
    return tree


def brute_force_top(evaluated, J, p):
    """Every accept node of depth <= 6 + J, ranked by (-path probability,
    depth, key); a deeper node has J shallower unevaluated nodes on its own
    path that rank above it."""
    ranked = []
    level = [("", 1.0)]
    for _ in range(6 + J):
        nxt = []
        for prefix, util in level:
            if prefix + "1" not in evaluated:
                ranked.append((-util, len(prefix) + 1, prefix + "1"))
            nxt += [(prefix + "1", util * p), (prefix + "0", util * (1.0 - p))]
        level = nxt
    return [key for _, _, key in sorted(ranked)[:J]]


@settings(max_examples=150, deadline=None)
@given(evaluated=st.sets(st.sampled_from(ACCEPT_KEYS_TO_DEPTH_6), max_size=20),
       J=st.integers(1, 8), p=st.sampled_from([0.0, 0.234, 0.5, 0.6, 1.0]))
def test_schedules_are_the_exact_top_j(evaluated, J, p):
    tree = tree_with_evaluated(sorted(evaluated))
    got = predictive_schedule(tree, J, constant_predictor(p))
    assert got == brute_force_top(evaluated, J, p)
    assert naive_schedule(tree, J) == predictive_schedule(tree, J, constant_predictor(0.5))


def test_predictive_looks_past_an_evaluated_accept_chain():
    # "01" (path probability 0.4) outranks "111" (0.36)
    tree = tree_with_evaluated(["1", "11"])
    assert predictive_schedule(tree, 1, constant_predictor(0.6)) == ["01"]


@pytest.mark.parametrize("evaluated", [[], ["1", "11", "01", "0101"]])
@pytest.mark.parametrize("J", [1, 4, 16])
def test_predictor_called_once_per_expanded_prefix(evaluated, J):
    calls = []

    def counting(tree, parent_key, child_key):
        calls.append(parent_key)
        return 0.9

    predictive_schedule(tree_with_evaluated(evaluated), J, counting)
    assert len(calls) == len(set(calls)) <= J + len(evaluated)


# -- speculative densities and policy checks --------------------------------------

def log_normal_prior_target(visits):
    """log pi(theta) = -log theta - (log theta)^2 / 2: NaN, so a
    FloatingPointError in ``log_joint``, for theta <= 0."""

    def log_prior(th):
        if th[0] <= 0:
            visits.append(float(th[0]))
        with np.errstate(invalid="ignore", divide="ignore"):
            lt = np.log(th[0])
        return float(-lt - 0.5 * lt**2)

    return FactoredTarget(dim=1, n_data=0, log_prior=log_prior)


@pytest.mark.parametrize("J", [1, 4])
@pytest.mark.parametrize("policy", ["naive", "predictive"])
def test_non_finite_speculative_density_rejects_as_serial_mh(J, policy):
    visits = []
    target = log_normal_prior_target(visits)
    prop = gaussian_random_walk(1.5)
    serial = run_mh(target, prop, np.ones(1), 300, KeyedRng(3))
    assert visits, "the chain never proposed theta <= 0"
    buf, _ = prefetch_run(target, prop, np.ones(1), 300, J, KeyedRng(3), policy=policy)
    assert np.array_equal(buf.draws, serial.draws)
    assert np.array_equal(buf.accept_flags, serial.accept_flags)
    assert np.all(buf.draws > 0)


@pytest.mark.parametrize("T", [0, 5])
def test_unknown_policy_rejected_before_any_work(T):
    cluster = SimCluster(4, seed=0)
    with pytest.raises(ValueError, match="bogus"):
        prefetch_run(std_normal_target(), gaussian_random_walk(1.0), np.zeros(1), T, 4,
                     KeyedRng(0), policy="bogus", cluster=cluster)
    assert cluster.total_charged == 0


def test_naive_policy_rejects_a_predictor():
    cluster = SimCluster(4, seed=0)
    with pytest.raises(ValueError, match="naive"):
        prefetch_run(std_normal_target(), gaussian_random_walk(1.0), np.zeros(1), 5, 4,
                     KeyedRng(0), policy="naive", predictor=constant_predictor(0.3),
                     cluster=cluster)
    assert cluster.total_charged == 0


def test_leak_check_catches_a_dropped_evaluated_node(monkeypatch):
    # a promotion that loses one evaluated survivor without using or discarding it
    promote = SpecTree._promote
    dropped = []

    def leaky_promote(tree, bit):
        promote(tree, bit)
        evaluated = [key for key, node in tree.nodes.items() if node.lj is not None]
        if evaluated and not dropped:
            dropped.append(tree.nodes.pop(evaluated[0]).uid)

    monkeypatch.setattr(SpecTree, "_promote", leaky_promote)
    with pytest.raises(AssertionError, match="evaluated nodes leaked") as err:
        prefetch_run(std_normal_target(), gaussian_random_walk(1.0), np.zeros(1), 50, 4,
                     KeyedRng(5))
    assert str(err.value) == f"evaluated nodes leaked: {dropped}"


def test_a_certified_node_reads_no_rows_and_predicts_the_exact_decision():
    # a node the proxy's remainder bound settles is predicted 0 or 1, the
    # step's exact decision, with no draw and no read; any other reads one
    # batch of m
    n, m = 1000, 7
    reads = {"lik": [], "grad": [], "taylor": []}
    plain, theta, prop = logistic_setup(57, n)
    target = counting_target(logistic_setup(57, n)[0], reads)
    proxy = taylor_proxy(target, theta)  # the pass; the predictor's centre is its root
    reads["taylor"].clear()
    predict = subsample_predictor(target, batch_size=m, seed=58)
    wide = replace(prop, sample=lambda th, g: th + 4.0 * (prop.sample(th, g) - th))
    certified = 0
    for seed in range(12):
        tree = SpecTree(wide, theta, KeyedRng(seed))
        for key in ["1", "01", "11"]:
            before = len(reads["lik"]), len(reads["taylor"])
            p = predict(tree, key[:-1], key)
            settled = certified_at(proxy, plain, tree, key)
            batches = reads["lik"][before[0]:], reads["taylor"][before[1]:]
            if settled is None:
                assert batches == ([m], [m])
                continue
            certified += 1
            assert batches == ([], [])
            assert p == float(settled) == exact_decision(plain, tree, key[:-1], key)[0]
    assert 0 < certified < 36
