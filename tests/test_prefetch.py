import numpy as np
import pytest

from bigbayes.mcmc import ProposalDist, gaussian_random_walk, run_mh
from bigbayes.models import FactoredTarget, gaussian_iid_target
from bigbayes.prefetch import (
    SpecTree,
    constant_predictor,
    naive_schedule,
    node_state,
    predictive_schedule,
    prefetch_run,
    subsample_predictor,
)
from bigbayes.rng import KeyedRng


def std_normal_target():
    return FactoredTarget(dim=1, n_data=0, log_prior=lambda th: -0.5 * float(th @ th))


def make_tree(seed=0, theta0=None):
    t = std_normal_target()
    prop = gaussian_random_walk(1.0)
    return SpecTree(t, prop, np.zeros(1) if theta0 is None else theta0, KeyedRng(seed))


# -- tree state materialization -------------------------------------------------

def test_empty_key_is_current_state_no_draw():
    tree = make_tree()
    assert np.array_equal(node_state(tree, ""), tree.root_theta)
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
    th_after_accept = node_state(tree, "1")
    assert np.array_equal(node_state(tree, "10"), th_after_accept)
    assert np.array_equal(node_state(tree, "100"), th_after_accept)


def test_draws_keyed_by_depth_not_history():
    # the proposal increment at a given chain step is shared by all branches
    tree = make_tree(seed=5)
    inc_after_accept = node_state(tree, "11") - node_state(tree, "1")
    inc_after_reject = node_state(tree, "01") - node_state(tree, "0")
    assert np.allclose(inc_after_accept, inc_after_reject)


def test_serial_and_prefetch_consume_same_draw_pairs():
    target = std_normal_target()
    prop = gaussian_random_walk(1.0)
    key = KeyedRng(6)
    tree = SpecTree(target, prop, np.zeros(1), key)
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
