"""Argument errors name the value, or both counts, that caused them, after
the message's fixed wording."""

from dataclasses import replace

import numpy as np
import pytest

from bigbayes.consensus import ShardPlan, consensus_kde, sample_subposteriors_on_cluster
from bigbayes.firefly import (init_firefly, resample_brightness, run_flymc,
                              scaled_gaussian_bound)
from bigbayes.mcmc import ChainState, gaussian_random_walk, run_chain, run_gibbs
from bigbayes.models import FactoredTarget, gaussian_iid_target, logistic_regression_target
from bigbayes.prefetch import prefetch_run
from bigbayes.rng import KeyedRng
from bigbayes.sgld import MinibatchPlan, StepSchedule, run_sgld
from bigbayes.simcluster import SimCluster
from bigbayes.subsample import StopRuleConfig, TaylorProxy, mh_log_threshold, run_adaptive_mh
from bigbayes.weierstrass import WeierstrassState, weierstrass_run, xi_update

XS = np.linspace(-1.0, 1.0, 6)
TARGET = gaussian_iid_target(XS)
BOUND = scaled_gaussian_bound(XS, 0.1)
PROP = gaussian_random_walk(0.3)
SUBS = [(0.0, 1.0), (1.0, 2.0), (-1.0, 0.5)]


def _unread(idx):
    raise AssertionError("read the data before checking the arguments")


def _unread_taylor_target():
    """A 50-datum logistic target whose Taylor kernel fails on any read."""
    gen = np.random.default_rng(0)
    target = logistic_regression_target(gen.standard_normal((50, 1)),
                                        np.where(gen.random(50) < 0.5, 1.0, -1.0))
    return replace(target, taylor_log_lik_terms=lambda idx, c, th=None: _unread(idx))


def _two_sum_taylor_target():
    """A 50-datum logistic target whose Taylor kernel's pass returns only
    (G, H), without the remainder sum R."""
    gen = np.random.default_rng(0)
    target = logistic_regression_target(gen.standard_normal((50, 1)),
                                        np.where(gen.random(50) < 0.5, 1.0, -1.0))
    kernel = target.taylor_log_lik_terms

    def taylor(idx, c, th=None):
        return kernel(idx, c)[:2] if th is None else kernel(idx, c, th)

    return replace(target, taylor_log_lik_terms=taylor)


def _weier_state(h=1.0):
    return WeierstrassState(theta=np.zeros(1), xi=np.zeros((3, 1)), h=h)


CASES = {
    "rho_z resample": (
        lambda: resample_brightness(init_firefly(TARGET, BOUND, np.zeros(1),
                                                 np.random.default_rng(0), init="dark"),
                                    TARGET, BOUND, 0.0, np.random.default_rng(0)),
        "rho_z must lie in (0, 1]", ["0.0"]),
    # a bound that fails on any read shows the check comes before init_firefly
    "rho_z run_flymc T=0": (
        lambda: run_flymc(TARGET, replace(BOUND, dark_stat_sum=_unread), PROP, np.zeros(1),
                          0, 5.0, KeyedRng(0)),
        "rho_z must lie in (0, 1]", ["5.0"]),
    "rho_z run_flymc T=3": (
        lambda: run_flymc(TARGET, replace(BOUND, dark_stat_sum=_unread), PROP, np.zeros(1),
                          3, 1.5, KeyedRng(0)),
        "rho_z must lie in (0, 1]", ["1.5"]),
    "bandwidths": (lambda: _weier_state(h=np.array([-0.25])),
                   "bandwidths must be positive", ["-0.25"]),
    "inner_steps": (lambda: xi_update(_weier_state(), 0, SUBS[0], 0, np.random.default_rng(0)),
                    "inner_steps must be >= 1", ["0"]),
    "workers": (lambda: SimCluster(0), "need at least one worker", ["0"]),
    "prefetch cluster": (
        lambda: prefetch_run(TARGET, PROP, np.zeros(1), 5, 3, KeyedRng(0),
                             cluster=SimCluster(2)),
        "cluster must have J workers", ["2", "3"]),
    "weierstrass cluster": (
        lambda: weierstrass_run(SUBS, np.zeros(1), 1.0, 5, rng=KeyedRng(0),
                                cluster=SimCluster(2)),
        "need one worker per shard", ["2", "3"]),
    "consensus cluster": (
        lambda: sample_subposteriors_on_cluster(TARGET, ShardPlan.contiguous(6, 3), None,
                                                SimCluster(2)),
        "need one worker per shard", ["2", "3"]),
    "schedule alpha": (lambda: StepSchedule(alpha=-0.5), "alpha and beta must be positive",
                       ["-0.5"]),
    "schedule beta": (lambda: StepSchedule(beta=0.0), "alpha and beta must be positive",
                      ["0.0"]),
    "schedule gamma": (lambda: StepSchedule(gamma=0.25),
                       "gamma must lie in (0.5, 1] for a valid schedule", ["0.25"]),
    "schedule floor": (lambda: StepSchedule(floor=-0.125), "floor must be nonnegative",
                       ["-0.125"]),
    "T run_chain": (lambda: run_chain(None, ChainState(np.zeros(1)), -2, KeyedRng(0)),
                    "T must be >= 0", ["-2"]),
    "T prefetch_run": (lambda: prefetch_run(TARGET, PROP, np.zeros(1), -2, 2, KeyedRng(0)),
                       "T must be >= 0", ["-2"]),
    "T weierstrass_run": (lambda: weierstrass_run(SUBS, np.zeros(1), 1.0, -2, rng=KeyedRng(0)),
                          "T must be >= 0", ["-2"]),
    "T run_flymc": (
        lambda: run_flymc(TARGET, replace(BOUND, dark_stat_sum=_unread), PROP, np.zeros(1),
                          -1, 0.5, KeyedRng(0)),
        "T must be >= 0", ["-1"]),
    "T run_gibbs": (lambda: run_gibbs([_unread], np.zeros(1), -1, np.random.default_rng(0)),
                    "T must be >= 0", ["-1"]),
    "n_out consensus_kde": (
        lambda: consensus_kde(np.zeros((2, 3, 1)), 1.0, n_out=-1, rng=np.random.default_rng(0)),
        "n_out must be >= 0", ["-1"]),
    "J contiguous": (lambda: ShardPlan.contiguous(10, 0), "J must be >= 1", ["0"]),
    "J above n_data contiguous": (lambda: ShardPlan.contiguous(3, 5), "J must be <= n_data",
                                  ["5", "3"]),
    # a Taylor kernel that fails on any read shows the check comes before the proxy's pass
    "T run_adaptive_mh": (
        lambda: run_adaptive_mh(_unread_taylor_target(), PROP, np.zeros(1), -1,
                                StopRuleConfig(), KeyedRng(0)),
        "T must be >= 0", ["-1"]),
    "u mh_log_threshold": (
        lambda: mh_log_threshold(1.5, np.zeros(1), np.ones(1), PROP, TARGET.log_prior, 6),
        "u must lie in (0,1)", ["1.5"]),
    "dim FactoredTarget": (lambda: FactoredTarget(dim=0, n_data=0, log_prior=_unread),
                           "dim must be positive", ["0"]),
    "n_data FactoredTarget": (lambda: FactoredTarget(dim=1, n_data=-3, log_prior=_unread),
                              "n_data must be nonnegative", ["-3"]),
    # rejected when built: a step the proxy certifies never reads C
    "c_bound StopRuleConfig": (lambda: StopRuleConfig(rule="hoeffding", c_bound=-0.5),
                               "c_bound must be positive", ["-0.5"]),
    "c_bound zero StopRuleConfig": (lambda: StopRuleConfig(rule="bernstein", c_bound=0.0),
                                    "c_bound must be positive", ["0.0"]),
    "Taylor kernel's sums TaylorProxy": (
        lambda: TaylorProxy(_two_sum_taylor_target(), np.zeros(1)),
        "taylor_log_lik_terms(idx, c) must return three sums (G, H, R)", ["2"]),
    "T run_sgld": (
        lambda: run_sgld(TARGET, np.zeros(1), -2, MinibatchPlan(6, 2, KeyedRng(0)),
                         StepSchedule(), KeyedRng(0)),
        "T must be >= 0", ["-2"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_error_names_the_bad_value(case):
    call, prefix, values = CASES[case]
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert message.startswith(prefix), message
    rest = message[len(prefix):]
    for value in values:
        assert value in rest, message


TYPE_CASES = {
    "J float contiguous": (lambda: ShardPlan.contiguous(10, 2.5), "J must be an int",
                           ["2.5", "float"]),
    "J bool contiguous": (lambda: ShardPlan.contiguous(10, True), "J must be an int",
                          ["True", "bool"]),
    "n_out float consensus_kde": (
        lambda: consensus_kde(np.zeros((2, 3, 1)), 1.0, n_out=2.5, rng=np.random.default_rng(0)),
        "n_out must be an int", ["2.5", "float"]),
    "n_out bool consensus_kde": (
        lambda: consensus_kde(np.zeros((2, 3, 1)), 1.0, n_out=True, rng=np.random.default_rng(0)),
        "n_out must be an int", ["True", "bool"]),
}


@pytest.mark.parametrize("case", sorted(TYPE_CASES))
def test_size_of_the_wrong_type_names_the_value(case):
    call, prefix, values = TYPE_CASES[case]
    with pytest.raises(TypeError) as info:
        call()
    message = str(info.value)
    assert message.startswith(prefix), message
    rest = message[len(prefix):]
    for value in values:
        assert value in rest, message


def test_numpy_int_sizes_are_accepted():
    assert ShardPlan.contiguous(10, np.int64(2)).J == 2
    draws = consensus_kde(np.zeros((2, 3, 1)), 1.0, n_out=np.int64(4),
                          rng=np.random.default_rng(0))
    assert draws.shape == (4, 1)
