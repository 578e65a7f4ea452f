import numpy as np
import pytest

from bigbayes.diagnostics import mcmc_se
from bigbayes.rng import KeyedRng
from bigbayes.simcluster import MASTER, SimCluster
from bigbayes.weierstrass import augmented_gaussian_oracle, weierstrass_run

SUBS_1D = [(-0.5, 1.0), (0.4, 0.5), (1.2, 2.0)]


def callable_subs(J=3):
    return [lambda x, j=j: -0.5 * float(np.sum((x - 0.3 * j) ** 2)) for j in range(J)]


# -- oracle ---------------------------------------------------------------------

def test_theta_moments_match_augmented_oracle():
    h = 0.6
    buf = weierstrass_run(SUBS_1D, np.zeros(1), h, 4000, rng=KeyedRng(3))
    theta = buf.draws[200:, 0]
    mean, var = augmented_gaussian_oracle(SUBS_1D, h)
    assert abs(theta.mean() - mean) < 4 * mcmc_se(theta)
    sq = (theta - mean) ** 2
    assert abs(sq.mean() - var) < 4 * mcmc_se(sq)


# -- reproducibility and traffic -------------------------------------------------

@pytest.mark.parametrize("subs", [SUBS_1D, callable_subs()], ids=["analytic", "callable"])
def test_rerun_bit_identical_and_master_worker_traffic_only(subs):
    runs = []
    for _ in range(2):
        cluster = SimCluster(len(subs), seed=5)
        buf = weierstrass_run(subs, np.zeros(1), 0.5, 30, inner_steps=3,
                              rng=KeyedRng(5), cluster=cluster)
        runs.append((buf.draws, cluster.trace))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert all(MASTER in (e["src"], e["dst"]) for e in runs[0][1])
    assert cluster.message_counts("weier-update") == 30 * len(subs)
    assert cluster.message_counts("weier-update-result") == 30 * len(subs)


def test_sync_every_two_redraws_theta_on_odd_rounds_only():
    theta0 = np.array([0.25])
    d = weierstrass_run(SUBS_1D, theta0, 0.5, 21, sync_every=2, rng=KeyedRng(2)).draws
    assert np.array_equal(d[0], theta0)
    for k in range(1, 11):
        assert np.array_equal(d[2 * k], d[2 * k - 1])
        assert not np.array_equal(d[2 * k - 1], d[2 * k - 2])


# -- callable path and cost ------------------------------------------------------

class ChargeLog(SimCluster):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.charges = []

    def charge(self, node, units):
        self.charges.append((node, units))
        super().charge(node, units)


def test_callable_path_charges_inner_steps_per_worker_per_round():
    J, T, inner = 3, 12, 4
    cluster = ChargeLog(J, seed=1)
    buf = weierstrass_run(callable_subs(J), np.zeros(2), 0.4, T, inner_steps=inner,
                          rng=KeyedRng(1), cluster=cluster)
    assert buf.draws.shape == (T, 2) and np.all(np.isfinite(buf.draws))
    for k in range(J):
        assert [u for node, u in cluster.charges if node == k] == [inner] * T
    assert cluster.total_charged == J * T * inner
