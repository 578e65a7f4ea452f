import numpy as np
import pytest

from bigbayes import weierstrass
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


@pytest.mark.parametrize("bad", [0, -1, 1.0])
def test_sync_every_below_one_or_not_int_raises_naming_value(bad):
    with pytest.raises(ValueError, match=f"sync_every.*{bad!r}"):
        weierstrass_run(SUBS_1D, np.zeros(1), 0.5, 3, sync_every=bad, rng=KeyedRng(2))


# -- snapshot isolation ---------------------------------------------------------

@pytest.mark.parametrize("subs", [SUBS_1D, callable_subs()], ids=["analytic", "callable"])
def test_xi_updates_of_a_round_see_the_previous_rounds_state(subs, monkeypatch):
    J, T = len(subs), 6
    calls = []   # (j, xi seen, theta seen, xi_j returned) in call order
    real = weierstrass.xi_update

    def spy(state, j, *args):
        xi, theta = state.xi.copy(), state.theta.copy()
        out = real(state, j, *args)
        calls.append((j, xi, theta, out))
        return out

    monkeypatch.setattr(weierstrass, "xi_update", spy)
    theta0 = np.array([0.25])
    draws = weierstrass_run(subs, theta0, 0.5, T, rng=KeyedRng(4)).draws
    assert len(calls) == J * T
    xi_prev, theta_prev = np.tile(theta0, (J, 1)), theta0
    for t in range(T):
        this_round = calls[t * J:(t + 1) * J]
        assert sorted(j for j, *_ in this_round) == list(range(J))
        for _, xi, theta, _ in this_round:
            assert np.array_equal(xi, xi_prev)
            assert np.array_equal(theta, theta_prev)
        xi_prev = np.empty_like(xi_prev)
        for j, _, _, out in this_round:
            xi_prev[j] = out
        theta_prev = draws[t]
    assert not np.array_equal(xi_prev, np.tile(theta0, (J, 1)))


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


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_xi_update_rejects_a_non_finite_proposal_density(bad):
    state = weierstrass.WeierstrassState(theta=np.zeros(1), xi=np.zeros((1, 1)), h=1.0)
    proposed = []

    def log_f(x):
        proposed.append(float(x[0]))
        return bad if x[0] > 0.5 else -0.5 * float(x @ x)

    xi = weierstrass.xi_update(state, 0, log_f, 200, KeyedRng(0).derive("xi", 0))
    assert max(proposed) > 0.5
    assert xi[0] <= 0.5


# -- f_j carried between rounds ----------------------------------------------------

class _Unmemoized:
    """Stands in for the per-shard memo: every call evaluates f_j."""

    def __init__(self, log_f):
        self.log_f = log_f

    def __call__(self, xi):
        return self.log_f(xi)

    def keep(self, xi):
        pass


def _counted_run(J, T, inner):
    calls = [0] * J

    def log_f(x, j):
        calls[j] += 1
        return -0.5 * float(np.sum((x - 0.3 * j) ** 2))

    subs = [lambda x, j=j: log_f(x, j) for j in range(J)]
    buf = weierstrass_run(subs, np.zeros(2), 0.4, T, inner_steps=inner, rng=KeyedRng(6))
    return buf.draws, calls


def test_callable_subposterior_is_read_once_per_proposal_and_at_theta0(monkeypatch):
    J, T, inner = 3, 15, 4
    draws, calls = _counted_run(J, T, inner)
    assert calls == [T * inner + 1] * J
    monkeypatch.setattr(weierstrass, "_RoundMemo", _Unmemoized)
    plain, plain_calls = _counted_run(J, T, inner)
    assert plain_calls == [T * (inner + 1)] * J
    assert np.array_equal(draws, plain)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_nan_or_positive_inf_start_density_raises_naming_it(bad):
    subs = callable_subs(2) + [lambda x: bad]
    with pytest.raises(ValueError, match=rf"theta=\[0\.25\] is {bad}"):
        weierstrass_run(subs, np.array([0.25]), 0.5, 3, rng=KeyedRng(2))
