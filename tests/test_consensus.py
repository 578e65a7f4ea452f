import itertools
import re

import numpy as np
import pytest

from bigbayes.consensus import (
    ShardPlan,
    consensus_gaussian_fit,
    consensus_kde,
    sample_subposteriors_on_cluster,
    scott_bandwidth,
    subposterior_target,
    consensus_weighted,
)
from bigbayes.models import (
    GaussianModelSpec,
    gaussian_iid_target,
    gaussian_mean_target,
    gaussian_posterior,
    gaussian_subposterior,
)
from bigbayes.rng import KeyedRng
from bigbayes.simcluster import MASTER, SimCluster


def random_gaussian_spec(d, J, rng, spread=1.0):
    def spd():
        A = rng.standard_normal((d, d))
        return spread * (A @ A.T + d * np.eye(d))

    return GaussianModelSpec(
        prior_cov=spd(),
        shard_covs=tuple(spd() for _ in range(J)),
        shard_obs=tuple(rng.standard_normal(d) for _ in range(J)),
    )


def exact_subposterior_draws(spec, T, seed):
    """(J, T, d) exact draws from each analytic subposterior."""
    rng = np.random.default_rng(seed)
    out = []
    for j in range(spec.n_shards):
        mu, cov = gaussian_subposterior(spec, j)
        out.append(rng.multivariate_normal(mu, cov, size=T, method="cholesky"))
    return np.stack(out)


# -- shard plan and subposterior targets ----------------------------------------

def test_shard_plan_validates_partition():
    with pytest.raises(ValueError):
        ShardPlan(6, (np.array([0, 1]), np.array([2, 3])))
    with pytest.raises(ValueError):
        ShardPlan(4, (np.array([0, 1]), np.array([1, 2, 3])))
    plan = ShardPlan.contiguous(10, 3)
    assert plan.J == 3


@pytest.mark.parametrize("n, shards, what", [
    (6, ([0, 1], [2, 3]), "index 4 is in no shard"),
    (4, ([0, 1], [1, 2, 3]), "index 1 is in more than one shard"),
    (5, ([4, 3, 3], [0, 1, 2, 0]), "index 0 is in more than one shard"),
    (4, ([0, 3], [1, 1]), "index 1 is in more than one shard"),
    (4, ([0, 1], [5, 2, 3]), "index 5 is outside it"),
    (4, ([0, 1, 2, 3], [-1]), "index -1 is outside it"),
    (3, (), "index 0 is in no shard"),
])
def test_shard_plan_names_the_first_bad_index(n, shards, what):
    with pytest.raises(ValueError, match=re.escape(f"shards must partition 0..{n - 1}: {what}")):
        ShardPlan(n, tuple(np.array(s, dtype=int) for s in shards))


def test_shard_plan_accepts_any_partition():
    perm = np.random.default_rng(0).permutation(1000)
    plan = ShardPlan(1000, (perm[:10], perm[10:600], np.array([], dtype=int), perm[600:]))
    assert plan.J == 4
    assert ShardPlan(0, ()).J == 0


def test_single_shard_subposterior_is_full_posterior():
    xs = np.random.default_rng(0).normal(0.3, 1.0, 12)
    target = gaussian_iid_target(xs, prior_var=2.0)
    sub = subposterior_target(target, ShardPlan.contiguous(12, 1), 0)
    for th in (np.array([0.0]), np.array([1.2])):
        assert sub.log_joint(th) == pytest.approx(target.log_joint(th), abs=1e-12)


def test_subposteriors_sum_to_posterior_plus_constant():
    xs = np.random.default_rng(1).normal(0.0, 1.0, 20)
    target = gaussian_iid_target(xs, prior_var=3.0)
    plan = ShardPlan.contiguous(20, 4)
    rng = np.random.default_rng(2)
    diffs = []
    for _ in range(5):
        th = rng.standard_normal(1)
        total = sum(subposterior_target(target, plan, j).log_joint(th)
                    for j in range(4))
        diffs.append(total - target.log_joint(th))
    assert np.ptp(diffs) < 1e-10


def test_gaussian_shard_matches_subposterior_oracle():
    rng = np.random.default_rng(3)
    spec = random_gaussian_spec(2, 3, rng)
    target = gaussian_mean_target(spec)
    plan = ShardPlan.contiguous(3, 3)  # one model shard per plan shard
    j = 1
    sub = subposterior_target(target, plan, j)
    mu, cov = gaussian_subposterior(spec, j)
    prec = np.linalg.inv(cov)
    for _ in range(4):
        a, b = rng.standard_normal(2), rng.standard_normal(2)
        lhs = sub.log_joint(a) - sub.log_joint(b)
        rhs = (-0.5 * (a - mu) @ prec @ (a - mu)) - (-0.5 * (b - mu) @ prec @ (b - mu))
        assert lhs == pytest.approx(rhs, abs=1e-10)


# -- weighted averaging -----------------------------------------------------------

def test_single_shard_weights_are_identity():
    rng = np.random.default_rng(4)
    draws = rng.standard_normal((1, 500, 2))
    out = consensus_weighted(draws)
    assert np.allclose(out, draws[0], atol=1e-10)


def test_weighted_consensus_matches_gaussian_oracle():
    rng = np.random.default_rng(5)
    spec = random_gaussian_spec(2, 4, rng)
    mu, cov = gaussian_posterior(spec)
    draws = exact_subposterior_draws(spec, 10**4, seed=6)
    out = consensus_weighted(draws)
    se = np.sqrt(np.diag(cov) / len(out))
    assert np.all(np.abs(out.mean(axis=0) - mu) < 3.5 * se)
    emp_cov = np.cov(out.T)
    rel = np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov)
    assert rel < 0.10


def test_population_weights_recover_posterior_moments():
    # with population covariances the weights are exact: sum_j W_j = I,
    # sum_j W_j muTilde_j = mu, and sum_j W_j SigmaTilde_j W_j^T = Sigma
    rng = np.random.default_rng(7)
    spec = random_gaussian_spec(3, 4, rng)
    mu, sigma = gaussian_posterior(spec)
    J = spec.n_shards
    sub = [gaussian_subposterior(spec, j) for j in range(J)]
    # subposterior precisions already sum to the posterior precision
    post_prec_from_subs = sum(np.linalg.inv(c) for _, c in sub)
    assert np.allclose(np.linalg.inv(post_prec_from_subs), sigma, atol=1e-10)
    total_cov = np.zeros((3, 3))
    total_mean = np.zeros(3)
    total_W = np.zeros((3, 3))
    for mu_j, cov_j in sub:
        W = sigma @ np.linalg.inv(cov_j)
        total_cov += W @ cov_j @ W.T
        total_mean += W @ mu_j
        total_W += W
    assert np.allclose(total_W, np.eye(3), atol=1e-10)
    assert np.allclose(total_mean, mu, atol=1e-10)
    assert np.allclose(total_cov, sigma, atol=1e-10)


def test_singular_sample_covariance_names_shard():
    draws = np.zeros((2, 50, 2))
    draws[0] = np.random.default_rng(8).standard_normal((50, 2))
    # shard 1 is constant -> singular
    with pytest.raises(np.linalg.LinAlgError, match="shard 1"):
        consensus_weighted(draws)


def test_diagonal_weight_variant_runs():
    rng = np.random.default_rng(9)
    spec = random_gaussian_spec(2, 3, rng)
    draws = exact_subposterior_draws(spec, 4000, seed=10)
    mu, cov = gaussian_posterior(spec)
    out = consensus_weighted(draws, diagonal=True)
    # diagonal weighting is approximate; just demand sane recovery
    assert np.all(np.abs(out.mean(axis=0) - mu) < 5 * np.sqrt(np.diag(cov) / len(out)) + 0.1)


# -- Gaussian fits ---------------------------------------------------------------

def standardize(x, mean, var):
    z = (x - x.mean()) / x.std(ddof=0)
    return mean + z * np.sqrt(var)


def test_two_standard_fits_product():
    rng = np.random.default_rng(11)
    a = standardize(rng.standard_normal(4000), 0.0, 1.0)
    b = standardize(rng.standard_normal(4000), 0.0, 1.0)
    mean, cov, _ = consensus_gaussian_fit(np.stack([a, b]))
    assert mean[0] == pytest.approx(0.0, abs=1e-12)
    assert cov[0, 0] == pytest.approx(0.5, rel=1e-3)


def test_opposite_means_product():
    rng = np.random.default_rng(12)
    a = standardize(rng.standard_normal(4000), -1.0, 1.0)
    b = standardize(rng.standard_normal(4000), 1.0, 1.0)
    mean, cov, sampler = consensus_gaussian_fit(np.stack([a, b]))
    assert mean[0] == pytest.approx(0.0, abs=1e-10)
    assert cov[0, 0] == pytest.approx(0.5, rel=1e-3)
    draws = sampler(2000, np.random.default_rng(13))
    assert draws.mean() == pytest.approx(0.0, abs=3 * np.sqrt(0.5 / 2000))


def test_gaussian_fit_exact_on_gaussian_model():
    rng = np.random.default_rng(14)
    spec = random_gaussian_spec(2, 4, rng)
    mu, cov = gaussian_posterior(spec)
    T = 10**4
    draws = exact_subposterior_draws(spec, T, seed=15)
    mean, fit_cov, _ = consensus_gaussian_fit(draws)
    # fitted-moment error only: compare against the oracle with 3+ SE slack
    worst_sub_sd = max(np.sqrt(np.diag(gaussian_subposterior(spec, j)[1])).max()
                       for j in range(4))
    tol = 4 * worst_sub_sd / np.sqrt(T)
    assert np.all(np.abs(mean - mu) < tol)
    assert np.linalg.norm(fit_cov - cov) / np.linalg.norm(cov) < 0.1


# -- KDE -------------------------------------------------------------------------

def test_kde_single_shard_mean_matches():
    rng = np.random.default_rng(16)
    draws = rng.normal(2.0, 1.0, (1, 2000, 1))
    out = consensus_kde(draws, bandwidth=0.3, n_out=4000,
                        rng=np.random.default_rng(17))
    se = out.std() / np.sqrt(len(out))
    assert abs(out.mean() - draws.mean()) < 4 * se


def test_kde_two_shard_enumeration():
    # J=2, T=3: exact 9-component mixture weights vs empirical index visits
    a = np.array([-1.0, 0.0, 1.0])
    b = np.array([-0.8, 0.1, 1.2])
    h = 1.0
    draws = np.stack([a, b])[:, :, None]
    _, visited = consensus_kde(draws, bandwidth=h, n_out=10**5,
                               rng=np.random.default_rng(18), return_indices=True)
    counts = np.zeros((3, 3))
    for t1, t2 in visited:
        counts[t1, t2] += 1
    emp = counts / counts.sum()
    exact = np.array([[np.exp(-(ai - bj) ** 2 / (4 * h**2)) for bj in b] for ai in a])
    exact /= exact.sum()
    assert 0.5 * np.abs(emp - exact).sum() < 0.02


def test_kde_large_bandwidth_approaches_gaussian_fit_mean():
    rng = np.random.default_rng(19)
    draws = np.stack([rng.normal(2.0, 1.0, (3000, 1)), rng.normal(4.0, 1.0, (3000, 1))])
    mean_fit, _, _ = consensus_gaussian_fit(draws)
    out = consensus_kde(draws, bandwidth=5.0, n_out=2 * 10**4,
                        rng=np.random.default_rng(20))
    assert abs(out.mean() - mean_fit[0]) / abs(mean_fit[0]) < 0.05


def test_kde_underflow_advises_larger_h():
    draws = np.stack([np.array([-100.0, -99.0]), np.array([100.0, 101.0])])[:, :, None]
    with pytest.raises(FloatingPointError, match="bandwidth"):
        consensus_kde(draws, bandwidth=1e-3, n_out=10, rng=np.random.default_rng(21))


def reference_kde(draws, bandwidth=None, n_out=1000, *, rng):
    """The component-index Gibbs sampler written plainly, one delete, gather
    and ``Generator.choice`` per update; returns (out, visited)."""
    arr = np.asarray(draws, dtype=float)
    J, T, d = arr.shape
    if bandwidth is None:
        h = np.mean([scott_bandwidth(arr[j]) for j in range(J)], axis=0)
    else:
        h = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,)).copy()
    inv_h2 = 1.0 / h**2
    idx = rng.integers(0, T, size=J)
    out = np.empty((n_out, d))
    visited = np.empty((n_out, J), dtype=int)
    for s in range(n_out):
        for j in range(J):
            others = np.delete(np.arange(J), j)
            sum_others = arr[others, idx[others], :].sum(axis=0)
            x = arr[j]
            quad = (1.0 - 1.0 / J) * x**2 - (2.0 / J) * x * sum_others[None, :]
            logw = -0.5 * (quad * inv_h2[None, :]).sum(axis=1)
            logw -= logw.max()
            w = np.exp(logw)
            tot = w.sum()
            if not np.isfinite(tot) or tot <= 0:
                raise FloatingPointError("reference: KDE weights underflowed (bandwidth)")
            idx[j] = rng.choice(T, p=w / tot)
        visited[s] = idx
        centers = arr[np.arange(J), idx, :]
        state_logw = -0.5 * float(
            (((centers - centers.mean(axis=0)) ** 2) * inv_h2[None, :]).sum())
        if state_logw < -745.0:
            raise FloatingPointError("reference: KDE weights underflowed (bandwidth)")
        out[s] = centers.mean(axis=0) + rng.standard_normal(d) * h / np.sqrt(J)
    return out, visited


@pytest.mark.parametrize("T", [2, 150, 1000])
@pytest.mark.parametrize("d", [1, 5])
@pytest.mark.parametrize("J", [2, 4])
def test_kde_matches_the_plain_gibbs_reference(J, d, T):
    rng = np.random.default_rng(100 * J + 10 * d + T)
    draws = rng.normal(rng.normal(size=(J, 1, d)), 1.0, (J, T, d))
    n_out = 40 if T == 1000 else 120
    want, want_idx = reference_kde(draws, n_out=n_out, rng=np.random.default_rng(T))
    got, got_idx = consensus_kde(draws, n_out=n_out, rng=np.random.default_rng(T),
                                 return_indices=True)
    assert np.array_equal(got_idx, want_idx)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_kde_non_finite_shard_draw_fails_the_weight_sum_check(bad):
    # every draw shares bad's sign, so an infinite atom makes its own
    # update's weights inf - inf = NaN, as in the reference; consensus_kde
    # rejects the draw before the sweep and names it
    sign = -1.0 if bad < 0 else 1.0
    draws = sign * np.random.default_rng(24).uniform(1.0, 2.0, (4, 5, 2))
    draws[1, 2, 0] = bad
    with pytest.raises(FloatingPointError, match="bandwidth"):
        reference_kde(draws, bandwidth=0.5, n_out=5, rng=np.random.default_rng(25))
    for bandwidth in (0.5, None):
        with pytest.raises(ValueError, match=rf"shard 1, draw 2, coordinate 0 is not finite: {bad}"):
            consensus_kde(draws, bandwidth=bandwidth, n_out=5, rng=np.random.default_rng(25))


@pytest.mark.parametrize("h", [0.0, -1.0, np.nan])
def test_kde_bandwidth_must_be_positive_and_is_named(h):
    draws = np.random.default_rng(26).standard_normal((2, 5, 2))
    with pytest.raises(ValueError, match=rf"got h = \[{h}, {h}\]"):
        consensus_kde(draws, bandwidth=h, n_out=5, rng=np.random.default_rng(27))


def test_scott_bandwidth_shape():
    x = np.random.default_rng(22).standard_normal((500, 3))
    h = scott_bandwidth(x)
    assert h.shape == (3,) and np.all(h > 0)


# -- cluster execution -------------------------------------------------------------

def test_no_interworker_messages_before_aggregation():
    xs = np.random.default_rng(23).normal(1.0, 1.0, 40)
    target = gaussian_iid_target(xs, prior_var=2.0)
    plan = ShardPlan.contiguous(40, 4)
    cluster = SimCluster(4, seed=24)

    def sampler(sub, worker_rng):
        gen = worker_rng.generator()
        return gen.standard_normal((50, 1))  # placeholder draws; topology is the point

    draws = sample_subposteriors_on_cluster(target, plan, sampler, cluster)
    assert draws.shape == (4, 50, 1)
    for e in cluster.trace:
        assert e["src"] == MASTER or e["dst"] == MASTER  # never worker-to-worker
