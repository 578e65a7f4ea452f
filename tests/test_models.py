import gc
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bigbayes.consensus import ShardPlan, subposterior_target
from bigbayes.firefly import BOUND_SLACK, logistic_quadratic_bound
from bigbayes.models import (
    FD_BLOCK,
    FactoredTarget,
    GaussianModelSpec,
    finite_difference_gradient,
    gaussian_iid_target,
    gaussian_mean_target,
    gaussian_posterior,
    gaussian_subposterior,
    _log_sigmoid,
    logistic_regression_target,
)


def random_spd(d, rng, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T + d * np.eye(d))


# -- Gaussian model oracle ---------------------------------------------------

def test_gaussian_posterior_matches_conjugate_composition():
    # Unit-variance shards: J conjugate updates reproduce the closed form.
    # In natural coordinates eta = (precision * mean, precision) the prior
    # N(0, 2) is (0, 1/2) and each unit-variance observation x adds (x, 1).
    obs = [0.7, -1.1, 2.4]
    spec = GaussianModelSpec.from_scalars(2.0, [1.0] * 3, obs)
    mu, cov = gaussian_posterior(spec)
    eta = np.array([0.0, 0.5]) + np.array([sum(obs), len(obs)])
    assert mu[0] == pytest.approx(eta[0] / eta[1], abs=1e-10)
    assert cov[0, 0] == pytest.approx(1.0 / eta[1], abs=1e-10)


def test_gaussian_posterior_1d_closed_form():
    spec = GaussianModelSpec.from_scalars(1.0, [1.0], [2.0])
    mu, cov = gaussian_posterior(spec)
    assert cov[0, 0] == pytest.approx(0.5)
    assert mu[0] == pytest.approx(1.0)


def test_gaussian_posterior_no_shards_returns_prior():
    spec = GaussianModelSpec(prior_cov=np.diag([2.0, 3.0]))
    mu, cov = gaussian_posterior(spec)
    assert np.allclose(mu, 0.0)
    assert np.allclose(cov, np.diag([2.0, 3.0]))


def test_gaussian_posterior_matches_independent_solve():
    # Oracle: assemble the joint quadratic form and solve densely with lstsq,
    # an independent linear-algebra route from the inv-based implementation.
    rng = np.random.default_rng(5)
    d, J = 2, 3
    spec = GaussianModelSpec(
        prior_cov=random_spd(d, rng),
        shard_covs=tuple(random_spd(d, rng) for _ in range(J)),
        shard_obs=tuple(rng.standard_normal(d) for _ in range(J)),
    )
    mu, cov = gaussian_posterior(spec)
    prec = np.linalg.lstsq(spec.prior_cov, np.eye(d), rcond=None)[0]
    rhs = np.zeros(d)
    for S, x in zip(spec.shard_covs, spec.shard_obs):
        Pi = np.linalg.lstsq(S, np.eye(d), rcond=None)[0]
        prec += Pi
        rhs += Pi @ x
    mu_solve = np.linalg.lstsq(prec, rhs, rcond=None)[0]
    cov_solve = np.linalg.lstsq(prec, np.eye(d), rcond=None)[0]
    assert np.allclose(mu, mu_solve, atol=1e-8)
    assert np.allclose(cov, cov_solve, atol=1e-8)


def test_subposterior_single_shard_equals_posterior():
    spec = GaussianModelSpec.from_scalars(1.5, [0.7], [0.9])
    mu_s, cov_s = gaussian_subposterior(spec, 0)
    mu_p, cov_p = gaussian_posterior(spec)
    assert np.allclose(mu_s, mu_p) and np.allclose(cov_s, cov_p)


def test_subposterior_1d_closed_form():
    spec = GaussianModelSpec.from_scalars(1.0, [1.0, 1.0], [2.0, -1.0])
    _, cov = gaussian_subposterior(spec, 0)
    mu, _ = gaussian_subposterior(spec, 0)
    assert cov[0, 0] == pytest.approx(2.0 / 3.0)
    assert mu[0] == pytest.approx(4.0 / 3.0)


def test_subposterior_product_proportional_to_posterior():
    rng = np.random.default_rng(11)
    d, J = 2, 4
    spec = GaussianModelSpec(
        prior_cov=random_spd(d, rng),
        shard_covs=tuple(random_spd(d, rng) for _ in range(J)),
        shard_obs=tuple(rng.standard_normal(d) for _ in range(J)),
    )
    mu, cov = gaussian_posterior(spec)
    post_prec = np.linalg.inv(cov)

    def log_post(th):
        return -0.5 * (th - mu) @ post_prec @ (th - mu)

    def log_sub(j, th):
        m, c = gaussian_subposterior(spec, j)
        return -0.5 * (th - m) @ np.linalg.inv(c) @ (th - m)

    diffs = []
    for _ in range(5):
        th = rng.standard_normal(d)
        diffs.append(sum(log_sub(j, th) for j in range(J)) - log_post(th))
    assert np.ptp(diffs) < 1e-8


def test_non_spd_covariance_rejected():
    with pytest.raises(np.linalg.LinAlgError):
        GaussianModelSpec(prior_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- factored targets --------------------------------------------------------

def test_log_joint_no_data_is_prior():
    t = FactoredTarget(dim=1, n_data=0, log_prior=lambda th: -0.5 * float(th @ th))
    assert t.log_joint(np.array([1.3])) == pytest.approx(-0.5 * 1.69)


def test_gaussian_target_matches_closed_form_differences():
    rng = np.random.default_rng(2)
    spec = GaussianModelSpec(
        prior_cov=random_spd(2, rng),
        shard_covs=tuple(random_spd(2, rng) for _ in range(3)),
        shard_obs=tuple(rng.standard_normal(2) for _ in range(3)),
    )
    target = gaussian_mean_target(spec)
    mu, cov = gaussian_posterior(spec)
    prec = np.linalg.inv(cov)

    def log_post(th):
        return -0.5 * (th - mu) @ prec @ (th - mu)

    a, b = rng.standard_normal(2), rng.standard_normal(2)
    assert (target.log_joint(a) - target.log_joint(b)) == pytest.approx(
        log_post(a) - log_post(b), abs=1e-10
    )


def test_gaussian_target_terms_match_per_shard_loop():
    # the stacked (J, d, d) form against the per-shard quadratic forms
    rng = np.random.default_rng(6)
    d, J = 3, 7
    spec = GaussianModelSpec(
        prior_cov=random_spd(d, rng),
        shard_covs=tuple(random_spd(d, rng) for _ in range(J)),
        shard_obs=tuple(rng.standard_normal(d) for _ in range(J)),
    )
    target = gaussian_mean_target(spec)
    th = rng.standard_normal(d)
    idx = np.array([4, 0, 4, 6])
    precs = [np.linalg.inv(S) for S in spec.shard_covs]
    resid = [spec.shard_obs[j] - th for j in idx]
    terms = [-0.5 * r @ precs[j] @ r for j, r in zip(idx, resid)]
    grads = [precs[j] @ r for j, r in zip(idx, resid)]
    assert np.allclose(target.log_lik_terms(idx, th), terms, rtol=1e-12, atol=1e-14)
    assert np.allclose(target.grad_log_lik_terms(idx, th), grads, rtol=1e-12, atol=1e-14)


def test_gaussian_target_without_shards_is_prior():
    target = gaussian_mean_target(GaussianModelSpec(prior_cov=np.diag([2.0, 3.0])))
    assert target.n_data == 0
    assert target.log_joint(np.array([1.0, -1.0])) == pytest.approx(-0.5 * (1 / 2 + 1 / 3))


def test_gradient_zero_at_posterior_mode():
    spec = GaussianModelSpec.from_scalars(1.0, [1.0, 2.0], [2.0, 0.5])
    target = gaussian_mean_target(spec)
    mu, _ = gaussian_posterior(spec)
    assert np.all(np.abs(target.grad_log_joint(mu)) < 1e-8)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 3))
    y = np.where(rng.random(20) < 0.5, -1.0, 1.0)
    target = logistic_regression_target(X, y, prior_scale=2.0)
    for _ in range(4):
        th = rng.standard_normal(3)
        g = target.grad_log_joint(th)
        fd = finite_difference_gradient(target.log_joint, th)
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_finite_difference_fallback_gradient():
    target = FactoredTarget(
        dim=2,
        n_data=3,
        log_prior=lambda th: -0.5 * float(th @ th),
        log_lik_terms=lambda idx, th: -0.25 * (th[0] - np.asarray(idx)) ** 2 - 0.1 * th[1] ** 4,
    )
    th = np.array([0.3, -0.7])
    fd = finite_difference_gradient(target.log_joint, th)
    assert np.allclose(target.grad_log_joint(th), fd, rtol=1e-5, atol=1e-6)


def test_finite_difference_gradient_array_valued():
    def f(x):
        return np.array([x @ x, np.sin(x[0]) * x[1], np.sum(x**3)])

    x = np.array([0.3, -1.2, 2.0])
    jac = finite_difference_gradient(f, x)
    want = np.array([2.0 * x,
                     [np.cos(x[0]) * x[1], np.sin(x[0]), 0.0],
                     3.0 * x**2])
    assert jac.shape == (3, 3)
    assert np.allclose(jac, want, rtol=1e-6, atol=1e-8)
    assert finite_difference_gradient(lambda v: v @ v, x).shape == (3,)


def test_batch_only_target_gets_finite_difference_batch_gradient():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((15, 2))
    y = np.where(rng.random(15) < 0.4, -1.0, 1.0)
    full = logistic_regression_target(X, y)
    batch_only = FactoredTarget(dim=2, n_data=15, log_prior=full.log_prior,
                                log_lik_terms=full.log_lik_terms)
    th = rng.standard_normal(2)
    for idx in (np.array([0, 3, 7]), range(15), np.array([], dtype=int)):
        got = batch_only.grad_log_lik_terms(idx, th)
        assert got.shape == (len(idx), 2)
        assert np.allclose(got, full.grad_log_lik_terms(idx, th), rtol=1e-6, atol=1e-8)


def test_finite_difference_fallback_differences_a_long_batch_in_blocks():
    # every term's difference is the one the whole batch at once would give
    n = 2 * FD_BLOCK + 37
    xs = np.random.default_rng(11).standard_normal(n)
    calls = []

    def terms(idx, th):
        calls.append(len(idx))
        return -0.5 * (xs[np.asarray(idx)] - th[..., :1]) ** 2 * th[..., 1:]

    target = FactoredTarget(dim=2, n_data=n, log_prior=lambda th: 0.0, log_lik_terms=terms)
    th = np.array([0.3, 1.7])
    for idx in (range(n), np.random.default_rng(12).permutation(n)):
        want = finite_difference_gradient(lambda t: terms(idx, t), th)
        calls.clear()
        assert np.array_equal(target.grad_log_lik_terms(idx, th), want)
        assert calls == [FD_BLOCK] * 4 + [FD_BLOCK] * 4 + [37] * 4  # 2 d calls a block


def test_finite_difference_fallbacks_read_kernels_assigned_later():
    # a counting wrapper assigned after construction sees the gradient's 2d calls
    rng = np.random.default_rng(10)
    X = rng.standard_normal((12, 3))
    y = np.where(rng.random(12) < 0.5, -1.0, 1.0)
    full = logistic_regression_target(X, y)
    target = FactoredTarget(dim=3, n_data=12, log_prior=full.log_prior,
                            log_lik_terms=full.log_lik_terms)
    calls = {"prior": 0, "lik": 0}

    def counting_prior(th):
        calls["prior"] += 1
        return full.log_prior(th)

    def counting_lik(idx, th):
        calls["lik"] += 1
        return full.log_lik_terms(idx, th)

    target.log_prior = counting_prior
    target.log_lik_terms = counting_lik
    th = rng.standard_normal(3)
    g = target.grad_log_joint(th)
    assert calls == {"prior": 2 * 3, "lik": 2 * 3}
    assert np.allclose(g, full.grad_log_joint(th), rtol=1e-5, atol=1e-6)


# -- logistic kernels --------------------------------------------------------

EDGE_Z = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
          1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308,
          1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=500, deadline=None)
@given(z=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example(z=EDGE_Z)
def test_log_sigmoid_within_two_ulp_of_logaddexp(z):
    # st.floats spans subnormals and |z| up to the largest double
    z = np.array(z)
    in_place = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sigmoid(z)
        _log_sigmoid(in_place, out=in_place)
    assert in_place.tobytes() == got.tobytes()
    want = -np.logaddexp(0.0, -z)
    assert np.all(got <= 0.0)
    # both are <= 0, so the distance of their magnitudes' bit patterns counts ulps
    ulps = np.abs(np.abs(got).view(np.int64) - np.abs(want).view(np.int64))
    assert np.all(ulps <= 2), (z, got, want)


def test_log_sigmoid_exact_at_infinities_and_keeps_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _log_sigmoid(np.array([np.inf, -np.inf, np.nan]))
    assert got[0] == 0.0 and got[1] == -np.inf and np.isnan(got[2])


def test_logistic_gradient_at_huge_margins_raises_no_warning():
    # a margin of 1000 overflows exp(z) in sigma(-z); the limit 0 is exact
    target = logistic_regression_target(np.array([[1000.0], [-1000.0]]), np.array([1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = target.grad_log_lik_terms(np.arange(2), np.array([1.0]))
    assert grad.tolist() == [[0.0], [-1000.0]]


def test_logistic_gradient_bits_are_the_plain_sigmoid_formula():
    gen = np.random.default_rng(5)
    X = 300.0 * gen.standard_normal((50, 3))
    y = np.where(gen.random(50) < 0.5, -1.0, 1.0)
    th = gen.standard_normal(3)
    # the target reads label-signed columns, a C-contiguous (d, N) array, and
    # a vector-matrix product over it rounds differently from X @ th
    z = th @ np.ascontiguousarray((X * y[:, None]).T)
    with np.errstate(over="ignore"):
        want = X * (1.0 / (1.0 + np.exp(z)) * y)[:, None]
    got = logistic_regression_target(X, y).grad_log_lik_terms(np.arange(50), th)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("make", [
    logistic_regression_target,
    lambda X, y: logistic_quadratic_bound(X, y, np.zeros(3)),
], ids=["target", "bound"])
@pytest.mark.parametrize("x_shape, n_labels", [((10, 3), 12), ((10, 3), 8), ((10,), 10)])
def test_logistic_data_of_mismatched_shapes_rejected(make, x_shape, n_labels):
    X, y = np.ones(x_shape), np.ones(n_labels)
    with pytest.raises(ValueError, match=re.escape(f"X {x_shape} and y {(n_labels,)}")):
        make(X, y)


@pytest.mark.parametrize("make", [
    logistic_regression_target,
    lambda X, y: logistic_quadratic_bound(X, y, np.zeros(3)),
], ids=["target", "bound"])
@pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, np.nan])
def test_logistic_labels_outside_plus_minus_one_rejected_naming_the_first(make, bad):
    y = np.ones(10)
    y[[3, 7]] = -1.0
    y[[4, 8]] = bad
    with pytest.raises(ValueError, match=re.escape(f"got y[4] = {bad}")):
        make(np.ones((10, 3)), y)


# -- the logistic kernels against the row-major formulas --------------------

def _huge_margin_data(d, n=12_000):
    """Logistic data with every tenth row scaled up so that about a tenth of
    the margins lie beyond +-709, where exp(-|z|) is subnormal or zero."""
    gen = np.random.default_rng(d)
    X = gen.standard_normal((n, d))
    X[::10] *= 2000.0
    y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    th = gen.standard_normal(d)
    z = y * (X @ th)
    assert np.sum(z > 709) > n // 50 and np.sum(z < -709) > n // 50
    return X, y, th


def _plain_terms(X, y, th):
    return -np.logaddexp(0.0, -y * (X @ th))


@pytest.mark.parametrize("d", [1, 5])
def test_logistic_kernels_match_the_row_major_formulas(d):
    X, y, th = _huge_margin_data(d)
    n = len(y)
    target = logistic_regression_target(X, y)
    want = _plain_terms(X, y, th)
    # every datum's term, then the sum the exact samplers read
    assert_close = lambda got, w: np.testing.assert_allclose(got, w, rtol=1e-12, atol=0.0)
    assert_close(target.log_lik_terms(range(n), th), want)
    assert_close(target.log_likelihood(th), np.sum(want))
    gen = np.random.default_rng(d)
    gathers = [gen.integers(-n, n, 3000), gen.permutation(n)[:500], np.array([7]),
               np.arange(n - 1, -1, -3)]
    for idx in gathers:
        assert_close(target.log_lik_terms(idx, th), want[idx])
    for r in (range(100, 4100), range(n - 1, n), range(0, n, 7), range(-5, 5)):
        assert_close(target.log_lik_terms(r, th), want[np.arange(r.start, r.stop, r.step)])
    plan = ShardPlan.contiguous(n, 3)
    for j, shard in enumerate(plan.shards):
        sub = subposterior_target(target, plan, j)
        assert_close(sub.log_lik_terms(sub.all_indices(), th), want[shard])
        assert_close(sub.log_likelihood(th), np.sum(want[shard]))
    for empty in (np.array([], dtype=int), range(0), range(5, 5)):
        assert target.log_lik_terms(empty, th).shape == (0,)
        assert target.grad_log_lik_terms(empty, th).shape == (0, d)

    # gradients: a_n sigma(-z_n) per datum, X^T (y sigma(-z)) summed; subnormal
    # sigma(-z) (z in about 708..745) keeps fewer digits, hence the tiny atol
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(y * (X @ th)))
    per_datum = X * (y * s)[:, None]
    got = target.grad_log_lik_terms(range(n), th)
    np.testing.assert_allclose(got, per_datum, rtol=1e-12, atol=1e-300)
    idx = gathers[0]
    np.testing.assert_allclose(target.grad_log_lik_terms(idx, th), per_datum[idx],
                               rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(np.sum(got, axis=0), X.T @ (y * s), rtol=1e-12)


@pytest.mark.parametrize("d", [1, 5])
def test_logistic_bound_is_tight_against_the_target_on_every_datum(d):
    # the bound computes margins from X and y, the target from its own
    # label-signed columns; at theta_ref both must agree to within the slack
    X, y, th = _huge_margin_data(d)
    target = logistic_regression_target(X, y)
    bound = logistic_quadratic_bound(X, y, th)
    every = range(len(y))
    gap = bound.log_bound_batch(every, th) - target.log_lik_terms(every, th)
    assert np.max(np.abs(gap)) <= BOUND_SLACK
    idx = np.random.default_rng(d).permutation(len(y))[:2000]
    assert np.max(bound.log_bound_batch(idx, th) - target.log_lik_terms(idx, th)) <= BOUND_SLACK


# -- stacked parameters: one batch kernel call for k thetas -------------------

def _stacked_case(kind, gen, n, d):
    """(target, scale) for a target of this kind on random data; ``scale(idx,
    th)`` is the sum of the magnitudes of what each term adds up, the size
    its rounding error follows."""
    if kind == "logistic":
        X = gen.standard_normal((n, d)) * gen.choice([0.01, 1.0, 100.0])
        y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
        A = X * y[:, None]
        # |d log sigma / dz| <= 1, so a term's error follows its margin's
        return logistic_regression_target(X, y), lambda idx, th: np.abs(A[idx]) @ np.abs(th)
    if kind == "gaussian_iid":
        xs = gen.standard_normal(n) * 10.0
        target = gaussian_iid_target(xs, prior_var=2.0, lik_var=0.7)
        const = 0.5 * np.log(2 * np.pi * 0.7)
        return target, lambda idx, th: 0.5 * (xs[idx] - th[0]) ** 2 / 0.7 + const
    covs = [random_spd(d, gen) for _ in range(n)]
    obs = [gen.standard_normal(d) * 3.0 for _ in range(n)]
    target = gaussian_mean_target(GaussianModelSpec(np.eye(d), tuple(covs), tuple(obs)))
    precs, xs = np.abs(np.linalg.inv(np.array(covs))), np.array(obs)
    return target, lambda idx, th: 0.5 * np.einsum(
        "ji,jik,jk->j", np.abs(xs[idx] - th), precs[idx], np.abs(xs[idx] - th))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["logistic", "gaussian_iid", "gaussian_mean"]),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 6),
       k=st.integers(1, 3), data=st.data())
def test_stacked_thetas_give_each_thetas_terms(kind, seed, n, d, k, data):
    # row i of a call on a (k, d) stack is the call on theta[i], to within
    # 4 ulp of the term's scale (the stacked logistic margins are one matrix
    # product, which may sum in another order than the vector product)
    gen = np.random.default_rng(seed)
    d = 1 if kind == "gaussian_iid" else d
    target, scale = _stacked_case(kind, gen, n, d)
    thetas = gen.standard_normal((k, d)) * gen.choice([0.1, 1.0, 10.0])
    start = data.draw(st.integers(0, n))
    batches = [gen.integers(0, n, data.draw(st.integers(0, 2 * n))),
               range(start, data.draw(st.integers(start, n))), range(n)]
    for idx in batches:
        rows = np.arange(idx.start, idx.stop) if isinstance(idx, range) else idx
        stacked = target.log_lik_terms(idx, thetas)
        assert stacked.shape == (k, len(rows))
        for i, th in enumerate(thetas):
            one = target.log_lik_terms(idx, th)
            tol = 4 * np.spacing(np.maximum(np.abs(one), scale(rows, th)))
            assert np.all(np.abs(stacked[i] - one) <= tol)


# -- what the logistic kernels keep in memory --------------------------------

def _retained_bytes(build):
    """Bytes still allocated after ``build()`` returns, and its result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        obj = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, obj
    finally:
        tracemalloc.stop()


def test_logistic_target_keeps_one_copy_of_the_data_and_not_the_callers():
    n, d = 20_000, 5
    gen = np.random.default_rng(1)
    X = gen.standard_normal((n, d))
    y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    X_ref, y_ref = weakref.ref(X), weakref.ref(y)
    retained, target = _retained_bytes(lambda: logistic_regression_target(X, y))
    assert d * n * 8 <= retained < d * n * 8 + 64 * 1024
    th = gen.standard_normal(d)
    before = target.log_likelihood(th)
    X[:] = 0.0
    assert target.log_likelihood(th) == before
    del X, y
    gc.collect()
    assert X_ref() is None and y_ref() is None


def test_logistic_bound_reads_the_callers_data_in_place():
    n, d = 20_000, 5
    gen = np.random.default_rng(2)
    X = gen.standard_normal((n, d))
    y = np.where(gen.random(n) < 0.5, -1.0, 1.0)
    th = gen.standard_normal(d)
    # c and lam, the bound's N-vectors, and nothing of size N x d
    retained, bound = _retained_bytes(lambda: logistic_quadratic_bound(X, y, th))
    assert retained <= 3 * n * 8
    before = bound.log_bound_batch(np.arange(3), th)
    X[:3] *= 2.0
    assert not np.array_equal(bound.log_bound_batch(np.arange(3), th), before)
