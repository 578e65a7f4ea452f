"""The term-index contract: a ``range`` means exactly its integer array,
``np.arange(r.start, r.stop, r.step)``.

The shipped kernels read a unit-step range inside 0..N as a view; every
other range is gathered as its array and behaves as that array does.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigbayes.consensus import ShardPlan, subposterior_target
from bigbayes.firefly import logistic_quadratic_bound, scaled_gaussian_bound
from bigbayes.mcmc import parallel_log_lik
from bigbayes.models import (
    FactoredTarget,
    GaussianModelSpec,
    gaussian_iid_target,
    gaussian_mean_target,
    logistic_regression_target,
)

_rng = np.random.default_rng(11)
_X = _rng.standard_normal((13, 3))
_y = np.where(_rng.random(13) < 0.5, -1.0, 1.0)
_xs = _rng.standard_normal(13)
_THETA = np.array([0.3, -0.2, 0.5])
_logistic = logistic_regression_target(_X, _y)
_gauss_iid = gaussian_iid_target(_xs, prior_var=2.0, lik_var=0.5)
_gauss_mean = gaussian_mean_target(GaussianModelSpec(
    prior_cov=np.eye(3),
    shard_covs=tuple(np.eye(3) * (1.0 + 0.1 * j) for j in range(6)),
    shard_obs=tuple(_rng.standard_normal(3) for _ in range(6)),
))
_contiguous = ShardPlan.contiguous(13, 3)
_interleaved = ShardPlan(13, tuple(np.arange(j, 13, 3) for j in range(3)))
_lq_bound = logistic_quadratic_bound(_X, _y, _THETA)
_sg_bound = scaled_gaussian_bound(_xs, 0.1)


def _target_kernels(name, target, theta):
    kernels = {
        f"{name}.terms": (target.n_data, lambda idx: target.log_lik_terms(idx, theta)),
        f"{name}.grads": (target.n_data, lambda idx: target.grad_log_lik_terms(idx, theta)),
    }
    if target.taylor_log_lik_terms is not None:
        kernels[f"{name}.taylor"] = (
            target.n_data, lambda idx: target.taylor_log_lik_terms(idx, 0.5 * theta, theta))
    return kernels


KERNELS = {
    **_target_kernels("logistic", _logistic, _THETA),
    **_target_kernels("gaussian_iid", _gauss_iid, _THETA[:1]),
    **_target_kernels("gaussian_mean", _gauss_mean, _THETA),
    **{k: v for j in range(3) for k, v in _target_kernels(
        f"sub_contiguous{j}", subposterior_target(_logistic, _contiguous, j), _THETA).items()},
    **{k: v for j in range(3) for k, v in _target_kernels(
        f"sub_interleaved{j}", subposterior_target(_logistic, _interleaved, j), _THETA).items()},
    "logistic_bound.log_bound": (13, lambda idx: _lq_bound.log_bound_batch(idx, _THETA)),
    "logistic_bound.dark_stat_sum": (13, _lq_bound.dark_stat_sum),
    "gaussian_bound.log_bound": (13, lambda idx: _sg_bound.log_bound_batch(idx, _THETA[:1])),
    "gaussian_bound.dark_stat_sum": (13, _sg_bound.dark_stat_sum),
}


def _outcome(kernel, idx):
    try:
        return kernel(idx)
    except IndexError as e:
        return f"IndexError: {e}"


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), data=st.data())
def test_unit_range_in_bounds_equals_arange(name, data):
    n, kernel = KERNELS[name]
    a = data.draw(st.integers(0, n), label="start")
    b = data.draw(st.integers(0, n), label="stop")   # a >= b gives an empty range
    got, want = kernel(range(a, b)), kernel(np.arange(a, b))
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), data=st.data())
def test_any_range_behaves_as_its_array(name, data):
    # out of bounds, negative starts and steps other than 1 included
    n, kernel = KERNELS[name]
    a = data.draw(st.integers(-n - 3, n + 3), label="start")
    b = data.draw(st.integers(-n - 3, n + 3), label="stop")
    step = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]), label="step")
    r = range(a, b, step)
    got, want = _outcome(kernel, r), _outcome(kernel, np.arange(a, b, step))
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str) and np.array_equal(got, want)


def test_range_past_the_end_raises_index_error_like_its_array():
    n, kernel = KERNELS["logistic.terms"]
    for idx in (range(n - 2, n + 1), np.arange(n - 2, n + 1)):
        assert _outcome(kernel, idx).startswith("IndexError")


def test_full_data_log_likelihood_reads_a_view_not_a_copy():
    rng = np.random.default_rng(3)
    N, d = 20_000, 20
    X = rng.standard_normal((N, d))
    y = np.where(rng.random(N) < 0.5, -1.0, 1.0)
    target = logistic_regression_target(X, y)
    theta = rng.standard_normal(d) / d
    assert target.all_indices() == range(N)
    tracemalloc.start()
    try:
        target.log_likelihood(theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 2, f"peak {peak} bytes for X of {X.nbytes} bytes"


def _recording_target(n, seen):
    xs = np.linspace(-1.0, 1.0, n)

    def terms(idx, th):
        seen.append(idx)
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2

    return FactoredTarget(dim=1, n_data=n, log_prior=lambda th: 0.0, log_lik_terms=terms)


def test_contiguous_shards_reach_the_base_kernel_as_ranges():
    seen = []
    target = _recording_target(10, seen)
    th = np.array([0.2])
    sub = subposterior_target(target, ShardPlan.contiguous(10, 3), 1)
    sub.log_likelihood(th)
    sub.log_lik_terms(np.array([0, 2]), th)
    assert seen[0] == range(4, 7)
    assert np.array_equal(seen[1], [4, 6])
    seen.clear()
    parallel_log_lik(target, th, ShardPlan.contiguous(10, 3))
    assert seen == [range(0, 4), range(4, 7), range(7, 10)]
    seen.clear()
    interleaved = ShardPlan(10, (np.arange(0, 10, 2), np.arange(1, 10, 2)))
    subposterior_target(target, interleaved, 1).log_likelihood(th)
    parallel_log_lik(target, th, interleaved)
    assert [type(s) for s in seen] == [np.ndarray] * 3
    assert np.array_equal(seen[0], np.arange(1, 10, 2))


@pytest.mark.parametrize("kind", ["bool_mask", "float"])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_non_integer_index_arrays_raise_index_error(name, kind):
    # ``take`` would read a mask as the indices 0 and 1, so it is refused
    n, kernel = KERNELS[name]
    idx = np.arange(n) % 2 == 0 if kind == "bool_mask" else np.arange(n, dtype=float)
    with pytest.raises(IndexError, match=f"integer dtype, got {idx.dtype}"):
        kernel(idx)


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(KERNELS)), data=st.data())
def test_negative_and_repeated_indices_read_the_rows_they_wrap_to(name, data):
    n, kernel = KERNELS[name]
    drawn = data.draw(st.lists(st.integers(-n, n - 1), max_size=3 * n), label="idx")
    idx = np.array(drawn + [-1, n - 1])   # -1 and n - 1 read the same row
    got = kernel(idx)
    wrapped = kernel(idx % n)
    assert got.shape == wrapped.shape and got.tobytes() == wrapped.tobytes()
    singles = [kernel(np.array([i])) for i in idx]
    loop = np.sum(singles, axis=0) if name.endswith("dark_stat_sum") else np.concatenate(singles)
    # summing O(1) terms in another order may cancel to near zero, hence the atol
    np.testing.assert_allclose(got, loop, rtol=1e-12, atol=1e-12)
