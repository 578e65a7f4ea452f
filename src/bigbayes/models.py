"""Probabilistic model abstractions.

Factored posteriors (prior plus per-datum likelihood terms) and the
analytic Gaussian prior/shard model whose closed-form posterior and
subposteriors serve as the oracle for every sampler in the package.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "FactoredTarget",
    "GaussianModelSpec",
    "gaussian_posterior",
    "gaussian_subposterior",
    "gaussian_mean_target",
    "gaussian_iid_target",
    "gaussian_iid_posterior",
    "logistic_regression_target",
    "finite_difference_gradient",
]

FD_REL_STEP = 1e-6
# K = sup |f'''| / 6 for f = log sigma: |f'''| = s (1 - s) |1 - 2 s|, with
# s = sigma(z), peaks at 1 / (6 sqrt 3), where (s - 1/2)^2 = 1/12
_LOG_SIGMOID_K = 1.0 / (36.0 * math.sqrt(3.0))
# terms per differenced block in the gradient fallback: its scratch memory
# beyond the (m, d) result stays a few of these blocks' worth
FD_BLOCK = 512


def finite_difference_gradient(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central differences with per-coordinate step 1e-6*(1+|x_i|).

    A scalar ``f`` gives the gradient, shape (d,); an array-valued ``f``
    with m outputs gives one gradient row per output, shape (m, d).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        h = FD_REL_STEP * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((f(xp) - f(xm)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _sigmoid(z):
    # exp(-z) overflows to inf below z = -709, which gives the exact limit 0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _log_sigmoid(z, out=None):
    """log sigma(z) = min(z, 0) - log1p(exp(-|z|)) for a float array ``z``
    of one or more dimensions, written into ``out`` (a new array if None;
    ``z`` itself may be passed).

    The same value as ``-np.logaddexp(0, -z)`` to within 2 ulp, but built
    from ufuncs numpy vectorizes; ``logaddexp`` runs as a scalar loop,
    several times slower. Exact at +-inf, NaN stays NaN, and no warning is
    raised. It allocates one temporary of z's size; ``out=z`` saves a second.
    """
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    m = np.minimum(z, 0.0, out=out)
    return np.subtract(m, t, out=m)


# ---------------------------------------------------------------------------
# Factored targets
# ---------------------------------------------------------------------------

def _rows(idx, n: int):
    """Term indices as a row selector for arrays of length ``n``.

    A unit-step range inside 0..n becomes the slice that reads the same
    rows as a view. Any other range (step != 1, a negative start, a stop
    past n) would read differently as a slice, so it becomes its integer
    array, behaving as that array does. Every other index must be an
    array with an integer dtype; ``_take`` gathers it with ``take``, which
    would read a boolean mask as the indices 0 and 1, so a non-integer
    dtype raises IndexError.
    """
    if isinstance(idx, range):
        if idx.step == 1 and 0 <= idx.start <= idx.stop <= n:
            return slice(idx.start, idx.stop)
        return np.arange(idx.start, idx.stop, idx.step)
    rows = np.asarray(idx)
    if rows.dtype.kind not in "iu":
        raise IndexError(f"term indices must have an integer dtype, got {rows.dtype}")
    return rows


def _take(a: np.ndarray, rows, axis: int = 0) -> np.ndarray:
    """The entries ``rows`` (from ``_rows``) of ``a`` along ``axis`` (0 or
    1): a view for a slice, else ``a.take(rows, axis=axis)``, which gathers
    several times faster than fancy indexing. Negative and out-of-range
    indices behave as in ``a[rows]``.
    """
    if isinstance(rows, slice):
        return a[rows] if axis == 0 else a[:, rows]
    return a.take(rows, axis=axis)


def _check_logistic_data(X, y):
    """``X`` and ``y`` as float arrays of shapes (N, d) and (N,), with
    every label in {-1, +1}."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise ValueError(
            f"need X of shape (N, d) and y of shape (N,), got X {X.shape} and y {y.shape}")
    bad = np.flatnonzero(np.abs(y) != 1.0)
    if bad.size:
        raise ValueError(f"labels must be in {{-1,+1}}, got y[{bad[0]}] = {y[bad[0]]}")
    return X, y


@dataclass
class FactoredTarget:
    """Posterior factored as a prior plus N per-datum log-likelihood terms.

    The likelihood is given only as batch kernels: ``log_lik_terms(idx,
    theta)`` returns the m log-likelihood terms of a batch of m term
    indices and ``grad_log_lik_terms(idx, theta)`` their (m, d) gradients.
    ``log_lik_terms`` also takes a stack of k parameters, theta of shape
    (k, d), and returns the (k, m) terms, row i at ``theta[i]``: a
    subsampling test evaluates a batch at theta' and theta in one call
    (``subsample.llr_terms``), so the batch is gathered once. A kernel that
    reads ``theta[0]`` as the first coordinate breaks this; index the last
    axis instead (``theta[..., :1]``). The gradient kernel takes one theta.
    A missing ``grad_log_prior`` or ``grad_log_lik_terms`` falls back to
    central finite differences, the latter taken over blocks of
    ``FD_BLOCK`` terms of the batch (``finite_difference_gradient`` of the
    array-valued ``log_lik_terms(block, .)``), so a large batch needs little
    scratch memory beyond its result. The fallbacks read the kernels when
    called, so a kernel assigned after construction (a term-counting
    wrapper, say) is the one differenced. No sampler assigns to a field,
    so one instance can be shared across workers; ``subsample.taylor_proxy``
    caches its control variate in an attribute of the instance that is not
    a field, so ``dataclasses.replace`` starts without it.

    The optional ``taylor_log_lik_terms`` gives the terms' second-order
    Taylor information at a centre c, each call from one gather. With
    g_n = grad l_n(c) and H_n the Hessian of l_n at c,
    ``taylor_log_lik_terms(idx, c)`` returns the batch's sums
    ``(sum g_n, sum H_n, sum R_n)``, of shapes (d,), (d, d) and (d, d), and
    ``taylor_log_lik_terms(idx, c, theta)``, for theta of shape (d,) or
    (k, d), returns the (m,) or (k, m) increments
    q_n(theta) = g_n . (theta - c) + (theta - c)^T H_n (theta - c) / 2 of
    each term's quadratic model. It evaluates no likelihood term. R_n
    bounds the model's remainder: with v = theta - c, every theta must
    satisfy |l_n(theta) - l_n(c) - q_n(theta)| <= ||v|| v^T R_n v, so R_n
    is symmetric positive semidefinite, and 0 for a term that is exactly
    quadratic. ``subsample.TaylorProxy`` sums it into a bound on its
    residuals that lets a step decide with no data read. The logistic and
    1-D Gaussian targets give the kernel in closed form; a target without
    it has no fallback, and ``subsample.TaylorProxy`` then builds its
    first-order form, which has no remainder bound.

    A batch of term indices is an array with an integer dtype or a
    ``range``, and every batch kernel, a user's included, must accept both.
    A range ``r`` means exactly the indices ``np.asarray(r)``; convert it
    with ``np.arange(r.start, r.stop, r.step)``, which stays an integer
    array when ``r`` is empty. The full-data sums pass ``all_indices()``,
    which is ``range(n_data)``, and the shipped kernels read a unit-step
    range inside 0..N as a slice, a view with no copy. They gather any
    other batch with ``take`` and raise IndexError for an index array whose
    dtype is not integer, a boolean mask included. The logistic target keeps
    its data as label-signed columns, a C-contiguous (d, N) array, so a
    batch is a block of columns and its margins are one vector-matrix
    product over d contiguous rows; the Gaussian targets read rows.
    """

    dim: int
    n_data: int
    log_prior: Callable[[np.ndarray], float]
    grad_log_prior: Optional[Callable[[np.ndarray], np.ndarray]] = None
    log_lik_terms: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    grad_log_lik_terms: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    taylor_log_lik_terms: Optional[Callable] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim!r}")
        if self.n_data < 0:
            raise ValueError(f"n_data must be nonnegative, got {self.n_data!r}")
        if self.log_lik_terms is None and self.n_data > 0:
            raise ValueError("need log_lik_terms")
        if self.grad_log_prior is None:
            self.grad_log_prior = lambda th: finite_difference_gradient(self.log_prior, th)
        if self.grad_log_lik_terms is None and self.log_lik_terms is not None:
            self.grad_log_lik_terms = self._differenced_terms

    def _differenced_terms(self, idx, theta) -> np.ndarray:
        """The (m, d) central-difference gradients of the terms ``idx``,
        differenced ``FD_BLOCK`` terms at a time into one array."""
        theta = np.asarray(theta, dtype=float)
        out = np.empty((len(idx), theta.size))
        for start in range(0, len(idx), FD_BLOCK):
            part = idx[start:start + FD_BLOCK]
            out[start:start + len(part)] = finite_difference_gradient(
                lambda t: self.log_lik_terms(part, t), theta)
        return out

    # -- full-data sums -----------------------------------------------------

    def all_indices(self) -> range:
        return range(self.n_data)

    def log_likelihood(self, theta) -> float:
        if self.n_data == 0:
            return 0.0
        return float(self.log_lik_terms(self.all_indices(), np.asarray(theta, float)).sum())

    def log_joint(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        val = float(self.log_prior(theta)) + self.log_likelihood(theta)
        if math.isnan(val):
            raise FloatingPointError(f"log joint is NaN at theta={theta}")
        return val

    def grad_log_joint(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        g = np.asarray(self.grad_log_prior(theta), dtype=float).copy()
        if self.n_data:
            g += np.sum(self.grad_log_lik_terms(self.all_indices(), theta), axis=0)
        return g


def gaussian_mean_target(spec: "GaussianModelSpec") -> FactoredTarget:
    """FactoredTarget for the Gaussian prior/shard model (one term per shard)."""
    d = spec.dim
    prior_prec = np.linalg.inv(spec.prior_cov)
    shard_precs = np.linalg.inv(np.reshape(spec.shard_covs, (-1, d, d)))   # (J, d, d)
    obs = np.reshape(spec.shard_obs, (-1, d))                              # (J, d)

    def log_prior(th):
        return float(-0.5 * th @ prior_prec @ th)

    def grad_log_prior(th):
        return -prior_prec @ th

    def log_lik_terms(idx, th):
        rows = _rows(idx, len(obs))
        r = _take(obs, rows) - th[..., None, :]
        return -0.5 * np.einsum("...ji,jik,...jk->...j", r, _take(shard_precs, rows), r)

    def grad_log_lik_terms(idx, th):
        rows = _rows(idx, len(obs))
        return np.einsum("jik,jk->ji", _take(shard_precs, rows), _take(obs, rows) - th)

    return FactoredTarget(
        dim=d,
        n_data=len(obs),
        log_prior=log_prior,
        grad_log_prior=grad_log_prior,
        log_lik_terms=log_lik_terms,
        grad_log_lik_terms=grad_log_lik_terms,
    )


def gaussian_iid_target(xs, prior_var: float = 1.0, lik_var: float = 1.0) -> FactoredTarget:
    """1D mean-parameter model: theta ~ N(0, prior_var), x_n ~ N(theta, lik_var)."""
    xs = np.asarray(xs, dtype=float)
    const = -0.5 * np.log(2 * np.pi * lik_var)

    def log_lik_terms(idx, th):
        return -0.5 * (_take(xs, _rows(idx, len(xs))) - th[..., :1]) ** 2 / lik_var + const

    def grad_log_lik_terms(idx, th):
        return ((_take(xs, _rows(idx, len(xs))) - th[0]) / lik_var)[:, None]

    def taylor_log_lik_terms(idx, c, th=None):
        # g_n = (x_n - c) / v and H_n = -1 / v, so the model is exact: R = 0
        g = _take(xs, _rows(idx, len(xs))) - c[0]
        g /= lik_var
        if th is None:
            return np.array([g.sum()]), np.array([[-len(g) / lik_var]]), np.zeros((1, 1))
        step = th[..., :1] - c[0]
        return step * g - 0.5 / lik_var * step ** 2

    return FactoredTarget(
        dim=1,
        n_data=len(xs),
        log_prior=lambda th: float(-0.5 * th[0] ** 2 / prior_var),
        grad_log_prior=lambda th: np.array([-th[0] / prior_var]),
        log_lik_terms=log_lik_terms,
        grad_log_lik_terms=grad_log_lik_terms,
        taylor_log_lik_terms=taylor_log_lik_terms,
    )


def gaussian_iid_posterior(xs, prior_var: float = 1.0, lik_var: float = 1.0):
    """Conjugate posterior (mean, variance) for ``gaussian_iid_target``."""
    xs = np.asarray(xs, dtype=float)
    prec = 1.0 / prior_var + len(xs) / lik_var
    return float(np.sum(xs) / lik_var / prec), float(1.0 / prec)


def logistic_regression_target(X, y, prior_scale: float = 10.0) -> FactoredTarget:
    """Bayesian logistic regression with labels in {-1,+1} and N(0, s^2 I) prior.

    The target copies the data once, into the C-contiguous (d, N) array
    ``AT`` whose column n is a_n = y_n x_n, so the margin of datum n is
    z_n = theta . a_n and its log-likelihood term log sigma(z_n). It keeps
    no reference to the caller's ``X`` or ``y``: changing them afterwards
    does not change the target. With f = log sigma, the term's gradient is
    f'(z_n) a_n and its Hessian f''(z_n) a_n a_n^T, so the margins at a
    centre give ``taylor_log_lik_terms`` from one gather. Its remainder
    term is R_n = K ||a_n|| a_n a_n^T with K = sup |f'''| / 6 =
    1 / (36 sqrt 3): by Lagrange's form the remainder at theta is at most
    K |a_n . v|^3, v = theta - c, and |a_n . v|^3 <= ||a_n|| ||v|| (a_n . v)^2.
    """
    X, y = _check_logistic_data(X, y)
    n, d = X.shape
    AT = np.empty((d, n))
    np.multiply(X.T, y, out=AT)
    inv_var = 1.0 / prior_scale ** 2

    def log_prior(th):
        return float(-0.5 * inv_var * th @ th)

    def grad_log_prior(th):
        return -inv_var * th

    def log_lik_terms(idx, th):
        z = th @ _take(AT, _rows(idx, n), axis=1)
        return _log_sigmoid(z, out=z)

    def grad_log_lik_terms(idx, th):
        a = _take(AT, _rows(idx, n), axis=1)
        return (a * _sigmoid(-(th @ a))).T

    def taylor_log_lik_terms(idx, c, th=None):
        a = _take(AT, _rows(idx, n), axis=1)
        s = c @ a                         # margins z_n = c . a_n
        with np.errstate(over="ignore"):  # exp(z) = inf gives the limit s = 0
            np.exp(s, out=s)
        s += 1.0
        np.reciprocal(s, out=s)           # f'(z) = sigma(-z)
        h = s - 1.0
        h *= s                            # f''(z) = -sigma(z) sigma(-z)
        if th is None:
            w = np.einsum("ij,ij->j", a, a)
            np.sqrt(w, out=w)
            w *= _LOG_SIGMOID_K               # K ||a_n||
            return a @ s, (a * h) @ a.T, (a * w) @ a.T
        u = (th - c) @ a                  # a_n . (theta - c)
        steps = h * u
        steps *= 0.5
        steps += s
        steps *= u
        return steps

    return FactoredTarget(
        dim=d,
        n_data=n,
        log_prior=log_prior,
        grad_log_prior=grad_log_prior,
        log_lik_terms=log_lik_terms,
        grad_log_lik_terms=grad_log_lik_terms,
        taylor_log_lik_terms=taylor_log_lik_terms,
    )


# ---------------------------------------------------------------------------
# Analytic Gaussian model
# ---------------------------------------------------------------------------

def _check_spd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square")
    if not np.allclose(mat, mat.T):
        raise np.linalg.LinAlgError(f"{name} is not symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"{name} is not positive definite") from e
    return mat


@dataclass(frozen=True)
class GaussianModelSpec:
    """Gaussian prior over theta with J shard observations x_j ~ N(theta, Sigma_j)."""

    prior_cov: np.ndarray
    shard_covs: tuple = ()
    shard_obs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "prior_cov", _check_spd(self.prior_cov, "prior_cov"))
        covs = tuple(
            _check_spd(S, f"shard_covs[{j}]") for j, S in enumerate(self.shard_covs)
        )
        obs = tuple(np.asarray(x, dtype=float) for x in self.shard_obs)
        if len(covs) != len(obs):
            raise ValueError("shard_covs and shard_obs must have equal length")
        d = self.prior_cov.shape[0]
        for j, (S, x) in enumerate(zip(covs, obs)):
            if S.shape != (d, d) or x.shape != (d,):
                raise ValueError(f"shard {j} has inconsistent dimension")
        object.__setattr__(self, "shard_covs", covs)
        object.__setattr__(self, "shard_obs", obs)

    @property
    def dim(self) -> int:
        return self.prior_cov.shape[0]

    @property
    def n_shards(self) -> int:
        return len(self.shard_covs)

    @classmethod
    def from_scalars(cls, prior_var, shard_vars, shard_obs):
        mk = lambda v: np.array([[float(v)]])
        return cls(
            prior_cov=mk(prior_var),
            shard_covs=tuple(mk(v) for v in shard_vars),
            shard_obs=tuple(np.array([float(x)]) for x in shard_obs),
        )


def _inv(mat, what):
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"singular matrix in {what}") from e


def gaussian_posterior(spec: GaussianModelSpec):
    """Closed-form posterior (mu, Sigma) of the Gaussian prior/shard model."""
    prec = _inv(spec.prior_cov, "prior_cov")
    rhs = np.zeros(spec.dim)
    for j in range(spec.n_shards):
        pj = _inv(spec.shard_covs[j], f"shard {j}")
        prec = prec + pj
        rhs = rhs + pj @ spec.shard_obs[j]
    cov = _inv(prec, "posterior precision")
    cov = 0.5 * (cov + cov.T)
    _check_spd(cov, "posterior covariance")
    return cov @ rhs, cov


def gaussian_subposterior(spec: GaussianModelSpec, j: int):
    """Subposterior (mu_j~, Sigma_j~) with the prior downweighted by 1/J."""
    J = spec.n_shards
    if not 1 <= j + 1 <= J:
        raise ValueError(f"shard index {j} outside 0..{J - 1}")
    pj = _inv(spec.shard_covs[j], f"shard {j}")
    prec = _inv(spec.prior_cov, "prior_cov") / J + pj
    cov = _inv(prec, f"subposterior {j} precision")
    cov = 0.5 * (cov + cov.T)
    return cov @ (pj @ spec.shard_obs[j]), cov
