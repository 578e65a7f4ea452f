"""Probabilistic model abstractions.

Factored posteriors (prior plus per-datum likelihood terms), exponential
families with conjugate updating, and the analytic Gaussian prior/shard
model whose closed-form posterior and subposteriors serve as the oracle for
every sampler in the package.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ExpFamSpec",
    "ConjugatePair",
    "FactoredTarget",
    "GaussianModelSpec",
    "expfam_mean",
    "expfam_score_fisher",
    "conjugate_posterior_update",
    "gaussian_posterior",
    "gaussian_subposterior",
    "bernoulli_family",
    "gaussian_fixed_var_family",
    "poisson_family",
    "beta_bernoulli_pair",
    "gaussian_mean_pair",
    "gaussian_mean_target",
    "gaussian_iid_target",
    "gaussian_iid_posterior",
    "logistic_regression_target",
    "finite_difference_gradient",
    "finite_difference_hessian",
]

FD_REL_STEP = 1e-6


def finite_difference_gradient(f: Callable, x: np.ndarray) -> np.ndarray:
    """Central differences with per-coordinate step 1e-6*(1+|x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = FD_REL_STEP * (1.0 + abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def finite_difference_hessian(f: Callable, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.empty((n, n))
    steps = FD_REL_STEP ** 0.5 * (1.0 + np.abs(x))
    for i in range(n):
        for j in range(i, n):
            hi, hj = steps[i], steps[j]
            xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
            xpp[i] += hi; xpp[j] += hj
            xpm[i] += hi; xpm[j] -= hj
            xmp[i] -= hi; xmp[j] += hj
            xmm[i] -= hi; xmm[j] -= hj
            H[i, j] = H[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * hi * hj)
    return H


# ---------------------------------------------------------------------------
# Exponential families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpFamSpec:
    """An exponential family in natural coordinates.

    ``statistic`` maps a point to its statistic vector, ``log_partition``
    maps a natural parameter to the log normalizer, and ``support_check``
    delimits the natural parameter domain. ``base_measure_desc`` documents
    the base density; it never enters any computation. Closed-form
    ``mean_map``/``fisher`` and a ``sampler`` are optional accelerators; the
    generic path falls back to finite differences of ``log_partition``.
    """

    stat_dim: int
    statistic: Callable[[np.ndarray], np.ndarray]
    log_partition: Callable[[np.ndarray], float]
    base_measure_desc: str
    support_check: Callable[[np.ndarray], bool]
    mean_map: Optional[Callable[[np.ndarray], np.ndarray]] = None
    fisher: Optional[Callable[[np.ndarray], np.ndarray]] = None
    sampler: Optional[Callable[[np.ndarray, int, np.random.Generator], np.ndarray]] = None

    def require_in_domain(self, eta):
        eta = np.atleast_1d(np.asarray(eta, dtype=float))
        if eta.shape != (self.stat_dim,):
            raise ValueError(f"natural parameter must have shape ({self.stat_dim},)")
        if not self.support_check(eta):
            raise ValueError(f"natural parameter {eta} outside family domain")
        return eta


def expfam_mean(spec: ExpFamSpec, eta) -> np.ndarray:
    """Mean mapping: gradient of the log partition equals E[t(X)]."""
    eta = spec.require_in_domain(eta)
    if spec.mean_map is not None:
        return np.atleast_1d(np.asarray(spec.mean_map(eta), dtype=float))
    return finite_difference_gradient(spec.log_partition, eta)


def expfam_score_fisher(spec: ExpFamSpec, eta, x):
    """Score t(x) - E[t(X)] and Fisher information (Hessian of log Z)."""
    eta = spec.require_in_domain(eta)
    score = np.atleast_1d(np.asarray(spec.statistic(x), dtype=float)) - expfam_mean(spec, eta)
    if spec.fisher is not None:
        fisher = np.atleast_2d(np.asarray(spec.fisher(eta), dtype=float))
    else:
        fisher = finite_difference_hessian(spec.log_partition, eta)
    fisher = 0.5 * (fisher + fisher.T)
    return score, fisher


@dataclass(frozen=True)
class ConjugatePair:
    """Conjugate prior family plus likelihood statistic.

    Observing x appends ``(t_X(x), 1)`` to the prior natural parameter, so
    batch and sequential updating agree exactly.
    """

    prior: ExpFamSpec
    likelihood_stat: Callable[[np.ndarray], np.ndarray]

    def obs_increment(self, x) -> np.ndarray:
        t = np.atleast_1d(np.asarray(self.likelihood_stat(x), dtype=float))
        return np.concatenate([t, [1.0]])


def conjugate_posterior_update(pair: ConjugatePair, eta, data: Sequence) -> np.ndarray:
    eta = np.asarray(eta, dtype=float).copy()
    for x in data:
        eta = eta + pair.obs_increment(x)
    return eta


# -- standard families -------------------------------------------------------

def bernoulli_family() -> ExpFamSpec:
    return ExpFamSpec(
        stat_dim=1,
        statistic=lambda x: np.array([float(x)]),
        log_partition=lambda eta: float(np.logaddexp(0.0, eta[0])),
        base_measure_desc="counting measure on {0,1}, h(x)=1",
        support_check=lambda eta: np.all(np.isfinite(eta)),
        mean_map=lambda eta: np.array([1.0 / (1.0 + np.exp(-eta[0]))]),
        fisher=lambda eta: np.array([[_sigmoid(eta[0]) * (1 - _sigmoid(eta[0]))]]),
        sampler=lambda eta, size, rng: (rng.random(size) < _sigmoid(eta[0])).astype(float),
    )


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def gaussian_fixed_var_family() -> ExpFamSpec:
    """Gaussian with statistic (x, x^2); unit variance lives at eta = (mu, -1/2)."""

    def log_partition(eta):
        return float(-eta[0] ** 2 / (4.0 * eta[1]) - 0.5 * np.log(-2.0 * eta[1]))

    def mean_map(eta):
        mu = -eta[0] / (2.0 * eta[1])
        var = -1.0 / (2.0 * eta[1])
        return np.array([mu, mu ** 2 + var])

    def sampler(eta, size, rng):
        mu = -eta[0] / (2.0 * eta[1])
        sd = np.sqrt(-1.0 / (2.0 * eta[1]))
        x = rng.normal(mu, sd, size)
        return np.column_stack([x, x ** 2])

    return ExpFamSpec(
        stat_dim=2,
        statistic=lambda x: np.array([float(x), float(x) ** 2]),
        log_partition=log_partition,
        base_measure_desc="Lebesgue on R, h(x)=1/sqrt(2 pi)",
        support_check=lambda eta: bool(np.isfinite(eta).all() and eta[1] < 0),
        mean_map=mean_map,
        sampler=sampler,
    )


def poisson_family() -> ExpFamSpec:
    return ExpFamSpec(
        stat_dim=1,
        statistic=lambda x: np.array([float(x)]),
        log_partition=lambda eta: float(np.exp(eta[0])),
        base_measure_desc="counting measure on N, h(x)=1/x!",
        support_check=lambda eta: np.all(np.isfinite(eta)),
        mean_map=lambda eta: np.array([np.exp(eta[0])]),
        fisher=lambda eta: np.array([[np.exp(eta[0])]]),
        sampler=lambda eta, size, rng: rng.poisson(np.exp(eta[0]), size).astype(float),
    )


def beta_bernoulli_pair() -> ConjugatePair:
    """Beta prior on a Bernoulli success probability.

    Prior coordinates are offsets from Beta(1,1): eta = (a-1, a+b-2), so the
    zero vector is the uniform prior and each observation adds (x, 1).
    """

    def log_partition(eta):
        a, b = eta[0] + 1.0, eta[1] - eta[0] + 1.0
        return float(_log_beta(a, b))

    prior = ExpFamSpec(
        stat_dim=2,
        statistic=lambda th: np.array([np.log(th / (1 - th)), np.log(1 - th)]),
        log_partition=log_partition,
        base_measure_desc="Lebesgue on (0,1), h=1",
        support_check=lambda eta: bool(eta[0] > -1 and eta[1] - eta[0] > -1),
        sampler=lambda eta, size, rng: rng.beta(eta[0] + 1.0, eta[1] - eta[0] + 1.0, size),
    )
    return ConjugatePair(prior=prior, likelihood_stat=lambda x: np.array([float(x)]))


def _log_beta(a, b):
    from math import lgamma

    return lgamma(a) + lgamma(b) - lgamma(a + b)


def gaussian_mean_pair() -> ConjugatePair:
    """Gaussian prior on the mean of a unit-variance Gaussian likelihood.

    Prior natural coordinates eta = (precision * mean, precision); each unit
    variance observation adds (x, 1).
    """

    prior = ExpFamSpec(
        stat_dim=2,
        statistic=lambda th: np.array([float(th), -float(th) ** 2 / 2.0]),
        log_partition=lambda eta: float(eta[0] ** 2 / (2 * eta[1]) - 0.5 * np.log(eta[1])),
        base_measure_desc="Lebesgue on R, h=1/sqrt(2 pi)",
        support_check=lambda eta: bool(np.isfinite(eta).all() and eta[1] > 0),
        mean_map=lambda eta: np.array(
            [eta[0] / eta[1], -(1.0 / eta[1] + (eta[0] / eta[1]) ** 2) / 2.0]
        ),
        sampler=lambda eta, size, rng: rng.normal(eta[0] / eta[1], eta[1] ** -0.5, size),
    )
    return ConjugatePair(prior=prior, likelihood_stat=lambda x: np.array([float(x)]))


# ---------------------------------------------------------------------------
# Factored targets
# ---------------------------------------------------------------------------

@dataclass
class FactoredTarget:
    """Posterior factored as a prior plus N per-datum log-likelihood terms.

    ``log_lik_terms``/``grad_log_lik_terms`` evaluate a batch of term
    indices at once; when absent they are synthesized from the per-term
    callables, and missing gradients fall back to central finite
    differences. Instances are immutable after construction and safe to
    share across workers.
    """

    dim: int
    n_data: int
    log_prior: Callable[[np.ndarray], float]
    log_lik_term: Optional[Callable[[int, np.ndarray], float]] = None
    grad_log_prior: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_log_lik_term: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    log_lik_terms: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    grad_log_lik_terms: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.n_data < 0:
            raise ValueError("n_data must be nonnegative")
        if self.log_lik_term is None and self.log_lik_terms is None and self.n_data > 0:
            raise ValueError("need log_lik_term or log_lik_terms")
        if self.log_lik_term is None and self.log_lik_terms is not None:
            batch = self.log_lik_terms
            self.log_lik_term = lambda n, th: float(batch(np.array([n]), th)[0])
        if self.log_lik_terms is None and self.log_lik_term is not None:
            single = self.log_lik_term
            self.log_lik_terms = lambda idx, th: np.array(
                [single(int(n), th) for n in np.asarray(idx)]
            )
        if self.grad_log_prior is None:
            lp = self.log_prior
            self.grad_log_prior = lambda th: finite_difference_gradient(lp, th)
        if self.grad_log_lik_term is None and self.grad_log_lik_terms is not None:
            gbatch = self.grad_log_lik_terms
            self.grad_log_lik_term = lambda n, th: gbatch(np.array([n]), th)[0]
        if self.grad_log_lik_term is None and self.log_lik_term is not None:
            ll = self.log_lik_term
            self.grad_log_lik_term = lambda n, th: finite_difference_gradient(
                lambda t: ll(n, t), th
            )
        if self.grad_log_lik_terms is None and self.grad_log_lik_term is not None:
            gsingle = self.grad_log_lik_term
            self.grad_log_lik_terms = lambda idx, th: np.array(
                [gsingle(int(n), th) for n in np.asarray(idx)]
            )

    # -- full-data sums -----------------------------------------------------

    def all_indices(self) -> np.ndarray:
        return np.arange(self.n_data)

    def log_likelihood(self, theta) -> float:
        if self.n_data == 0:
            return 0.0
        return float(np.sum(self.log_lik_terms(self.all_indices(), np.asarray(theta, float))))

    def log_joint(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        val = float(self.log_prior(theta)) + self.log_likelihood(theta)
        if np.isnan(val):
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
        idx = np.asarray(idx, dtype=int)
        r = obs[idx] - th
        return -0.5 * np.einsum("ji,jik,jk->j", r, shard_precs[idx], r)

    def grad_log_lik_terms(idx, th):
        idx = np.asarray(idx, dtype=int)
        return np.einsum("jik,jk->ji", shard_precs[idx], obs[idx] - th)

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
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2 / lik_var + const

    def grad_log_lik_terms(idx, th):
        return ((xs[np.asarray(idx)] - th[0]) / lik_var)[:, None]

    return FactoredTarget(
        dim=1,
        n_data=len(xs),
        log_prior=lambda th: float(-0.5 * th[0] ** 2 / prior_var),
        grad_log_prior=lambda th: np.array([-th[0] / prior_var]),
        log_lik_terms=log_lik_terms,
        grad_log_lik_terms=grad_log_lik_terms,
    )


def gaussian_iid_posterior(xs, prior_var: float = 1.0, lik_var: float = 1.0):
    """Conjugate posterior (mean, variance) for ``gaussian_iid_target``."""
    xs = np.asarray(xs, dtype=float)
    prec = 1.0 / prior_var + len(xs) / lik_var
    return float(np.sum(xs) / lik_var / prec), float(1.0 / prec)


def logistic_regression_target(X, y, prior_scale: float = 10.0) -> FactoredTarget:
    """Bayesian logistic regression with labels in {-1,+1} and N(0, s^2 I) prior."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise ValueError("labels must be in {-1,+1}")
    n, d = X.shape
    inv_var = 1.0 / prior_scale ** 2

    def log_prior(th):
        return float(-0.5 * inv_var * th @ th)

    def grad_log_prior(th):
        return -inv_var * th

    def log_lik_terms(idx, th):
        z = (X[idx] @ th) * y[idx]
        return -np.logaddexp(0.0, -z)

    def grad_log_lik_terms(idx, th):
        z = (X[idx] @ th) * y[idx]
        w = _sigmoid(-z) * y[idx]
        return X[idx] * w[:, None]

    return FactoredTarget(
        dim=d,
        n_data=n,
        log_prior=log_prior,
        grad_log_prior=grad_log_prior,
        log_lik_terms=log_lik_terms,
        grad_log_lik_terms=grad_log_lik_terms,
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


def gaussian_subposterior(spec: GaussianModelSpec, j: int, n_shards: Optional[int] = None):
    """Subposterior (mu_j~, Sigma_j~) with the prior downweighted by 1/J."""
    J = spec.n_shards if n_shards is None else n_shards
    if not 1 <= j + 1 <= J:
        raise ValueError(f"shard index {j} outside 0..{J - 1}")
    pj = _inv(spec.shard_covs[j], f"shard {j}")
    prec = _inv(spec.prior_cov, "prior_cov") / J + pj
    cov = _inv(prec, f"subposterior {j} precision")
    cov = 0.5 * (cov + cov.T)
    return cov @ (pj @ spec.shard_obs[j]), cov
