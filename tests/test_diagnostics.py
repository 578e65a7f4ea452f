import re

import numpy as np
import pytest

from bigbayes.diagnostics import (
    asymptotic_variance,
    error_decomposition_experiment,
    mcmc_se,
    n_eff,
    rhat,
    write_error_curves_csv,
)
from bigbayes.mcmc import mc_estimate


def test_rhat_hand_example():
    # chains (0,2) and (0,2): B=0, W=2, nu=1, rhat=sqrt(1/2)
    chains = np.array([[0.0, 2.0], [0.0, 2.0]])
    assert rhat(chains) == pytest.approx(np.sqrt(0.5))


def test_rhat_stuck_chains_error():
    with pytest.raises(ValueError):
        rhat(np.array([[0.0, 0.0], [2.0, 2.0]]))


def test_rhat_well_mixed_iid():
    rng = np.random.default_rng(0)
    chains = rng.standard_normal((4, 10**4))
    r = rhat(chains)
    assert 0.99 < r < 1.02
    assert r < 1.1


def test_rhat_two_modes_large():
    rng = np.random.default_rng(1)
    chains = np.stack([rng.normal(-3.0, 1.0, 2000), rng.normal(3.0, 1.0, 2000)])
    assert rhat(chains) > 1.5


def test_rhat_trends_to_one():
    rng = np.random.default_rng(2)
    values = []
    for T in (10**2, 10**3, 10**4):
        values.append(rhat(rng.standard_normal((4, T))))
    assert abs(values[2] - 1) <= abs(values[1] - 1) + 5e-3
    assert abs(values[1] - 1) <= abs(values[0] - 1) + 5e-3


def test_n_eff_hand_example():
    chains = np.array([[0.0, 0.0], [2.0, 2.0]])
    val, capped = n_eff(chains)
    assert val == pytest.approx(2.0)
    assert not capped


@pytest.mark.parametrize("shape", [(3, 1), (1, 5)])
def test_chain_diagnostics_need_two_chains_of_two(shape):
    for diagnostic in (rhat, n_eff):
        with pytest.raises(ValueError, match=re.escape(f"(S, T) = {shape}")):
            diagnostic(np.zeros(shape))


def test_n_eff_iid_near_total():
    rng = np.random.default_rng(3)
    S, T = 4, 10**4
    val, capped = n_eff(rng.standard_normal((S, T)))
    assert abs(val - S * T) / (S * T) < 0.2


def test_n_eff_degenerate_capped():
    chains = np.array([[0.0, 1.0, 0.5], [0.0, 1.0, 0.5]])
    val, capped = n_eff(chains)
    assert capped and val == 6.0


def test_diagnostics_pure():
    chains = np.random.default_rng(5).standard_normal((3, 100))
    assert rhat(chains) == rhat(chains)
    assert n_eff(chains) == n_eff(chains)
    assert asymptotic_variance(chains[0]) == asymptotic_variance(chains[0])


def ar1(rho, T, rng, antithetic=False):
    x = np.empty(T)
    x[0] = rng.standard_normal()
    innov_sd = np.sqrt(1 - rho**2)
    eps = rng.standard_normal(T)
    for t in range(1, T):
        x[t] = rho * x[t - 1] + innov_sd * eps[t]
    return x


def test_asymptotic_variance_iid():
    x = np.random.default_rng(6).standard_normal(10**5)
    assert asymptotic_variance(x) == pytest.approx(np.var(x), rel=0.10)


def test_asymptotic_variance_ar1():
    # AR(1), rho=0.5: sigma^2 = Var * (1+rho)/(1-rho) = 3 Var
    x = ar1(0.5, 10**5, np.random.default_rng(7))
    assert asymptotic_variance(x) == pytest.approx(3.0 * np.var(x), rel=0.15)


def test_negative_lag1_reduces_variance():
    x = ar1(-0.45, 10**5, np.random.default_rng(8))
    assert asymptotic_variance(x) < np.var(x)
    # analytic value (1+rho)/(1-rho) * Var with rho=-0.45
    assert asymptotic_variance(x) == pytest.approx(
        (1 - 0.45) / (1 + 0.45) * np.var(x), rel=0.2
    )


def test_no_samples_is_an_error_naming_the_size():
    for estimate in (asymptotic_variance, mcmc_se):
        with pytest.raises(ValueError, match="size 0"):
            estimate([])


def test_mcmc_se_shrinks_with_length():
    rng = np.random.default_rng(9)
    short = mcmc_se(ar1(0.5, 10**3, rng))
    long = mcmc_se(ar1(0.5, 10**5, rng))
    assert long < short


# -- error decomposition ------------------------------------------------------

def gaussian_mh_stepper(s_runs, rng, start=8.0, scale=2.4):
    theta = np.full(s_runs, float(start))
    logp = -0.5 * theta**2

    def step(t):
        nonlocal theta, logp
        prop = theta + scale * rng.standard_normal(s_runs)
        lp = -0.5 * prop**2
        acc = np.log(rng.uniform(size=s_runs)) < lp - logp
        theta = np.where(acc, prop, theta)
        logp = np.where(acc, lp, logp)
        return theta.copy()

    return step


def test_error_decomposition_curves(tmp_path):
    rng = np.random.default_rng(10)
    s_runs, T = 400, 4096
    curves = error_decomposition_experiment(gaussian_mh_stepper(s_runs, rng),
                                            truth=0.0, s_runs=s_runs, T=T)

    # MCSE decays like 1/sqrt(n): log-log slope in [-0.6, -0.4]; the
    # last_half window is stationary past warm-up so its MCSE isolates the
    # Monte Carlo rate
    tail = curves.ns >= 93
    slope = np.polyfit(np.log(curves.ns[tail]),
                       np.log(curves.mcse["last_half"][tail]), 1)[0]
    assert -0.6 < slope < -0.4

    # discarding the first half kills transient bias faster
    warm = curves.ns >= 32
    se_bias = curves.mcse["all"] / np.sqrt(s_runs)
    assert np.all(curves.bias_abs["last_half"][warm]
                  <= curves.bias_abs["all"][warm] + 3 * se_bias[warm])
    mid = (curves.ns >= 32) & (curves.ns <= 512)
    assert np.mean(curves.bias_abs["last_half"][mid]) < np.mean(curves.bias_abs["all"][mid])

    # unbiased kernel: transient bias falls below MCSE in the asymptotic regime
    assert curves.bias_abs["all"][-1] < curves.mcse["all"][-1]
    assert curves.bias_abs["last_half"][-1] < curves.mcse["last_half"][-1]

    out = tmp_path / "curves.csv"
    write_error_curves_csv(curves, out)
    header = out.read_text().splitlines()[0]
    assert header == "n,policy,bias_abs,mcse,total_rmse"


def test_burn_in_policies_match_mc_estimate_per_run():
    s_runs, T = 5, 40
    history = np.random.default_rng(4).standard_normal((T, s_runs))
    curves = error_decomposition_experiment(lambda t: history[t], truth=0.0, s_runs=s_runs,
                                            T=T, policies=("all", "last_half", "last_one"))
    for policy in curves.policies:
        for i, n in enumerate(curves.ns):
            est = np.array([mc_estimate(history[:n, s:s + 1], lambda th: th[0], policy)
                            for s in range(s_runs)])
            assert curves.bias_abs[policy][i] == pytest.approx(abs(est.mean()), abs=1e-12)
            assert curves.mcse[policy][i] == pytest.approx(est.std(ddof=1))
    with pytest.raises(ValueError, match="unknown policy 'first'"):
        mc_estimate(history, lambda th: th[0], "first")
    with pytest.raises(ValueError, match="unknown policy 'first'"):
        error_decomposition_experiment(lambda t: history[t], 0.0, s_runs, T, policies=("first",))
