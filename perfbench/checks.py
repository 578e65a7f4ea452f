"""Correctness checks on the draws of one run; each check is one operation.

* every chunk's draws are finite;
* ``pf`` and ``pfp`` chunk ``i`` is bit-identical to ``mh`` chunk ``i``
  (same key, so prefetching must reproduce the serial chain exactly);
* on the Gaussian workload the pooled means of ``mh``, ``fly`` and ``pf``
  do not differ from the exact posterior mean at the 4-sigma level;
* on the logistic workloads the pooled means of ``mh`` and ``fly`` do not
  differ from each other at the 4-sigma level;
* every sampler's pooled mean lies within one reference posterior sd of
  ``theta_hat``, plus 4 standard errors of the pooled mean. The second term
  matters only for SGLD: with a minibatch of 100 and steps of order 1/N its
  draws spread several posterior sd at N = 1e5 and more (README.md).

The chunks of a sampler are independent chains of equal length from the
same start, so the standard error of their pooled mean comes from the
spread of the chunk means. A chain's own MCSE (``diagnostics.mcmc_se``)
cannot be used: for a 20-step ``mh`` chunk on ``logistic-1e5`` it comes out
1.6 to 3 times too small. "At the 4-sigma level" means a two-sided
Student-t test whose p-value is compared with that of a 4-sigma normal
deviation, with the degrees of freedom the chunk count allows.
"""

import math

import numpy as np

from bigbayes.special import student_t_sf

__all__ = ["SIGMAS", "finite", "identical", "pooled_mean_se", "run_checks"]

SIGMAS = 4.0
P_LEVEL = math.erfc(SIGMAS / math.sqrt(2.0))   # two-sided tail of a 4-sigma deviation


def finite(draws) -> bool:
    return bool(np.all(np.isfinite(draws)))


def identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def pooled_mean_se(chains):
    """Mean, standard error and degrees of freedom, per coordinate, of the
    pooled mean of equal-length independent chains."""
    means = np.array([c.mean(axis=0) for c in chains])
    k = len(means)
    return means.mean(axis=0), means.std(axis=0, ddof=1) / math.sqrt(k), k - 1


def _no_difference(diff, se, dof) -> bool:
    """No coordinate of ``diff`` is significant at the 4-sigma level."""
    for x, s, nu in zip(np.abs(diff), se, np.broadcast_to(dof, np.shape(diff))):
        if s == 0.0:
            if x != 0.0:
                return False
        elif 2.0 * student_t_sf(x / s, nu) < P_LEVEL:
            return False
    return True


def run_checks(model: str, theta_hat, sd, draws):
    """``draws[name]`` maps chunk index to the draws of that chunk; names are
    the samplers plus ``cons.weighted``. Returns a list of (check, passed)."""
    out = []
    for name, chunks in draws.items():
        out += [(f"{name}[{i}] finite", finite(d)) for i, d in chunks.items()]
    for name in ("pf", "pfp"):
        out += [(f"{name}[{i}] == mh[{i}]", identical(d, draws["mh"][i]))
                for i, d in draws[name].items() if i in draws["mh"]]
    pooled = {name: pooled_mean_se(list(chunks.values()))
              for name, chunks in draws.items()
              if len(chunks) > 1 and all(map(finite, chunks.values()))}
    if model == "gauss":
        for name in ("mh", "fly", "pf"):
            if name in pooled:
                mean, se, dof = pooled[name]
                out.append((f"{name} mean agrees with the exact posterior mean",
                            _no_difference(mean - theta_hat, se, dof)))
    elif "mh" in pooled and "fly" in pooled:
        (m1, s1, k1), (m2, s2, k2) = pooled["mh"], pooled["fly"]
        se = np.hypot(s1, s2)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Welch-Satterthwaite degrees of freedom
            dof = np.nan_to_num(se ** 4 / (s1 ** 4 / k1 + s2 ** 4 / k2), nan=k1 + k2)
        out.append(("mh and fly means agree", _no_difference(m1 - m2, se, dof)))
    for name, (mean, se, _) in pooled.items():
        out.append((f"{name} mean within 1 sd + {SIGMAS:g} SE of theta_hat",
                    bool(np.all(np.abs(mean - theta_hat) <= sd + SIGMAS * se))))
    return out
