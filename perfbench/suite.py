"""The sampler suite that every workload runs, and the library set-up it needs.

Every chain starts at the reference ``theta_hat`` with the proposal
``gaussian_random_walk(2.38 / sqrt(d) * sd)``. A timed chunk is one call of
a public driver (three calls for ``cons``). Chunk ``i`` of worker ``part``
uses the key ``chunk_seed(seed, part, i)`` for every sampler, so ``mh``,
``pf`` and ``pfp`` chunks with the same index must produce bit-identical
draws. The pseudo-sampler ``ref`` runs the benchmark's own reference kernel
(``reference.py``) in the same rotation.

Driver return values are read for the draws only, in ``draws_of``; all
other figures come from the benchmark's own wrappers and from the
``SimCluster`` instances it passes in.
"""

import math
from dataclasses import dataclass, replace
from functools import partial
from time import perf_counter_ns

import numpy as np

from bigbayes import consensus, firefly, mcmc, prefetch, sgld, simcluster, subsample, weierstrass
from bigbayes.consensus import ShardPlan, subposterior_target
from bigbayes.firefly import logistic_quadratic_bound, scaled_gaussian_bound
from bigbayes.mcmc import ProposalDist, gaussian_random_walk
from bigbayes.models import gaussian_iid_target, logistic_regression_target
from bigbayes.rng import KeyedRng
from bigbayes.sgld import MinibatchPlan, StepSchedule
from bigbayes.simcluster import SimCluster
from bigbayes.subsample import StopRuleConfig

from workloads import GAUSS_PRIOR_VAR, LOGISTIC_PRIOR_SCALE

__all__ = ["SAMPLERS", "CONFIG", "Objects", "build", "run_chunk", "chunk_seed",
           "draws_of", "traced_patches", "counting_patches", "compare_exact_pass"]

SAMPLERS = ("mh", "ss", "fly", "pf", "pfp", "cons", "ws", "sgld")
J = 4
SS_CFG = StopRuleConfig(rule="ttest", batch=100, epsilon=0.05)
RHO_Z = 0.01
GAUSS_BOUND_DELTA = 0.01
PREDICTOR_BATCH = 30
WS_INNER_STEPS = 5
SGLD_BATCH = 100

CONFIG = {
    "start": "theta_hat (MAP or exact posterior mean)",
    "proposal": "gaussian_random_walk(2.38 / sqrt(d) * sd)",
    "mh": "run_mh",
    "ss": f"run_adaptive_mh, StopRuleConfig(rule={SS_CFG.rule!r}, "
          f"batch={SS_CFG.batch}, epsilon={SS_CFG.epsilon})",
    "fly": f"run_flymc, rho_z={RHO_Z}, init='sample', logistic_quadratic_bound at "
           f"theta_hat or scaled_gaussian_bound(delta={GAUSS_BOUND_DELTA})",
    "pf": f"prefetch_run, J={J}, policy='naive'",
    "pfp": f"prefetch_run, J={J}, policy='predictive', "
           f"subsample_predictor(batch_size={PREDICTOR_BATCH})",
    "cons": f"ShardPlan.contiguous(N, {J}); sample_subposteriors_on_cluster with run_mh "
            f"(proposal x sqrt(J)); consensus_weighted; consensus_kde(n_out=steps)",
    "ws": f"weierstrass_run, {J} subposterior_target(...).log_joint, h=sd, "
          f"inner_steps={WS_INNER_STEPS}",
    "sgld": f"run_sgld, MinibatchPlan(N, {SGLD_BATCH}), "
            f"StepSchedule(alpha=1/N, beta=10, gamma=0.55)",
}


def chunk_seed(seed: int, part: int, i: int) -> int:
    """Root key of chunk ``i`` of worker ``part``, shared by every sampler."""
    return int(np.random.SeedSequence([seed, part, i]).generate_state(1)[0])


def draws_of(ret) -> np.ndarray:
    """The (T, d) draws in a driver's return value."""
    if isinstance(ret, tuple):
        ret = ret[0]
    return np.asarray(getattr(ret, "draws", ret))


@dataclass
class Objects:
    """Library objects built in set-up and shared by every chunk."""

    n: int
    theta: np.ndarray
    sd: np.ndarray
    target: object
    bound: object
    prop: ProposalDist
    cons_prop: ProposalDist
    plan: ShardPlan
    ws_subs: list
    schedule: StepSchedule
    ref: object = None   # steps, key -> last state of the reference kernel


def _traced_proposal(tracer, prop):
    return ProposalDist(sample=tracer.wrap("proposal", prop.sample),
                        log_density=prop.log_density, is_symmetric=prop.is_symmetric)


def _count_rows(args):
    return len(args[0])


def _target(model: str, data):
    if model == "logistic":
        return logistic_regression_target(data.X, data.y, prior_scale=LOGISTIC_PRIOR_SCALE)
    return gaussian_iid_target(data.xs, prior_var=GAUSS_PRIOR_VAR)


def build(model: str, data, seed: int, tracer) -> Objects:
    """The library set-up that ``setup_s`` times.

    The wrappers that count likelihood terms go onto the target before the
    shard targets capture its ``log_lik_terms``.
    """
    target = _target(model, data)
    if model == "logistic":
        bound = logistic_quadratic_bound(data.X, data.y, data.theta_hat)
    else:
        bound = scaled_gaussian_bound(data.xs, GAUSS_BOUND_DELTA)
    target.log_lik_terms = tracer.wrap("lik", target.log_lik_terms, terms=_count_rows)
    target.grad_log_lik_terms = tracer.wrap("grad", target.grad_log_lik_terms,
                                            terms=_count_rows)
    bound = replace(bound, log_bound_batch=tracer.wrap("bound", bound.log_bound_batch,
                                                       terms=_count_rows))
    firefly.init_firefly(target, bound, data.theta_hat, KeyedRng(seed).derive("init"),
                         init="sample")
    n, d = target.n_data, target.dim
    plan = ShardPlan.contiguous(n, J)
    ws_subs = [subposterior_target(target, plan, j).log_joint for j in range(J)]
    scale = 2.38 / math.sqrt(d) * data.sd
    return Objects(
        n=n, theta=data.theta_hat, sd=data.sd, target=target, bound=bound,
        prop=_traced_proposal(tracer, gaussian_random_walk(scale)),
        cons_prop=_traced_proposal(tracer, gaussian_random_walk(scale * math.sqrt(J))),
        plan=plan, ws_subs=ws_subs,
        schedule=StepSchedule(alpha=1.0 / n, beta=10.0, gamma=0.55),
    )


def counting_patches(tracer):
    """Installed in every run: superstep counts and the ``init_firefly``
    exclusion, both once per superstep or chunk."""
    return [
        (prefetch, "naive_schedule", partial(tracer.wrap, "sched")),
        (prefetch, "predictive_schedule", partial(tracer.wrap, "sched")),
        (firefly, "init_firefly", tracer.excluded),
    ]


def traced_patches(tracer):
    """Installed only in traced chunks: a span around each layer's public callables."""
    spans = [
        (KeyedRng, "derive", "rng"),
        (mcmc, "mh_step", "mh_step"),
        (subsample, "llr_update", "llr_update"),
        (subsample, "ttest_should_stop", "rule"),
        (firefly, "flymc_log_joint", "flymc_log_joint"),
        (firefly, "resample_brightness", "resample"),
        (prefetch.SpecTree, "materialize", "materialize"),
        (prefetch.SpecTree, "resolve_ready_steps", "resolve"),
        (simcluster.SimCluster, "send", "send"),
        (simcluster.SimCluster, "run_until_quiescent", "dispatch"),
        (weierstrass, "xi_update", "xi_update"),
        (weierstrass, "theta_update", "theta_update"),
        (sgld, "stochastic_grad", "stochastic_grad"),
        (sgld.MinibatchPlan, "indices", "indices"),
    ]
    return [(owner, attr, partial(tracer.wrap, name)) for owner, attr, name in spans]


def _cluster_stats(cluster):
    return {"makespan": cluster.makespan(), "charged": cluster.total_charged,
            "workers": cluster.n_workers, "evals": cluster.message_counts("prefetch-eval")}


def run_chunk(sampler: str, o: Objects, steps: int, key: int, tracer):
    """One timed chunk. Returns draws, wall time and the cluster figures.

    ``wall_ns`` excludes the time spent in ``init_firefly``.
    """
    rng = KeyedRng(key)
    cluster = SimCluster(J, seed=key) if sampler in ("pf", "pfp", "cons", "ws") else None
    out = {}
    if sampler == "mh":
        call = lambda: mcmc.run_mh(o.target, o.prop, o.theta, steps, rng)
    elif sampler == "ss":
        call = lambda: subsample.run_adaptive_mh(o.target, o.prop, o.theta, steps, SS_CFG, rng)
    elif sampler == "fly":
        call = lambda: firefly.run_flymc(o.target, o.bound, o.prop, o.theta, steps, RHO_Z,
                                         rng, init="sample")
    elif sampler == "pf":
        call = lambda: prefetch.prefetch_run(o.target, o.prop, o.theta, steps, J, rng,
                                             policy="naive", cluster=cluster)
    elif sampler == "pfp":
        predictor = tracer.wrap("predictor", prefetch.subsample_predictor(
            o.target, batch_size=PREDICTOR_BATCH, seed=key))
        call = lambda: prefetch.prefetch_run(o.target, o.prop, o.theta, steps, J, rng,
                                             policy="predictive", predictor=predictor,
                                             cluster=cluster)
    elif sampler == "cons":
        def shard_sampler(sub, worker_rng):
            return draws_of(mcmc.run_mh(sub, o.cons_prop, o.theta, steps, worker_rng))

        def call():
            shards = tracer.wrap("cons.sample", consensus.sample_subposteriors_on_cluster)(
                o.target, o.plan, shard_sampler, cluster)
            out["weighted"] = tracer.wrap("cons.weighted", consensus.consensus_weighted)(shards)
            return tracer.wrap("cons.kde", consensus.consensus_kde)(
                shards, n_out=steps, rng=rng.derive("kde"))
    elif sampler == "ws":
        call = lambda: weierstrass.weierstrass_run(o.ws_subs, o.theta, o.sd, steps,
                                                   inner_steps=WS_INNER_STEPS, rng=rng,
                                                   cluster=cluster)
    elif sampler == "sgld":
        # keyed per chunk, so chunks are independent in their minibatches too
        minibatch = MinibatchPlan(o.n, SGLD_BATCH, rng.child("minibatch"))
        call = lambda: sgld.run_sgld(o.target, o.theta, steps, minibatch, o.schedule, rng)
    elif sampler == "ref":
        call = lambda: o.ref(steps, key)
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    driver = tracer.wrap("driver", call)
    t0 = perf_counter_ns()
    ret = driver()
    out["wall_ns"] = perf_counter_ns() - t0 - tracer.excluded_ns
    out["draws"] = draws_of(ret)
    if cluster is not None:
        out["cluster"] = _cluster_stats(cluster)
    return out


def compare_exact_pass(model: str, data, seed: int, steps: int):
    """Untimed ``run_adaptive_mh(compare_exact=True)`` on an uncounted target.

    Returns the share of steps whose subsampled decision differs from the
    full-data decision. The mismatch count is the last item of the driver's
    return value; this is the one figure read from a return value other
    than the draws.
    """
    target = _target(model, data)
    scale = 2.38 / math.sqrt(target.dim) * data.sd
    ret = subsample.run_adaptive_mh(target, gaussian_random_walk(scale), data.theta_hat,
                                    steps, SS_CFG, KeyedRng(seed).child("compare"),
                                    compare_exact=True)
    return ret[-1] / steps
