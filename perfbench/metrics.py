"""Metric names, units and directions, and how each is computed from chunks.

A chunk record (see ``bench.py``) holds ``steps``, ``wall_ns``, ``traced``,
the worker process ``part`` it ran in, the wrapper counts ``calls`` and
``terms``, ``excluded_ns`` (time in ``init_firefly``), the ``cluster``
figures, and for traced chunks the span ``summary``.

Throughputs are given per reference step: a chunk's steps divided by its
wall time measured in steps of the reference kernel (``reference.py``).
The kernel's rate for a chunk is the median rate of the ``REF_NEIGHBOURS``
reference chunks of the same worker process that started nearest in time
to it, so a slow or fast spell of the machine scales both alike.
"""

import statistics
from collections import defaultdict

from bigbayes.diagnostics import asymptotic_variance

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "benchmark_entries",
           "ref_rates", "wall_rates"]

REF_NEIGHBOURS = 8
CHAINS = ("mh", "ss", "fly", "pf", "pfp", "ws", "sgld")
READERS = ("mh", "ss", "fly", "pf", "pfp", "cons", "ws")
CLUSTERED = ("pf", "pfp", "cons", "ws")

# Per-step figures read straight off the spans of traced chunks:
# (samplers, metric, unit, span name, summary field). All are "lower".
# "incl_us" counts a recursive callable once per outermost call.
SPAN_METRICS = [
    (CHAINS, "rng.calls_per_step", "count", "rng", "calls"),
    (CHAINS, "rng.us_per_step", "us", "rng", "incl_us"),
    (READERS, "lik.terms_per_step", "count", "lik", "terms"),
    (READERS, "lik.us_per_step", "us", "lik", "incl_us"),
    (("sgld",), "grad.terms_per_step", "count", "grad", "terms"),
    (("sgld",), "grad.us_per_step", "us", "grad", "incl_us"),
    (("mh",), "core.self_us_per_step", "us", "mh_step", "self_us"),
    (("mh",), "proposal.us_per_step", "us", "proposal", "incl_us"),
    (("mh", "ss", "sgld"), "driver.self_us_per_step", "us", "driver", "self_us"),
    (("ss",), "llr_update.calls_per_step", "count", "llr_update", "calls"),
    (("ss",), "llr_update.self_us_per_step", "us", "llr_update", "self_us"),
    (("ss",), "rule.us_per_step", "us", "rule", "incl_us"),
    (("fly",), "bound.terms_per_step", "count", "bound", "terms"),
    (("fly",), "bound.us_per_step", "us", "bound", "incl_us"),
    (("fly",), "resample.self_us_per_step", "us", "resample", "self_us"),
    (("fly",), "log_joint.self_us_per_step", "us", "flymc_log_joint", "self_us"),
    (("pf", "pfp"), "sched.us_per_step", "us", "sched", "incl_us"),
    (("pf", "pfp"), "materialize.us_per_step", "us", "materialize", "incl_us"),
    (("pf", "pfp"), "resolve.us_per_step", "us", "resolve", "incl_us"),
    (("pfp",), "predictor.us_per_step", "us", "predictor", "incl_us"),
    (CLUSTERED, "cluster.msgs_per_step", "count", "send", "calls"),
    (CLUSTERED, "cluster.dispatch_self_us_per_step", "us", "dispatch", "self_us"),
    (("cons",), "sample.us_per_draw", "us", "cons.sample", "incl_us"),
    (("cons",), "weighted.us_per_draw", "us", "cons.weighted", "incl_us"),
    (("cons",), "kde.us_per_draw", "us", "cons.kde", "incl_us"),
    (("ws",), "xi_update.us_per_step", "us", "xi_update", "incl_us"),
    (("ws",), "theta_update.us_per_step", "us", "theta_update", "incl_us"),
    (("sgld",), "indices.us_per_step", "us", "indices", "incl_us"),
]

# Figures computed in ``per_layer`` below: (samplers, metric, unit, better).
DERIVED_METRICS = [
    (("ss",), "disagree_rate", "1", "lower"),
    (("fly",), "bright_frac", "1", "lower"),
    (("fly",), "init_s", "s", "lower"),
    (("pf", "pfp"), "evals_per_step", "count", "lower"),
    (("pf", "pfp"), "useful_eval_frac", "1", "higher"),
    (("pf",), "steps_per_superstep", "steps", "higher"),
    (("pfp",), "predictor.terms_per_step", "count", "lower"),
    (CLUSTERED, "cluster.idle_frac", "1", "lower"),
    (("mh", "ss", "fly", "pf", "cons", "ws", "sgld"), "ess_per_s", "1/s", "higher"),
    (CHAINS + ("cons",), "trace_overhead_frac", "1", "lower"),
]

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    **{f"{s}.steps_per_ref_step": ("steps/ref_step", "higher", 0.25) for s in CHAINS},
    "cons.draws_per_ref_step": ("draws/ref_step", "higher", 0.25),
    "ss.terms_frac": ("1", "lower", 0.25),
    "fly.terms_frac": ("1", "lower", 0.1),
    "pf.speedup": ("1", "higher", 0.1),
    "pfp.steps_per_superstep": ("steps", "higher", 0.25),
}

# name -> (unit, better)
PER_LAYER = {
    **{f"{s}.{m}": (unit, "lower") for samplers, m, unit, _, _ in SPAN_METRICS for s in samplers},
    **{f"{s}.{m}": (unit, better) for samplers, m, unit, better in DERIVED_METRICS
       for s in samplers},
}


def benchmark_entries():
    """The ``end_to_end`` and ``per_layer`` lists of BENCHMARK.json."""
    e2e = [{"name": k, "unit": u, "better": b, "bound": bound}
           for k, (u, b, bound) in END_TO_END.items()]
    layers = [{"name": k, "unit": u, "better": b} for k, (u, b) in PER_LAYER.items()]
    return e2e, layers


def _untraced(chunks):
    return [c for c in chunks if not c["traced"]]


def _traced(chunks):
    return [c for c in chunks if c["traced"]]


def _rate(c):
    return c["steps"] / (c["wall_ns"] / 1e9)


def _steps(chunks):
    return sum(c["steps"] for c in chunks)


def ref_rates(chunks):
    """Median steps per second of the reference kernel in each worker process.

    Tracing wraps nothing the kernel calls, so traced chunks count too.
    """
    by_part = defaultdict(list)
    for c in chunks["ref"]:
        by_part[c["part"]].append(_rate(c))
    return {part: statistics.median(r) for part, r in sorted(by_part.items())}


def wall_rates(chunks):
    """Median steps (draws for ``cons``) per wall second of each sampler's
    untraced chunks; reported in the provenance, not gated."""
    return {s: statistics.median(_rate(c) for c in _untraced(cs))
            for s, cs in chunks.items() if s != "ref"}


def _ref_clock(chunks):
    """A function giving each chunk the reference kernel's rate (steps per
    second) around the time it ran."""
    by_part = defaultdict(list)
    for c in chunks["ref"]:
        by_part[c["part"]].append((c["start_ns"], _rate(c)))

    def ref(c):
        near = sorted(by_part[c["part"]], key=lambda r: abs(r[0] - c["start_ns"]))
        return statistics.median(rate for _, rate in near[:REF_NEIGHBOURS])
    return ref


def _ref_steps(chunks, ref):
    """Wall time of the chunks in reference steps."""
    return sum(c["wall_ns"] / 1e9 * ref(c) for c in chunks)


def _median_rate(chunks, ref):
    return statistics.median(c["steps"] / _ref_steps([c], ref) for c in chunks)


def end_to_end(chunks, n, setup_s, peak_rss_mb):
    """The end-to-end metrics from the untraced chunks of every sampler."""
    ref = _ref_clock(chunks)
    u = {s: _untraced(c) for s, c in chunks.items()}
    v = {"setup_s": statistics.median(setup_s), "peak_rss_mb": peak_rss_mb}
    for s in CHAINS:
        v[f"{s}.steps_per_ref_step"] = _median_rate(u[s], ref)
    # an ss step's cost follows the share of data it reads, which varies
    # widely from step to step, so its rate is total steps over total time
    v["ss.steps_per_ref_step"] = _steps(u["ss"]) / _ref_steps(u["ss"], ref)
    v["cons.draws_per_ref_step"] = _median_rate(u["cons"], ref)
    for s in ("ss", "fly"):
        v[f"{s}.terms_frac"] = sum(c["terms"].get("lik", 0) for c in u[s]) / (_steps(u[s]) * n)
    v["pf.speedup"] = (sum((c["steps"] + 1) * (n + 1) for c in u["pf"])
                       / sum(c["cluster"]["makespan"] for c in u["pf"]))
    v["pfp.steps_per_superstep"] = _steps(u["pfp"]) / sum(c["calls"]["sched"] for c in u["pfp"])
    return v


def _merge(chunks):
    """Sum the span summaries of traced chunks."""
    stats, within = {}, {}
    for c in chunks:
        for table, src in ((stats, c["summary"]["stats"]), (within, c["summary"]["within"])):
            for key, row in src.items():
                acc = table.setdefault(key, dict.fromkeys(row, 0))
                for f, x in row.items():
                    acc[f] += x
    return stats, within


def ess_min(draws) -> float:
    """Smallest per-coordinate effective sample size T var / sigma^2_asym."""
    out = []
    for k in range(draws.shape[1]):
        x = draws[:, k]
        avar = asymptotic_variance(x)
        out.append(len(x) * x.var() / avar if avar > 0 else 1.0)
    return min(out)


def per_layer(chunks, n, disagree_rate):
    """The per-layer metrics: span figures from the traced chunks, counts
    from every chunk, rates from the untraced chunks."""
    v = {}
    ref = _ref_clock(chunks)
    per_sampler = {}
    for s, cs in chunks.items():
        t, u = _traced(cs), _untraced(cs)
        stats, within = _merge(t)
        per_sampler[s] = (cs, t, u, stats, within, _steps(t))
    for samplers, m, _, span, field in SPAN_METRICS:
        for s in samplers:
            _, _, _, stats, _, steps = per_sampler[s]
            v[f"{s}.{m}"] = stats.get(span, {}).get(field, 0) / steps

    def within_terms(s, name, ancestor):
        return per_sampler[s][4].get((name, ancestor), {}).get("terms", 0)

    v["ss.disagree_rate"] = disagree_rate
    cs, _, _, stats, _, _ = per_sampler["fly"]
    v["fly.bright_frac"] = (within_terms("fly", "lik", "flymc_log_joint")
                            / max(stats.get("flymc_log_joint", {}).get("calls", 0), 1) / n)
    v["fly.init_s"] = statistics.median(c["excluded_ns"] / 1e9 for c in cs)
    for s in ("pf", "pfp"):
        cs = per_sampler[s][0]
        evals = sum(c["cluster"]["evals"] + 1 for c in cs)   # +1: each chunk's initial state
        v[f"{s}.evals_per_step"] = evals / _steps(cs)
        v[f"{s}.useful_eval_frac"] = (_steps(cs) + len(cs)) / evals
    cs = per_sampler["pf"][0]
    v["pf.steps_per_superstep"] = _steps(cs) / sum(c["calls"]["sched"] for c in cs)
    v["pfp.predictor.terms_per_step"] = (within_terms("pfp", "lik", "predictor")
                                         / per_sampler["pfp"][5])
    for s in CLUSTERED:
        cs = per_sampler[s][0]
        v[f"{s}.cluster.idle_frac"] = 1.0 - (
            sum(c["cluster"]["charged"] for c in cs)
            / sum(c["cluster"]["workers"] * c["cluster"]["makespan"] for c in cs))
    for s in ("mh", "ss", "fly", "pf", "cons", "ws", "sgld"):
        key = "weighted" if s == "cons" else "draws"
        v[f"{s}.ess_per_s"] = statistics.median(
            ess_min(c[key]) / (c["wall_ns"] / 1e9) for c in per_sampler[s][2])
    for s in CHAINS + ("cons",):
        _, t, u, _, _, _ = per_sampler[s]
        v[f"{s}.trace_overhead_frac"] = _median_rate(u, ref) / _median_rate(t, ref) - 1.0
    return v
