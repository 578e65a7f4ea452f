"""One benchmark run: worker processes, each with set-up, timed chunks of
every sampler and of the reference kernel; then checks and metrics.

``run_workload`` is what ``run.py`` calls; the tests call it on tiny
workloads. It runs ``PARTS`` worker processes one after another, each for
an equal share of the run (``worker.py`` calls ``run_part``). Each fresh
interpreter gets its own memory layout and hash seed, and those alone
move a process's speed by several percent, so pooling the chunks of
several processes averages that out. A chunk record holds the draws and
wall time from ``suite.run_chunk`` plus the wrapper counts, the worker it
ran in, and for traced chunks the span summary.
"""

import gc
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from checks import run_checks
from metrics import END_TO_END, PER_LAYER, end_to_end, per_layer, ref_rates, wall_rates
from reference import reference_log_joint, run_reference
from suite import (CONFIG, SAMPLERS, SS_CFG, build, chunk_seed, compare_exact_pass,
                   counting_patches, run_chunk, traced_patches)
from tracing import Tracer, patched, summarize
from workloads import make_data

__all__ = ["run_workload", "run_part"]

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
PARTS = 8
SETUP_REPS = 2     # per worker process, after one untimed warm-up
MIN_CHUNKS = 2     # per sampler and worker process in a traced run: one of each kind
ROTATION = SAMPLERS + ("ref",)
SLACK_S = 90       # time allowed beyond --seconds for start-up, set-up and checks
# numpy reads these when it loads OpenBLAS, so they go into the workers' environment
BLAS_ENV = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def _git_sha(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_one(sampler, objs, steps, key, traced, tracer):
    """One chunk with the tracer set up for it; returns the chunk record."""
    gc.collect()
    tracer.reset()
    with patched(traced_patches(tracer) if traced else []):
        tracer.enabled = traced
        try:
            rec = run_chunk(sampler, objs, steps, key, tracer)
        finally:
            tracer.enabled = False
    rec.update(steps=steps, traced=traced, calls=dict(tracer.calls),
               terms=dict(tracer.terms), excluded_ns=tracer.excluded_ns)
    if traced:
        rec["summary"] = summarize(tracer.spans)
    return rec


def measure(objs, wl, seed, part, seconds, trace, tracer):
    """Run chunks of every sampler and of the reference kernel, interleaved,
    until ``seconds`` are spent.

    The next chunk always goes to the sampler furthest below its share of
    the time spent so far, so every sampler's chunks are spread over the
    whole run and a slow spell of the machine touches all of them alike.
    With ``trace``, a sampler's odd-numbered chunks are traced.
    """
    chunks = {s: [] for s in ROTATION}
    spent = dict.fromkeys(ROTATION, 0)
    errors = []
    live = list(ROTATION)
    start = perf_counter_ns()
    with patched(counting_patches(tracer)):
        while live:
            short = [s for s in live if len(chunks[s]) < (MIN_CHUNKS if trace else 1)]
            if not short and perf_counter_ns() - start >= seconds * 1e9:
                break
            s = min(short or live, key=lambda s: spent[s] / wl.share[s])
            i = len(chunks[s])
            t0 = perf_counter_ns()
            try:
                rec = _run_one(s, objs, wl.steps[s], chunk_seed(seed, part, i),
                               bool(trace and i % 2), tracer)
                rec.update(part=part, index=f"{part}.{i}", start_ns=t0)
                chunks[s].append(rec)
            except Exception:
                errors.append(f"{s}[{part}.{i}] raised:\n{traceback.format_exc()}")
                live.remove(s)
            spent[s] += perf_counter_ns() - t0
    return chunks, errors


def _peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space.

    ``ru_maxrss`` would also count the parent's resident set at the time
    it started this worker, so Linux's ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_part(wl, seed: int, part: int, seconds: float, trace: bool):
    """One worker process's share of a run: set-up, then timed chunks.

    Worker 0 also makes the untimed ``compare_exact`` pass of ``ss``.
    """
    data = make_data(wl, seed)
    tracer = Tracer()
    build(wl.model, data, seed, tracer)   # warm-up: first calls of a fresh process
    setup_s = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = perf_counter()
        objs = build(wl.model, data, seed, tracer)
        setup_s.append(perf_counter() - t0)
    tracer.reset()
    objs.ref = partial(run_reference, reference_log_joint(wl.model, data), data.theta_hat,
                       2.38 / math.sqrt(wl.d) * data.sd)
    disagree_rate = (compare_exact_pass(wl.model, data, seed, wl.compare_steps)
                     if part == 0 else None)
    chunks, errors = measure(objs, wl, seed, part, seconds, trace, tracer)
    return {"chunks": chunks, "errors": errors, "setup_s": setup_s,
            "disagree_rate": disagree_rate, "theta_hat": data.theta_hat, "sd": data.sd,
            "peak_rss_mb": _peak_rss_mb()}


def _spawn(args, timeout):
    """``run_part(*args)`` in a fresh worker process; waits for it to end."""
    proc = subprocess.run([sys.executable, str(WORKER)], input=pickle.dumps(args),
                          capture_output=True, timeout=timeout, env={**os.environ, **BLAS_ENV})
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise RuntimeError(f"exit code {proc.returncode}: {' '.join(tail)}")
    return pickle.loads(proc.stdout)


def run_workload(wl, seed: int, seconds: float, trace: bool, parts: int = PARTS):
    """Run one workload in ``parts`` worker processes; returns (checks,
    metrics, provenance).

    ``checks`` is a list of (name, passed); ``metrics`` maps each
    end-to-end metric (or, with ``trace``, each per-layer metric) to
    ``{"value", "unit"}``. A chunk that raises stops its sampler in its
    worker, and a worker that fails stops the run; either counts as a
    failed check, and then no metrics are reported.
    """
    deadline = perf_counter() + seconds + SLACK_S
    results, errors = [], []
    for part in range(parts):
        try:
            results.append(_spawn((wl, seed, part, seconds / parts, trace),
                                  max(deadline - perf_counter(), 1.0)))
        except (RuntimeError, subprocess.TimeoutExpired, pickle.UnpicklingError) as e:
            errors.append(f"worker {part} failed: {e}")
            break
        errors += results[-1]["errors"]

    chunks = {s: [c for r in results for c in r["chunks"][s]] for s in ROTATION}
    setup_s = [t for r in results for t in r["setup_s"]]
    checks = []
    if results:
        draws = {s: {c["index"]: c["draws"] for c in chunks[s]} for s in SAMPLERS}
        draws["cons.weighted"] = {c["index"]: c["weighted"] for c in chunks["cons"]}
        checks = run_checks(wl.model, results[0]["theta_hat"], results[0]["sd"], draws)
    checks += [(e.splitlines()[0], False) for e in errors]

    disagree_rate = results[0]["disagree_rate"] if results else None
    metrics = {}
    if not errors:
        if trace:
            values, table = per_layer(chunks, wl.n, disagree_rate), PER_LAYER
        else:
            peak_mb = statistics.median(r["peak_rss_mb"] for r in results)
            values, table = end_to_end(chunks, wl.n, setup_s, peak_mb), END_TO_END
        metrics = {k: {"value": float(v), "unit": table[k][0]} for k, v in values.items()}

    provenance = {
        "workload": wl.name, "seed": seed, "n": wl.n, "d": wl.d,
        "seconds": seconds, "trace": int(trace), "worker_processes": len(results),
        "chunks": {s: len(cs) for s, cs in chunks.items()},
        "timed_s": {s: sum(c["wall_ns"] for c in cs) / 1e9 for s, cs in chunks.items()},
        "steps_per_chunk": wl.steps, "setup_s": setup_s,
        "peak_rss_mb": [r["peak_rss_mb"] for r in results],
        "ref_steps_per_s": ref_rates(chunks) if chunks["ref"] else {},
        "wall_steps_per_s": wall_rates(chunks) if not errors else {},
        "ss_guarantee": {"disagree_rate": disagree_rate, "epsilon": SS_CFG.epsilon,
                         "steps": wl.compare_steps,
                         "held": disagree_rate is not None and disagree_rate <= SS_CFG.epsilon},
        "samplers": CONFIG, "git_sha": _git_sha(ROOT), "numpy": np.__version__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "failed_checks": [name for name, ok in checks if not ok],
        "errors": errors,
    }
    return checks, metrics, provenance
