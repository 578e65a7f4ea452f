"""Tests of the benchmark itself, at tiny N.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from bigbayes import firefly, prefetch  # noqa: E402
from bigbayes.rng import KeyedRng  # noqa: E402
from bench import MIN_CHUNKS, ROTATION, run_part, run_workload  # noqa: E402
from checks import run_checks  # noqa: E402
from metrics import END_TO_END, PER_LAYER, benchmark_entries  # noqa: E402
from suite import SAMPLERS  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def tiny(model, n, d, steps):
    return Workload(f"tiny-{model}", model, n, d, steps=dict.fromkeys(ROTATION, steps),
                    share=dict.fromkeys(ROTATION, 1 / len(ROTATION)), compare_steps=5)


TINY = [tiny("logistic", 300, 3, 200), tiny("gauss", 500, 1, 200)]


@pytest.mark.parametrize("wl", TINY, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_every_metric_emitted_with_its_unit_and_checks_pass(wl, trace):
    checks, metrics, prov = run_workload(wl, seed=3, seconds=0.0, trace=trace, parts=2)
    table = PER_LAYER if trace else END_TO_END
    assert set(metrics) == set(table)
    for name, m in metrics.items():
        assert m["unit"] == table[name][0]
        assert np.isfinite(m["value"])
    assert [name for name, ok in checks if not ok] == []
    assert prov["chunks"] == dict.fromkeys(ROTATION, 2 * (MIN_CHUNKS if trace else 1))
    assert prov["worker_processes"] == 2
    if not trace:
        assert all(metrics[name]["value"] > 0 for name in END_TO_END)


def test_worker_part_removes_every_wrapper_it_installs():
    originals = [vars(KeyedRng)["derive"], prefetch.naive_schedule, firefly.init_firefly]
    out = run_part(TINY[0], 3, 1, 0.0, True)
    assert [vars(KeyedRng)["derive"], prefetch.naive_schedule, firefly.init_firefly] == originals
    assert out["errors"] == [] and out["disagree_rate"] is None
    assert {c["index"] for c in out["chunks"]["mh"]} == {f"1.{i}" for i in range(MIN_CHUNKS)}


def test_benchmark_json_lists_every_metric_with_unit_and_direction():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layers = benchmark_entries()
    assert spec["end_to_end"] == e2e
    assert spec["per_layer"] == layers
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _draws(theta, sd, seed=0):
    rng = np.random.default_rng(seed)
    chain = {i: theta + 0.1 * sd * rng.standard_normal((50, theta.size)) for i in range(3)}
    out = {s: {i: d.copy() for i, d in chain.items()} for s in SAMPLERS}
    out["cons.weighted"] = {i: d.copy() for i, d in chain.items()}
    return out


def test_checks_fail_on_one_ulp_in_one_prefetch_draw():
    theta, sd = np.array([0.5, -1.0]), np.array([0.1, 0.2])
    draws = _draws(theta, sd)
    assert all(ok for _, ok in run_checks("logistic", theta, sd, draws))
    draws["pf"][1][7, 1] = np.nextafter(draws["pf"][1][7, 1], np.inf)
    failed = [name for name, ok in run_checks("logistic", theta, sd, draws) if not ok]
    assert failed == ["pf[1] == mh[1]"]


def test_checks_fail_on_non_finite_draw_and_far_mean():
    theta, sd = np.array([0.0]), np.array([1.0])
    draws = _draws(theta, sd)
    draws["ss"][0][3, 0] = np.nan
    for d in draws["sgld"].values():
        d += 5.0
    failed = [name for name, ok in run_checks("gauss", theta, sd, draws) if not ok]
    assert "ss[0] finite" in failed
    assert "sgld mean within 1 sd + 4 SE of theta_hat" in failed


def test_self_time_on_synthetic_span_tree():
    # root 0..100 has children A 10..40 and B 30..60, which overlap; A has a
    # child 15..20. Self time subtracts the union of the children's intervals.
    spans = [
        ["root", 0, 100, -1, 0],
        ["A", 10, 40, 0, 0],
        ["A.child", 15, 20, 1, 0],
        ["B", 30, 60, 0, 0],
    ]
    assert self_times(spans) == [50, 25, 5, 30]


def test_summary_counts_recursive_spans_once_and_terms_by_ancestor():
    spans = [
        ["materialize", 0, 10_000, -1, 0],
        ["materialize", 1_000, 4_000, 0, 0],
        ["lik", 2_000, 3_000, 1, 7],
        ["lik", 5_000, 6_000, 0, 5],
    ]
    out = summarize(spans)
    assert out["stats"]["materialize"]["incl_us"] == 10.0
    assert out["stats"]["materialize"]["self_us"] == 6.0 + 2.0
    assert out["stats"]["lik"]["terms"] == 12
    assert out["within"][("lik", "materialize")] == {"calls": 2, "terms": 12}


def test_tracer_records_nesting_counts_and_excludes_paused_work():
    tracer = Tracer()
    inner = tracer.wrap("lik", lambda idx: len(idx), terms=lambda args: len(args[0]))
    setup = tracer.excluded(lambda: inner([0, 1, 2]))
    outer = tracer.wrap("driver", lambda: setup() + inner([0, 1]))
    tracer.enabled = True
    assert outer() == 5
    assert [s[0] for s in tracer.spans] == ["driver", "lik"]
    assert tracer.spans[1][3] == 0
    assert tracer.terms["lik"] == 2 and tracer.calls["lik"] == 1
    assert tracer.excluded_ns > 0


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "logistic-1e3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
