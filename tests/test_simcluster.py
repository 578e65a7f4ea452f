import heapq
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigbayes.consensus import ShardPlan
from bigbayes.mcmc import parallel_log_lik
from bigbayes.models import FactoredTarget
from bigbayes.simcluster import MASTER, SimCluster


def snapshot(c):
    return dict(c.clocks), c.total_charged, list(c.trace)


def test_empty_queue_empty_trace():
    c = SimCluster(3)
    c.run_until_quiescent()
    assert c.map_on_workers([]) == []
    assert c.trace == []


@pytest.mark.parametrize("latency", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_bad_latency_rejected_naming_the_value(latency):
    with pytest.raises(ValueError, match=f"msg_latency .*{re.escape(repr(latency))}"):
        SimCluster(2, msg_latency=latency)


@pytest.mark.parametrize("units", [-1.0, math.nan, math.inf, np.float64(-0.5)])
def test_bad_charge_rejected_naming_node_and_value(units):
    c = SimCluster(2)
    c.charge(1, 2.0)
    before = snapshot(c)
    with pytest.raises(ValueError, match=f"node 1 .*{re.escape(repr(units))}"):
        c.charge(1, units)
    assert snapshot(c) == before


def test_same_config_same_trace():
    def build():
        c = SimCluster(4, seed=7)
        for r in range(3):
            units = [float(c.worker_rng(i % 4).derive("w", r).integers(1, 5)) for i in range(6)]
            c.map_on_workers([lambda u=u: (None, u) for u in units], tag="ping")
        return c.trace_jsonl()

    assert build() == build()


def test_equal_time_ties_broken_by_sequence():
    c = SimCluster(2)
    c.send(MASTER, 1, "m")
    c.send(MASTER, 0, "m")  # same arrival time, sent later
    c.run_until_quiescent()
    assert [e["dst"] for e in c.trace] == [1, 0]


def test_virtual_time_nondecreasing_along_trace():
    c = SimCluster(3, seed=1)
    for r in range(4):
        c.map_on_workers([lambda u=u: (None, u) for u in (5.0, 0.0, 2.0, 1.0, 7.0)][r:])
        c.charge(MASTER, 0.5 * r)
    times = [e["time"] for e in c.trace]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_speedup_embarrassingly_parallel_equals_k():
    K = 5
    c = SimCluster(K, msg_latency=0.0)
    tasks = [lambda: (1, 10.0) for _ in range(K * 20)]
    c.map_on_workers(tasks)
    assert c.speedup() == pytest.approx(K, rel=0.01)


def test_map_on_workers_returns_in_task_order():
    c = SimCluster(3)
    tasks = [lambda i=i: (i * i, 1.0) for i in range(10)]
    assert c.map_on_workers(tasks) == [i * i for i in range(10)]


def test_map_on_workers_charges_units_returned_by_each_task():
    K = 3
    c = SimCluster(K, msg_latency=0.0)
    units = [float(i + 1) for i in range(8)]
    c.map_on_workers([lambda u=u: (None, u) for u in units], tag="job")
    for k in range(K):
        assert c.clocks[k] == sum(units[k::K])
    assert c.total_charged == sum(units)
    assert c.message_counts("job") == c.message_counts("job-result") == len(units)


def failing(kind):
    def task():
        if kind == "raises":
            raise RuntimeError("task failed")
        return None, {"negative": -1.0, "nan": math.nan}[kind]
    return task


@pytest.mark.parametrize("kind", ["raises", "negative", "nan"])
def test_failed_fan_out_leaves_cluster_unchanged(kind):
    c = SimCluster(3)
    c.map_on_workers([lambda: (0, 1.0)] * 2)
    before = snapshot(c)
    with pytest.raises((RuntimeError, ValueError), match="task failed|node 1 "):
        c.map_on_workers([lambda: ("a", 1.0), failing(kind), lambda: ("c", 1.0)])
    assert snapshot(c) == before
    # nothing of the failed fan-out is left to run in the next one
    assert c.map_on_workers([lambda: ("x", 1.0), lambda: ("y", 1.0)]) == ["x", "y"]
    assert c.total_charged == 4.0
    assert len(c.trace) == len(before[2]) + 4


def test_message_counts_match_whole_type_names():
    c = SimCluster(1)
    for t in ("eval", "eval-result", "eval", "evaluate"):
        c.send(MASTER, 0, t)
    c.run_until_quiescent()
    assert c.message_counts("eval") == 2
    assert c.message_counts("eval-result") == 1
    assert c.message_counts("ev") == 0


def test_trace_jsonl_schema():
    c = SimCluster(1)
    c.send(MASTER, 0, "m")
    c.run_until_quiescent()
    line = json.loads(c.trace_jsonl().splitlines()[0])
    assert set(line) == {"time", "src", "dst", "type"}


# -- against an event-queue reference ------------------------------------------

class EventQueueCluster:
    """Reference fan-out: a heap of messages keyed by (arrival time, send
    sequence number). A task message's delivery charges its worker, which
    replies from there."""

    def __init__(self, K, latency):
        self.K, self.latency = K, latency
        self.clocks = {MASTER: 0.0, **{k: 0.0 for k in range(K)}}
        self.total_charged, self.trace, self.heap, self.seq = 0.0, [], [], 0

    def charge(self, node, units):
        self.clocks[node] += units
        self.total_charged += units

    def send(self, src, dst, type, payload):
        heapq.heappush(self.heap, (self.clocks[src] + self.latency, self.seq, src, dst, type, payload))
        self.seq += 1

    def map_on_workers(self, units, tag):
        results = [None] * len(units)
        for i, u in enumerate(units):
            self.send(MASTER, i % self.K, tag, (i, u))
        while self.heap:
            time, _, src, dst, type, (i, u) = heapq.heappop(self.heap)
            self.clocks[dst] = max(self.clocks[dst], time)
            self.trace.append({"time": time, "src": src, "dst": dst, "type": type})
            if type == tag:
                self.charge(dst, u)
                self.send(dst, MASTER, f"{tag}-result", (i, u))
            else:
                results[i] = u
        return results

    def align_clocks(self):
        barrier = max(self.clocks.values())
        self.clocks = dict.fromkeys(self.clocks, barrier)


cost = st.one_of(st.floats(0.0, 10.0), st.integers(0, 5).map(float))
round_ = st.tuples(st.lists(cost, max_size=10), cost, st.booleans())


@settings(max_examples=200, deadline=None)
@given(K=st.integers(1, 6), latency=st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0])),
       rounds=st.lists(round_, max_size=6))
def test_map_on_workers_matches_event_queue_reference(K, latency, rounds):
    c, ref = SimCluster(K, msg_latency=latency), EventQueueCluster(K, latency)
    for r, (units, master_units, barrier) in enumerate(rounds):
        tag = f"t{r % 2}"
        got = c.map_on_workers([lambda u=u: (u, u) for u in units], tag=tag)
        assert got == ref.map_on_workers(units, tag) == units
        c.charge(MASTER, master_units)
        ref.charge(MASTER, master_units)
        if barrier:
            c.align_clocks()
            ref.align_clocks()
        assert (c.clocks, c.total_charged, c.trace) == (ref.clocks, ref.total_charged, ref.trace)


# -- integration with parallel_log_lik -----------------------------------------

def test_parallel_log_lik_on_cluster_bit_exact():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(32)

    def terms(idx, th):
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2

    target = FactoredTarget(dim=1, n_data=32, log_prior=lambda th: 0.0,
                            log_lik_terms=terms)
    th = np.array([0.4])
    plan = ShardPlan.contiguous(32, 4)
    serial = parallel_log_lik(target, th, plan)
    cluster = SimCluster(4, seed=9)
    on_cluster = parallel_log_lik(target, th, plan, cluster=cluster)
    assert on_cluster == serial
    assert cluster.message_counts("loglik-shard") > 0
