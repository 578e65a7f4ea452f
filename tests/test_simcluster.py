import json

import numpy as np
import pytest

from bigbayes.mcmc import parallel_log_lik
from bigbayes.models import FactoredTarget
from bigbayes.simcluster import (
    MASTER,
    Message,
    SimCluster,
    SimTimeoutError,
    UnhandledMessageError,
    bsp_superstep,
    threaded_bsp_superstep,
)


def test_empty_queue_empty_trace():
    c = SimCluster(3)
    assert c.run_until_quiescent({}) == []


def test_deliver_before_send_rejected():
    with pytest.raises(ValueError):
        Message(src=0, dst=1, type="x", payload=None, send_time=2.0,
                deliver_time=1.0, seq=0)


def test_same_config_same_trace():
    def build():
        c = SimCluster(4, seed=7)

        def on_ping(cluster, msg):
            k = msg.dst
            cluster.charge(k, float(cluster.worker_rng(k).derive("w").integers(1, 5)))
            if msg.payload < 2:
                cluster.send(k, (k + 1) % 4, "ping", msg.payload + 1)

        for k in range(4):
            c.send(MASTER, k, "ping", 0)
        c.run_until_quiescent({"ping": on_ping})
        return c.trace_jsonl()

    assert build() == build()


def test_equal_time_ties_broken_by_sequence():
    c = SimCluster(2)
    order = []

    def handler(cluster, msg):
        order.append(msg.payload)

    c.send(MASTER, 0, "m", "first")
    c.send(MASTER, 1, "m", "second")  # same deliver_time, later seq
    c.run_until_quiescent({"m": handler})
    assert order == ["first", "second"]


def test_unhandled_message_type_is_logic_error():
    c = SimCluster(1)
    c.send(MASTER, 0, "mystery")
    with pytest.raises(UnhandledMessageError):
        c.run_until_quiescent({})


def test_step_limit_timeout_carries_trace():
    c = SimCluster(1)

    def forever(cluster, msg):
        cluster.send(0, 0, "loop")

    c.send(MASTER, 0, "loop")
    with pytest.raises(SimTimeoutError) as err:
        c.run_until_quiescent({"loop": forever}, max_events=25)
    assert len(err.value.trace) == 25


def test_virtual_time_nondecreasing_along_trace():
    c = SimCluster(3, seed=1)

    def relay(cluster, msg):
        if msg.payload:
            cluster.charge(msg.dst, 2.0)
            cluster.send(msg.dst, (msg.dst + 1) % 3, "r", msg.payload - 1)

    c.send(MASTER, 0, "r", 5)
    trace = c.run_until_quiescent({"r": relay})
    times = [e["time"] for e in trace]
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


def test_message_counts_match_whole_type_names():
    c = SimCluster(1)
    for t in ("eval", "eval-result", "eval", "evaluate"):
        c.send(MASTER, 0, t)
    c.run_until_quiescent({t: lambda cl, m: None for t in ("eval", "eval-result", "evaluate")})
    assert c.message_counts("eval") == 2
    assert c.message_counts("eval-result") == 1
    assert c.message_counts("ev") == 0


def test_trace_jsonl_schema():
    c = SimCluster(1)
    c.send(MASTER, 0, "m")
    c.run_until_quiescent({"m": lambda cl, ms: None})
    line = json.loads(c.trace_jsonl().splitlines()[0])
    assert set(line) == {"time", "src", "dst", "type"}


# -- BSP -----------------------------------------------------------------------

def test_bsp_single_worker_matches_serial():
    c = SimCluster(1)

    def local(k, state):
        return state["x"] + 1, 1.0

    def merge(state, updates):
        return {"x": updates[0]}

    state = {"x": 0}
    for _ in range(5):
        state = bsp_superstep(c, state, local, merge)
    assert state["x"] == 5


def test_bsp_disjoint_writes_union():
    c = SimCluster(4)

    def local(k, state):
        return {f"key{k}": k * 10}, 1.0

    def merge(state, updates):
        out = dict(state)
        for u in updates:
            out.update(u)
        return out

    state = bsp_superstep(c, {}, local, merge)
    assert state == {f"key{k}": k * 10 for k in range(4)}


def test_bsp_snapshot_isolation_read_log():
    c = SimCluster(2)
    reads = []

    def local(k, state):
        other = 1 - k
        reads.append((k, state[f"v{other}"]))  # mid-superstep neighbour read
        return {f"v{k}": state[f"v{k}"] + 100}, 1.0

    def merge(state, updates):
        out = dict(state)
        for u in updates:
            out.update(u)
        return out

    state = {"v0": 1, "v1": 2}
    new_state = bsp_superstep(c, state, local, merge)
    assert new_state == {"v0": 101, "v1": 102}
    assert sorted(reads) == [(0, 2), (1, 1)]  # pre-superstep values observed


def test_threaded_bsp_matches_simulator():
    def local(k, state):
        return (k, sum(state) * (k + 1)), 1.0

    def merge(state, updates):
        out = list(state)
        for k, v in sorted(updates):
            out[k] = v
        return tuple(out)

    state = (1.0, 2.0, 3.0)
    sim = bsp_superstep(SimCluster(3), state, local, merge)
    thr = threaded_bsp_superstep(state, local, merge, 3)
    for _ in range(3):
        assert threaded_bsp_superstep(state, local, merge, 3) == sim
    assert thr == sim


# -- integration with parallel_log_lik -----------------------------------------

def test_parallel_log_lik_on_cluster_bit_exact():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(32)

    def terms(idx, th):
        return -0.5 * (xs[np.asarray(idx)] - th[0]) ** 2

    target = FactoredTarget(dim=1, n_data=32, log_prior=lambda th: 0.0,
                            log_lik_terms=terms)
    th = np.array([0.4])
    shards = np.array_split(np.arange(32), 4)
    serial = parallel_log_lik(target, th, shards)
    cluster = SimCluster(4, seed=9)
    on_cluster = parallel_log_lik(target, th, shards, cluster=cluster)
    assert on_cluster == serial
    assert cluster.message_counts("loglik-shard") > 0
