"""Deterministic discrete-event simulation of a worker cluster.

Virtual time is measured in abstract work units; algorithms charge costs
(say one unit per likelihood-term evaluation) so speedup claims are about
work, not wall clock or real threads. Event processing order is a pure
function of configuration and seeds: the queue is ordered by
(deliver_time, sequence number) and all randomness flows through per-worker
keyed streams.

Every master/worker fan-out in the package goes through one protocol,
``SimCluster.map_on_workers``: task ``i`` is a callable returning
``(value, work_units)``; the master sends it to worker ``i % K`` as a
message of type ``tag``; the worker calls it, is charged ``work_units``, and
then replies to the master as ``tag + "-result"``. No other module sends work
messages or defines handlers for them.
"""

import heapq
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from .rng import KeyedRng

__all__ = [
    "Message",
    "SimCluster",
    "SimTimeoutError",
    "UnhandledMessageError",
    "bsp_superstep",
    "threaded_bsp_superstep",
]

MASTER = "master"


class SimTimeoutError(RuntimeError):
    def __init__(self, msg, trace):
        super().__init__(msg)
        self.trace = trace


class UnhandledMessageError(RuntimeError):
    pass


@dataclass(frozen=True)
class Message:
    src: Any
    dst: Any
    type: str
    payload: Any
    send_time: float
    deliver_time: float
    seq: int

    def __post_init__(self):
        if self.deliver_time < self.send_time:
            raise ValueError("deliver_time must be >= send_time")


class SimCluster:
    """K workers plus a master node exchanging timestamped messages."""

    def __init__(self, n_workers: int, seed: int = 0, msg_latency: float = 1.0,
                 work_unit: float = 1.0):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers
        self.msg_latency = float(msg_latency)
        self.work_unit = float(work_unit)
        self.clocks: Dict[Any, float] = {MASTER: 0.0, **{k: 0.0 for k in range(n_workers)}}
        self._rng = KeyedRng(seed).child("cluster")
        self._queue = []
        self._seq = 0
        self.trace = []
        self.total_charged = 0.0

    # -- randomness -----------------------------------------------------------

    def worker_rng(self, k) -> KeyedRng:
        return self._rng.child("worker", k)

    # -- time and messaging ---------------------------------------------------

    def now(self, node) -> float:
        return self.clocks[node]

    def charge(self, node, units: float):
        """Advance a node's clock by computation cost."""
        if units < 0:
            raise ValueError("work must be nonnegative")
        self.clocks[node] += units * self.work_unit
        self.total_charged += units * self.work_unit

    def send(self, src, dst, type: str, payload=None, latency: Optional[float] = None):
        lat = self.msg_latency if latency is None else float(latency)
        t = self.clocks[src]
        msg = Message(src=src, dst=dst, type=type, payload=payload,
                      send_time=t, deliver_time=t + lat, seq=self._seq)
        self._seq += 1
        heapq.heappush(self._queue, (msg.deliver_time, msg.seq, msg))
        return msg

    def run_until_quiescent(self, handlers: Dict[str, Callable], max_events: int = 10**6):
        """Deliver queued messages in deterministic order until drained.

        ``handlers`` maps message type to ``handler(cluster, msg)``; an
        unknown type is a logic error. Exceeding ``max_events`` raises a
        timeout carrying the trace so far.
        """
        processed = 0
        while self._queue:
            if processed >= max_events:
                raise SimTimeoutError(f"exceeded {max_events} events", list(self.trace))
            _, _, msg = heapq.heappop(self._queue)
            self.clocks[msg.dst] = max(self.clocks[msg.dst], msg.deliver_time)
            self.trace.append({"time": msg.deliver_time, "src": msg.src,
                               "dst": msg.dst, "type": msg.type})
            handler = handlers.get(msg.type)
            if handler is None:
                raise UnhandledMessageError(f"no handler for message type {msg.type!r}")
            handler(self, msg)
            processed += 1
        return list(self.trace)

    def align_clocks(self):
        """Barrier: advance every node's clock to the latest one."""
        barrier_time = max(self.clocks.values())
        for node in self.clocks:
            self.clocks[node] = barrier_time

    # -- accounting -----------------------------------------------------------

    def makespan(self) -> float:
        return max(self.clocks.values())

    def speedup(self) -> float:
        """Serial work divided by simulated elapsed time."""
        span = self.makespan()
        return self.total_charged / span if span > 0 else float("nan")

    def trace_jsonl(self) -> str:
        return "\n".join(json.dumps(e) for e in self.trace)

    def message_counts(self, type: str) -> int:
        """Number of delivered messages of exactly this type."""
        return sum(1 for e in self.trace if e["type"] == type)

    # -- the one scatter-gather -----------------------------------------------

    def map_on_workers(self, tasks, tag: str = "task"):
        """Run tasks round-robin across workers; results in task order.

        Task ``i`` is a callable returning ``(value, work_units)``. It is sent
        master -> worker ``i % K`` as a ``tag`` message and called at the
        worker, which is charged ``work_units`` before it replies worker ->
        master as ``tag + "-result"``. The cost comes from the task because
        some tasks learn it only by running.
        """
        results = [None] * len(tasks)

        def on_task(cluster, msg):
            i, fn = msg.payload
            value, units = fn()
            cluster.charge(msg.dst, units)
            cluster.send(msg.dst, MASTER, f"{tag}-result", (i, value))

        def on_result(cluster, msg):
            i, value = msg.payload
            results[i] = value

        for i, fn in enumerate(tasks):
            self.send(MASTER, i % self.n_workers, tag, (i, fn))
        self.run_until_quiescent({tag: on_task, f"{tag}-result": on_result})
        return results


def bsp_superstep(cluster: SimCluster, state, local_work, merge, tag: str = "bsp"):
    """One bulk-synchronous superstep.

    Every worker runs ``local_work(k, snapshot)`` against the same
    pre-superstep snapshot and returns ``(update, work_units)``; ``merge``
    folds the updates into the next global state after the barrier. No
    worker ever observes another's same-superstep writes.
    """
    updates = []
    for k in range(cluster.n_workers):
        update, units = local_work(k, state)
        cluster.charge(k, units)
        updates.append(update)
    # barrier: gather to master, broadcast back
    for k in range(cluster.n_workers):
        cluster.send(k, MASTER, f"{tag}-sync", None)
    cluster.run_until_quiescent({f"{tag}-sync": lambda c, m: None})
    cluster.align_clocks()
    for k in range(cluster.n_workers):
        cluster.send(MASTER, k, f"{tag}-release", None)
    cluster.run_until_quiescent({f"{tag}-release": lambda c, m: None})
    return merge(state, updates)


def threaded_bsp_superstep(state, local_work, merge, n_workers: int):
    """Real-thread executor for BSP workloads; must agree with the simulator
    for pure ``local_work``. Used in stress tests only."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futs = [pool.submit(local_work, k, state) for k in range(n_workers)]
        updates = [f.result()[0] for f in futs]
    return merge(state, updates)
