"""Deterministic simulation of a master and K workers in virtual time.

Virtual time is in abstract work units that algorithms charge (say one per
likelihood term), so speedup claims are about work, not wall clock or real
threads. The cluster draws nothing: ``worker_rng(k)`` is the keyed stream
that ``consensus`` hands to shard k's sampler.

Every master/worker fan-out in the package is one scatter-gather,
``SimCluster.map_on_workers``: task ``i`` is a callable returning
``(value, work_units)``, run on worker ``k = i % K``. The master sends it a
``tag`` message; the worker is charged ``work_units`` and replies with a
``tag + "-result"`` message. A message sent at its sender's clock t arrives
at t + L, L = ``msg_latency``, and advances its receiver's clock to at least
that. So with t0 the master's clock, worker k's clock becomes
max(c_k, t0 + L) + units, task i's reply arrives at that clock + L, and
``trace`` lists the task messages in i order, then the replies by (arrival
time, i). ``align_clocks`` is the bulk-synchronous barrier ``prefetch``
calls after each superstep's fan-out.
"""

import json
import math
from typing import Any, Dict

from .rng import KeyedRng

__all__ = ["SimCluster"]

MASTER = "master"


def _check_cost(what: str, value):
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{what} must be finite and nonnegative, got {value!r}")


class SimCluster:
    """K workers plus a master node exchanging timestamped messages."""

    def __init__(self, n_workers: int, seed: int = 0, msg_latency: float = 1.0):
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got n_workers = {n_workers!r}")
        _check_cost("msg_latency", msg_latency)
        self.n_workers = n_workers
        self.msg_latency = float(msg_latency)
        self.clocks: Dict[Any, float] = {MASTER: 0.0, **{k: 0.0 for k in range(n_workers)}}
        self._rng = KeyedRng(seed).child("cluster")
        self._in_flight = []
        self.trace = []
        self.total_charged = 0.0

    def worker_rng(self, k) -> KeyedRng:
        return self._rng.child("worker", k)

    def charge(self, node, units: float):
        """Advance a node's clock by computation cost."""
        _check_cost(f"work charged to node {node!r}", units)
        self.clocks[node] += units
        self.total_charged += units

    def send(self, src, dst, type: str):
        """Put a message in flight, arriving at the sender's clock plus latency."""
        self._in_flight.append((self.clocks[src] + self.msg_latency, src, dst, type))

    def run_until_quiescent(self):
        """Deliver every message in flight in (arrival time, send order)."""
        in_flight, self._in_flight = sorted(self._in_flight, key=lambda m: m[0]), []
        for time, src, dst, type in in_flight:
            self.clocks[dst] = max(self.clocks[dst], time)
            self.trace.append({"time": time, "src": src, "dst": dst, "type": type})

    def align_clocks(self):
        """Barrier: advance every node's clock to the latest one."""
        barrier_time = max(self.clocks.values())
        for node in self.clocks:
            self.clocks[node] = barrier_time

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

        Task ``i`` returns ``(value, work_units)`` for worker ``i % K``; the
        cost comes from the task because some tasks learn it only by running.
        Every task runs and every cost is checked before anything is sent or
        charged, so a task that raises or returns a bad cost changes nothing.
        """
        done = [fn() for fn in tasks]
        workers = [i % self.n_workers for i in range(len(done))]
        for k, (_, units) in zip(workers, done):
            _check_cost(f"work charged to node {k!r}", units)
        for k in workers:
            self.send(MASTER, k, tag)
        self.run_until_quiescent()
        for k, (_, units) in zip(workers, done):
            self.charge(k, units)
            self.send(k, MASTER, f"{tag}-result")
        self.run_until_quiescent()
        return [value for value, _ in done]
