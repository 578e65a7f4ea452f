"""Speculative-execution (prefetching) Metropolis-Hastings.

The accept/reject future of an MH chain is a binary tree; workers evaluate
the log joint at speculative nodes ahead of the decisions. Each node's
(theta', u) comes from ``mcmc.mh_propose`` on the stream keyed by absolute
chain position, never by speculation order, and each decision uses
``mcmc.mh_log_alpha``, so the output chain is bit-identical to serial MH for
every scheduling policy and worker count. Only accept-branch nodes need
evaluation: a rejection reuses its parent's state and density. Each
superstep's evaluations are one ``SimCluster.map_on_workers`` fan-out.

Both policies are one best-first search for the J unevaluated accept nodes
of highest path probability, ties broken on (depth, key): naive prefetching
(Brockwell 2006) sets every branch probability to 1/2, which is breadth-first
order, and predictive prefetching (Angelino et al. 2014) asks a predictor.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .mcmc import (ProposalDist, SampleBuffer, _finite_or_neginf, _start_log_joint,
                   mh_log_alpha, mh_propose)
from .rng import KeyedRng
from .simcluster import SimCluster
from .subsample import llr_terms

__all__ = [
    "SpecTree",
    "naive_schedule",
    "predictive_schedule",
    "constant_predictor",
    "subsample_predictor",
    "prefetch_run",
]


@dataclass
class _Node:
    key: str                      # accept-node key relative to current root
    theta: np.ndarray
    uid: int
    lj: Optional[float] = None    # None until evaluated


class SpecTree:
    """Speculation tree over future MH decisions.

    Keys are bit strings of decisions from the current root; '1' is accept.
    Only keys ending in '1' are stored: reject children share their parent's
    state. ``us`` caches the decision uniforms by absolute step index.
    """

    def __init__(self, proposal: ProposalDist, theta0, rng: KeyedRng):
        self.proposal = proposal
        self.rng = rng
        self.root_theta = np.asarray(theta0, dtype=float).copy()
        self.root_lj: Optional[float] = None
        self.steps_done = 0
        self.nodes: Dict[str, _Node] = {}
        self.us: Dict[int, float] = {}
        self._next_uid = 0
        # evaluated nodes not yet used or dropped with their subtree
        self.unresolved_uids = set()

    # -- state materialization -------------------------------------------------

    def state_for_prefix(self, prefix: str) -> np.ndarray:
        """Chain state reached by a decision history: the theta of its last
        accept node (materialized if needed), or the root's. Draws are keyed
        by chain position, so they do not depend on the history."""
        last = prefix.rfind("1")
        if last < 0:
            return self.root_theta
        return self.materialize(prefix[: last + 1]).theta

    def materialize(self, key: str):
        """Ensure an accept-node exists; creates ancestors as needed."""
        if not key or key[-1] != "1":
            raise ValueError("only accept nodes ('...1') are materialized")
        if key in self.nodes:
            return self.nodes[key]
        parent_theta = self.state_for_prefix(key[:-1])
        step = self.steps_done + len(key) - 1
        # keyed by chain position: theta' depends on the path only via the parent
        theta_new, u = mh_propose(self.proposal, parent_theta, self.rng.derive("step", step))
        self.us[step] = u
        node = _Node(key=key, theta=np.asarray(theta_new, float), uid=self._next_uid)
        self._next_uid += 1
        self.nodes[key] = node
        return node

    # -- resolution --------------------------------------------------------------

    def resolve_ready_steps(self):
        """Promote the root through every decision whose densities are known.

        Returns the list of new chain states (one per completed step).
        """
        out = []
        while True:
            child_key = "1"
            node = self.nodes.get(child_key)
            if node is None or node.lj is None or self.root_lj is None:
                break
            step = self.steps_done
            u = self.us[step]
            log_alpha = mh_log_alpha(node.lj - self.root_lj, self.proposal,
                                     self.root_theta, node.theta)
            accepted = math.log(u) < log_alpha
            self._promote("1" if accepted else "0")
            out.append((self.root_theta.copy(), accepted))
        return out

    def _promote(self, bit: str):
        if bit == "1":
            taken = self.nodes["1"]
            self.root_theta = taken.theta
            self.root_lj = taken.lj
            self.unresolved_uids.discard(taken.uid)
        survivors = {}
        for key, node in self.nodes.items():
            if key == bit and bit == "1":
                continue  # became the root
            if key.startswith(bit):
                node.key = key[1:]
                survivors[node.key] = node
            else:
                self.unresolved_uids.discard(node.uid)
        self.nodes = survivors
        self.us.pop(self.steps_done, None)
        self.steps_done += 1


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------

def constant_predictor(p: float = 0.234) -> Callable:
    """Branch predictor with a fixed acceptance probability (the classic
    Gaussian-case optimum 0.234 by default)."""

    def predict(tree, parent_key, child_key):
        return p

    return predict


def subsample_predictor(target, batch_size: int = 30, seed: int = 0) -> Callable:
    """Predict P(accept) from a likelihood subsample, mirroring the
    adaptive-subsampling estimate of the log ratio."""
    gen = np.random.default_rng(seed)

    def predict(tree, parent_key, child_key):
        parent_theta = tree.state_for_prefix(parent_key)
        child = tree.materialize(child_key)
        n = target.n_data
        if n == 0:
            lam = target.log_prior(child.theta) - target.log_prior(parent_theta)
            return min(1.0, math.exp(min(0.0, lam)))
        idx = gen.choice(n, size=min(batch_size, n), replace=False)
        ell = llr_terms(target, idx, parent_theta, child.theta)
        est = float(np.mean(ell)) * n + target.log_prior(child.theta) - target.log_prior(
            parent_theta
        )
        return min(1.0, math.exp(min(0.0, est)))

    return predict


def _best_first(tree: SpecTree, J: int, predictor: Callable):
    """Top J unevaluated accept nodes by (-path probability, depth, key).

    Prefixes pop from a heap in that order, starting at the root ``""``.
    Each pop schedules the prefix's accept child if it has no density yet
    and, until J are picked, pushes both children at the predictor's p and
    1 - p. A child never ranks above its parent, so the picks are exact,
    at one predictor call per expanded prefix.
    """
    if J < 1:
        raise ValueError("J must be positive")
    picked = []
    heap = [(-1.0, 0, "")]
    while True:
        neg_util, depth, prefix = heapq.heappop(heap)
        child = prefix + "1"
        node = tree.nodes.get(child)
        if node is None or node.lj is None:
            picked.append(child)
            if len(picked) == J:
                return picked
        p = predictor(tree, prefix, child)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"predictor returned {p} outside [0,1]")
        heapq.heappush(heap, (neg_util * p, depth + 1, child))
        heapq.heappush(heap, (neg_util * (1.0 - p), depth + 1, prefix + "0"))


def naive_schedule(tree: SpecTree, J: int):
    """First J unevaluated accept nodes in breadth-first order: the
    best-first search with every branch probability 1/2, whose exact
    powers of two rank nodes by depth, then key."""
    return _best_first(tree, J, constant_predictor(0.5))


def predictive_schedule(tree: SpecTree, J: int, predictor: Callable):
    """Top-J unevaluated accept nodes by predicted path probability, ties
    broken on (depth, key): the best-first search with ``predictor``'s
    branch probabilities, each checked to lie in [0, 1]."""
    return _best_first(tree, J, predictor)


# ---------------------------------------------------------------------------
# Master/worker execution
# ---------------------------------------------------------------------------

def prefetch_run(target, proposal: ProposalDist, theta0, T: int, J: int,
                 rng: KeyedRng, policy: str = "naive",
                 predictor: Optional[Callable] = None,
                 cluster: Optional[SimCluster] = None):
    """Prefetched MH chain of length T on J simulated workers.

    Returns (SampleBuffer, info). The draws are bit-exact equal to
    ``run_mh(target, proposal, theta0, T, rng)`` for every policy ("naive",
    or "predictive" with ``constant_predictor()`` by default) and J; as in
    ``mh_step``, a non-finite speculative density is -inf, a rejection, and a
    NaN or +inf density at theta0 raises ValueError. Each superstep is one
    ``cluster.map_on_workers`` fan-out whose replies all reach the master
    before an ``align_clocks`` barrier.
    """
    if policy == "naive":
        if predictor is not None:
            raise ValueError("policy 'naive' takes no predictor")
        schedule = lambda tree: naive_schedule(tree, J)
    elif policy == "predictive":
        if predictor is None:
            predictor = constant_predictor()
        schedule = lambda tree: predictive_schedule(tree, J, predictor)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    if cluster is None:
        cluster = SimCluster(J, seed=rng.seed)
    if cluster.n_workers != J:
        raise ValueError("cluster must have J workers")

    tree = SpecTree(proposal, theta0, rng)
    eval_cost = float(target.n_data + 1)
    draws = np.empty((T, tree.root_theta.size))
    flags = np.empty(T, dtype=bool)
    done = 0
    supersteps = 0
    evals = 0

    # the serial chain evaluates the initial state once; charge it to worker 0
    tree.root_lj = _start_log_joint(target, tree.root_theta)
    cluster.charge(0, eval_cost)
    evals += 1

    while done < T:
        nodes = [tree.materialize(key) for key in schedule(tree)]
        ljs = cluster.map_on_workers(
            [lambda theta=node.theta: (_finite_or_neginf(target.log_joint, theta), eval_cost)
             for node in nodes],
            tag="prefetch-eval")
        # barrier: master resolves only when the superstep's results are in
        cluster.align_clocks()
        for node, lj in zip(nodes, ljs):
            node.lj = lj
            tree.unresolved_uids.add(node.uid)
        evals += len(nodes)
        supersteps += 1
        for theta, accepted in tree.resolve_ready_steps():
            if done < T:
                draws[done] = theta
                flags[done] = accepted
                done += 1

    # work conservation: every evaluated node was used, discarded with its
    # subtree, or is still live in the tree
    leaked = tree.unresolved_uids - {n.uid for n in tree.nodes.values()}
    if leaked:
        raise AssertionError(f"evaluated nodes leaked: {sorted(leaked)}")

    info = {
        "supersteps": supersteps,
        "steps_per_superstep": T / supersteps if supersteps else float("nan"),
        "evals": evals,
        "makespan": cluster.makespan(),
        "speedup": (T + 1) * eval_cost / cluster.makespan() if cluster.makespan() else float("nan"),
        "cluster": cluster,
    }
    return SampleBuffer(draws=draws, accept_flags=flags), info
