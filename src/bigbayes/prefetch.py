"""Speculative-execution (prefetching) Metropolis-Hastings.

The accept/reject future of an MH chain is a binary tree; workers evaluate
the log joint at speculative nodes ahead of the decisions. Each node's
(theta', u) comes from ``mcmc.mh_propose`` on the stream keyed by absolute
chain position, never by speculation order, and each decision uses
``mcmc.mh_log_alpha``, so the output chain is bit-identical to serial MH for
every scheduling policy and worker count. Only accept-branch nodes need
evaluation: a rejection reuses its parent's state and density. Each
superstep's evaluations are one ``SimCluster.map_on_workers`` fan-out.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from .mcmc import ProposalDist, SampleBuffer, mh_log_alpha, mh_propose
from .rng import KeyedRng
from .simcluster import SimCluster

__all__ = [
    "SpecTree",
    "node_state",
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

    def __init__(self, target, proposal: ProposalDist, theta0, rng: KeyedRng):
        self.target = target
        self.proposal = proposal
        self.rng = rng
        self.root_theta = np.asarray(theta0, dtype=float).copy()
        self.root_lj: Optional[float] = None
        self.steps_done = 0
        self.nodes: Dict[str, _Node] = {}
        self.us: Dict[int, float] = {}
        self._next_uid = 0
        self.evaluated_uids = set()
        self.used_uids = set()
        self.discarded_uids = set()

    # -- state materialization -------------------------------------------------

    def state_for_prefix(self, prefix: str):
        """(theta, key-of-owning-accept-node-or-None) for a decision history."""
        last = prefix.rfind("1")
        if last < 0:
            return self.root_theta, None
        key = prefix[: last + 1]
        self.materialize(key)
        return self.nodes[key].theta, key

    def materialize(self, key: str):
        """Ensure an accept-node exists; creates ancestors as needed."""
        if not key or key[-1] != "1":
            raise ValueError("only accept nodes ('...1') are materialized")
        if key in self.nodes:
            return self.nodes[key]
        parent_theta, _ = self.state_for_prefix(key[:-1])
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
            self.used_uids.add(taken.uid)
        survivors = {}
        for key, node in self.nodes.items():
            if key == bit and bit == "1":
                continue  # became the root
            if key.startswith(bit):
                node.key = key[1:]
                survivors[node.key] = node
            else:
                if node.uid in self.evaluated_uids:
                    self.discarded_uids.add(node.uid)
        self.nodes = survivors
        self.us.pop(self.steps_done, None)
        self.steps_done += 1


def node_state(tree: SpecTree, key: str) -> np.ndarray:
    """Chain state reached by a decision history; draws are key-independent."""
    theta, _ = tree.state_for_prefix(key)
    return theta


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------

def naive_schedule(tree: SpecTree, J: int):
    """First J unevaluated accept nodes in breadth-first order."""
    if J < 1:
        raise ValueError("J must be positive")
    picked = []
    depth = 1
    while len(picked) < J:
        for i in range(2 ** (depth - 1)):
            key = bin(i)[2:].zfill(depth - 1) + "1" if depth > 1 else "1"
            node = tree.nodes.get(key)
            if node is not None and node.lj is not None:
                continue
            picked.append(key)
            if len(picked) == J:
                break
        depth += 1
    return picked


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
        parent_theta, _ = tree.state_for_prefix(parent_key)
        child = tree.materialize(child_key)
        n = target.n_data
        if n == 0:
            lam = target.log_prior(child.theta) - target.log_prior(parent_theta)
            return min(1.0, math.exp(min(0.0, lam)))
        idx = gen.choice(n, size=min(batch_size, n), replace=False)
        ell = target.log_lik_terms(idx, child.theta) - target.log_lik_terms(
            idx, parent_theta
        )
        est = float(np.mean(ell)) * n + target.log_prior(child.theta) - target.log_prior(
            parent_theta
        )
        return min(1.0, math.exp(min(0.0, est)))

    return predict


def predictive_schedule(tree: SpecTree, J: int, predictor: Callable):
    """Top-J unevaluated accept nodes by predicted path probability.

    A node's utility is the probability the chain reaches its parent state,
    i.e. the product of predicted branch probabilities along the prefix;
    ties break on (depth, key).
    """
    if J < 1:
        raise ValueError("J must be positive")
    order = lambda c: (-c[1], len(c[0]), c[0])
    candidates = []
    frontier = [("", 1.0)]
    # beam search: utilities only shrink along a path and every frontier
    # prefix yields one candidate at its own utility, so a beam of J
    # prefixes is exact
    for _ in range(10 * J + 50):
        nxt = []
        for prefix, util in frontier:
            child = prefix + "1"
            node = tree.nodes.get(child)
            if node is None or node.lj is None:
                candidates.append((child, util))
            p = predictor(tree, prefix, child)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"predictor returned {p} outside [0,1]")
            nxt.append((child, util * p))
            nxt.append((prefix + "0", util * (1.0 - p)))
        nxt.sort(key=order)
        frontier = nxt[:J]
        candidates.sort(key=order)
        candidates = candidates[:J]
        if len(candidates) == J and (not frontier or frontier[0][1] <= candidates[-1][1]):
            break
    return [key for key, _ in candidates]


# ---------------------------------------------------------------------------
# Master/worker execution
# ---------------------------------------------------------------------------

def prefetch_run(target, proposal: ProposalDist, theta0, T: int, J: int,
                 rng: KeyedRng, policy: str = "naive",
                 predictor: Optional[Callable] = None,
                 cluster: Optional[SimCluster] = None):
    """Prefetched MH chain of length T on J simulated workers.

    Returns (SampleBuffer, info). The draws are bit-exact equal to
    ``run_mh(target, proposal, theta0, T, rng)`` for every policy and J.
    """
    if cluster is None:
        cluster = SimCluster(J, seed=rng.seed)
    if cluster.n_workers != J:
        raise ValueError("cluster must have J workers")
    if policy == "predictive" and predictor is None:
        predictor = constant_predictor()

    tree = SpecTree(target, proposal, theta0, rng)
    eval_cost = float(target.n_data + 1)
    draws = np.empty((T, tree.root_theta.size))
    flags = np.empty(T, dtype=bool)
    done = 0
    supersteps = 0
    evals = 0

    # the serial chain evaluates the initial state once; charge it to worker 0
    tree.root_lj = target.log_joint(tree.root_theta)
    cluster.charge(0, eval_cost)
    evals += 1

    while done < T:
        if policy == "naive":
            keys = naive_schedule(tree, J)
        elif policy == "predictive":
            keys = predictive_schedule(tree, J, predictor)
        else:
            raise ValueError(f"unknown policy {policy!r}")
        nodes = [tree.materialize(key) for key in keys]
        ljs = cluster.map_on_workers(
            [lambda theta=node.theta: (target.log_joint(theta), eval_cost) for node in nodes],
            tag="prefetch-eval")
        # barrier: master resolves only when the superstep's results are in
        cluster.align_clocks()
        for node, lj in zip(nodes, ljs):
            node.lj = lj
            tree.evaluated_uids.add(node.uid)
        evals += len(nodes)
        supersteps += 1
        for theta, accepted in tree.resolve_ready_steps():
            if done < T:
                draws[done] = theta
                flags[done] = accepted
                done += 1

    # work conservation: every evaluated node was used, discarded with its
    # subtree, or is still live in the tree
    live = {n.uid for n in tree.nodes.values()}
    leaked = tree.evaluated_uids - tree.used_uids - tree.discarded_uids - live
    if leaked:
        raise AssertionError(f"evaluated nodes leaked: {sorted(leaked)}")

    info = {
        "supersteps": supersteps,
        "steps_per_superstep": T / supersteps if supersteps else float("nan"),
        "evals": evals,
        "serial_work": (T + 1) * eval_cost,
        "makespan": cluster.makespan(),
        "speedup": (T + 1) * eval_cost / cluster.makespan() if cluster.makespan() else float("nan"),
        "cluster": cluster,
    }
    return SampleBuffer(draws=draws, accept_flags=flags), info
