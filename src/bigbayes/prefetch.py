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
``subsample_predictor`` predicts each step's decision itself: the step's
uniform u is known once its node is materialized (``SpecTree.us``), so it
returns the confidence of a subsampled t-test that the step accepts, on a
batch of the package's one estimator, ``subsample.TaylorProxy``'s
second-order control-variate residuals; where the proxy's remainder bound
settles the step (``subsample.TaylorProxy.certify``) it returns the exact
decision, 0 or 1, and reads no data. Its proxy is centred at the run's
start (the first root it sees) and comes from ``subsample.taylor_proxy``,
which runs the O(N d^2) pass of the target's Taylor kernel only if no
proxy with that centre and those kernels is cached on the target: a
predictor beside a subsampling run from the same start, or a second
predictor there, makes no pass. A reused predictor keeps its first
centre, which stays unbiased but may predict less well. Predictions only
order the speculation, never a decision, and predictor work is not
charged to the simulated clock.
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
from .subsample import llr_terms, mh_log_threshold, taylor_proxy

__all__ = [
    "SpecTree",
    "naive_schedule",
    "predictive_schedule",
    "constant_predictor",
    "subsample_predictor",
    "prefetch_run",
]

_SQRT2 = math.sqrt(2.0)


@dataclass
class _Node:
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
        node = _Node(theta=np.asarray(theta_new, float), uid=self._next_uid)
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
                survivors[key[1:]] = node
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
    """Predict P(accept) as a subsampled t-test's confidence that the
    step's known uniform u accepts: p = Phi((mean(r) - psi') / se), read
    from a batch of m = ``batch_size`` residuals r drawn without
    replacement by ``default_rng(seed)``.

    The step accepts when sum_n [l_n(theta') - l_n(theta)] > N psi(u), with
    psi from ``subsample.mh_log_threshold`` (prior and Hastings terms
    included). ``subsample.TaylorProxy`` splits that sum into its
    full-data quadratic ratio ``llr_sum`` and the residuals
    r_n = [l_n(theta') - l_n(theta)] - [q_n(theta') - q_n(theta)], so the
    test compares the batch mean of r with psi' = psi - ``llr_sum`` / N,
    as subsampling MH's stopping rules do. se = s / sqrt(m) *
    sqrt((N - m) / (N - 1)) is the mean's standard error without
    replacement, with s the batch's sample standard deviation, and Phi the
    standard normal distribution function. Where se = 0 (a batch of all N,
    or residuals with no spread, as on a Gaussian target whose proxy is
    exact) p is the indicator [mean(r) > psi'], the exact decision; a
    single residual out of N > 1 has no spread to read, and predicts 1/2.
    Before any of this, ``TaylorProxy.certify`` asks whether the proxy's
    remainder bound settles the step; if it does, p is that exact
    decision, 1.0 or 0.0, and the call draws and reads nothing.
    A NaN estimate predicts a rejection, p = 0, as ``mh_step`` rejects a
    non-finite density. With no data (N = 0) p is the exact decision.

    The centre is the tree's root at the first call, the start of the run.
    That call gets the proxy there from ``subsample.taylor_proxy``: the one
    cached on the target if it has that centre (same bytes) and the
    target's current kernels, else a new one, which sums G and H in one
    blocked pass of the target's Taylor kernel (its gradient kernel for a
    first-order proxy), so no N-sized array is made. So a predictor beside
    an ``ss`` run from the same start makes no pass; one long run of a
    single predictor pays the pass once either way. Every call that the
    proxy does not certify then reads exactly m rows of ``log_lik_terms``,
    the terms at theta and theta' in one gather, and the Taylor kernel at c
    on the same m indices; a certified call reads none. A
    predictor reused for another run keeps its first centre: still
    unbiased, but less accurate if the new run starts elsewhere. Predictor
    work is not charged to the simulated cluster's clock.
    """
    if (isinstance(batch_size, bool) or not isinstance(batch_size, (int, np.integer))
            or batch_size < 1):
        raise ValueError(f"batch_size must be an int >= 1, got {batch_size!r} "
                         f"({type(batch_size).__name__})")
    gen = np.random.default_rng(seed)
    n = target.n_data
    m = min(int(batch_size), n)
    proxy = None

    def predict(tree, parent_key, child_key):
        nonlocal proxy
        theta = tree.state_for_prefix(parent_key)
        theta_new = tree.materialize(child_key).theta
        u = tree.us[tree.steps_done + len(child_key) - 1]
        if not n:
            log_alpha = mh_log_alpha(target.log_prior(theta_new) - target.log_prior(theta),
                                     tree.proposal, theta, theta_new)
            return float(math.log(u) < log_alpha)
        if proxy is None:
            proxy = taylor_proxy(target, tree.root_theta)
        psi = mh_log_threshold(u, theta, theta_new, tree.proposal, target.log_prior, n)
        settled, shifted = proxy.certify(theta, theta_new, psi)
        if settled is not None:
            return float(settled)
        idx = gen.choice(n, size=m, replace=False)
        r = llr_terms(proxy.target, idx, theta, theta_new)
        mean = float(r.sum()) / m
        diff = mean - shifted
        if m == n:
            p = float(diff > 0.0)  # se = 0: the batch is all the data
        elif m == 1:
            p = 0.5  # one residual has no spread to read
        else:
            var = max(float(r @ r) / m - mean * mean, 0.0) * m / (m - 1)
            se = math.sqrt(var / m * (n - m) / (n - 1))
            p = 0.5 * math.erfc(-diff / (se * _SQRT2)) if se else float(diff > 0.0)
        return 0.0 if math.isnan(diff) or math.isnan(p) else p

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
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T!r}")
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
        raise ValueError(f"cluster must have J workers, got {cluster.n_workers} for J = {J}")

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
