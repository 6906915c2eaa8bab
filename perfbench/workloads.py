"""Seeded inputs and operations of the three benchmark workloads.

Every input is built from ``--seed``; the instance *sizes* follow a fixed
schedule so that two seeds load the library alike and only the random
structure changes.  Each library operation is an :class:`Op`: a call into
the public API (``partition_graph``, ``partition_ppn``,
``hyper_partition``) and a check of its result by :mod:`check`.
Library modules are reached through their module objects at call time,
so the traced run's wrappers (:mod:`spans`) see the calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import repro.core.api as api
import repro.hypergraph.partition as hpart
from repro.bench.suites import bounded_degree_graph
from repro.graph.generators import multicast_network, random_process_network
from repro.kpn.traffic import ppn_to_mapped_graph
from repro.partition.gp import GPConfig
from repro.partition.metrics import ConstraintSpec
from repro.polyhedral.gallery import chain
from repro.polyhedral.ppn import derive_ppn
from repro.polyhedral.transform import unroll_statement

import check

#: paper_mix call kinds, interleaved so every prefix of the sequence
#: carries the same mix.
PAPER_KINDS = ("gp", "gp_flow", "mlkp", "hyper", "vector_gp", "ppn")
PAPER_KS = (2, 3, 4, 8)
#: Seconds of --seconds per operation, from call times on a 2-CPU x86
#: host: --seconds 30 gives 100 paper-scale calls (enough for a p90 with
#: ten samples beyond it) and 12 large_k64 calls.
NOMINAL_OP_S = {"paper_mix": 0.3, "large_k64": 2.5}
#: serve_mix: --seconds 30 gives 300 requests over 48 keys.
SERVE_REQUESTS_PER_S = 10
SERVE_KEYS_PER_S = 1.6
SERVE_ORDER_SEED = 0

LARGE_N, LARGE_K = 2_000, 64


@dataclass
class Op:
    """One library call and the check of its raw result."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], tuple[float, bool]]


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


def paper_size(i: int) -> int:
    """Fixed node-count schedule: 40..150, spread by a stride coprime
    with the range so neighbouring operations differ in size."""
    return 40 + (i * 47) % 111


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def _tight_constraints(rng, n, k, cut_of, total, slack=1.15, factor=1.3):
    """The ``tight_instance`` recipe: Rmax = *slack* × total/k, Bmax =
    *factor* × the mean pairwise traffic of a random assignment."""
    cut = cut_of(rng.integers(0, k, size=n))
    bmax = float(np.ceil(factor * cut / (k * (k - 1) / 2)))
    return bmax, float(np.ceil(slack * total / k))


def _graph_cut(g, k):
    return lambda a: check.graph_metrics(*g.edge_array, g.node_weights,
                                         a, k)[0]


def _graph_op(kind, g, k, bmax, rmax, seed, **kwargs) -> Op:
    def call():
        return api.partition_graph(g, k, bmax=bmax, rmax=rmax, seed=seed,
                                   **kwargs)

    def verify(res):
        return check.check_graph(g, k, bmax, rmax, res.assign, res.cut,
                                 res.feasible, kwargs.get("resources"))

    return Op(kind, call, verify)


def _paper_op(i: int, rng) -> Op:
    kind = PAPER_KINDS[i % len(PAPER_KINDS)]
    k = PAPER_KS[(i // len(PAPER_KINDS)) % len(PAPER_KS)]
    n = paper_size(i)
    seed = _seed(rng)
    if kind == "hyper":
        hg = multicast_network(n, seed=seed)
        arrays = check.hyper_arrays(hg)
        bmax, rmax = _tight_constraints(
            rng, n, k, lambda a: check.hyper_metrics(*arrays, a, k)[0],
            float(hg.node_weights.sum()),
        )
        cons = ConstraintSpec(bmax=bmax, rmax=rmax)

        def call():
            return hpart.hyper_partition(hg, k, cons, seed=seed)

        def verify(res):
            return check.check_hyper(hg, k, bmax, rmax, res.assign, res.cut,
                                     res.feasible)

        return Op(kind, call, verify)
    if kind == "ppn":
        return _ppn_op(n, k, seed, rng)
    g = random_process_network(n, int(2.2 * n), seed=seed,
                               node_weight_range=(4, 40))
    if kind == "mlkp":
        # METIS-like: constraints are audited, not enforced, so only a
        # balance cap it meets by construction
        rmax = float(np.ceil(1.3 * g.total_node_weight / k))
        return _graph_op(kind, g, k, math.inf, rmax, seed, method="mlkp")
    bmax, rmax = _tight_constraints(rng, n, k, _graph_cut(g, k),
                                    g.total_node_weight)
    if kind == "gp":
        return _graph_op(kind, g, k, bmax, rmax, seed)
    if kind == "gp_flow":
        return _graph_op(kind, g, k, bmax, rmax, seed, refine="fm+flow")
    w = np.column_stack(
        [g.node_weights, rng.integers(1, 10, size=n)]
    ).astype(np.float64)
    rvec = tuple(float(np.ceil(1.2 * c / k)) for c in w.sum(axis=0))
    # cache=False: every call computes, as a fresh instance would
    return _graph_op(kind, g, k, bmax, rvec, seed, resources=w, cache=False)


def _ppn_op(n: int, k: int, seed: int, rng) -> Op:
    """An unrolled ``chain`` pipeline of about *n* processes, partitioned
    through ``partition_ppn`` (PPN derivation and traffic weighting run
    inside the timed call)."""
    factor = 4 if n < 80 else 8
    stages = max(2, round(n / factor))
    prog = chain(stages, n=8 * factor)
    for s in range(stages):
        prog = unroll_statement(prog, f"s{s}", factor)
    g, _names = ppn_to_mapped_graph(derive_ppn(prog))
    bmax, rmax = _tight_constraints(rng, g.n, k, _graph_cut(g, k),
                                    g.total_node_weight)

    def call():
        return api.partition_ppn(prog, k, bmax=bmax, rmax=rmax, seed=seed)

    def verify(out):
        res, mapped, _ = out
        same = all(
            np.array_equal(x, y) for x, y in zip(mapped.edge_array,
                                                 g.edge_array)
        ) and np.array_equal(mapped.node_weights, g.node_weights)
        if not same:
            raise check.CheckError("partition_ppn mapped a different graph")
        return check.check_graph(g, k, bmax, rmax, res.assign, res.cut,
                                 res.feasible)

    return Op("ppn", call, verify)


def paper_mix(seed: int, seconds: float) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [_paper_op(i, rng) for i in range(op_count("paper_mix", seconds))]


def large_k64(seed: int, seconds: float) -> list[Op]:
    """Default ``GPConfig`` (all three matchings, kmeans included) at k=64
    on a 2000-node bounded-degree ring, Rmax at 3% slack: kmeans
    coarsening and refinement whose cost grows with k, in one call."""
    g = bounded_degree_graph(LARGE_N)
    rmax = float(np.ceil(1.03 * g.total_node_weight / LARGE_K))
    rng = np.random.default_rng(seed)
    return [  # one graph, a partitioning seed per operation
        _graph_op("large", g, LARGE_K, math.inf, rmax, _seed(rng))
        for _ in range(op_count("large_k64", seconds))
    ]


@dataclass
class ServeKey:
    """One distinct request of serve_mix (its graph, k and constraints)."""

    g: Any
    k: int
    bmax: float
    rmax: float
    seed: int


def serve_mix(seed: int, seconds: float):
    """Distinct paper-scale requests and a Zipf-like request sequence over
    them.

    Key *j* has popularity rank *j* and occurs a fixed number of times
    (at least once, the rest in proportion to ``1/(j+1)^0.8``), in an
    order that is the same for every seed, so that the caches see the
    same reuse pattern from run to run; the seed picks each key's graph,
    constraints and partitioning seed.  Returns
    ``(keys, sequence, memory_entries)``: the daemon's in-memory LRU holds
    a quarter of the keys, so repeats are served from memory or from the
    disk store.
    """
    rng = np.random.default_rng(seed)
    n_keys = max(4, round(SERVE_KEYS_PER_S * seconds))
    n_requests = max(n_keys, round(SERVE_REQUESTS_PER_S * seconds))
    keys = []
    for j in range(n_keys):
        n, k = paper_size(j), PAPER_KS[j % len(PAPER_KS)]
        g = random_process_network(n, int(2.2 * n), seed=_seed(rng),
                                   node_weight_range=(4, 40))
        bmax, rmax = _tight_constraints(rng, n, k, _graph_cut(g, k),
                                        g.total_node_weight)
        keys.append(ServeKey(g, k, bmax, rmax, _seed(rng)))
    share = 1.0 / np.arange(1, n_keys + 1) ** 0.8
    extra = (n_requests - n_keys) * share / share.sum()
    counts = 1 + np.floor(extra).astype(int)
    # hand the rounding remainder to the largest fractional parts
    rest = n_requests - counts.sum()
    counts[np.argsort(np.floor(extra) - extra, kind="stable")[:rest]] += 1
    order = np.random.default_rng(SERVE_ORDER_SEED)
    sequence = order.permutation(np.repeat(np.arange(n_keys), counts))
    return keys, [int(j) for j in sequence], max(1, n_keys // 4)


#: Workloads that call the library in-process (serve_mix drives a daemon).
LIBRARY_WORKLOADS = {
    "paper_mix": paper_mix,
    "large_k64": large_k64,
}
