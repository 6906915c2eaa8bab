"""Partition-preserving V-cycle refinement.

Section IV describes GP's search as "un-coarsened up to a certain
intermediate level and then coarsened back to the lowest level ...
repeated a number of parametrized times".  :mod:`repro.partition.gp`
realises the outer loop as full restart cycles; this module adds the
*localised* variant from the multilevel literature: re-coarsen the current
graph with matchings **restricted to intra-partition pairs** (so the
incumbent partition survives contraction exactly), refine the coarse
problem where moves are cheap and global, and project back.

``vcycle_refine`` never returns anything worse than its input under the
goodness order, so it composes safely after any partitioner
(``GPConfig(vcycles=...)`` wires it into GP; benchmark X8 measures it).
"""

from __future__ import annotations

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.coarsen import MATCHING_METHODS, contract
from repro.partition.flow_refine import check_refine_mode, run_flow_refine
from repro.partition.goodness import goodness_key
from repro.partition.kway_refine import _as_state, constrained_kway_fm
from repro.partition.metrics import ConstraintSpec, check_assignment, evaluate_partition
from repro.partition.refine_state import RefinementState
from repro.util.errors import PartitionError
from repro.util.rng import as_rng, spawn_seeds

__all__ = ["intra_part_matching", "vcycle_refine"]


def intra_part_matching(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    method: str = "hem",
    seed=None,
) -> np.ndarray:
    """A matching of *g* that never pairs nodes from different parts.

    Runs the base matching heuristic, then unmatches every crossing pair —
    contraction of the result preserves the partition exactly (each coarse
    node inherits the single part of its constituents).
    """
    a = check_assignment(g, assign, k)
    try:
        fn = MATCHING_METHODS[method]
    except KeyError:
        raise PartitionError(
            f"unknown matching method {method!r}; valid: {sorted(MATCHING_METHODS)}"
        ) from None
    match = fn(g, seed=seed).copy()
    crossing = a != a[match]  # symmetric: matched pairs agree
    match[crossing] = np.arange(g.n, dtype=match.dtype)[crossing]
    return match


def vcycle_refine(
    g: WGraph,
    assign: np.ndarray,
    k: int,
    constraints: ConstraintSpec,
    rounds: int = 2,
    coarsen_to: int | None = None,
    refine_passes: int = 6,
    method: str = "hem",
    seed=None,
    refine: str = "fm",
    conn_format: str = "auto",
) -> np.ndarray:
    """Improve *assign* with *rounds* partition-preserving V-cycles.

    Each round: coarsen the graph with intra-part matchings down to
    ``coarsen_to`` nodes (default ``max(30, 4k)``), refine every level on
    the way *down and back up* with the constrained FM, keep the result iff
    it improves the goodness key.  Stops early when a round brings no
    improvement.

    *refine* swaps the per-level local search (see
    :mod:`repro.partition.flow_refine`): ``"flow"`` replaces the FM with
    corridor flow passes; ``"fm+flow"`` runs FM per level plus a flow
    stage on the finest level — both still inside the round's goodness
    guard, so the never-worse-than-input property is unchanged.

    *conn_format* selects the engine's connectivity representation per
    level (``"auto"``/``"dense"``/``"sparse"``, see
    :mod:`repro.partition.conn_store`); results are identical either way.
    """
    check_refine_mode(refine)
    if rounds < 0:
        raise PartitionError(f"rounds must be >= 0, got {rounds}")
    a = check_assignment(g, assign, k).copy()
    if rounds == 0 or g.n <= k:
        return a
    if coarsen_to is None:
        coarsen_to = max(30, 4 * k)
    rng = as_rng(seed)

    best = a
    best_key = goodness_key(evaluate_partition(g, a, k, constraints), constraints)

    for _ in range(rounds):
        s_match, s_refine = spawn_seeds(rng, 2)
        # build a partition-preserving hierarchy from the incumbent
        graphs: list[WGraph] = [g]
        maps: list[np.ndarray] = []
        assigns: list[np.ndarray] = [best.copy()]
        cur_g, cur_a = g, best
        match_seeds = iter(spawn_seeds(s_match, 64))
        while cur_g.n > coarsen_to:
            match = intra_part_matching(
                cur_g, cur_a, k, method=method, seed=next(match_seeds)
            )
            if np.all(match == np.arange(cur_g.n)):
                break  # nothing contractible inside parts
            coarse, node_map = contract(cur_g, match)
            if coarse.n >= cur_g.n:
                break
            coarse_a = np.empty(coarse.n, dtype=np.int64)
            coarse_a[node_map] = cur_a  # well-defined: pairs share a part
            graphs.append(coarse)
            maps.append(node_map)
            assigns.append(coarse_a)
            cur_g, cur_a = coarse, coarse_a

        if len(graphs) == 1:
            break  # no hierarchy to exploit

        refine_seeds = spawn_seeds(s_refine, len(graphs))

        def level_refine(graph, a_level, s, state=None):
            if refine == "flow":
                stf = _as_state(graph, check_assignment(graph, a_level, k),
                                k, state)
                return run_flow_refine(stf, constraints), stf
            out = constrained_kway_fm(
                graph, a_level, k, constraints,
                max_passes=refine_passes, seed=s, state=state,
            )
            return out, state

        # refine the coarsest, then project down with refinement per level;
        # the finest level's engine state also supplies the goodness metrics
        cand, _ = level_refine(graphs[-1], assigns[-1], refine_seeds[-1])
        st = None
        for level in range(len(graphs) - 1, 0, -1):
            cand = cand[maps[level - 1]]
            st = RefinementState(
                graphs[level - 1], cand, k, conn_format=conn_format
            )
            cand, st = level_refine(
                graphs[level - 1], cand, refine_seeds[level - 1], state=st
            )
        if refine == "fm+flow":
            # flow polish on the finest level, inside the goodness guard
            if st is None:
                st = RefinementState(g, cand, k, conn_format=conn_format)
            cand = run_flow_refine(st, constraints)
        metrics = (
            st.metrics(constraints)
            if st is not None
            else evaluate_partition(g, cand, k, constraints)
        )
        key = goodness_key(metrics, constraints)
        if key < best_key:
            best, best_key = cand, key
        else:
            break
    return best
