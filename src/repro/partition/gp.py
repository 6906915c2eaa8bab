"""GP — the paper's constrained Multi-Level K-Way partitioner (Section IV).

Pipeline (mirrors the paper's phases):

1. **Coarsening** (IV.A): best-of-three matchings per level (random maximal,
   heavy-edge, K-means) down to ``coarsen_to`` nodes (paper default 100).
2. **Initial partitioning** (IV.B): greedy growing from the heaviest node,
   resource-capped, with randomly re-seeded restarts (paper default 10),
   leftover placement by biggest-free-space, then a constrained FM pass to
   drive pairwise bandwidth under ``Bmax``.
3. **Un-coarsening** (IV.C): project level by level; at each level several
   refinement candidates ("different intermediate clusterings") are generated
   and "compared a posteriori using a goodness function" — the nearest to
   meeting the constraints wins.
4. **Cyclic retry**: "if we do not meet constraints, we go back to the
   coarsening phase and then partitioning phase (randomly), cyclically."
   After ``max_cycles`` without a feasible partitioning the run reports
   infeasibility (raise or return, caller's choice), matching the paper's
   "either impossible or we have to give the tool more time".

Steps 3–4 are the driver shared with the hypergraph and vector engines
(:mod:`repro.partition.multilevel`); :class:`GraphEngine` supplies the
graph's coarsening, initial partition, refinement and V-cycle hooks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.wgraph import WGraph
from repro.partition.base import PartitionResult
from repro.partition.coarsen import Hierarchy, build_hierarchy, contract
from repro.partition.conn_store import check_conn_format
from repro.partition.flow_refine import check_refine_mode, run_flow_refine
from repro.partition.initial import greedy_initial_partition
from repro.partition.kway_refine import constrained_kway_fm
from repro.partition.metrics import ConstraintSpec, evaluate_partition
from repro.partition.multilevel import (
    Engine,
    check_cycle_knobs,
    multilevel_partition,
)
from repro.partition.refine_state import RefinementState
from repro.partition.vcycle import intra_part_matching, vcycle_refine
from repro.util.errors import PartitionError

__all__ = ["GPConfig", "GraphEngine", "gp_partition"]


@dataclass(frozen=True)
class GPConfig:
    """Tuning knobs of the GP algorithm, with the paper's defaults.

    Attributes
    ----------
    coarsen_to:
        Coarsening stops at this many nodes ("default is 100").
    restarts:
        Initial-partitioning restarts ("10 is default").
    max_cycles:
        Maximum coarsen/partition/un-coarsen cycles before declaring the
        instance infeasible ("a predetermined number of iterations").
    level_candidates:
        Intermediate clusterings generated per un-coarsening level and
        compared with the goodness function.
    refine_passes:
        FM passes per refinement call.
    vcycles:
        Partition-preserving V-cycle refinement rounds applied to each
        cycle's finest-level result (see :mod:`repro.partition.vcycle`);
        0 disables (the default — the cyclic restarts already realise the
        paper's outer loop; benchmark X8 measures this knob).
    matchings:
        Coarsening heuristics raced per level (Section IV.A's three).
    refine:
        Refinement stage (see :mod:`repro.partition.flow_refine`):
        ``"fm"`` — the paper's constrained FM per level (default, exact
        historical behaviour); ``"flow"`` — corridor max-flow passes
        replace the per-level FM (ablation mode); ``"fm+flow"`` — FM per
        level, then one guarded flow stage on the race winner, so the
        result is never worse than ``"fm"`` under the same seeds.
    conn_format:
        Connectivity-store layout of every refinement state this run
        builds (:mod:`repro.partition.conn_store`): ``"dense"`` — the
        historical ``(k, n)`` matrices; ``"sparse"`` — packed per-node
        slices sized by degree (the million-node setting); ``"auto"``
        (default) — sparse iff ``k·n`` crosses the module threshold.
        Dense and sparse are bit-identical under integer-valued weights.
    local_refine_from:
        Localised refinement threshold: on un-coarsening levels with at
        least this many nodes the FM frontier is seeded from the
        recently-uncontracted nodes (those whose coarse parent merged
        ≥2 nodes) intersected with the boundary, n-level style, instead
        of the whole boundary.  The default sits above every pinned
        differential corpus, so small-instance results are unchanged.
    on_infeasible:
        ``"return"`` — give back the least-violating partition with
        ``feasible=False``; ``"raise"`` — raise :class:`InfeasibleError`.
    seed:
        Default random seed for the run; the ``seed`` argument of
        :func:`gp_partition` overrides it when given, and ``None`` falls
        back to the library-default seed (runs are deterministic unless
        the caller passes a live Generator).

    This docstring is the canonical field-by-field reference for the GP
    knobs — ``docs/architecture.md`` and ``docs/parallel.md`` link here
    rather than re-listing them.  Execution concerns (``n_jobs``) are
    deliberately *not* config fields: they change wall-clock, never
    results, and live on the call sites instead.
    """

    coarsen_to: int = 100
    restarts: int = 10
    max_cycles: int = 20
    level_candidates: int = 3
    refine_passes: int = 6
    vcycles: int = 0
    matchings: tuple[str, ...] = ("random", "hem", "kmeans")
    refine: str = "fm"
    conn_format: str = "auto"
    local_refine_from: int = 200_000
    on_infeasible: str = "return"
    seed: int | None = None

    def __post_init__(self) -> None:
        # normalise matchings to a tuple so configs stay hashable (cache
        # keys) and equality-comparable however the caller spelled them
        object.__setattr__(self, "matchings", tuple(self.matchings))
        check_cycle_knobs(self)
        if self.vcycles < 0:
            raise PartitionError("vcycles must be >= 0")
        check_refine_mode(self.refine)
        check_conn_format(self.conn_format)
        if self.local_refine_from < 1:
            raise PartitionError("local_refine_from must be >= 1")
        if not self.matchings:
            raise PartitionError("at least one matching method required")


class GraphEngine(Engine):
    """The 2-pin edge-cut substrate: :class:`~repro.graph.wgraph.WGraph`
    refined on :class:`~repro.partition.refine_state.RefinementState`.

    Every call below goes through this module's names (``build_hierarchy``,
    ``constrained_kway_fm``, ...) so tracers that patch them see GP's phases.
    """

    kind = "graph"
    name = "gp"
    algorithm = "GP"
    #: hierarchy, initial partition, un-coarsening, V-cycle
    cycle_phases = 4

    def make_state(self, structure: WGraph, assign: np.ndarray):
        return RefinementState(structure, assign, self.k)

    def neighbors(self, structure: WGraph, u: int) -> np.ndarray:
        return structure.neighbors(u)

    def evaluate(self, assign: np.ndarray, constraints: ConstraintSpec):
        return evaluate_partition(self.structure, assign, self.k, constraints)

    def restricted_matching(
        self, structure: WGraph, labels: np.ndarray, n_labels: int, seed
    ) -> np.ndarray:
        """A matching that never pairs nodes with different *labels* —
        :func:`~repro.partition.vcycle.intra_part_matching` generalized to
        arbitrary label vectors (the recombination overlay has up to ``k²``
        classes)."""
        return intra_part_matching(
            structure, labels, n_labels, method="hem", seed=seed
        )

    def contract(self, structure: WGraph, match: np.ndarray):
        return contract(structure, match)

    # ------------------------------------------------------------------ #
    # multilevel hooks
    # ------------------------------------------------------------------ #
    def hierarchy(self, constraints, config: GPConfig, seed):
        # never coarsen below 2k nodes: a halving step from just above the
        # threshold must still leave enough nodes to seed k partitions
        hier = build_hierarchy(
            self.structure,
            coarsen_to=max(config.coarsen_to, 2 * self.k),
            seed=seed,
            methods=config.matchings,
        )
        return hier, [lvl.graph for lvl in hier.levels]

    def initial(self, coarsest: WGraph, constraints, config: GPConfig, seed):
        return greedy_initial_partition(
            coarsest, self.k, constraints, restarts=config.restarts, seed=seed
        )

    def level_state(self, structure: WGraph, assign, config: GPConfig):
        return RefinementState(
            structure, assign, self.k, conn_format=config.conn_format
        )

    def level_fm(self, structure: WGraph, assign, constraints,
                 config: GPConfig, seed, state, seed_nodes):
        return constrained_kway_fm(
            structure, assign, self.k, constraints,
            max_passes=config.refine_passes, seed=seed, state=state,
            seed_nodes=seed_nodes,
        )

    def flow(self, st, constraints) -> np.ndarray:
        return run_flow_refine(st, constraints)

    def locality_seeds(self, hier: Hierarchy, level: int, config: GPConfig):
        """Fine nodes whose coarse parent merged ≥2 nodes — the n-level FM
        frontier — when the level below *level* has at least
        ``config.local_refine_from`` nodes."""
        if hier.levels[level - 1].graph.n < config.local_refine_from:
            return None
        node_map = hier.levels[level].node_map
        members = np.bincount(node_map, minlength=hier.levels[level].graph.n)
        return np.nonzero(members[node_map] >= 2)[0]

    def vcycle(self, assign, constraints, config: GPConfig, seed):
        """``config.vcycles`` partition-preserving V-cycles on the cycle's
        finest-level result (:mod:`repro.partition.vcycle`)."""
        if not config.vcycles:
            return assign
        return vcycle_refine(
            self.structure, assign, self.k, constraints,
            rounds=config.vcycles,
            refine_passes=config.refine_passes,
            seed=seed,
            refine="fm" if config.refine == "fm+flow" else config.refine,
            conn_format=config.conn_format,
        )


def gp_partition(
    g: WGraph,
    k: int,
    constraints: ConstraintSpec,
    config: GPConfig | None = None,
    seed=None,
    n_jobs: int | None = 1,
) -> PartitionResult:
    """Partition *g* into *k* parts meeting the paper's two constraints.

    Parameters
    ----------
    g:
        Process-network graph (node weights = resources, edge weights =
        bandwidth).
    k:
        Number of partitions (FPGAs).
    constraints:
        ``Bmax`` / ``Rmax`` caps; either may be ``inf``.
    config:
        :class:`GPConfig`; paper defaults when omitted.
    seed:
        Overrides ``config.seed`` when given.
    n_jobs:
        Worker processes racing the retry cycles (``1`` = in-process
        serial, ``-1`` = all CPUs).  Every cycle's seeds are derived up
        front, results are consumed in cycle order, and the first
        feasible cycle still wins — so the returned partition is
        **bit-identical for every** ``n_jobs``; only wall-clock changes.
        Workers past the first feasible cycle are wasted speculation,
        the price of racing an early-exit loop.

    Returns
    -------
    PartitionResult
        With ``info`` containing ``cycles`` (cycles consumed), ``levels``
        (hierarchy depth of the last cycle) and ``max_cycles``.

    Raises
    ------
    InfeasibleError
        If no feasible partitioning is found within ``max_cycles`` and
        ``config.on_infeasible == "raise"``.  The exception carries the
        least-violating :class:`PartitionResult` in ``.best``.
    """
    config = config or GPConfig()
    return multilevel_partition(
        GraphEngine(g, k, refine=config.refine), k, constraints, config,
        seed=seed if seed is not None else config.seed, n_jobs=n_jobs,
    )
