"""Multilevel k-way hypergraph partitioning under the paper's constraints.

The pipeline mirrors :func:`~repro.partition.gp.gp_partition` phase for
phase, with the connectivity objective in place of the edge cut:

1. **Coarsening** — heavy-edge contraction with identical-net detection
   down to ``coarsen_to`` nodes (:mod:`repro.hypergraph.coarsen`).
2. **Initial partitioning** — the existing resource-aware greedy growing
   with restarts runs on the coarsest hypergraph's *clique expansion*
   (exact for 2-pin nets, standard ``w/(|e|−1)`` split otherwise), then a
   constrained Φ-engine FM pass polishes it against the real objective.
3. **Un-coarsening** — project level by level; per level several
   refinement candidates race and the goodness function picks the one
   nearest to meeting the constraints, exactly as in GP.
4. **Cyclic retry** — re-coarsen/re-partition randomly up to
   ``max_cycles`` times until feasible, else report the least-violating
   result (or raise, caller's choice).

Steps 3–4 are the shared :func:`~repro.partition.multilevel.
multilevel_partition` driver; :class:`HyperEngine` supplies the
hypergraph's coarsening, initial partition and Φ-engine refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hypergraph.coarsen import (
    build_hyper_hierarchy,
    contract_hyper,
    heavy_pin_matching,
)
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.metrics import evaluate_hyper_partition
from repro.hypergraph.refine import constrained_hyper_fm
from repro.hypergraph.refine_state import HyperRefinementState
from repro.partition.base import PartitionResult
from repro.partition.initial import greedy_initial_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.multilevel import (
    Engine,
    check_cycle_knobs,
    multilevel_partition,
)
from repro.util.errors import PartitionError

__all__ = ["HyperConfig", "HyperEngine", "hyper_partition"]


@dataclass(frozen=True)
class HyperConfig:
    """Tuning knobs of the multilevel hypergraph partitioner.

    The knobs (and their defaults) track :class:`~repro.partition.gp.GPConfig`
    so graph-vs-hypergraph races compare models, not budgets; ``max_cycles``
    defaults lower because connectivity refinement converges in fewer
    cycles on the PN instances this library targets.
    """

    coarsen_to: int = 100
    restarts: int = 10
    max_cycles: int = 10
    level_candidates: int = 3
    refine_passes: int = 6
    on_infeasible: str = "return"
    seed: int | None = None

    def __post_init__(self) -> None:
        check_cycle_knobs(self)


class HyperEngine(Engine):
    """The (λ−1) connectivity substrate: :class:`~repro.hypergraph.hgraph.
    HGraph` refined on :class:`~repro.hypergraph.refine_state.
    HyperRefinementState`."""

    kind = "hypergraph"
    name = "hyper"
    algorithm = "GP-hyper"
    #: the initial partition comes from the clique-expansion proxy, so the
    #: coarsest level is refined against the real objective first
    polish_coarsest = True

    def make_state(self, structure: HGraph, assign: np.ndarray):
        return HyperRefinementState(structure, assign, self.k)

    def neighbors(self, structure: HGraph, u: int) -> np.ndarray:
        return structure.adjacent_nodes(u)

    def evaluate(self, assign: np.ndarray, constraints: ConstraintSpec):
        return evaluate_hyper_partition(
            self.structure, assign, self.k, constraints
        )

    def restricted_matching(
        self, structure: HGraph, labels: np.ndarray, n_labels: int, seed
    ) -> np.ndarray:
        """Heavy-pin matching with every label-crossing pair unmatched —
        the hypergraph analogue of the graph engine's restricted matching
        (contraction of the result preserves every label class exactly)."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (structure.n,):
            raise PartitionError(
                f"labels have shape {labels.shape}, expected ({structure.n},)"
            )
        match = heavy_pin_matching(structure, seed=seed).copy()
        crossing = labels != labels[match]
        match[crossing] = np.arange(structure.n, dtype=np.int64)[crossing]
        return match

    def contract(self, structure: HGraph, match: np.ndarray):
        return contract_hyper(structure, match)

    # ------------------------------------------------------------------ #
    # multilevel hooks
    # ------------------------------------------------------------------ #
    def hierarchy(self, constraints, config: HyperConfig, seed):
        hier = build_hyper_hierarchy(
            self.structure,
            coarsen_to=max(config.coarsen_to, 2 * self.k),
            seed=seed,
        )
        return hier, [lvl.hgraph for lvl in hier.levels]

    def initial(self, coarsest: HGraph, constraints, config: HyperConfig,
                seed):
        # the graph machinery on the clique expansion (exact on 2-pin nets)
        return greedy_initial_partition(
            coarsest.clique_expansion(), self.k, constraints,
            restarts=config.restarts, seed=seed,
        )

    def level_fm(self, structure: HGraph, assign, constraints,
                 config: HyperConfig, seed, state, seed_nodes):
        return constrained_hyper_fm(
            structure, assign, self.k, constraints,
            max_passes=config.refine_passes, seed=seed, state=state,
        )

    def result(self, assign, metrics, constraints, runtime, info):
        return super().result(
            assign, metrics, constraints, runtime,
            {**info, "model": "hypergraph"},
        )


def hyper_partition(
    hg: HGraph,
    k: int,
    constraints: ConstraintSpec | None = None,
    config: HyperConfig | None = None,
    seed=None,
) -> PartitionResult:
    """Partition *hg* into *k* parts minimising (λ−1) connectivity under
    the paper's ``Bmax``/``Rmax`` constraints.

    Returns a :class:`~repro.partition.base.PartitionResult` whose
    ``metrics.cut`` is the connectivity objective (== edge cut when every
    net has 2 pins) and whose ``info`` carries ``cycles``, ``levels``,
    ``max_cycles`` and ``model="hypergraph"``.

    Raises
    ------
    InfeasibleError
        If no feasible partitioning is found within ``max_cycles`` and
        ``config.on_infeasible == "raise"`` (least-violating result in
        ``.best``).
    """
    config = config or HyperConfig()
    return multilevel_partition(
        HyperEngine(hg, k), k, constraints or ConstraintSpec(), config,
        seed=seed if seed is not None else config.seed,
    )
