"""The multilevel driver shared by the graph, hypergraph and vector engines.

The paper's Section IV is one algorithm, whatever the structure: coarsen
(IV.A) to ``coarsen_to`` nodes, partition the coarsest level greedily
(IV.B), then project level by level, racing ``level_candidates``
refinement runs per level that the goodness function compares a
posteriori (IV.C); "if we do not meet constraints, we go back to the
coarsening phase and then partitioning phase (randomly), cyclically", up
to ``max_cycles`` times.  :func:`multilevel_partition` runs that loop for
every engine; what differs lives on the engine adapters (:class:`Engine`
subclasses next to each entry point: ``GraphEngine`` in
:mod:`repro.partition.gp`, ``HyperEngine`` in
:mod:`repro.hypergraph.partition`, ``VectorGraphEngine`` in
:mod:`repro.partition.multires`), whose hooks call coarsening, initial
partitioning, the refinement states, FM, flow and evaluation through
their own module's names — so a tracer that patches those names sees
every call.  The same adapters serve :mod:`repro.evolve`.
"""

from __future__ import annotations

import numpy as np

import repro.obs as _obs
from repro.partition.base import PartitionResult
from repro.partition.flow_refine import check_refine_mode, run_flow_refine
from repro.partition.goodness import goodness_key
from repro.partition.kway_refine import run_constrained_fm
from repro.util.errors import InfeasibleError, PartitionError
from repro.util.parallel import parallel_map
from repro.util.rng import as_rng, spawn_seeds

__all__ = [
    "Engine",
    "check_cycle_knobs",
    "check_feasible",
    "multilevel_partition",
]


class Engine:
    """The surface every engine adapter shares.

    An adapter wraps one structure and ``k``; every method takes the
    (possibly coarsened) structure it operates on, so one adapter serves a
    whole hierarchy.  Subclasses provide ``make_state``, ``neighbors``,
    ``evaluate``, ``restricted_matching``, ``contract`` (the evolutionary
    surface) and ``hierarchy``, ``initial``, ``level_fm`` (the multilevel
    hooks); the defaults below cover the rest.
    """

    #: span prefix and outer span name of :func:`multilevel_partition`
    name = "engine"
    #: ``PartitionResult.algorithm`` of a multilevel run
    algorithm = "GP"
    #: seeds drawn per cycle: hierarchy, initial partition, un-coarsening
    #: (a fourth, where an engine draws one, feeds its ``vcycle`` hook)
    cycle_phases = 3
    #: refine the coarsest level before the first projection
    polish_coarsest = False

    def __init__(self, structure, k: int, refine: str = "fm") -> None:
        self.structure = structure
        self.k = int(k)
        self.refine = check_refine_mode(refine)

    def digest(self) -> str:
        return self.structure.content_digest()

    def fm(self, structure, assign: np.ndarray, constraints, max_passes: int,
           seed):
        """One refinement call; returns ``(assign, tracked metrics)``.

        Never returns an assignment worse than its input under the FM key
        (best-prefix rollback) — the property the recombination invariant
        leans on.
        """
        return self.fm_state(
            structure, self.make_state(structure, assign), constraints,
            max_passes, seed,
        )

    def fm_state(self, structure, st, constraints, max_passes: int, seed):
        """:meth:`fm` on an already-built (possibly moved-on) engine state.

        FM unless the engine was built with ``refine="flow"``; corridor
        flow passes at every level for ``"flow"``, and at the finest level
        only for ``"fm+flow"`` (coarse levels keep plain FM — the flow
        polish is a finest-level cut instrument, and its guard makes it
        free to skip).
        """
        if self.refine != "flow":
            out = run_constrained_fm(
                st, structure.n, lambda u: self.neighbors(structure, u),
                constraints, max_passes=max_passes, seed=seed,
            )
        if self.refine == "flow" or (
            self.refine == "fm+flow" and structure.n == self.structure.n
        ):
            out = self.flow(st, constraints)
        return out, st.metrics(constraints)

    # ------------------------------------------------------------------ #
    # multilevel hooks with a shared default
    # ------------------------------------------------------------------ #
    def level_state(self, structure, assign: np.ndarray, config):
        """The refinement state one un-coarsening level races copies of."""
        return self.make_state(structure, assign)

    def flow(self, st, constraints) -> np.ndarray:
        return run_flow_refine(st, constraints)

    def locality_seeds(self, hier, level: int, config):
        """FM frontier for the level below *level*; ``None`` = whole boundary."""
        return None

    def result(self, assign, metrics, constraints, runtime: float,
               info: dict):
        return PartitionResult(
            assign=assign,
            k=self.k,
            metrics=metrics,
            algorithm=self.algorithm,
            runtime=runtime,
            constraints=constraints,
            info=info,
        )


def check_cycle_knobs(config) -> None:
    """Validate the config fields every engine's cycles read (the
    ``__post_init__`` of :class:`~repro.partition.gp.GPConfig` and
    :class:`~repro.hypergraph.partition.HyperConfig`)."""
    for knob in ("coarsen_to", "restarts", "max_cycles", "level_candidates",
                 "refine_passes"):
        if getattr(config, knob) < 1:
            raise PartitionError(f"{knob} must be >= 1")
    if config.on_infeasible not in ("return", "raise"):
        raise PartitionError(
            f"on_infeasible must be 'return' or 'raise', "
            f"got {config.on_infeasible!r}"
        )


def check_feasible(result, max_cycles: int, on_infeasible: str):
    """Return *result*, or raise :class:`InfeasibleError` carrying it when
    it is infeasible and *on_infeasible* is ``"raise"``."""
    m = result.metrics
    if not m.feasible and on_infeasible == "raise":
        cons = result.constraints
        raise InfeasibleError(
            f"no partitioning met Bmax={cons.bmax}, Rmax={cons.rmax} "
            f"within {max_cycles} cycles (best violation: bandwidth "
            f"{m.bandwidth_violation:g}, resource {m.resource_violation:g}); "
            f"the instance is either impossible or needs more iterations",
            best=result,
        )
    return result


def _refine_level(engine, structure, assign, constraints, config, rng,
                  level: int, seed_nodes=None) -> np.ndarray:
    """Race ``config.level_candidates`` refinement runs on one level; the
    goodness function picks the one nearest to meeting the constraints.

    One state build per level; each candidate works on a copy and is
    judged by the incrementally tracked metrics.
    """
    cand_seeds = spawn_seeds(rng, config.level_candidates)
    with _obs.trace_span(
        f"{engine.name}.refine_level", level=level, nodes=structure.n,
        local=seed_nodes is not None,
    ) as sp:
        base = engine.level_state(structure, assign, config)
        if _obs.tracing_on():
            sp.set(cut_before=base.metrics(constraints).cut)
        if engine.refine == "flow":
            # flow passes are deterministic — one candidate tells all (the
            # candidate seeds above are still drawn, keeping the rng stream
            # aligned with the FM modes)
            best = engine.flow(base, constraints)
            best_cut = base.metrics(constraints).cut
        else:
            best, best_key, best_cut = None, None, None
            for s in cand_seeds:
                st = base.copy()
                cand = engine.level_fm(
                    structure, assign, constraints, config, s, st, seed_nodes
                )
                m = st.metrics(constraints)
                key = goodness_key(m, constraints)
                if best_key is None or key < best_key:
                    best, best_key, best_cut = cand, key, m.cut
        sp.set(cut_after=best_cut)
    return best


def _run_cycle(context, seeds):
    """One coarsen/partition/un-coarsen cycle (a parallel_map worker).

    Independent of every other cycle given its pre-spawned seeds, so
    cycles race across processes without changing any result.  Returns
    ``(assign, metrics, hierarchy_depth)``.
    """
    engine, constraints, config = context
    s_hier, s_init, s_unc, *s_vcycle = seeds
    with _obs.trace_span(
        f"{engine.name}.cycle", nodes=engine.structure.n, k=engine.k
    ) as sp:
        # re-coarsening each cycle realises the paper's "go back to
        # coarsening phase ... (randomly), cyclically"
        hier, levels = engine.hierarchy(constraints, config, s_hier)
        with _obs.trace_span(f"{engine.name}.initial", nodes=levels[-1].n):
            assign = engine.initial(levels[-1], constraints, config, s_init)
        rng = as_rng(s_unc)
        top = hier.depth - 1
        with _obs.trace_span("uncoarsen", levels=hier.depth):
            if engine.polish_coarsest or top == 0:
                assign = _refine_level(
                    engine, levels[top], assign, constraints, config, rng, top
                )
            for level in range(top, 0, -1):
                assign = hier.project(assign, level)
                assign = _refine_level(
                    engine, levels[level - 1], assign, constraints, config,
                    rng, level - 1,
                    engine.locality_seeds(hier, level, config),
                )
        if s_vcycle:
            assign = engine.vcycle(assign, constraints, config, s_vcycle[0])
        metrics = engine.evaluate(assign, constraints)
        sp.set(levels=hier.depth, cut=metrics.cut, feasible=metrics.feasible)
    return assign, metrics, hier.depth


def multilevel_partition(engine: Engine, k: int, constraints, config,
                         seed=None, n_jobs: int | None = 1):
    """Run the cyclic multilevel partitioner on *engine*'s structure.

    *config* supplies ``max_cycles``, ``level_candidates``,
    ``refine_passes``, ``restarts``, ``coarsen_to`` and ``on_infeasible``
    (plus whatever the engine's hooks read); the refinement mode is the
    engine's ``refine``.  *n_jobs* worker processes race the cycles
    (``1`` = in-process serial, ``-1`` = all CPUs); the first feasible
    cycle in cycle order stops the race and the goodness function picks
    the winner among the cycles run.  With ``refine="fm+flow"`` one
    guarded flow stage then polishes the winner — after the race on
    purpose, so the early stop never sees flow-modified cycles and
    ``"fm+flow"`` stays never worse than ``"fm"`` under the same seeds.

    Returns the engine's result type with ``info`` holding ``cycles``
    (cycles consumed), ``levels`` (hierarchy depth of the last cycle) and
    ``max_cycles``.
    """
    if not 1 <= k <= engine.structure.n:
        raise PartitionError(
            f"k must be in [1, {engine.structure.n}] (the node count), got {k}"
        )
    if k != engine.k:
        raise PartitionError(f"engine built for k={engine.k}, got k={k}")
    rng = as_rng(seed)
    with _obs.timed_span(engine.name, nodes=engine.structure.n, k=k) as sw:
        cycle_seeds = [
            spawn_seeds(rng, engine.cycle_phases)
            for _ in range(config.max_cycles)
        ]
        results = parallel_map(
            _run_cycle,
            cycle_seeds,
            n_jobs=n_jobs,
            stop=lambda r: r[1].feasible,
            context=(engine, constraints, config),
        )
        # min keeps the earliest cycle among equally good ones
        best_assign = min(
            results, key=lambda r: goodness_key(r[1], constraints)
        )[0]
        if engine.refine == "fm+flow":
            st = engine.level_state(engine.structure, best_assign, config)
            best_assign = engine.flow(st, constraints)

    result = engine.result(
        best_assign,
        engine.evaluate(best_assign, constraints),
        constraints,
        sw.elapsed,
        {
            "cycles": len(results),
            "levels": results[-1][2],
            "max_cycles": config.max_cycles,
        },
    )
    return check_feasible(result, config.max_cycles, config.on_infeasible)
