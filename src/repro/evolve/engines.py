"""Engine adapters: one facade over the graph, hypergraph and vector
substrates.

The evolutionary loop (:mod:`repro.evolve.ea`) and its operators
(:mod:`repro.evolve.operators`) are written once against the adapter
surface of :class:`~repro.partition.multilevel.Engine`;
:func:`make_engine` picks the adapter for a structure.  The adapters live
next to the multilevel entry points that drive them too:
:class:`~repro.partition.gp.GraphEngine` (edge cut on a ``WGraph``),
:class:`~repro.hypergraph.partition.HyperEngine` ((λ−1) connectivity on
an ``HGraph``) and :class:`~repro.partition.multires.VectorGraphEngine`
(edge cut under componentwise budgets on a ``VectorGraph``, whose digest
covers the resource matrix).  All three refine through the
engine-agnostic :func:`~repro.partition.kway_refine.run_constrained_fm`
seam, so the EA inherits the exact move ordering, tie-breaking and
best-prefix discipline of the GP refinement on each substrate.
"""

from __future__ import annotations

from repro.graph.wgraph import WGraph
from repro.hypergraph.hgraph import HGraph
from repro.hypergraph.partition import HyperEngine
from repro.partition.gp import GraphEngine
from repro.partition.multires import VectorGraphEngine
from repro.partition.vector_state import VectorGraph
from repro.util.errors import PartitionError

__all__ = [
    "GraphEngine",
    "HyperEngine",
    "VectorGraphEngine",
    "make_engine",
]


def make_engine(structure, k: int, refine: str = "fm"):
    """Adapter for *structure*: :class:`WGraph` → :class:`GraphEngine`,
    :class:`HGraph` → :class:`HyperEngine`, :class:`VectorGraph` →
    :class:`VectorGraphEngine`.  *refine* is threaded to the adapter
    (see :mod:`repro.partition.flow_refine`)."""
    if isinstance(structure, WGraph):
        return GraphEngine(structure, k, refine=refine)
    if isinstance(structure, HGraph):
        return HyperEngine(structure, k, refine=refine)
    if isinstance(structure, VectorGraph):
        return VectorGraphEngine(structure, k, refine=refine)
    raise PartitionError(
        f"evolve needs a WGraph, HGraph or VectorGraph, "
        f"got {type(structure).__name__}"
    )
