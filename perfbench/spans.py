"""Span tracer that times the library's layers from outside the library.

The traced run replaces each layer's public entry function *in the module
that calls it* (``repro.partition.gp.build_hierarchy``, not
``repro.partition.coarsen.build_hierarchy``: a ``from ... import`` binds
the name in the caller, so that is where a call can be intercepted).
Each intercepted call becomes one span ``(id, parent, name, layer, start,
end, thread)`` kept in memory; :func:`layer_self_times` and
:func:`chrome_trace_doc` turn the list into per-layer self time and a
Chrome trace once the run is over.

A layer's self time is the time spent inside its spans minus the time
covered by their child spans, so the layers' self times add up to the
traced wall time less what no layer claims (the benchmark's own loop and
the public API's argument checks, recorded under the ``op`` root span).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import chrome_trace, validate_chrome_trace

#: The pseudo-layer of the benchmark's own root span around each operation.
OP_LAYER = "op"


def _add_levels(tallies: dict, hier) -> None:
    tallies["coarsen.levels"] += hier.depth


def _add_cycles(tallies: dict, result) -> None:
    tallies["gp.cycles"] += result.info["cycles"]


#: ``(layer, calling module, attribute, tally)`` for every intercepted
#: call site.  The state constructors count as refinement
#: (``refine_state`` / ``conn_store``): building the connectivity store is
#: the first step of every refinement call.
SITES = (
    ("coarsen", "repro.partition.gp", "build_hierarchy", _add_levels),
    ("coarsen", "repro.partition.mlkp", "build_hierarchy", _add_levels),
    ("coarsen", "repro.partition.multires", "build_hierarchy", _add_levels),
    ("coarsen", "repro.hypergraph.partition", "build_hyper_hierarchy",
     _add_levels),
    ("initial", "repro.partition.gp", "greedy_initial_partition", None),
    ("initial", "repro.hypergraph.partition", "greedy_initial_partition",
     None),
    ("initial", "repro.partition.multires", "mr_greedy_initial", None),
    ("initial", "repro.partition.mlkp", "recursive_bisection", None),
    ("refine", "repro.partition.gp", "constrained_kway_fm", None),
    ("refine", "repro.partition.gp", "RefinementState", None),
    ("refine", "repro.partition.initial", "constrained_kway_fm", None),
    ("refine", "repro.partition.initial", "RefinementState", None),
    ("refine", "repro.partition.multires", "mr_constrained_fm", None),
    ("refine", "repro.partition.multires", "VectorRefinementState", None),
    ("refine", "repro.hypergraph.partition", "constrained_hyper_fm", None),
    ("refine", "repro.hypergraph.partition", "HyperRefinementState", None),
    ("refine", "repro.partition.mlkp", "RefinementState", None),
    ("refine", "repro.partition.mlkp", "greedy_kway_refine", None),
    ("refine", "repro.partition.mlkp", "rebalance_pass", None),
    ("refine", "repro.partition.mlkp", "fm_refine_bisection", None),
    ("flow", "repro.partition.gp", "run_flow_refine", None),
    ("flow", "repro.partition.mlkp", "run_flow_refine", None),
    ("flow", "repro.partition.multires", "run_flow_refine", None),
    ("gp", "repro.core.api", "gp_partition", _add_cycles),
    ("multires", "repro.core.api", "mr_gp_partition", None),
    ("hyper", "repro.core.api", "hyper_partition", None),
    # the benchmark calls hyper_partition on an HGraph through its module
    ("hyper", "repro.hypergraph.partition", "hyper_partition", None),
    ("ppn", "repro.core.api", "derive_ppn", None),
    ("ppn", "repro.core.api", "ppn_to_mapped_graph", None),
    ("evaluate", "repro.partition.gp", "evaluate_partition", None),
    ("evaluate", "repro.partition.mlkp", "evaluate_partition", None),
    ("evaluate", "repro.partition.multires", "evaluate_multires", None),
    ("evaluate", "repro.hypergraph.partition", "evaluate_hyper_partition",
     None),
)

#: Span names of the FM drivers (each runs ``run_constrained_fm``, which
#: counts ``fm.moves_tried``), whatever layer called them.
FM_SPANS = frozenset(
    {"constrained_kway_fm", "mr_constrained_fm", "constrained_hyper_fm"}
)

#: Layers in report order.
LAYERS = tuple(dict.fromkeys(site[0] for site in SITES))


class Tracer:
    """In-memory span recorder; one per traced run (or traced daemon)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.tallies: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (sid, parent, name, layer, t0, t1, threading.get_ident())
                )

    def wrap(self, fn, layer: str, tally):
        name = getattr(fn, "__name__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                out = fn(*args, **kwargs)
            if tally is not None:
                with self._lock:
                    tally(self.tallies, out)
            return out

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Install *tracer*'s wrappers on every site in :data:`SITES`; restore
    the original functions on exit."""
    saved = []
    try:
        for layer, module_name, attr, tally in SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, layer, tally))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_self_times(spans) -> dict[str, float]:
    """Per-layer self time: each span's duration minus its children's.

    Layers follow the paper's phases, so everything called from inside
    initial partitioning -- the constrained FM pass that finishes each
    greedy partition (Section IV.B) and its state -- counts as initial
    partitioning, not refinement.
    """
    child_time: dict[int, float] = defaultdict(float)
    parent_of, layer_of = {}, {}
    for sid, parent, _name, layer, t0, t1, _tid in spans:
        child_time[parent] += t1 - t0
        parent_of[sid], layer_of[sid] = parent, layer

    def in_initial(sid) -> bool:
        while sid:
            if layer_of[sid] == "initial":
                return True
            sid = parent_of[sid]
        return False

    out: dict[str, float] = defaultdict(float)
    for sid, _parent, _name, layer, t0, t1, _tid in spans:
        out["initial" if in_initial(sid) else layer] += (
            (t1 - t0) - child_time[sid]
        )
    return dict(out)


def fm_seconds(spans) -> float:
    """Time inside the FM drivers (they never nest in one another)."""
    return sum(t1 - t0 for _sid, _parent, name, _layer, t0, t1, _tid in spans
               if name in FM_SPANS)


def chrome_trace_doc(spans, pid: int) -> dict:
    """Span list → Chrome trace document via the library's exporter,
    checked by its schema gate."""
    nodes = {
        sid: {
            "name": name,
            "attrs": {"layer": layer},
            "t0": t0,
            "elapsed": t1 - t0,
            "tid": tid,
            "pid": pid,
            "events": [],
            "children": [],
        }
        for sid, _parent, name, layer, t0, t1, tid in spans
    }
    roots = []
    for sid, parent, *_ in sorted(spans, key=lambda s: s[4]):
        (nodes[parent]["children"] if parent else roots).append(nodes[sid])
    doc = chrome_trace(roots)
    validate_chrome_trace(doc)
    return doc
