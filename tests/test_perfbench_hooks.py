"""The traced benchmark's hooks still see the library's layers.

``perfbench/spans.py`` times coarsening, initial partitioning and
refinement by replacing module-level names (``repro.partition.gp.
build_hierarchy`` and friends, its ``SITES`` table) for the duration of a
traced run.  A refactor that moves or renames one of those call sites
would silently blind the traced benchmark; this guard loads the tracer
read-only, instruments the library with it and checks that one small
graph, hypergraph and vector partition each record all three layers.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.graph import multicast_network, random_process_network
from repro.hypergraph.partition import HyperConfig, hyper_partition
from repro.partition.gp import GPConfig, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.multires import VectorConstraints, mr_gp_partition

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", SPANS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _gp():
    g = random_process_network(60, 140, seed=1)
    cons = ConstraintSpec(rmax=1.3 * g.total_node_weight / 3)
    gp_partition(g, 3, cons, GPConfig(coarsen_to=20, max_cycles=2), seed=0)


def _hyper():
    hg = multicast_network(40, seed=2)
    hyper_partition(
        hg, 3, ConstraintSpec(), HyperConfig(coarsen_to=12, max_cycles=2),
        seed=0,
    )


def _vector():
    g = random_process_network(50, 110, seed=3)
    w = np.random.default_rng(3).integers(1, 9, size=(50, 2)).astype(float)
    cons = VectorConstraints(
        bmax=float("inf"), rmax=tuple(1.3 * w.sum(axis=0) / 3)
    )
    mr_gp_partition(
        g, w, 3, cons, coarsen_to=20, max_cycles=2, seed=0, cache=False
    )


def test_every_site_resolves_and_every_engine_is_seen(spans):
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        for _layer, module_name, attr, _tally in spans.SITES:
            hook = getattr(importlib.import_module(module_name), attr)
            assert hasattr(hook, "__wrapped__"), (module_name, attr)
        for run in (_gp, _hyper, _vector):
            first = len(tracer.spans)
            run()
            layers = {s[3] for s in tracer.spans[first:]}
            assert {"coarsen", "initial", "refine"} <= layers, (
                run.__name__, layers
            )
    # instrument() restores the library on exit
    for _layer, module_name, attr, _tally in spans.SITES:
        hook = getattr(importlib.import_module(module_name), attr)
        assert not hasattr(hook, "__wrapped__"), (module_name, attr)
