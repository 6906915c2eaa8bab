"""Pinned driver-level corpus for the multilevel driver.

Every case runs a whole multilevel partition — coarsening, greedy initial
partitioning, the per-level project/refine candidate race and the
first-feasible cycle race — through the public entry points
(:func:`~repro.partition.gp.gp_partition`,
:func:`~repro.hypergraph.partition.hyper_partition`,
:func:`~repro.partition.multires.mr_gp_partition`) and compares a sha256
digest of the returned assignment (plus the cycles consumed) with the
value recorded when the graph, hypergraph and vector engines still had a
driver each.  Graph and hypergraph results are bit-identical to those
drivers.  On the vector engine only ``refine="flow"`` is pinned: its
per-level FM now draws its seed from the shared per-level stream, so the
FM results moved once, and serial == parallel is checked instead.

The last section checks the contract :func:`~repro.partition.multilevel.
multilevel_partition` keeps for every engine: the shared cycle-knob and
``k`` validation, the one infeasible report (``on_infeasible="raise"``
carries exactly the result ``"return"`` hands back), and which engine
turns on which hook.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import multicast_network, random_process_network
from repro.hypergraph.partition import (
    HyperConfig,
    HyperEngine,
    hyper_partition,
)
from repro.partition.gp import GPConfig, GraphEngine, gp_partition
from repro.partition.metrics import ConstraintSpec
from repro.partition.multilevel import Engine, multilevel_partition
from repro.partition.multires import (
    VectorConstraints,
    VectorGraphEngine,
    mr_gp_partition,
)
from repro.util.errors import InfeasibleError, PartitionError


def digest(assign) -> str:
    a = np.ascontiguousarray(np.asarray(assign, dtype=np.int64))
    return hashlib.sha256(a.tobytes()).hexdigest()


# --------------------------------------------------------------------- #
# instances
# --------------------------------------------------------------------- #
GP_K = 4


def gp_instance(graph_seed, bmax):
    g = random_process_network(
        120, 300, seed=graph_seed, node_weight_range=(1, 6)
    )
    cons = ConstraintSpec(bmax=bmax, rmax=1.1 * g.total_node_weight / GP_K)
    return g, cons


def gp_config(**over) -> GPConfig:
    base = dict(coarsen_to=20, restarts=4, max_cycles=3)
    base.update(over)
    return GPConfig(**base)


HYPER_K = 3


def hyper_instance(bmax=float("inf")):
    hg = multicast_network(60, seed=3)
    cons = ConstraintSpec(
        bmax=bmax, rmax=1.2 * float(hg.node_weights.sum()) / HYPER_K
    )
    return hg, cons


VEC_K = 3


def vector_instance():
    n = 70
    g = random_process_network(n, 160, seed=8)
    rng = np.random.default_rng(8)
    w = rng.integers(1, 30, size=(n, 3)).astype(float)
    rmax = tuple(1.25 * w[:, r].sum() / VEC_K for r in range(3))
    return g, w, VectorConstraints(bmax=60.0, rmax=rmax)


# --------------------------------------------------------------------- #
# cases: name -> zero-argument run returning a result with .assign/.info
# --------------------------------------------------------------------- #
def _gp(graph_seed=0, bmax=40.0, n_jobs=1, **over):
    def run():
        g, cons = gp_instance(graph_seed, bmax)
        return gp_partition(
            g, GP_K, cons, gp_config(**over), seed=11, n_jobs=n_jobs
        )
    return run


def _hyper(bmax=float("inf"), **over):
    def run():
        hg, cons = hyper_instance(bmax)
        cfg = HyperConfig(restarts=4, max_cycles=3, **over)
        return hyper_partition(hg, HYPER_K, cons, cfg, seed=5)
    return run


def _vector(**over):
    def run():
        g, w, cons = vector_instance()
        return mr_gp_partition(
            g, w, VEC_K, cons, restarts=4, max_cycles=3, seed=2,
            cache=False, **over,
        )
    return run


CASES = {
    # feasible in the second cycle: the race stops early
    "gp/fm/dense": _gp(graph_seed=2, conn_format="dense"),
    "gp/fm/sparse": _gp(graph_seed=2, conn_format="sparse"),
    # infeasible under bmax=40: every cycle runs, goodness picks the winner
    "gp/fm/tight": _gp(),
    "gp/flow": _gp(refine="flow"),
    "gp/fm+flow": _gp(graph_seed=4, refine="fm+flow"),
    "gp/local/tight": _gp(local_refine_from=30),
    # unconstrained bandwidth: the V-cycle and the locality seeds move the cut
    "gp/fm/loose": _gp(bmax=float("inf")),
    "gp/vcycles1": _gp(bmax=float("inf"), vcycles=1),
    "gp/local/loose": _gp(bmax=float("inf"), local_refine_from=30),
    "gp/infeasible": _gp(bmax=0.0),
    "hyper/depth1": _hyper(coarsen_to=100),
    "hyper/deep": _hyper(coarsen_to=12),
    "hyper/infeasible": _hyper(bmax=0.0, coarsen_to=12),
    "vector/flow/deep": _vector(refine="flow", coarsen_to=20),
    "vector/flow/depth1": _vector(refine="flow", coarsen_to=100),
}

#: name -> (assignment digest, cycles consumed), recorded on the per-engine
#: drivers the multilevel driver replaced.
PINNED = {
    "gp/flow": ("3ca91e512af60fa027f931a9c23659837b25d38c992ce8b20a8adca1586f4162", 3),
    "gp/fm+flow": ("0a9eae53af69b812026db89fc2f8315bd87c4a91edec28794d7012ad9b9474c4", 3),
    "gp/fm/dense": ("5a17d5538e120250284ff0fba24f1e9fa70202d7e9b08f1bf67565f904aee5a9", 2),
    "gp/fm/loose": ("5680d9589ee520604a451eb43188d21d516bb4211dd2a76fb491c3ca8b09ee86", 1),
    "gp/fm/sparse": ("5a17d5538e120250284ff0fba24f1e9fa70202d7e9b08f1bf67565f904aee5a9", 2),
    "gp/fm/tight": ("aae07d0350073e422069720917f4b7f8bb8425947a1fce68dbd9c8d584408ee4", 3),
    "gp/infeasible": ("3d00b0243a8c16822542757975960d2f1faef38fae7ee6154a5cb1969865b87c", 3),
    "gp/local/loose": ("52bde1d137580113146adb3fcd2914d7497cd7954a847d2a2a397fae14c0724e", 1),
    "gp/local/tight": ("3eae82ed17487d972294dde2e2e6ac7d7e42abb79c665fce2225fc3845e0991d", 3),
    "gp/vcycles1": ("16866e3e909f4b1444d61c3fb2407a4d049e0b1185b5aa0eb398f9b7e45ca003", 1),
    "hyper/deep": ("1888b5463157ca83b424508fec787da2be4b77e651d5b45847ab140796517dba", 1),
    "hyper/depth1": ("11406de32429e0609e6ed700fa49aee4bd81f32a02698974254ec87f742434be", 1),
    "hyper/infeasible": ("c14afed5f4c7650edc2244b1213d4de795252b9a9b77c6bd57b5976cc392debd", 3),
    "vector/flow/deep": ("d1531ff95ddf791687f25913b505c1f931fa6247456d2c42a56ce5b39bf7f0cb", 1),
    "vector/flow/depth1": ("cbc50ae7efc8afd9652b5527a8ca67fa89655f27d724e5fb44d051c605deec4d", 1),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest(name):
    res = CASES[name]()
    assert (digest(res.assign), res.info["cycles"]) == PINNED[name]


def test_gp_parallel_matches_pinned_serial():
    for name, run in (
        ("gp/fm/dense", _gp(graph_seed=2, conn_format="dense", n_jobs=2)),
        ("gp/fm/tight", _gp(n_jobs=2)),
    ):
        res = run()
        assert (digest(res.assign), res.info["cycles"]) == PINNED[name]


def test_infeasible_cases_use_every_cycle():
    for name in ("gp/infeasible", "hyper/infeasible"):
        res = CASES[name]()
        assert not res.metrics.feasible
        assert res.info["cycles"] == res.info["max_cycles"] == 3


def test_vector_serial_equals_parallel():
    serial = _vector(refine="fm", coarsen_to=20, n_jobs=1)()
    parallel = _vector(refine="fm", coarsen_to=20, n_jobs=2)()
    np.testing.assert_array_equal(serial.assign, parallel.assign)
    assert serial.info == parallel.info


def test_hierarchy_depths_cover_both_branches():
    # the depth-1 case refines only the coarsest (= input) level; the deep
    # cases project through several levels
    assert CASES["hyper/depth1"]().info["levels"] == 1
    assert CASES["hyper/deep"]().info["levels"] > 1
    assert CASES["vector/flow/depth1"]().info["levels"] == 1
    assert CASES["vector/flow/deep"]().info["levels"] > 1
    assert CASES["gp/fm/dense"]().info["levels"] > 1


# --------------------------------------------------------------------- #
# the driver's contract, shared by every engine
# --------------------------------------------------------------------- #
def _gp_run(k=GP_K, bmax=40.0, on_infeasible="return"):
    g, cons = gp_instance(0, bmax)
    cfg = gp_config(on_infeasible=on_infeasible)
    return gp_partition(g, k, cons, cfg, seed=11)


def _hyper_run(k=HYPER_K, bmax=float("inf"), on_infeasible="return"):
    hg, cons = hyper_instance(bmax)
    cfg = HyperConfig(
        restarts=4, max_cycles=3, coarsen_to=12, on_infeasible=on_infeasible
    )
    return hyper_partition(hg, k, cons, cfg, seed=5)


def _vector_run(k=VEC_K, bmax=60.0, on_infeasible="return"):
    g, w, cons = vector_instance()
    cons = VectorConstraints(bmax=bmax, rmax=cons.rmax)
    return mr_gp_partition(
        g, w, k, cons, restarts=4, max_cycles=3, coarsen_to=20, seed=2,
        cache=False, on_infeasible=on_infeasible,
    )


RUNS = {"gp": (_gp_run, 120), "hyper": (_hyper_run, 60),
        "vector": (_vector_run, 70)}
ENGINES = {"gp": GraphEngine, "hyper": HyperEngine,
           "vector": VectorGraphEngine}
CYCLE_KNOBS = ("coarsen_to", "restarts", "max_cycles", "level_candidates",
               "refine_passes")


@pytest.mark.parametrize("knob", CYCLE_KNOBS)
@pytest.mark.parametrize("config_cls", [GPConfig, HyperConfig],
                         ids=["gp", "hyper"])
def test_cycle_knob_below_one_rejected(config_cls, knob):
    with pytest.raises(PartitionError, match=f"{knob} must be >= 1"):
        config_cls(**{knob: 0})


@pytest.mark.parametrize("config_cls", [GPConfig, HyperConfig],
                         ids=["gp", "hyper"])
def test_bad_on_infeasible_rejected(config_cls):
    with pytest.raises(PartitionError, match="on_infeasible"):
        config_cls(on_infeasible="warn")


@pytest.mark.parametrize("bad", ["zero", "above_n"])
@pytest.mark.parametrize("engine", sorted(RUNS))
def test_k_outside_node_count_rejected(engine, bad):
    run, n = RUNS[engine]
    k = 0 if bad == "zero" else n + 1
    with pytest.raises(PartitionError, match=r"k must be in \[1, "):
        run(k=k)


@pytest.mark.parametrize("engine", sorted(RUNS))
def test_infeasible_raise_carries_the_returned_result(engine):
    run, _ = RUNS[engine]
    returned = run(bmax=0.0)
    assert not returned.metrics.feasible
    with pytest.raises(InfeasibleError, match="within 3 cycles") as exc:
        run(bmax=0.0, on_infeasible="raise")
    best = exc.value.best
    np.testing.assert_array_equal(best.assign, returned.assign)
    assert best.info["cycles"] == returned.info["cycles"] == 3


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_hooks(engine):
    cls = ENGINES[engine]
    # graph draws a fourth seed per cycle for its V-cycle stage
    assert cls.cycle_phases == (4 if engine == "gp" else 3)
    assert hasattr(cls, "vcycle") == (engine == "gp")
    # hyper's initial partition comes from the clique-expansion proxy
    assert cls.polish_coarsest == (engine == "hyper")
    # only graph overrides the no-locality default
    assert (cls.locality_seeds is Engine.locality_seeds) == (engine != "gp")


def test_engine_built_for_another_k_rejected():
    g, cons = gp_instance(0, 40.0)
    with pytest.raises(PartitionError, match="engine built for k=3"):
        multilevel_partition(GraphEngine(g, 3), GP_K, cons, gp_config())
