"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

The checker must trip on a corrupted assignment, a misreported cut and a
misreported feasibility verdict; the percentile helper must refuse a p90
with fewer than ten samples beyond it; layer self time must subtract
child spans and fold work nested in initial partitioning into that
layer; the load generator must never run more than ``nproc`` client
threads; the speed probe's slowdown must be its median sample over the
reference, and a phase must divide its timings by it; ``BENCHMARK.json`` must list exactly the metrics
``run.py`` prints.
"""

import json
import os
import threading
import time
import unittest

import numpy as np

import run  # puts the library on sys.path
import check
import serve_load
import spans
import speed
import workloads
from repro.core.api import partition_graph
from repro.graph.generators import multicast_network, random_process_network
from repro.hypergraph.partition import hyper_partition
from repro.partition.metrics import ConstraintSpec


class CheckerTrips(unittest.TestCase):
    def setUp(self):
        self.g = random_process_network(30, 66, seed=3)
        self.rmax = float(np.ceil(1.2 * self.g.total_node_weight / 3))
        self.res = partition_graph(self.g, 3, rmax=self.rmax, seed=0)

    def check(self, assign, cut, feasible):
        return check.check_graph(self.g, 3, float("inf"), self.rmax, assign,
                                 cut, feasible)

    def test_true_result_passes(self):
        cut, feasible = self.check(self.res.assign, self.res.cut,
                                   self.res.feasible)
        self.assertEqual(cut, self.res.cut)

    def test_corrupted_assignment(self):
        eu, ev, _ = self.g.edge_array
        a = np.array(self.res.assign)
        # move one endpoint of a cut edge into its neighbour's part, picking
        # one whose move changes the cut
        for i in np.nonzero(a[eu] != a[ev])[0]:
            b = a.copy()
            b[eu[i]] = a[ev[i]]
            if check.graph_metrics(*self.g.edge_array, self.g.node_weights,
                                   b, 3)[0] != self.res.cut:
                break
        with self.assertRaises(check.CheckError):
            self.check(b, self.res.cut, self.res.feasible)
        a[0] = 3  # out of range for k=3
        with self.assertRaises(check.CheckError):
            self.check(a, self.res.cut, self.res.feasible)
        with self.assertRaises(check.CheckError):
            self.check(self.res.assign[:-1], self.res.cut, self.res.feasible)

    def test_misreported_cut_and_feasibility(self):
        with self.assertRaises(check.CheckError):
            self.check(self.res.assign, self.res.cut + 1, self.res.feasible)
        with self.assertRaises(check.CheckError):
            self.check(self.res.assign, self.res.cut, not self.res.feasible)

    def test_hypergraph_connectivity(self):
        hg = multicast_network(24, seed=5)
        res = hyper_partition(hg, 3, ConstraintSpec(), seed=0)
        args = (hg, 3, float("inf"), float("inf"), res.assign)
        self.assertEqual(check.check_hyper(*args, res.cut, True)[0], res.cut)
        with self.assertRaises(check.CheckError):
            check.check_hyper(*args, res.cut + 1, True)


class PercentileRefusal(unittest.TestCase):
    def test_p90_needs_ten_beyond(self):
        with self.assertRaises(run.TooFewSamples):
            run.tail_percentile(list(range(90)))  # 9 samples lie beyond
        self.assertAlmostEqual(run.tail_percentile(list(range(100))), 89.1)
        with self.assertRaises(run.TooFewSamples):
            run.tail_percentile([5.0] * 200)  # nothing lies beyond

    def test_one_call_tail_is_labelled_max(self):
        value, basis = run.latency_tail([2.0])
        self.assertEqual((value, basis), (2000.0, "max of 1"))


class SelfTime(unittest.TestCase):
    def test_self_time_and_initial_nesting(self):
        # (id, parent, name, layer, start, end, thread)
        span_list = [
            (1, 0, "gp", "op", 0.0, 10.0, 1),
            (2, 1, "gp_partition", "gp", 1.0, 9.0, 1),
            (3, 2, "greedy_initial_partition", "initial", 2.0, 5.0, 1),
            (4, 3, "constrained_kway_fm", "refine", 3.0, 4.0, 1),
            (5, 2, "constrained_kway_fm", "refine", 6.0, 8.0, 1),
        ]
        self.assertEqual(
            spans.layer_self_times(span_list),
            {"op": 2.0, "gp": 3.0, "initial": 3.0, "refine": 2.0},
        )
        self.assertEqual(spans.fm_seconds(span_list), 3.0)
        doc = spans.chrome_trace_doc(span_list, pid=1)
        self.assertEqual(len(doc["traceEvents"]), 5)


class LoadGeneratorBound(unittest.TestCase):
    def test_never_exceeds_nproc_threads(self):
        nproc = os.cpu_count()
        lock = threading.Lock()
        state = {"now": 0, "peak": 0}
        base_threads = threading.active_count()

        def send(i):
            with lock:
                state["now"] += 1
                state["peak"] = max(state["peak"], state["now"])
                threads = threading.active_count() - base_threads
            time.sleep(0.002)
            with lock:
                state["now"] -= 1
            if i == 7:
                raise RuntimeError("boom")
            return i, threads

        outcomes = serve_load.closed_loop(list(range(40)), send,
                                          threads=nproc + 6)
        self.assertLessEqual(state["peak"], nproc)
        self.assertTrue(all(o.response is None or o.response[1] <= nproc
                            for o in outcomes))
        self.assertEqual([o.response[0] for o in outcomes if o.error is None],
                         [i for i in range(40) if i != 7])
        self.assertIn("boom", outcomes[7].error)


class SpeedProbeScale(unittest.TestCase):
    def test_slowdown_is_median_over_reference(self):
        probe = speed.SpeedProbe()
        ref = speed.REFERENCE_S
        # a burst in one sample; the median drops it
        probe.samples = [2 * ref, 2 * ref, 50 * ref]
        self.assertAlmostEqual(probe.slowdown(), 2.0)
        self.assertGreater(probe.sample(), 0.0)
        self.assertEqual(len(probe.samples), 4)

    def test_phase_reports_reference_seconds(self):
        phase = run.Phase(raw_wall_s=6.0, slowdown=2.0, probes=1)
        phase.record(6.0, cut=1.0, feasible=True)
        metrics = phase.end_to_end(setup_s=1.0, rss_mb=1.0)
        self.assertEqual((metrics["wall_s"], metrics["setup_s"]), (3.0, 0.5))
        self.assertEqual(metrics["latency_ms_p50"], 3000.0)


class ContractFile(unittest.TestCase):
    def test_benchmark_json_matches_printed_metrics(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END,
        )
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {name: unit for name, (unit, _) in run.PER_LAYER.items()},
        )
        self.assertEqual(
            sorted(w["name"] for w in spec["workloads"]),
            sorted([*workloads.LIBRARY_WORKLOADS, "serve_mix"]),
        )


if __name__ == "__main__":
    unittest.main()
