"""Repository benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics (:data:`END_TO_END`).  ``--trace 1`` runs it untraced, then again
with every layer's entry functions wrapped by :mod:`spans`, and reports
the per-layer metrics (:data:`PER_LAYER`).  Every result is checked by
:mod:`check`; a result that fails its check, or a call that raises,
counts in ``failed``.  ``--seconds`` sizes each workload's fixed,
seeded operation sequence (see ``workloads.NOMINAL_OP_S``).

Every timing reported (``setup_s``, ``wall_s``, the latencies and
``ops_per_s``) is in reference-host seconds: clock seconds
divided by the slowdown that :mod:`speed` measured on this host during
the run.  The report on stderr gives the clock seconds and the slowdown
beside them.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable report with the host's environment goes
to stderr, and a copy of everything (plus the Chrome trace of a traced
run) to ``.perfbench-out/`` at the repository root.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402  (the library under test is on the path now)
import repro.obs as obs  # noqa: E402

import check  # noqa: E402
import serve_load  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
#: Seconds of library calls per speed-probe sample.
PROBE_EVERY_S = 1.0
#: Speed-probe samples before and after serve_mix's request phase.
SERVE_PROBES = 40
#: One closed-loop client.  With two, a cache hit that arrived while a
#: cold compute held the daemon's GIL waited out a switch interval, and
#: the p50 flipped between the two modes from run to run.
SERVE_THREADS = 1

#: End-to-end metrics (untraced run): name → unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "cut_total": "weight",
    "feasible_share": "ratio",
    "rss_peak_mb": "MB",
}

_COARSEN = "wall_s, rss_peak_mb on large_k64 (barely paper_mix)"
_INITIAL = "latency_ms_p50, wall_s on paper_mix"
_REFINE = "wall_s on large_k64; latency_ms_p90 on paper_mix"
_ENGINES = "latency_ms_p50 on paper_mix"
_SERVE = "latency_ms_p90, ops_per_s on serve_mix"
_CACHE = "latency_ms_p50 on serve_mix"

#: Per-layer metrics (traced run): name → (unit, what it should move).
#: A layer a workload does not exercise reads 0.
PER_LAYER = {
    "coarsen.busy_s": ("s", _COARSEN),
    "coarsen.share": ("ratio", _COARSEN),
    "coarsen.levels": ("count", _COARSEN),
    "initial.busy_s": ("s", _INITIAL),
    "initial.share": ("ratio", _INITIAL),
    "refine.busy_s": ("s", _REFINE),
    "refine.share": ("ratio", _REFINE),
    "fm.moves_tried": ("count", _REFINE),
    "fm.rollback_ratio": ("ratio", _REFINE),
    "fm.us_per_tried_move": ("us", _REFINE),
    "flow.busy_s": ("s", "latency_ms_p90 on paper_mix"),
    "flow.accept_ratio": ("ratio", "latency_ms_p90 on paper_mix"),
    "gp.busy_s": ("s", "wall_s on paper_mix"),
    "gp.cycles": ("count", "wall_s on paper_mix"),
    "multires.busy_s": ("s", _ENGINES),
    "hyper.busy_s": ("s", _ENGINES),
    "ppn.busy_s": ("s", _ENGINES),
    "evaluate.busy_s": ("s", "wall_s on every library workload"),
    "serve.computes": ("count", _SERVE),
    "serve.shared": ("count", _SERVE),
    "serve.cold_ms_p50": ("ms", _SERVE),
    "serve.hit_ms_p50": ("ms", _SERVE),
    "serve.http_overhead_ms": ("ms", _SERVE),
    "cache.hit_ratio": ("ratio", _CACHE),
    "diskcache.hits": ("count", _CACHE),
    "diskcache.bytes": ("bytes", _CACHE),
    "trace.overhead_s": ("s", "nothing: traced minus untraced wall_s"),
    "trace.coverage": ("ratio", "nothing: layer self time over traced wall_s"),
}


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to support it."""


def tail_percentile(samples, q: float = 90.0, min_beyond: int = 10) -> float:
    """The *q*-th percentile of *samples*, refused unless at least
    *min_beyond* samples lie above it."""
    xs = sorted(samples)
    if not xs:
        raise TooFewSamples("no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    beyond = sum(1 for x in xs if x > value)
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it, "
            f"needs {min_beyond}"
        )
    return value


def latency_tail(latencies_s) -> tuple[float, str]:
    """``latency_ms_p90`` and how it was taken: the p90 when at least ten
    samples lie beyond it, otherwise the maximum (one-call workloads)."""
    try:
        return 1e3 * tail_percentile(latencies_s), f"p90 of {len(latencies_s)}"
    except TooFewSamples:
        return 1e3 * max(latencies_s), f"max of {len(latencies_s)}"


@dataclass
class Phase:
    """The timed phase of one run: per-operation latencies and outcomes.

    Latencies and ``wall_s`` are clock seconds divided by the run's
    ``slowdown`` (see :mod:`speed`); ``raw_wall_s`` is what the clock read.
    """

    raw_wall_s: float
    slowdown: float
    probes: int  # speed-probe samples behind the slowdown
    latencies: list = field(default_factory=list)
    cuts: list = field(default_factory=list)  # None for a failed operation
    feasible: int = 0
    errors: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s / self.slowdown

    def record(self, raw_latency_s, cut=None, feasible=False, error=None):
        self.latencies.append(raw_latency_s / self.slowdown)
        self.cuts.append(None if error else cut)
        self.feasible += bool(feasible) and not error
        if error:
            self.errors.append(error)

    def compare_cuts(self, reference: "Phase") -> None:
        """Count as failed every operation whose cut differs from the same
        operation in *reference* (tracing must not change any result)."""
        for i, (a, b) in enumerate(zip(reference.cuts, self.cuts)):
            if None not in (a, b) and a != b:
                self.errors.append(f"op {i}: cut {b} here, {a} untraced")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def end_to_end(self, setup_s: float, rss_mb: float) -> dict:
        p90, _ = latency_tail(self.latencies)
        completed = self.attempted - len(self.errors)
        return {
            "setup_s": setup_s / self.slowdown,
            "wall_s": self.wall_s,
            "latency_ms_p50": 1e3 * statistics.median(self.latencies),
            "latency_ms_p90": p90,
            "ops_per_s": completed / self.wall_s,
            "cut_total": sum(c for c in self.cuts if c is not None),
            "feasible_share": self.feasible / self.attempted,
            "rss_peak_mb": rss_mb,
        }


def run_ops(ops, tracer=None) -> Phase:
    """Call every operation in order (the timed phase), sampling the host's
    speed before the first call and between calls, once per
    :data:`PROBE_EVERY_S` spent in calls; then check every result against
    the independent recomputation."""
    probe = speed.SpeedProbe()
    probe.sample()
    unsampled = 0.0  # seconds of calls since the last probe sample
    outcomes = []
    for op in ops:
        root = (nullcontext() if tracer is None
                else tracer.span(op.kind, spans.OP_LAYER))
        ts = time.perf_counter()
        try:
            with root:
                raw, error = op.call(), None
        except Exception:  # counted as a failed operation, run goes on
            raw, error = None, traceback.format_exc()
        latency = time.perf_counter() - ts
        outcomes.append((latency, raw, error))
        unsampled += latency
        # one sample per PROBE_EVERY_S of calls, so that the samples
        # weigh each stretch of the run by the time spent in it
        while unsampled >= PROBE_EVERY_S:
            probe.sample()
            unsampled -= PROBE_EVERY_S
    if unsampled > 0:
        probe.sample()
    phase = Phase(sum(o[0] for o in outcomes), probe.slowdown(),
                  len(probe.samples))
    for op, (latency, raw, error) in zip(ops, outcomes):
        cut = feasible = None
        if error is None:
            try:
                cut, feasible = op.check(raw)
            except check.CheckError as exc:
                error = f"{op.kind}: {exc}"
        phase.record(latency, cut, feasible, error)
    return phase


def run_serve(keys, sequence, daemon):
    """Drive *daemon* with the request *sequence* from
    :data:`SERVE_THREADS` closed-loop clients; check every response and
    every repeat of a key."""
    client = daemon.client
    before = client.metrics()

    def send(j):
        key = keys[j]
        return client.partition(key.g, k=key.k, bmax=key.bmax,
                                rmax=key.rmax, seed=key.seed)

    # the work runs in the daemon, so the probe runs on the daemon's CPU,
    # and only while no request is in flight
    probe = speed.SpeedProbe()
    for _ in range(SERVE_PROBES):
        probe.sample(daemon.cpus)
    t0 = time.perf_counter()
    outcomes = serve_load.closed_loop(sequence, send, SERVE_THREADS)
    wall_s = time.perf_counter() - t0
    for _ in range(SERVE_PROBES):
        probe.sample(daemon.cpus)
    phase = Phase(wall_s, probe.slowdown(), len(probe.samples))
    after = client.metrics()
    rss_mb = daemon.peak_rss_mb()
    first_assign = {}
    for j, out in zip(sequence, outcomes):
        error, cut, feasible = out.error, None, None
        if error is None:
            key, resp = keys[j], out.response
            try:
                cut, feasible = check.check_graph(
                    key.g, key.k, key.bmax, key.rmax, resp["assign"],
                    resp["cut"], resp["feasible"],
                )
                if first_assign.setdefault(j, resp["assign"]) != resp["assign"]:
                    raise check.CheckError(
                        f"key {j}: a repeat returned another assignment"
                    )
            except check.CheckError as exc:
                error = f"serve: {exc}"
        phase.record(out.latency_s, cut, feasible, error)
    return phase, outcomes, before, after, rss_mb


def counter(metrics_json: dict, name: str, **labels) -> float:
    """Sum of a counter's series whose labels include *labels*."""
    series = metrics_json.get(name, {}).get("series", [])
    return float(sum(
        s["value"] for s in series
        if all(s["labels"].get(k) == v for k, v in labels.items())
    ))


def layer_metrics(span_list, tallies, traced, untraced, count) -> dict:
    """Per-layer metrics from the traced run's spans and counter deltas
    (``count(name, **labels)``).  Busy times and shares are clock seconds
    against the traced phase's clock wall; the tracing overhead compares
    the two phases in reference seconds."""
    wall_s = traced.raw_wall_s
    self_s = spans.layer_self_times(span_list)
    out = {f"{layer}.busy_s": self_s.get(layer, 0.0)
           for layer in spans.LAYERS}
    for layer in ("coarsen", "initial", "refine"):
        out[f"{layer}.share"] = out[f"{layer}.busy_s"] / wall_s
    tried = count("fm.moves_tried")
    pairs = count("flow.pairs")
    lookups = count("cache.lookups")
    hits = (count("cache.lookups", outcome="hit")
            + count("cache.lookups", outcome="backend_hit"))
    out.update({
        "coarsen.levels": tallies.get("coarsen.levels", 0),
        "fm.moves_tried": tried,
        "fm.rollback_ratio": (
            count("fm.moves_rolled_back") / tried if tried else 0.0
        ),
        "fm.us_per_tried_move": (
            1e6 * spans.fm_seconds(span_list) / tried if tried else 0.0
        ),
        "flow.accept_ratio": (
            count("flow.accepted") / pairs if pairs else 0.0
        ),
        "gp.cycles": tallies.get("gp.cycles", 0),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.computes": 0, "serve.shared": 0, "serve.cold_ms_p50": 0.0,
        "serve.hit_ms_p50": 0.0, "serve.http_overhead_ms": 0.0,
        "diskcache.hits": 0, "diskcache.bytes": 0,
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.coverage": sum(self_s.get(l, 0.0) for l in spans.LAYERS)
        / wall_s,
    })
    return out


def serve_layer_metrics(outcomes, before, after) -> dict:
    """Serve-side per-layer metrics from the client and ``/metrics``."""
    def ms_p50(pick):
        xs = [o.latency_s for o in outcomes
              if o.error is None and pick(o.response)]
        return 1e3 * statistics.median(xs) if xs else 0.0

    ok = [o.latency_s for o in outcomes if o.error is None]
    served = after["latency"]["count"] - before["latency"]["count"]
    server_ms = (after["latency"]["sum_ms"] - before["latency"]["sum_ms"])
    res_a, res_b = after["caches"]["results"], before["caches"]["results"]
    hits = res_a["hits"] - res_b["hits"]
    lookups = hits + res_a["misses"] - res_b["misses"]
    return {
        "serve.computes": after["computes"] - before["computes"],
        "serve.shared": (after["single_flight"]["shared"]
                         - before["single_flight"]["shared"]),
        "serve.cold_ms_p50": ms_p50(
            lambda r: not r["cached"] and not r["deduped"]),
        "serve.hit_ms_p50": ms_p50(lambda r: r["cached"]),
        "serve.http_overhead_ms": (
            1e3 * statistics.mean(ok) - server_ms / served
            if ok and served else 0.0
        ),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "diskcache.hits": res_a["backend_hits"] - res_b["backend_hits"],
        "diskcache.bytes": res_a["backend"]["bytes"],
    }


def environment() -> dict:
    """Host and code identity, so later comparisons can spot a change."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.split()
        rev = top[1] if top and Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev or "unavailable (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def timed_setup(build):
    """Run *build* :data:`SETUP_REPEATS` times; return the last result and
    the median duration."""
    times, out = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = build()
        times.append(time.perf_counter() - t0)
    print(f"  setup repeats (s): {[round(t, 4) for t in times]}",
          file=sys.stderr)
    return out, statistics.median(times)


def bench_library(args, import_s):
    # one CPU for the calls and the probe alike
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    build = workloads.LIBRARY_WORKLOADS[args.workload]
    ops, build_s = timed_setup(
        lambda: build(args.seed, args.seconds))
    untraced = run_ops(ops)
    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return [untraced], untraced.end_to_end(import_s + build_s, rss_mb), None
    tracer = spans.Tracer()
    with spans.instrument(tracer), obs.capture(tracing=False) as cap:
        traced = run_ops(ops, tracer)
    traced.compare_cuts(untraced)
    counters = obs.metrics_to_json(cap.metrics)
    metrics = layer_metrics(
        tracer.spans, tracer.tallies, traced, untraced,
        lambda name, **labels: counter(counters, name, **labels),
    )
    return [untraced, traced], metrics, spans.chrome_trace_doc(
        tracer.spans, os.getpid())


def bench_serve(args, import_s):
    plain = [sys.executable, "-m", "repro"]
    dirs = [OUT / f"serve-cache-{os.getpid()}-{i}"
            for i in range(SETUP_REPEATS + 1)]
    daemons = []
    # the daemon gets a CPU of its own and the client the rest, so the
    # probe can sample the CPU the work runs on
    allowed = os.sched_getaffinity(0)
    daemon_cpus = {max(allowed)}
    client_cpus = allowed - daemon_cpus or allowed
    os.sched_setaffinity(0, client_cpus)

    def build():
        keys, seq, mem = workloads.serve_mix(args.seed, args.seconds)
        daemons.append(serve_load.Daemon(plain, SRC, dirs[len(daemons)],
                                         mem, daemon_cpus))
        return keys, seq, mem

    try:
        (keys, seq, mem), build_s = timed_setup(build)
        for d in daemons[:-1]:
            d.stop()
        untraced, _, _, _, rss_mb = run_serve(keys, seq, daemons[-1])
        daemons[-1].stop()
        if not args.trace:
            return [untraced], untraced.end_to_end(import_s + build_s,
                                                   rss_mb), None
        spans_path = OUT / f"serve-spans-{os.getpid()}.json"
        daemon = serve_load.Daemon(
            [sys.executable, str(HERE / "daemon.py"), str(spans_path)], SRC,
            dirs[-1], mem, daemon_cpus)
        daemons.append(daemon)
        traced, outcomes, before, after, _ = run_serve(keys, seq, daemon)
        daemon.stop()
        traced.compare_cuts(untraced)
        with open(spans_path, encoding="utf-8") as fh:
            dump = json.load(fh)
        spans_path.unlink()

        def delta(name, **labels):
            return (counter(after["library"], name, **labels)
                    - counter(before["library"], name, **labels))

        metrics = layer_metrics(dump["spans"], dump["tallies"],
                                traced, untraced, delta)
        metrics.update(serve_layer_metrics(outcomes, before, after))
        return [untraced, traced], metrics, spans.chrome_trace_doc(
            dump["spans"], daemon.proc.pid)
    finally:
        for d in daemons:
            d.stop(graceful=False)
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        os.sched_setaffinity(0, allowed)


def report(args, env, metrics, phases) -> str:
    lines = [f"perfbench {args.workload} seed={args.seed} "
             f"seconds={args.seconds} trace={args.trace}"]
    lines += [f"  env {k}: {v}" for k, v in env.items()]
    for p in phases:
        _, basis = latency_tail(p.latencies)
        lines.append(
            f"  phase: {p.attempted} ops, {len(p.errors)} failed "
            f"(failed_share {len(p.errors) / p.attempted:.4f}), "
            f"wall {p.wall_s:.3f} reference s = {p.raw_wall_s:.3f} clock s "
            f"/ slowdown {p.slowdown:.4f} ({p.probes} probe samples), "
            f"tail latency = {basis}"
        )
    for name, value in metrics.items():
        unit, moves = (PER_LAYER[name] if args.trace
                       else (END_TO_END[name], ""))
        lines.append(f"  {name:<24} {value:>16.6g} {unit:<6} "
                     + (f"moves: {moves}" if moves else ""))
    for p in phases:
        lines += [f"  FAILED {e.strip()}" for e in p.errors]
    return "\n".join(lines)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.LIBRARY_WORKLOADS, "serve_mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = time.perf_counter() - T_START
    print(f"  imports (s): {import_s:.4f}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    bench = bench_serve if args.workload == "serve_mix" else bench_library
    phases, metrics, trace_doc = bench(args, import_s)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: metrics[name] for name in wanted}
    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.errors) for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value,
                   "unit": PER_LAYER[name][0] if args.trace
                   else END_TO_END[name]}
            for name, value in metrics.items()
        },
    }
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result,
                   "errors": [e for p in phases for e in p.errors]},
                  fh, indent=1)
    if trace_doc is not None:
        with open(OUT / f"{stem}.trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace_doc, fh)
    print(report(args, env, metrics, phases), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
