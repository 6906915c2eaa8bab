"""The ``repro serve`` daemon as a subprocess, and the closed-loop client.

:func:`closed_loop` is the only load generator of the benchmark: at most
``os.cpu_count()`` threads, each sending its next request only after the
previous one has answered.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass


@dataclass
class Outcome:
    """One request's client-side latency and its response (or error)."""

    latency_s: float
    response: object = None
    error: str | None = None


def closed_loop(requests, send, threads: int) -> list[Outcome]:
    """Send every request through *send* from ``min(threads, nproc)``
    closed-loop client threads; outcomes come back in request order."""
    threads = max(1, min(threads, os.cpu_count() or 1, len(requests)))
    outcomes: list[Outcome | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                response = send(requests[i])
            except Exception:  # counted as a failed request, run goes on
                outcomes[i] = Outcome(time.perf_counter() - t0,
                                      error=traceback.format_exc())
            else:
                outcomes[i] = Outcome(time.perf_counter() - t0, response)

    workers = [threading.Thread(target=client, daemon=True)
               for _ in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=170)
        if w.is_alive():
            raise RuntimeError("a client thread did not finish in time")
    return outcomes


class Daemon:
    """A ``repro serve --jobs 1`` subprocess on an ephemeral port, confined
    to the CPU set *cpus*.

    *launcher* is the argv prefix that runs the CLI: plain
    ``python -m repro`` or the traced launcher (``daemon.py``).
    """

    def __init__(self, launcher, src_dir, cache_dir, memory_entries: int,
                 cpus):
        from repro.serve.client import ServeClient

        self.cpus = set(cpus)
        self._reaped = False
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.proc = subprocess.Popen(
            [*launcher, "serve", "--port", "0", "--cache-dir", str(cache_dir),
             "--jobs", "1", "--memory-entries", str(memory_entries)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, preexec_fn=lambda: os.sched_setaffinity(0, self.cpus),
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on " not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.client = ServeClient(line.split("listening on ")[1].strip(),
                                      timeout=120.0)
            self.client.health()
        except BaseException:
            self.stop(graceful=False)
            raise

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set) in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self, graceful: bool = True) -> None:
        """Shut down via ``POST /shutdown`` (else SIGTERM) and reap."""
        if self._reaped:
            return
        if self.proc.poll() is None and graceful:
            try:
                self.client.shutdown()
            except Exception:
                print(traceback.format_exc(), file=sys.stderr)
                graceful = False
        if self.proc.poll() is None and not graceful:
            self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._reaped = True
