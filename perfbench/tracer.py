"""Timing wrappers around the program's layer boundaries, for traced runs.

Untraced runs never import this module into a program process.  A traced
program process starts through it instead of through its own entry point::

    python perfbench/tracer.py OUT.json -m repro.batchgcd_cli moduli.txt -o out.txt

The bootstrap imports the program, replaces each target callable with a
counting, timing wrapper *wherever it is bound* (its defining module and
every ``repro`` module that imported it by name; methods on their class),
runs the module as ``__main__``, and writes the totals to ``OUT.json`` at
interpreter exit.  The study child installs the same wrappers in-process.

With ``--no-fsync`` (and ``-`` in place of ``OUT.json`` to trace
nothing) the bootstrap only makes ``os.fsync`` a no-op, standing in for a
memory-backed state directory; the service workloads start this way.

Nested calls of one metric (``remainder_tree_prepared`` falling back to
``remainder_tree``, an incremental engine run wrapping a clustered one)
are timed once, at the outermost call.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import runpy
import sys
import threading
import time
import warnings
from collections import Counter
from typing import Any, Callable

#: Modules imported before patching so that every ``from x import f``
#: binding already exists when the wrappers are installed.
_PROGRAM_MODULES = (
    "repro.pipeline",
    "repro.batchgcd_cli",
    "repro.core.select",
    "repro.core.alltoall",
    "repro.numt.incremental",
    "repro.faults.recovery",
    "repro.service.app",
    "repro.service.server",
    "repro.service.worker",
    "repro.service.queue",
)


def _tasks(args: tuple, result: Any, tracer: "Tracer") -> None:
    stats = getattr(args[0], "last_stats", None)
    tracer.add("core.tasks", getattr(stats, "tasks", 0))


def _resolved(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.add("core.results.resolved", len(result))


def _pruned(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.add("numt.sharding.pruned_pairs", 0 if result else 1)


def _chunks(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.add("faults.recovery.chunks", len(getattr(args[0], "_payloads", ())))


def _level_records(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.add("numt.incremental.level_records", sum(getattr(args[0], "_level_records", ())))


def _job(args: tuple, result: Any, tracer: "Tracer") -> None:
    tracer.add("service.worker.jobs", 1)
    tracer.add("service.worker.job_moduli", len(args[1].moduli))


#: (metric, module, qualified name, hook run after each outermost call).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("numt.primality", "repro.numt.primality", "is_probable_prime", None),
    ("crypto.certs.fingerprint", "repro.crypto.certs", "Certificate.fingerprint", None),
    ("scans.records.intern", "repro.scans.records", "CertificateStore.intern", None),
    ("numt.trees.product_tree", "repro.numt.trees", "product_tree", None),
    ("numt.trees.remainder_tree", "repro.numt.trees", "remainder_tree", None),
    ("numt.trees.remainder_tree", "repro.numt.trees", "remainder_tree_squared", None),
    ("numt.trees.remainder_tree", "repro.numt.trees", "remainder_tree_prepared", None),
    ("numt.trees.prepare_reciprocals", "repro.numt.trees", "prepare_reciprocals", None),
    ("numt.sharding.gcd_descent", "repro.numt.sharding", "gcd_descent_hits", _pruned),
    ("core.engine_run", "repro.core.clustered", "ClusteredBatchGcd.run", _tasks),
    ("core.engine_run", "repro.core.alltoall", "AllToAllBatchGcd.run", _tasks),
    ("core.engine_run", "repro.core.incremental", "IncrementalBatchGcd.run", None),
    ("core.engine_run", "repro.core.select", "ClassicBatchGcd.run", _tasks),
    ("core.results.resolve", "repro.core.results", "BatchGcdResult.resolve", _resolved),
    ("faults.fsio.fsync", "repro.faults.fsio", "fsync_file", None),
    ("faults.fsio.fsync", "repro.faults.fsio", "fsync_dir", None),
    ("faults.recovery.executor", "repro.faults.recovery", "ResilientExecutor.run", _chunks),
    ("service.queue.append", "repro.service.queue", "JobQueue._append", None),
    ("service.queue.replay", "repro.service.queue", "JobQueue._replay", None),
    ("service.server.reads", "repro.service.server", "ServiceServer.get_status", None),
    ("service.server.reads", "repro.service.server", "ServiceServer.get_result", None),
    ("service.worker.job", "repro.service.worker", "KeyCheckRunner.__call__", _job),
    ("numt.incremental.store_open", "repro.numt.incremental", "ProductTreeStore.__init__",
     _level_records),
    ("numt.incremental.insert", "repro.numt.incremental", "ProductTreeStore.insert", None),
)


class Tracer:
    """Call counts and outermost-call seconds per metric, thread-safe."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.values: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.values[key] += amount

    def _record(self, metric: str, seconds: float | None) -> None:
        with self._lock:
            self.calls[metric] += 1
            if seconds is not None:
                self.seconds[metric] += seconds

    def wrap(self, fn: Callable, metric: str, after: Callable | None) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._record(metric, time.perf_counter() - started)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            active = tracer._local.__dict__.setdefault("active", set())
            if metric in active:
                tracer._record(metric, None)
                return fn(*args, **kwargs)
            active.add(metric)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._record(metric, time.perf_counter() - started)
                active.discard(metric)
            if after is not None:
                after(args, result, tracer)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in :data:`TARGETS` wherever it is bound."""
        for name in _PROGRAM_MODULES:
            importlib.import_module(name)
        for metric, module_name, qualname, after in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, attr, self.wrap(owner.__dict__[attr], metric, after))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, metric, after)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, attr, None) is original
                ):
                    setattr(loaded, attr, wrapped)

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "seconds": dict(self.seconds),
                "values": dict(self.values),
            }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)


def merge(snapshots: list[dict]) -> dict[str, Counter]:
    """Sum several processes' snapshots."""
    total = {"calls": Counter(), "seconds": Counter(), "values": Counter()}
    for snap in snapshots:
        for key, counter in total.items():
            counter.update(snap.get(key, {}))
    return total


def _skip_fsync(fd: int) -> None:
    """Stands in for ``os.fsync`` where state is meant to be memory-backed."""


def main(argv: list[str]) -> None:
    if argv and argv[0] == "--no-fsync":
        os.fsync = _skip_fsync
        argv = argv[1:]
    if len(argv) < 3 or argv[1] != "-m":
        raise SystemExit("usage: tracer.py [--no-fsync] OUT.json|- -m MODULE [ARGS...]")
    out, module = argv[0], argv[2]
    if out != "-":
        tracer = Tracer()
        tracer.install()
        atexit.register(tracer.dump, out)
    sys.argv = [module, *argv[3:]]
    # The module was imported (and patched) above; running it again as
    # __main__ is intended.
    warnings.filterwarnings("ignore", message=".*found in sys.modules", category=RuntimeWarning)
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
