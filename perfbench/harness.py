"""Process control and statistics shared by the workloads.

Every program process is launched from here with ``src`` on its path and
``REPRO_*`` variables removed, so an operator's backend, fault plan or
API key cannot leak into a measurement.  CPU time and peak RSS are read
per process from ``os.wait4`` when it is reaped.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import IO

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def module_argv(
    module: str, args: list[str], trace_out: Path | None, no_fsync: bool = False
) -> list[str]:
    """``python -m module args``, or the same through the tracer bootstrap.

    ``no_fsync`` makes ``os.fsync`` a no-op in the program process, as on
    a memory-backed state directory (see README.md, "Steadiness").
    """
    if trace_out is None and not no_fsync:
        return [sys.executable, "-m", module, *args]
    flags = ["--no-fsync"] if no_fsync else []
    out = str(trace_out) if trace_out is not None else "-"
    return [sys.executable, str(TRACER), *flags, out, "-m", module, *args]


class Child:
    """One program process, reaped with ``os.wait4`` for its own rusage."""

    def __init__(
        self,
        argv: list[str],
        *,
        stdout: int | IO = subprocess.DEVNULL,
        stderr: int | IO = subprocess.DEVNULL,
    ) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=program_env(), stdout=stdout, stderr=stderr,
            stdin=subprocess.DEVNULL,
        )
        self.ended: float | None = None
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0

    def reap(self, timeout: float = 120.0) -> int:
        """Wait for exit (killing it after ``timeout``); returns the exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.ended = time.perf_counter()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return self.proc.returncode

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM (the service's graceful shutdown), then reap."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
        return self.reap(timeout)

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.reap(30.0)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def calibrate_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: host speed, not the program."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000.0


def dir_mb(path: Path) -> float:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total / 1e6
