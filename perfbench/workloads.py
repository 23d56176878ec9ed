"""The four workloads, each as set-up samples plus repeatable rounds.

A round is one whole unit of the workload's operations on fresh state:

- ``study``: one ``run_study`` in a fresh process (1 operation);
- ``batchgcd``: one ``python -m repro.batchgcd_cli`` run with default
  flags over the seed's moduli file (1 operation);
- ``service`` / ``ingest``: one ``python -m repro.service`` session on a
  fresh state directory -- a closed loop of jobs from one client, then a
  stop and a relaunch on the same state until one fresh job completes
  (jobs + 1 operations).

Rounds return plain dicts; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
from harness import BENCH_DIR, Child, dir_mb, module_argv

#: Status polls are spaced by this many seconds after each response.  The
#: first poll of a job waits a seeded random fraction of it, so that the
#: observed latency grows smoothly with the true one instead of jumping a
#: whole cadence step when a job crosses a poll boundary.
POLL_CADENCE_S = 0.005
#: Fewest set-up-only launches per run (one before each round, topped up
#: after the last), on top of each round's own launch.
SETUP_REPEATS = 5
#: Study worlds: the run's seed picks one of these, each with a reference digest.
STUDY_WORLDS = 16


class Workload:
    """Inputs for one seed, set-up sampling, and rounds."""

    name = ""

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def setup_sample(self) -> float:
        raise NotImplementedError

    def round(self, index: int, trace: bool) -> dict:
        raise NotImplementedError


class StudyWorkload(Workload):
    name = "study"

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self.world_seed = seed % STUDY_WORLDS

    def _launch(self, out: Path, *flags: str) -> tuple[Child, float]:
        argv = [sys.executable, str(BENCH_DIR / "study_child.py"), str(self.world_seed),
                str(out), *flags]
        child = Child(argv, stdout=subprocess.PIPE)
        if child.proc.stdout.readline().strip() != b"READY":
            child.kill()
            raise RuntimeError("study child did not become ready")
        return child, time.perf_counter() - child.started

    def setup_sample(self) -> float:
        child, setup = self._launch(self.run_dir / "setup.json", "--setup-only")
        child.reap()
        return setup

    def round(self, index: int, trace: bool) -> dict:
        out = self.run_dir / f"study-{index}.json"
        child, setup = self._launch(out, *(["--trace"] if trace else []))
        child.proc.stdout.read()
        if child.reap(timeout=170.0) != 0:
            return {"setup_s": setup, "ops": 1, "failed": 1, "problems": []}
        report = json.loads(out.read_text())
        print(f"study world {self.world_seed} digest {report['digest']}", file=sys.stderr)
        return {
            "setup_s": setup, "wall_s": report["wall_s"], "cpu_s": report["cpu_s"],
            "peak_rss_mb": report["peak_rss_mb"], "moduli": report["moduli"],
            "ops": 1, "failed": 0, "problems": report["problems"], "digest": report["digest"],
            "traces": [report["trace"]] if trace else [], "stages": report.get("stages"),
        }


class BatchGcdWorkload(Workload):
    name = "batchgcd"

    def __init__(self, seed: int, run_dir: Path) -> None:
        super().__init__(seed, run_dir)
        self.corpus = inputs.batch_corpus(seed)
        self.input = run_dir / "moduli.txt"
        self.input.write_text("".join(f"{n:x}\n" for n in self.corpus.moduli))

    def _launch(self, output: Path, trace_out: Path | None) -> tuple[Child, float]:
        argv = module_argv("repro.batchgcd_cli", [str(self.input), "-o", str(output)], trace_out)
        child = Child(argv, stderr=subprocess.PIPE)
        if not child.proc.stderr.readline().startswith(b"read "):
            child.kill()
            raise RuntimeError("repro.batchgcd_cli did not read its input")
        return child, time.perf_counter() - child.started

    def setup_sample(self) -> float:
        child, setup = self._launch(self.run_dir / "setup.txt", None)
        child.kill()
        return setup

    def round(self, index: int, trace: bool) -> dict:
        output = self.run_dir / f"factors-{index}.txt"
        trace_out = self.run_dir / f"trace-{index}.json" if trace else None
        child, setup = self._launch(output, trace_out)
        ready = time.perf_counter()
        child.proc.stderr.read()
        if child.reap() != 0:
            return {"setup_s": setup, "ops": 1, "failed": 1, "problems": []}
        lines = output.read_text().splitlines()
        problems = checks.batchgcd_problems(lines, self.corpus)
        if index == 0:
            problems += checks.batchgcd_planted(lines, self.corpus)
        return {
            "setup_s": setup, "wall_s": child.ended - ready, "cpu_s": child.cpu_s,
            "peak_rss_mb": child.peak_rss_mb, "moduli": len(self.corpus.moduli),
            "ops": 1, "failed": 0, "problems": problems,
            "traces": [json.loads(trace_out.read_text())] if trace else [],
        }


class Client:
    """One keep-alive HTTP connection, timing every round trip."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict, float]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        started = time.perf_counter()
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = json.loads(response.read())
        return response.status, data, time.perf_counter() - started

    def close(self) -> None:
        self.conn.close()


class ServiceWorkload(Workload):
    """``python -m repro.service``: clustered jobs (``service``) or incremental ones (``ingest``)."""

    def __init__(self, seed: int, run_dir: Path, name: str) -> None:
        super().__init__(seed, run_dir)
        self.name = name
        jobs = inputs.SERVICE_JOBS if name == "service" else inputs.INGEST_JOBS
        # One job beyond the loop is the fresh job after the restart.
        self.stream = inputs.job_stream(seed, name, jobs + 1)
        rng = random.Random(f"perfbench-poll|{seed}")
        self.dither = [rng.random() for _ in self.stream.jobs]

    def _launch(self, state: Path, trace_out: Path | None) -> tuple[Child, Client, float]:
        args = ["--state-dir", str(state), "--port", "0"]
        if self.name == "ingest":
            args += ["--engine-mode", "incremental"]
        log = (self.run_dir / "service.log").open("ab")
        child = Child(module_argv("repro.service", args, trace_out, no_fsync=True), stderr=log)
        log.close()
        endpoint = state / "endpoint.json"
        deadline = child.started + 60.0
        while time.perf_counter() < deadline:
            try:
                info = json.loads(endpoint.read_text())
            except (OSError, ValueError):
                info = {}
            if info.get("pid") == child.proc.pid:
                client = Client(info["port"])
                status, _, _ = client.call("GET", "/healthz")
                if status == 200:
                    return child, client, time.perf_counter() - child.started
            if child.proc.poll() is not None:
                break
            time.sleep(POLL_CADENCE_S)
        child.kill()
        raise RuntimeError("repro.service did not become ready")

    def setup_sample(self) -> float:
        state = self.run_dir / "setup-state"
        shutil.rmtree(state, ignore_errors=True)
        child, client, setup = self._launch(state, None)
        client.close()
        child.stop()
        return setup

    def _job(self, client: Client, index: int, sample: dict) -> tuple[bool, list[str]]:
        """Submit, poll to a terminal status, fetch the result; True if it succeeded."""
        moduli = self.stream.jobs[index]
        started = time.perf_counter()
        body = {"moduli": [f"{n:x}" for n in moduli]}
        status, job, elapsed = client.call("POST", "/v1/jobs", body)
        sample["submit"].append(elapsed)
        if status not in (200, 202):
            return False, []
        path = f"/v1/jobs/{job['job_id']}"
        delay = self.dither[index] * POLL_CADENCE_S
        while job.get("status") not in ("succeeded", "failed", "cancelled"):
            time.sleep(delay)
            delay = POLL_CADENCE_S
            _, job, elapsed = client.call("GET", path + "/status")
            sample["read"].append(elapsed)
        sample["job"].append(time.perf_counter() - started)
        if job["status"] != "succeeded":
            return False, []
        _, result, elapsed = client.call("GET", path + "/result")
        sample["read"].append(elapsed)
        problems = checks.job_problems(index, result, self.stream)
        if not sample["planted_checked"] and self.stream.expected[index]:
            problems += checks.job_planted(index, result, self.stream)
            sample["planted_checked"] = True
        return True, problems

    def round(self, index: int, trace: bool) -> dict:
        state = self.run_dir / f"state-{index}"
        traces = [self.run_dir / f"trace-{index}-{leg}.json" if trace else None
                  for leg in ("first", "restart")]
        sample = {"submit": [], "read": [], "job": [], "planted_checked": False}
        problems: list[str] = []
        failed = 0
        child, client, setup = self._launch(state, traces[0])
        started = time.perf_counter()
        for j in range(len(self.stream.jobs) - 1):
            ok, found = self._job(client, j, sample)
            failed += not ok
            problems += found
        wall = time.perf_counter() - started
        client.close()
        child.stop()
        relaunched = time.perf_counter()
        restarted, client, _ = self._launch(state, traces[1])
        after_restart = {"submit": [], "read": [], "job": [], "planted_checked": True}
        ok, found = self._job(client, len(self.stream.jobs) - 1, after_restart)
        restart_s = time.perf_counter() - relaunched
        failed += not ok
        problems += found
        client.close()
        restarted.stop()
        for proc in (child, restarted):
            if proc.proc.returncode != 0:
                problems.append(f"service exited with {proc.proc.returncode}")
        moduli = sum(len(m) for m in self.stream.jobs[:-1])
        return {
            "setup_s": setup, "wall_s": wall, "cpu_s": child.cpu_s + restarted.cpu_s,
            "peak_rss_mb": max(child.peak_rss_mb, restarted.peak_rss_mb), "moduli": moduli,
            "ops": len(self.stream.jobs), "failed": failed, "problems": problems,
            "submit": sample["submit"], "read": sample["read"], "job": sample["job"],
            "restart_s": restart_s, "state_mb": dir_mb(state),
            "journal_mb": (state / "journal.jsonl").stat().st_size / 1e6,
            "traces": [json.loads(t.read_text()) for t in traces if t is not None],
        }


def make(name: str, seed: int, run_dir: Path) -> Workload:
    if name == "study":
        return StudyWorkload(seed, run_dir)
    if name == "batchgcd":
        return BatchGcdWorkload(seed, run_dir)
    return ServiceWorkload(seed, run_dir, name)


WORKLOADS = ("study", "batchgcd", "service", "ingest")
