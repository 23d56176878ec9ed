"""Durability regressions for the service persistence layer.

These pin the fixes the DUR rules demanded of real code: the job-queue
journal fsyncs every append (DUR001), ``endpoint.json`` publishes via
temp + atomic rename (DUR002), the mutation journal's commit fsyncs its
rewrite before renaming it, and the product-tree level files are fsynced
before the manifest commits to their record counts.  They also pin the
worker's checkpoint hygiene: a job's engine checkpoint lives exactly as
long as the job can still be resumed.
"""

import json
import os
import random
import time

from repro.crypto.primes import generate_prime
from repro.faults.journal import MutationJournal
from repro.numt.incremental import ProductTreeStore
from repro.service.models import ServiceConfig
from repro.service.queue import JobQueue
from repro.service.server import ServiceServer
from repro.service.worker import KeyCheckRunner, ServiceWorker


def _moduli(seed=7, count=3, bits=32):
    rng = random.Random(seed)
    return [
        generate_prime(bits, rng) * generate_prime(bits, rng)
        for _ in range(count)
    ]


def _record_fsyncs(monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
    )
    return synced


class TestQueueJournalFsync:
    def test_every_append_fsyncs_the_journal_descriptor(
        self, tmp_path, monkeypatch
    ):
        queue = JobQueue(tmp_path)
        synced = _record_fsyncs(monkeypatch)
        queue.submit(_moduli())
        journal_fd = queue._journal_file.fileno()
        assert journal_fd in synced

    def test_submitted_job_survives_an_unflushed_drop(self, tmp_path):
        """The journal on disk is the authority the moment submit returns."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(_moduli())
        del queue  # no close, no terminal events — the rude shutdown
        reopened = JobQueue(tmp_path)
        assert reopened.get(job.job_id).job_id == job.job_id


class TestEndpointPublish:
    def test_endpoint_file_is_atomic_and_parseable(self, tmp_path):
        state_dir = tmp_path / "state"
        server = ServiceServer(
            JobQueue(tmp_path / "queue"),
            ServiceConfig(state_dir=str(state_dir)),
        )
        server.bound_port = 43210
        server._write_endpoint_file()
        payload = json.loads((state_dir / "endpoint.json").read_text())
        assert payload["port"] == 43210
        assert payload["pid"] == os.getpid()
        # No temp residue: the publish either happened or it didn't.
        assert [p.name for p in state_dir.iterdir()] == ["endpoint.json"]


class TestJournalCommitFsync:
    def test_commit_fsyncs_the_rewrite_before_renaming_it(
        self, tmp_path, monkeypatch
    ):
        journal = MutationJournal(tmp_path / "journal.jsonl")
        first = journal.append({"insert": 1})
        journal.append({"insert": 2})
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (events.append("replace"), real_replace(src, dst)),
        )
        journal.commit(first)
        assert "replace" in events
        assert events.index("fsync") < events.index("replace")
        assert [r["insert"] for r in journal.pending()] == [2]


class TestStoreLevelFsync:
    def test_insert_fsyncs_level_records_before_the_manifest_commits(
        self, tmp_path, monkeypatch
    ):
        store = ProductTreeStore(tmp_path / "store")
        synced = _record_fsyncs(monkeypatch)
        store.insert(_moduli(count=1)[0])
        # At least one fsync came from the level-file appends (the journal
        # and the atomic manifest/hits writes account for the rest).
        assert synced
        level_files = list((tmp_path / "store" / "nodes").glob("level-*.jsonl"))
        assert level_files


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestCheckpointCleanup:
    def test_clustered_jobs_leave_no_checkpoints(self, tmp_path):
        state_dir = tmp_path / "state"
        checkpoints = state_dir / "checkpoints"
        config = ServiceConfig(state_dir=str(state_dir))
        queue = JobQueue(state_dir)
        inner = KeyCheckRunner(config, checkpoint_root=checkpoints)
        written = []

        def runner(job):
            outcome = inner(job)
            written.append(any((checkpoints / job.job_id).iterdir()))
            return outcome

        worker = ServiceWorker(queue, config=config, runner=runner, idle_wait=0.01)
        jobs = [queue.submit(_moduli(seed, count=4))[0] for seed in range(20)]
        worker.start()
        try:
            assert _wait_until(
                lambda: all(queue.get(job.job_id).status.is_terminal for job in jobs)
            )
        finally:
            worker.stop()
        assert {queue.get(job.job_id).status.value for job in jobs} == {"succeeded"}
        assert written == [True] * 20  # every run did checkpoint
        assert list(checkpoints.iterdir()) == []

    def test_retried_job_keeps_its_checkpoint_until_terminal(self, tmp_path):
        state_dir = tmp_path / "state"
        checkpoints = state_dir / "checkpoints"
        queue = JobQueue(state_dir, max_attempts=2)
        kept = []

        def runner(job):
            directory = checkpoints / job.job_id
            kept.append(directory.is_dir())
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "manifest.json").write_text("{}")
            raise RuntimeError("engine crashed")

        worker = ServiceWorker(
            queue,
            config=ServiceConfig(state_dir=str(state_dir)),
            runner=runner,
            idle_wait=0.01,
        )
        job, _ = queue.submit(_moduli())
        worker.start()
        try:
            assert _wait_until(lambda: queue.get(job.job_id).status.is_terminal)
        finally:
            worker.stop()
        assert queue.get(job.job_id).status.value == "failed"
        assert kept == [False, True]  # the retry found the first attempt's
        assert not (checkpoints / job.job_id).exists()

    def test_startup_sweeps_terminal_and_unknown_jobs(self, tmp_path):
        state_dir = tmp_path / "state"
        checkpoints = state_dir / "checkpoints"
        queue = JobQueue(state_dir)
        finished, _ = queue.submit(_moduli(1))
        queue.claim()
        queue.complete(finished.job_id, KeyCheckRunner(
            ServiceConfig(state_dir=str(state_dir))
        )(finished)[0])
        cancelled, _ = queue.submit(_moduli(2))
        queue.cancel(cancelled.job_id)
        waiting, _ = queue.submit(_moduli(3))
        for name in (finished.job_id, cancelled.job_id, waiting.job_id, "unknown-job"):
            (checkpoints / name).mkdir(parents=True)
            (checkpoints / name / "manifest.json").write_text("{}")
        queue.pause_all()  # the sweep alone runs; nothing is claimed

        worker = ServiceWorker(
            queue, config=ServiceConfig(state_dir=str(state_dir)), idle_wait=0.01
        )
        worker.start()
        try:
            assert _wait_until(
                lambda: sorted(p.name for p in checkpoints.iterdir()) == [waiting.job_id]
            )
        finally:
            worker.stop()
        assert queue.get(waiting.job_id).status.value == "queued"
