"""The performance ledger: one command, three gated workloads.

    python3 perfbench/run.py --workload study|batchgcd|ingest|service \\
        --seed N --seconds S --trace 0|1

Runs the program from ``src`` of the checkout it sits in.  A run takes
set-up samples, then repeats whole rounds of the workload until the next
round would end past ``--seconds``, checks every output against the
benchmark's own computations, prints each metric with its unit, and ends
with one JSON line: ``correct``, ``attempted``, ``failed``, ``metrics``.

``service`` runs on demand but is not in BENCHMARK.json (README.md says
why).  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the layer wrappers of ``tracer.py``
installed in every program process, and reports the per-layer metrics.

    python3 perfbench/run.py --regen-digests

re-runs the study for every world and rewrites ``study_digests.json``.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
from statistics import median
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import ROOT, calibrate_ms, percentile  # noqa: E402
from tracer import merge  # noqa: E402
from workloads import SETUP_REPEATS, STUDY_WORLDS, WORKLOADS, make  # noqa: E402

#: name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "moduli_per_s": "1/s",
}
STAGES = ("world_build", "timeline_walk", "corpus", "batch_gcd", "fingerprint", "analysis")
PER_LAYER = {
    "host.calib_ms": "ms",
    "telemetry.trace_overhead_s": "s",
    **{f"pipeline.{stage}_s": "s" for stage in STAGES},
    "numt.primality.calls": "count",
    "numt.primality.s": "s",
    "crypto.certs.fingerprint.calls": "count",
    "crypto.certs.fingerprint.s": "s",
    "scans.records.intern.calls": "count",
    "numt.trees.product_tree.s": "s",
    "numt.trees.remainder_tree.s": "s",
    "numt.trees.prepare_reciprocals.s": "s",
    "numt.sharding.gcd_descent.s": "s",
    "numt.sharding.pruned_share": "ratio",
    "core.engine_run.s": "s",
    "core.tasks": "count",
    "core.results.resolve.s": "s",
    "core.results.resolved_per_job": "ratio",
    "faults.fsio.fsync_per_job": "count",
    "faults.recovery.chunks": "count",
    "service.queue.appends_per_job": "count",
    "service.queue.append.s": "s",
    "service.queue.replay.s": "s",
    "service.queue.journal_mb": "MB",
    "service.server.reads_per_job": "count",
    "service.worker.job.s": "s",
    "numt.incremental.store_open.s": "s",
    "numt.incremental.store_opens_per_job": "count",
    "numt.incremental.level_records_per_job": "count",
    "numt.incremental.insert.s": "s",
    "service.client.job_p50_ms": "ms",
    "service.client.job_p90_ms": "ms",
    "service.client.submit_p50_ms": "ms",
    "service.client.read_p50_ms": "ms",
    "service.client.restart_s": "s",
    "service.client.state_mb": "MB",
}


def run_rounds(
    workload, budget: float, trace: bool, first: int, setups: list[float] | None = None
) -> list[dict]:
    """Whole rounds until the next one would end past ``budget`` seconds.

    With ``setups``, a set-up sample is taken before each round, so that
    the samples spread over the run rather than over one host phase.
    """
    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        if setups is not None:
            setups.append(workload.setup_sample())
        round_started = time.perf_counter()
        rounds.append(workload.round(first + len(rounds), trace))
        rounds[-1]["duration"] = time.perf_counter() - round_started
        typical = median([r["duration"] for r in rounds])
        if time.perf_counter() - started + typical > budget:
            return rounds


def end_to_end(setups: list[float], rounds: list[dict]) -> dict[str, float]:
    done = [r for r in rounds if "wall_s" in r]
    return {
        "setup_s": median(setups + [r["setup_s"] for r in rounds]),
        "wall_s": median([r["wall_s"] for r in done]),
        "cpu_s": median([r["cpu_s"] for r in done]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in done]),
        "moduli_per_s": median([r["moduli"] / r["wall_s"] for r in done]),
    }


def _per(total: float, jobs: float) -> float:
    return total / jobs if jobs else 0.0


def layer_metrics(traced: dict, untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced round (plus client figures from untraced ones)."""
    t = merge(traced["traces"])
    calls, seconds, values = t["calls"], t["seconds"], t["values"]
    jobs = values["service.worker.jobs"]
    stages = traced.get("stages") or {}
    out = {f"pipeline.{stage}_s": stages.get(stage, 0.0) for stage in STAGES}
    out.update({
        "numt.primality.calls": calls["numt.primality"],
        "numt.primality.s": seconds["numt.primality"],
        "crypto.certs.fingerprint.calls": calls["crypto.certs.fingerprint"],
        "crypto.certs.fingerprint.s": seconds["crypto.certs.fingerprint"],
        "scans.records.intern.calls": calls["scans.records.intern"],
        "numt.trees.product_tree.s": seconds["numt.trees.product_tree"],
        "numt.trees.remainder_tree.s": seconds["numt.trees.remainder_tree"],
        "numt.trees.prepare_reciprocals.s": seconds["numt.trees.prepare_reciprocals"],
        "numt.sharding.gcd_descent.s": seconds["numt.sharding.gcd_descent"],
        "numt.sharding.pruned_share": _per(
            values["numt.sharding.pruned_pairs"], calls["numt.sharding.gcd_descent"]),
        "core.engine_run.s": seconds["core.engine_run"],
        "core.tasks": values["core.tasks"],
        "core.results.resolve.s": seconds["core.results.resolve"],
        "core.results.resolved_per_job": _per(
            values["core.results.resolved"], values["service.worker.job_moduli"]),
        "faults.fsio.fsync_per_job": _per(calls["faults.fsio.fsync"], jobs),
        "faults.recovery.chunks": values["faults.recovery.chunks"],
        "service.queue.appends_per_job": _per(calls["service.queue.append"], jobs),
        "service.queue.append.s": seconds["service.queue.append"],
        "service.queue.replay.s": seconds["service.queue.replay"],
        "service.queue.journal_mb": traced.get("journal_mb", 0.0),
        "service.server.reads_per_job": _per(calls["service.server.reads"], jobs),
        "service.worker.job.s": seconds["service.worker.job"],
        "numt.incremental.store_open.s": seconds["numt.incremental.store_open"],
        "numt.incremental.store_opens_per_job": _per(calls["numt.incremental.store_open"], jobs),
        "numt.incremental.level_records_per_job": _per(
            values["numt.incremental.level_records"], jobs),
        "numt.incremental.insert.s": seconds["numt.incremental.insert"],
    })
    served = [r for r in untraced if r.get("job")]
    jobs_ms = [s * 1000 for r in served for s in r["job"]]
    out.update({
        "service.client.job_p50_ms": median(jobs_ms) if jobs_ms else 0.0,
        "service.client.job_p90_ms": percentile(jobs_ms, 0.9) if len(jobs_ms) >= 100 else 0.0,
        "service.client.submit_p50_ms": median(
            [s * 1000 for r in served for s in r["submit"]]) if served else 0.0,
        "service.client.read_p50_ms": median(
            [s * 1000 for r in served for s in r["read"]]) if served else 0.0,
        "service.client.restart_s": median([r["restart_s"] for r in served]) if served else 0.0,
        "service.client.state_mb": median([r["state_mb"] for r in served]) if served else 0.0,
    })
    return out


def _wall(rounds: list[dict]) -> float:
    return median([r["wall_s"] for r in rounds if "wall_s" in r])


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    per_round = [layer_metrics(r, untraced) for r in traced if "wall_s" in r]
    out = {
        "host.calib_ms": calibrate_ms(),
        "telemetry.trace_overhead_s": _wall(traced) - _wall(untraced),
    }
    for name in PER_LAYER:
        if name not in out:
            out[name] = median([m[name] for m in per_round])
    return out


@contextlib.contextmanager
def scratch_dir(name: str) -> Iterator[Path]:
    """A fresh directory under ``perfbench/.run``, removed afterwards."""
    path = harness.BENCH_DIR / ".run" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def run(args: argparse.Namespace) -> dict:
    with scratch_dir(f"{args.workload}-{os.getpid()}") as run_dir:
        workload = make(args.workload, args.seed, run_dir)
        if args.trace:
            untraced = run_rounds(workload, args.seconds / 2, False, 0)
            traced = run_rounds(workload, args.seconds / 2, True, len(untraced))
            rounds = untraced + traced
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
        else:
            setups: list[float] = []
            rounds = run_rounds(workload, args.seconds, False, 0, setups)
            setups += [workload.setup_sample() for _ in range(SETUP_REPEATS - len(setups))]
            metrics = end_to_end(setups, rounds)
            units = END_TO_END
    problems = [p for r in rounds for p in r["problems"]]
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def regen_digests() -> None:
    """Run one untraced study per world and record its digest."""
    from checks import REFERENCE_PATH

    REFERENCE_PATH.write_text(json.dumps({"digests": {}}))
    digests = {}
    for world in range(STUDY_WORLDS):
        with scratch_dir(f"regen-{world}") as run_dir:
            result = make("study", world, run_dir).round(0, False)
        if result["failed"] or result["problems"]:
            raise SystemExit(f"world {world}: {result['problems'] or 'study failed'}")
        digests[str(world)] = result["digest"]
        print(f"world {world}: {digests[str(world)]}", flush=True)
    REFERENCE_PATH.write_text(json.dumps({
        "command": "python3 perfbench/run.py --regen-digests",
        "digests": digests,
    }, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.regen_digests:
        regen_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
