"""One ``study`` round in its own process: ``run_study`` plus its checks.

Run by ``run.py``, not by hand::

    python perfbench/study_child.py WORLD_SEED OUT.json [--setup-only] [--trace]

Prints ``READY`` once the program is imported and configured (the end of
set-up), runs one study, and writes its timings, resource use, result
digest and check outcomes to ``OUT.json``.  ``--trace`` installs the
layer wrappers and records the stage spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def study_config(world_seed: int):
    """The tiny preset with 96-bit device primes and smaller fleets.

    96-bit primes sit above the Miller-Rabin deterministic bound, so key
    generation takes the program's full primality path.  Fleets of at
    most 30 simulated units (the preset allows 120) make a study ~8 s, so
    a run takes the median of about three rounds rather than one ~18 s
    sample of a drifting host.  Naming the clustered engine without a
    worker count keeps ``auto`` from choosing a pool by
    ``os.cpu_count()``; the corpus (~4 600 moduli) is above the pool
    threshold.
    """
    from repro.devices.population import DivisorLimits
    from repro.studyconfig import StudyConfig

    return StudyConfig.tiny(world_seed).with_(
        device_prime_bits=96,
        device_limits=DivisorLimits(
            device_scale=25_000, min_total_sim=10, max_total_sim=30, min_weak_sim=3
        ),
        batchgcd_engine="clustered",
        batchgcd_processes=None,
    )


def main(argv: list[str]) -> int:
    world_seed, out = int(argv[0]), argv[1]
    traced = "--trace" in argv
    from repro.pipeline import STAGE_SPANS, run_study
    from repro.telemetry import Telemetry

    config = study_config(world_seed)
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    result = run_study(config, telemetry=Telemetry() if traced else None)
    wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)

    import checks

    data = {
        "moduli": result.batch_result.moduli,
        "divisors": result.batch_result.divisors,
        "clean": {n: (f.p, f.q) for n, f in result.fingerprints.factored_clean.items()},
        "truth": set(result.weak_moduli_truth),
        "bit_errors": {b.modulus for b in result.fingerprints.bit_errors},
        "digest": checks.study_digest(result),
    }
    with open(checks.REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)["digests"].get(str(world_seed))
    payload = {
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "moduli": len(result.batch_result.moduli),
        "digest": data["digest"],
        "problems": checks.study_problems(data, reference)
        + checks.study_planted(data, reference),
    }
    if traced:
        payload["trace"] = tracer.snapshot()
        payload["stages"] = {
            name: result.telemetry.find_span(name).wall_seconds for name in STAGE_SPANS
        }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
