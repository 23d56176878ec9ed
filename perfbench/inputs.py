"""Seeded benchmark inputs, built apart from the program under test.

Every prime here comes from this module's own Miller-Rabin search, never
from ``repro``, so the output checks compare the program against numbers
it did not make.  The same ``--seed`` always yields the same inputs.

The 512-bit primes behind the ``batchgcd`` workload's 1024-bit moduli
cost ~27 ms each in pure Python, so one seed-independent pool of them is
generated once per checkout and cached under ``perfbench/.cache``; each
seed then draws its own pairing of the pool.  Everything else is cheap
enough to generate on every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

CACHE_DIR = Path(__file__).resolve().parent / ".cache"

_SMALL_PRIMES = [p for p in range(3, 2000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _strong_probable_prime(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int, rounds: int = 8) -> bool:
    """Miller-Rabin with base 2 plus ``rounds`` bases drawn from ``n``."""
    if n < 2000:
        return n == 2 or n in _SMALL_PRIMES
    if math.gcd(n, _PRIMORIAL) != 1 or not _strong_probable_prime(n, 2):
        return False
    rng = random.Random(n)
    return all(_strong_probable_prime(n, rng.randrange(3, n - 1)) for _ in range(rounds))


def random_prime(bits: int, rng: random.Random) -> int:
    """A uniform prime of exactly ``bits`` bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def prime_pool(bits: int, count: int) -> list[int]:
    """``count`` distinct ``bits``-bit primes, cached across runs."""
    path = CACHE_DIR / f"primes-{bits}-{count}.txt"
    if path.exists():
        pool = [int(line, 16) for line in path.read_text().split()]
        if len(pool) == count:
            return pool
    rng = random.Random(f"perfbench-pool|{bits}|{count}")
    seen: set[int] = set()
    pool = []
    while len(pool) < count:
        p = random_prime(bits, rng)
        if p not in seen:
            seen.add(p)
            pool.append(p)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text("".join(f"{p:x}\n" for p in pool))
    tmp.replace(path)
    return pool


@dataclass
class BatchCorpus:
    """The ``batchgcd`` input and what the benchmark planted in it.

    Attributes:
        moduli: the file's moduli, in order.
        primes: every prime used (the checks accept no other factor).
        weak: moduli planted to share a prime with another, distinct one.
        duplicate: the modulus listed twice (flagged, cannot be split).
    """

    moduli: list[int]
    primes: set[int]
    weak: set[int]
    duplicate: int


#: Make-up of the ``batchgcd`` corpus (see README.md).
BATCH_MODULI = 1200
BATCH_PRIME_BITS = 512
BATCH_POOL_PRIMES = 6  # entropy-starved devices drawing from a few primes
BATCH_POOL_MODULI = 30
BATCH_PAIRS = 4  # full-share pairs
BATCH_CLIQUE = 9  # IBM-like: every pair of 9 primes


def batch_pool_size() -> int:
    weak = BATCH_POOL_MODULI + 2 * BATCH_PAIRS + BATCH_CLIQUE * (BATCH_CLIQUE - 1) // 2
    healthy = BATCH_MODULI - weak - 2  # two lines carry the duplicate
    return (
        BATCH_POOL_PRIMES + BATCH_POOL_MODULI + 3 * BATCH_PAIRS + BATCH_CLIQUE
        + 2 * (healthy + 1)
    )


def batch_corpus(seed: int) -> BatchCorpus:
    """1 200 1024-bit moduli with a planted weak share, shuffled per seed."""
    primes = prime_pool(BATCH_PRIME_BITS, batch_pool_size())
    rng = random.Random(f"perfbench-batchgcd|{seed}")
    fresh = iter(rng.sample(primes, len(primes)))
    weak: list[int] = []
    pool = [next(fresh) for _ in range(BATCH_POOL_PRIMES)]
    weak += [pool[i % BATCH_POOL_PRIMES] * next(fresh) for i in range(BATCH_POOL_MODULI)]
    for _ in range(BATCH_PAIRS):
        shared = next(fresh)
        weak += [shared * next(fresh), shared * next(fresh)]
    clique = [next(fresh) for _ in range(BATCH_CLIQUE)]
    weak += [clique[i] * clique[j] for i in range(BATCH_CLIQUE) for j in range(i + 1, BATCH_CLIQUE)]
    duplicate = next(fresh) * next(fresh)
    moduli = weak + [duplicate, duplicate]
    while len(moduli) < BATCH_MODULI:
        moduli.append(next(fresh) * next(fresh))
    rng.shuffle(moduli)
    return BatchCorpus(moduli, set(primes), set(weak), duplicate)


@dataclass
class JobStream:
    """The service workloads' jobs and their planted shares.

    Attributes:
        jobs: each job's moduli, in submission order.
        primes: every prime used.
        expected: per job, the indices a correct result flags.
        factors: modulus -> its two primes.
    """

    jobs: list[list[int]]
    primes: set[int]
    expected: list[set[int]]
    factors: dict[int, tuple[int, int]] = field(default_factory=dict)


SERVICE_JOBS = 120
INGEST_JOBS = 120
JOB_MODULI = 4
JOB_PRIME_BITS = 128
PLANT_EVERY = 8  # one job in eight carries a planted share


def job_stream(seed: int, kind: str, jobs: int) -> JobStream:
    """Small jobs of 256-bit moduli with planted shares.

    ``kind="service"`` plants the share inside one job (two of its moduli
    share a prime), since clustered jobs are checked only against
    themselves.  ``kind="ingest"`` plants it across jobs (one modulus
    reuses a prime of an earlier job), since incremental jobs are checked
    against everything ingested before them.
    """
    rng = random.Random(f"perfbench-{kind}|{seed}")
    used: set[int] = set()

    def fresh() -> int:
        while True:
            p = random_prime(JOB_PRIME_BITS, rng)
            if p not in used:
                used.add(p)
                return p

    stream = JobStream([], used, [])
    history: list[int] = []
    for j in range(jobs):
        pairs = [(fresh(), fresh()) for _ in range(JOB_MODULI)]
        planted = j % PLANT_EVERY == PLANT_EVERY - 1
        if planted and kind == "service":
            pairs[-1] = (pairs[0][0], pairs[-1][1])
        elif planted:
            pairs[-1] = (rng.choice(history), pairs[-1][1])
        moduli = [p * q for p, q in pairs]
        for n, pq in zip(moduli, pairs):
            stream.factors[n] = pq
        history += [p for pair in pairs for p in pair]
        stream.jobs.append(moduli)
    # Expected flags follow from the planted primes alone: a modulus is
    # flagged when a prime of it occurs in another modulus the job is
    # checked against (its own job, plus earlier jobs under ingest).
    seen: dict[int, int] = {}
    for moduli in stream.jobs:
        if kind == "service":
            seen = {}
        counts = dict(seen)
        for n in moduli:
            for p in stream.factors[n]:
                counts[p] = counts.get(p, 0) + 1
        stream.expected.append(
            {i for i, n in enumerate(moduli) if any(counts[p] > 1 for p in stream.factors[n])}
        )
        seen = counts
    return stream
