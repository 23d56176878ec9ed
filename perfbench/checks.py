"""Output checks, computed apart from the program, and their planted wrongs.

Each ``*_problems`` function returns a list of human-readable problems
(empty = correct).  Each ``*_planted`` function feeds its checker a copy
of real output with one planted wrong -- a dropped share, a corrupted
factor -- and returns a problem for every wrong the checker let through,
so every run shows that its checks can fail.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
from pathlib import Path
from typing import Any

from inputs import is_prime

# -- study ---------------------------------------------------------------

#: Reference digests per study world; ``python3 perfbench/run.py --regen-digests``
#: rewrites them.
REFERENCE_PATH = Path(__file__).resolve().parent / "study_digests.json"


def canonical(value: Any) -> str:
    """A stable text form of a result object (no ids, no hash order)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        inner = ",".join(
            f"{f.name}={canonical(getattr(value, f.name))}" for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({inner})"
    if isinstance(value, dict):
        items = sorted(f"{canonical(k)}:{canonical(v)}" for k, v in value.items())
        return "{" + ",".join(items) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def study_digest(result: Any) -> str:
    """SHA-256 over divisors, ground truth, tables 1-5 and the series."""
    h = hashlib.sha256()
    for part in (
        result.batch_result.divisors,
        result.weak_moduli_truth,
        result.table1,
        result.table2,
        result.table3,
        result.table4,
        result.table5,
        result.series,
    ):
        h.update(canonical(part).encode())
        h.update(b"\n")
    return h.hexdigest()


#: Smallest share of the scanned weak moduli the study must factor cleanly.
MIN_RECALL = 0.75


def study_problems(data: dict, reference: str | None) -> list[str]:
    """``data``: moduli, divisors, clean {n: (p, q)}, truth, bit_errors, digest."""
    problems = []
    for n, d in zip(data["moduli"], data["divisors"]):
        if d != 1 and (d < 1 or n % d):
            problems.append(f"divisor {d:x} does not divide {n:x}")
            break
    clean = data["clean"]
    if not set(clean) <= data["truth"]:
        problems.append(f"{len(set(clean) - data['truth'])} clean moduli are not weak in truth")
    for n, (p, q) in clean.items():
        if p * q != n or not (1 < p < n) or not is_prime(p) or not is_prime(q):
            problems.append(f"clean modulus {n:x} has bad factors")
            break
    if set(clean) & data["bit_errors"]:
        problems.append("a bit-error modulus is counted as vulnerable")
    scanned = data["truth"] & set(data["moduli"])
    recall = len(scanned & set(clean)) / max(1, len(scanned))
    if recall < MIN_RECALL:
        problems.append(f"recall {recall:.3f} on scanned truth < {MIN_RECALL}")
    if reference is not None and data["digest"] != reference:
        problems.append(f"result digest {data['digest']} != reference {reference}")
    return problems


def study_planted(data: dict, reference: str | None) -> list[str]:
    some = next(iter(data["clean"]))
    index = data["moduli"].index(some)
    wrongs = {}
    bad = copy.copy(data)
    bad["divisors"] = list(data["divisors"])
    bad["divisors"][index] += 2
    wrongs["corrupted divisor"] = bad
    bad = copy.copy(data)
    p, q = data["clean"][some]
    bad["clean"] = {**data["clean"], some: (p + 2, q)}
    wrongs["corrupted factor"] = bad
    bad = copy.copy(data)
    bad["clean"] = dict(list(data["clean"].items())[: len(data["clean"]) // 2])
    wrongs["half the shares dropped"] = bad
    bad = copy.copy(data)
    bad["truth"] = data["truth"] - {some}
    wrongs["factored modulus not weak in truth"] = bad
    bad = copy.copy(data)
    bad["bit_errors"] = data["bit_errors"] | {some}
    wrongs["bit error counted as vulnerable"] = bad
    bad = copy.copy(data)
    bad["digest"] = "0" * 64
    wrongs["changed digest"] = bad
    return [
        f"study check missed planted wrong: {name}"
        for name, bad in wrongs.items()
        if not study_problems(bad, reference or data["digest"])
    ]


# -- batchgcd -------------------------------------------------------------


def batchgcd_problems(lines: list[str], corpus) -> list[str]:
    """Output lines ``n p q`` (hex) against the planted corpus."""
    problems = []
    flagged = set()
    for line in lines:
        parts = line.split()
        if len(parts) != 3:
            problems.append(f"malformed line {line!r}")
            continue
        n = int(parts[0], 16)
        flagged.add(n)
        if parts[1] == "-":
            if n != corpus.duplicate:
                problems.append(f"{n:x} flagged but not split")
            continue
        p, q = int(parts[1], 16), int(parts[2], 16)
        if p * q != n or not 1 < p < n or p not in corpus.primes:
            problems.append(f"bad split of {n:x}")
    expected = corpus.weak | {corpus.duplicate}
    if flagged != expected:
        problems.append(
            f"flagged set differs: {len(flagged - expected)} unexpected, "
            f"{len(expected - flagged)} missed"
        )
    return problems


def batchgcd_planted(lines: list[str], corpus) -> list[str]:
    split = [line for line in lines if "-" not in line.split()]
    first = split[0].split()
    healthy = next(n for n in corpus.moduli if n not in corpus.weak and n != corpus.duplicate)
    wrongs = {
        "dropped share": [line for line in lines if line != split[0]],
        "corrupted factor": [
            f"{first[0]} {int(first[1], 16) + 2:x} {first[2]}" if line == split[0] else line
            for line in lines
        ],
        "healthy modulus flagged": lines + [f"{healthy:x} - -"],
    }
    return [
        f"batchgcd check missed planted wrong: {name}"
        for name, bad in wrongs.items()
        if not batchgcd_problems(bad, corpus)
    ]


# -- service / ingest -------------------------------------------------------


def job_problems(index: int, result: dict, stream) -> list[str]:
    """One job's ``GET /v1/jobs/<id>/result`` body against its planted shares."""
    moduli = stream.jobs[index]
    flagged = {int(i) for i, _d in result.get("divisors", [])}
    problems = []
    if flagged != stream.expected[index]:
        problems.append(f"job {index}: flagged {sorted(flagged)} != {sorted(stream.expected[index])}")
    split = {int(f["modulus"], 16): (int(f["p"], 16), int(f["q"], 16))
             for f in result.get("factored", [])}
    for i in stream.expected[index]:
        n = moduli[i]
        p, q = split.get(n, (0, 0))
        if p * q != n or p not in stream.primes or q not in stream.primes:
            problems.append(f"job {index}: modulus {i} not split into its primes")
    if result.get("moduli_checked") != len(moduli):
        problems.append(f"job {index}: moduli_checked {result.get('moduli_checked')}")
    return problems


def job_planted(index: int, result: dict, stream) -> list[str]:
    """Planted wrongs on a job that carries a share."""
    dropped = dict(result, divisors=result["divisors"][1:])
    factored = [dict(f) for f in result["factored"]]
    factored[0]["p"] = f"{int(factored[0]['p'], 16) + 2:x}"
    corrupted = dict(result, factored=factored)
    healthy = next(i for i in range(len(stream.jobs[index])) if i not in stream.expected[index])
    extra = dict(result, divisors=result["divisors"] + [[healthy, "3"]])
    wrongs = {"dropped share": dropped, "corrupted factor": corrupted,
              "healthy modulus flagged": extra}
    return [
        f"job check missed planted wrong: {name}"
        for name, bad in wrongs.items()
        if not job_problems(index, bad, stream)
    ]
