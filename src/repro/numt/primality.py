"""Baillie–PSW primality testing and prime search.

:func:`is_probable_prime` is the Baillie–PSW test: a strong probable-prime
test to base 2 followed by a strong Lucas probable-prime test with
Selfridge's parameters.  It is exact for every ``n < 2**64`` (Feitsma and
Galway's enumeration of the base-2 strong pseudoprimes below 2**64 contains
no strong Lucas pseudoprime), no composite passing it is known above that,
and it uses no randomness, so its answer depends on ``n`` alone.  This is
the primality backend for all prime generation in :mod:`repro.crypto.primes`.
"""

from __future__ import annotations

import math
import random

from repro.numt.sieve import first_n_primes

__all__ = ["is_probable_prime", "next_prime", "random_prime"]

_SMALL_PRIMES = first_n_primes(256)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_MAX_SMALL_PRIME = _SMALL_PRIMES[-1]

# One gcd against the primorial of the small primes replaces 256 trial
# divisions; candidates from random prime search are overwhelmingly rejected
# here, which dominates bulk key-generation throughput.
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _strong_base2(n: int) -> bool:
    """Return True if odd ``n`` is a strong probable prime to base 2."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a / n)`` for odd positive ``n``."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's method A parameters.

    ``n`` must be odd, greater than every candidate ``|D|`` the search can
    reach and not a perfect square (for squares no ``D`` has Jacobi symbol
    -1, so the search would not end).
    """
    # D is the first of 5, -7, 9, -11, ... with (D / n) = -1.  A zero symbol
    # means gcd(|D|, n) > 1, and as n > |D| that makes n composite.
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # n + 1 = d * 2**s with d odd; walk the binary Lucas chain for U_d, V_d
    # (P = 1), halving mod n via "add n if odd, then shift".
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            if U & 1:
                U += n
            if V & 1:
                V += n
            U = (U >> 1) % n
            V = (V >> 1) % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie–PSW primality test (exact below ``2**64``; deterministic)."""
    if n < 2:
        return False
    if n <= _MAX_SMALL_PRIME:
        return n in _SMALL_PRIME_SET
    if math.gcd(n, _PRIMORIAL) != 1:
        return False
    # A lone base-2 round rejects nearly all remaining composites cheaply;
    # only its survivors pay for the square guard and the Lucas chain.
    if not _strong_base2(n):
        return False
    if math.isqrt(n) ** 2 == n:
        return False
    return _strong_lucas(n)


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = max(n + 1, 2)
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_probable_prime(candidate):
        candidate += 2
    return candidate


def random_prime(bits: int, rng: random.Random) -> int:
    """Return a uniformly-sampled prime of exactly ``bits`` bits.

    Candidates are drawn with the top bit forced (so the bit length is exact)
    and the bottom bit forced (odd), then tested with Baillie–PSW.

    Raises:
        ValueError: if ``bits < 2`` (no primes of that size exist).
    """
    if bits < 2:
        raise ValueError(f"no primes with {bits} bits")
    if bits == 2:
        return rng.choice((2, 3))
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate):
            return candidate
