"""Tests for repro.numt.primality (Baillie–PSW and prime search)."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.numt import primality
from repro.numt.primality import is_probable_prime, next_prime, random_prime
from repro.numt.sieve import primes_below


# -- the Miller–Rabin test Baillie–PSW replaced, kept as a test oracle ----

_ORACLE_BOUND = 3_317_044_064_679_887_385_961_981
_ORACLE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _oracle_round(n, d, r, a):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _oracle(n, rounds=32):
    """Trial division below 200, then Miller–Rabin: the 13 deterministic
    witnesses below 3.3e24 (Sorenson & Webster), 32 witnesses seeded from
    ``n`` above."""
    if n < 2:
        return False
    for p in primes_below(200):
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _ORACLE_BOUND:
        witnesses = _ORACLE_WITNESSES
    else:
        rng = random.Random(n)
        witnesses = [2] + [rng.randrange(2, n - 1) for _ in range(rounds)]
    return all(_oracle_round(n, d, r, a) for a in witnesses)


STRONG_BASE2_PSEUDOPRIMES = (
    2047, 3277, 4033, 4681, 8321, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051,
)
# Strong Lucas pseudoprimes for Selfridge's method A parameters (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
)
# The first sixteen Carmichael numbers.
CARMICHAEL_NUMBERS = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361,
)


def _chernick_carmichaels(count):
    """Carmichael numbers (6k+1)(12k+1)(18k+1) whose three factors are prime
    and lie above the trial-division table, so they reach the strong tests."""
    found = []
    k = 300
    while len(found) < count:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(_oracle(f) for f in factors):
            found.append(factors)
        k += 1
    return found


class TestIsProbablePrime:
    def test_small_primes(self):
        expected = set(primes_below(200))
        for n in range(200):
            assert is_probable_prime(n) == (n in expected), n

    def test_negative_and_edge(self):
        assert not is_probable_prime(-7)
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)

    def test_known_mersenne_primes(self):
        for exponent in (13, 17, 19, 31, 61, 89, 107, 127):
            assert is_probable_prime(2**exponent - 1), exponent

    def test_known_mersenne_composites(self):
        for exponent in (11, 23, 29, 37, 41):
            assert not is_probable_prime(2**exponent - 1), exponent

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes to every coprime base must not fool the
        # strong tests.
        for carmichael in CARMICHAEL_NUMBERS:
            assert not is_probable_prime(carmichael), carmichael
        for factors in _chernick_carmichaels(20):
            n = math.prod(factors)
            assert all((n - 1) % (f - 1) == 0 for f in factors)  # Korselt
            assert not is_probable_prime(n), factors

    def test_strong_pseudoprimes_base2_rejected(self):
        # Strong pseudoprimes to base 2 pass the base-2 round; the Lucas
        # test catches them.
        for n in STRONG_BASE2_PSEUDOPRIMES:
            assert primality._strong_base2(n), n
            assert not is_probable_prime(n), n

    def test_strong_lucas_pseudoprimes_rejected(self):
        # The Lucas half alone is fooled; BPSW as a whole is not.
        for n in STRONG_LUCAS_PSEUDOPRIMES:
            assert primality._strong_lucas(n), n
            assert not is_probable_prime(n), n

    def test_squares_of_primes_rejected(self):
        # 1093**2 and 3511**2 (Wieferich primes) are strong base-2
        # pseudoprimes; 3511 lies above the trial-division table, so only the
        # perfect-square guard stops 3511**2 reaching the Lucas search.
        assert primality._strong_base2(3511**2)
        for p in (3, 101, 257, 1093, 1621, 3511, 65537, 2**61 - 1, next_prime(2**100)):
            assert not is_probable_prime(p * p), p

    def test_large_prime_beyond_deterministic_bound(self):
        # A 200-bit prime, far above the 2**64 bound of the exactness proof.
        p = next_prime(10**60)
        assert is_probable_prime(p)
        assert not is_probable_prime(p + 1)

    @given(st.integers(min_value=2, max_value=10_000))
    def test_matches_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial

    @given(st.integers(min_value=2, max_value=2**40))
    @settings(max_examples=50)
    def test_composite_products_rejected(self, a):
        assert not is_probable_prime(a * (a + 2) * 2)


class TestNextPrime:
    def test_small_values(self):
        assert next_prime(0) == 2
        assert next_prime(2) == 3
        assert next_prime(3) == 5
        assert next_prime(13) == 17

    def test_strictly_greater(self):
        assert next_prime(17) == 19

    def test_after_even(self):
        assert next_prime(90) == 97


class TestRandomPrime:
    def test_exact_bit_length(self, rng):
        for bits in (16, 32, 64, 129):
            p = random_prime(bits, rng)
            assert p.bit_length() == bits
            assert is_probable_prime(p)

    def test_two_bit(self, rng):
        assert random_prime(2, rng) in (2, 3)

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            random_prime(1, rng)

    def test_deterministic_given_seed(self):
        a = random_prime(64, random.Random(42))
        b = random_prime(64, random.Random(42))
        assert a == b


class TestWitnessDeterminism:
    """Regression: the test's answer must depend on ``n`` alone across runs
    (witnesses once defaulted to an unseeded random.Random(), which
    silently broke bit-identical pipelines — DET001).  Baillie–PSW draws
    no witnesses at all."""

    # Primes and composites above the old 3.3e24 deterministic-witness bound.
    LARGE_PRIME = 2**89 - 1
    LARGE_COMPOSITE = (2**89 - 1) * (2**107 - 1)

    def test_constructs_no_rng(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("is_probable_prime constructed a random.Random")

        monkeypatch.setattr(random, "Random", forbidden)
        assert is_probable_prime(self.LARGE_PRIME)
        assert not is_probable_prime(self.LARGE_COMPOSITE)
        assert is_probable_prime(next_prime(2**512))

    def test_witnesses_identical_across_processes(self):
        import subprocess
        import sys

        code = (
            "from repro.numt.primality import is_probable_prime\n"
            f"print(is_probable_prime({self.LARGE_PRIME}), "
            f"is_probable_prime({self.LARGE_COMPOSITE}))\n"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(seed)},
            ).stdout
            for seed in ("1", "2")
        }
        assert outputs == {"True False\n"}


class TestBailliePswDifferential:
    def test_matches_sieve_below_one_million(self):
        limit = 10**6
        primes = set(primes_below(limit))
        mismatches = [n for n in range(limit) if is_probable_prime(n) != (n in primes)]
        assert mismatches == []

    @pytest.mark.parametrize("bits", [64, 96, 128, 512])
    def test_matches_oracle_on_random_odd_candidates(self, bits):
        rng = random.Random(bits)
        found = 0
        for _ in range(10_000):
            n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
            expected = _oracle(n)
            assert is_probable_prime(n) == expected, n
            found += expected
        assert found > 0

    def test_matches_deterministic_witnesses_up_to_old_bound(self):
        rng = random.Random(2**64)
        found = 0
        for _ in range(10_000):
            n = rng.randrange(2**64, _ORACLE_BOUND) | 1
            expected = _oracle(n)
            assert is_probable_prime(n) == expected, n
            found += expected
        assert found > 0
