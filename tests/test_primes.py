"""Scaffolding checks against sympy as an independent oracle."""

import random
import time

import pytest
import sympy
from sympy.ntheory.primetest import is_extra_strong_lucas_prp, mr

from chebring.criteria import lucas_lehmer
from chebring.primes import (
    SIEVE_CAP,
    SIEVE_ROOT_CAP,
    ResourceLimitError,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    prime_factors,
    primes_in,
    primes_upto,
)


def test_primes_upto_matches_sympy():
    assert primes_upto(1000) == list(sympy.primerange(2, 1001))
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]


def test_primes_in_matches_full_sieve():
    assert primes_in(0, 10_001) == list(sympy.primerange(2, 10_001))
    assert primes_in(5000, 6000) == list(sympy.primerange(5000, 6000))
    assert primes_in(97, 98) == [97]
    assert primes_in(50, 50) == []


def test_sieve_caps_at_their_edges():
    assert len(primes_in(2, 2 + SIEVE_CAP)) == 1_077_871  # pi(2^24 + 1), 2^24 + 1 = 97 * 257 * 673
    top = (SIEVE_ROOT_CAP + 1) ** 2 - 1  # the largest hi with isqrt(hi) = SIEVE_ROOT_CAP
    assert primes_in(top - 1000, top) == list(sympy.primerange(top - 1000, top))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: primes_in(2, 3 + SIEVE_CAP), f"sieve window [2, {3 + SIEVE_CAP}) is wider than the cap of {SIEVE_CAP}"),
        (lambda: primes_upto(10**11), f"sieve window [2, {10**11 + 1}) is wider than the cap of {SIEVE_CAP}"),
        (
            lambda: primes_in((SIEVE_ROOT_CAP + 1) ** 2 - 1000, (SIEVE_ROOT_CAP + 1) ** 2),
            f"sieve bound {(SIEVE_ROOT_CAP + 1) ** 2} has a square root past the cap of {SIEVE_ROOT_CAP}",
        ),
        (lambda: primes_in(1 << 48, (1 << 48) + 1000), f"sieve bound {(1 << 48) + 1000} has a square root past the cap of {SIEVE_ROOT_CAP}"),
    ],
    ids=["wide", "upto-1e11", "root-edge", "window-at-2^48"],
)
def test_sieve_refuses_past_its_caps(call, message):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as refused:
        call()
    assert str(refused.value) == message
    assert time.perf_counter() - start < 1.0


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n)


# Strong pseudoprimes to the first k prime bases (OEIS A014233): each passes
# the strong test to base 2, so the Lucas step must reject it.  A fixed table
# of the first 12 prime bases passes 318665857834031151167461.
STRONG_PSEUDOPRIMES_FIRST_BASES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
# Extra-strong Lucas pseudoprimes (OEIS A217719): base 2 must reject each.
EXTRA_STRONG_LUCAS_PSEUDOPRIMES = (989, 3239, 5777, 10877, 27971, 29681, 30739, 31631, 39059, 72389, 73919, 75077)


def test_is_prime_pseudoprime_table():
    """Each table entry passes one half of BPSW and is composite (sympy's
    isprime, and its own two halves, as oracles)."""
    base2 = [n for n in range(3, 10**5, 2) if mr(n, [2]) and not sympy.isprime(n)]
    assert len(base2) == 16
    for n in STRONG_PSEUDOPRIMES_FIRST_BASES + EXTRA_STRONG_LUCAS_PSEUDOPRIMES + tuple(base2):
        assert not sympy.isprime(n), n
        assert not (mr(n, [2]) and is_extra_strong_lucas_prp(n)), n
        assert not is_prime(n), n
    assert all(mr(n, [2]) for n in STRONG_PSEUDOPRIMES_FIRST_BASES)
    assert all(is_extra_strong_lucas_prp(n) and not mr(n, [2]) for n in EXTRA_STRONG_LUCAS_PSEUDOPRIMES)
    assert not any(is_extra_strong_lucas_prp(n) for n in base2)


def test_is_prime_random_large():
    rng = random.Random(1)
    cases = [rng.randrange(10**9, 10**13) for _ in range(200)]
    cases += [rng.getrandbits(bits) | (1 << (bits - 1)) | 1 for bits in (64, 128, 256) for _ in range(300)]
    prime64 = [sympy.nextprime(rng.getrandbits(63) | (1 << 63)) for _ in range(100)]
    cases += [a * b for a, b in zip(prime64[::2], prime64[1::2])]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_mersenne_sized():
    """BPSW against the package's own Lucas-Lehmer route on every M_p, p < 608."""
    for p in primes_upto(607):
        assert is_prime((1 << p) - 1) == lucas_lehmer(p), p
    assert not is_prime((1 << 67) - 1)


def test_factorize_random():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(2, 10**8)
        f = factorize(n)
        assert f == dict(sympy.factorint(n))
        prod = 1
        for p, e in f.items():
            prod *= p**e
        assert prod == n


def test_factorize_large_factors_fast():
    """Primality is re-tested only when a factor comes out, so trial division
    to a 6-digit factor, or past a large prime cofactor, stays well under 1 s."""
    cases = (1000003 * 999983, 3**5 * 1000003, 2 * ((1 << 61) - 1), 999983**2, (1 << 61) - 1)
    start = time.perf_counter()
    found = [factorize(n) for n in cases]
    assert time.perf_counter() - start < 1.0
    assert found == [dict(sympy.factorint(n)) for n in cases]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_prime_factors_sorted_distinct():
    assert prime_factors(360) == (2, 3, 5)
    assert prime_factors(97) == (97,)


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_euler_phi_matches_sympy():
    for n in range(1, 500):
        assert euler_phi(n) == sympy.totient(n)
