"""Scaffolding checks against sympy as an independent oracle."""

import random
import time

import pytest
import sympy

from chebring.primes import (
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


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_random_large():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(10**9, 10**13)
        assert is_prime(n) == sympy.isprime(n)


def test_is_prime_mersenne_sized():
    m61 = (1 << 61) - 1
    assert is_prime(m61)
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
