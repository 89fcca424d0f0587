"""Prime-number scaffolding: sieve, deterministic Miller-Rabin, factoring.

These are classical routines used as ground truth by the search and
verification code; nothing here is specific to Chebyshev arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

# Deterministic witness sets for Miller-Rabin (Jaeschke / Sorenson-Webster).
# First tuple is valid for n < 341_550_071_728_321 (~3.4e14), second for
# n < 3.317e24.  Beyond that the fixed bases make the test probabilistic,
# which is acceptable for the desk-scale scaffolding role it plays here.
_MR_BASES_SMALL = (2, 3, 5, 7, 11, 13, 17)
_MR_SMALL_LIMIT = 341_550_071_728_321
_MR_BASES_LARGE = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LARGE_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71)

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses the compositeness of n = d*2^s + 1, d odd."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_SMALL_LIMIT:
        bases = _MR_BASES_SMALL
    elif n < _MR_LARGE_LIMIT:
        bases = _MR_BASES_LARGE
    else:
        bases = _MR_BASES_LARGE + _MR_BASES_EXTRA
    return not any(_mr_witness(n, a, d, s) for a in bases)


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit."""
    return primes_in(2, limit + 1)


def _sieve_flags(lo: int, hi: int) -> np.ndarray:
    """Segmented sieve over [lo, hi), 2 <= lo < hi: uint8 flags, 1 exactly at
    the primes.  The one sieve body, behind primes_in and the composite mask
    of the pseudoprime scan."""
    flags = bytearray([1]) * (hi - lo)
    for p in primes_in(2, isqrt(hi - 1) + 1):
        start = max(p * p, (lo + p - 1) // p * p)
        flags[start - lo : hi - lo : p] = bytearray(len(range(start, hi, p)))
    return np.frombuffer(flags, np.uint8)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in the half-open range [lo, hi) by segmented sieve."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    return (np.flatnonzero(_sieve_flags(lo, hi)) + lo).tolist()


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division (desk scale)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, tested = 5, 0  # tested: the cofactor at the last primality test
    while f * f <= n:
        if n != tested and is_prime(tested := n):  # re-test only once a factor came out
            break
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=4096)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime factors, ascending (cached; keys of factorize)."""
    return tuple(factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi
