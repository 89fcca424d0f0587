"""Prime-number scaffolding: sieve, Baillie-PSW primality, factoring.

These are classical routines used as ground truth by the search and
verification code.  is_prime is Baillie-PSW: a strong test to base 2, then
the extra-strong Lucas test on the package's own V-ladder (modarith._lucas_v),
with P = 2a and Q = 1 as in the paper's Chebyshev Euler criterion.  It is
proven correct below 2^64, and no composite is known to pass it above.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .modarith import _lucas_v, jacobi

_TINY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
SIEVE_CAP = 1 << 24  # widest sieve window: [2, 2^24) takes 0.24 s (2-CPU VM)
SIEVE_ROOT_CAP = 1 << 22  # largest sqrt(hi), the reach of its base primes: [2^44, 2^44 + 1000) takes 0.32 s


class ResourceLimitError(RuntimeError):
    """An input exceeds one of the package's size caps."""


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


def _extra_strong_lucas(n: int, p: int) -> bool:
    """True if odd n passes the extra-strong Lucas test with parameters (P, 1),
    for a P with (P^2 - 4 / n) = -1.

    With n + 1 = d*2^s, d odd: n passes if U_d = 0 and V_d = +-2, or if
    V_{d*2^r} = 0 for some 0 <= r < s - 1 (all mod n).  The ladder runs at
    a = P(n+1)/2, so that 2a = P mod n; U_d = 0 is read as P V_d = 2 V_{d+1},
    which holds exactly when D U_d = 2 V_{d+1} - P V_d vanishes, D a unit.
    """
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    v, w = _lucas_v(p * ((n + 1) // 2) % n, d, n)
    v, w = v % n, w % n
    if v in (2, n - 2) and (p * v - 2 * w) % n == 0:
        return True
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def is_prime(n: int) -> bool:
    """Baillie-PSW primality test.

    Trial division by the primes below 41, a strong test to base 2, then the
    extra-strong Lucas test with Q = 1 and the least P >= 3 with
    (P^2 - 4 / n) = -1 (Baillie's parameters).  Proven correct below 2^64
    (no base-2 strong pseudoprime there passes the Lucas step); above it the
    answer may in principle be wrong for a composite, but no such composite
    is known (Baillie-Fiori-Wagstaff 2021).
    """
    if n < 2:
        return False
    for p in _TINY_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if _mr_witness(n, 2, d, s) or isqrt(n) ** 2 == n:
        return False  # a square would stall the parameter search below
    p = 3
    while (j := jacobi(p * p - 4, n)) != -1:
        if j == 0 and (p * p - 4) % n:
            return False  # gcd(p^2 - 4, n) is a proper factor of n
        p += 1
    return _extra_strong_lucas(n, p)


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
    """Primes in the half-open range [lo, hi) by segmented sieve.  A window
    wider than SIEVE_CAP, or one whose base primes pass SIEVE_ROOT_CAP, raises
    ResourceLimitError before anything is allocated; at both caps at once, a
    2^24-wide window at 2^44 takes 0.74 s (2-CPU VM)."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    if hi - lo > SIEVE_CAP:
        raise ResourceLimitError(f"sieve window [{lo}, {hi}) is wider than the cap of {SIEVE_CAP}")
    if isqrt(hi) > SIEVE_ROOT_CAP:
        raise ResourceLimitError(f"sieve bound {hi} has a square root past the cap of {SIEVE_ROOT_CAP}")
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
