"""Residue-ring arithmetic for Chebyshev pairs.

The fundamental object is the unit omega_a = a + sqrt(a^2 - 1); its n-th
power is the pair

    omega_a^n = T_n(a) + U_{n-1}(a) * sqrt(a^2 - 1)

with T_n / U_n the Chebyshev polynomials of the first / second kind and the
convention U_{-1} = 0 (so n = 0 gives the identity pair (1, 0)).  Pairs
multiply like elements of Z[sqrt(a^2 - 1)]:

    (t1, u1) * (t2, u2) = (t1*t2 + (a^2-1)*u1*u2, t1*u2 + t2*u1)

and satisfy the Pell norm identity t^2 - (a^2-1)*u^2 = 1.  Every power is
computed by one Lucas V-sequence ladder, V_n = 2 T_n(a); U_{n-1} is read off
two consecutive V terms; _pair_pow_vec runs the pair ladder on int64 lanes
(m < 2^31).  All of it is exact integer arithmetic on canonical residues in [0, m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChebPair:
    """The pair (T_n(a), U_{n-1}(a)) mod m representing omega_a^n; all four
    fields are plain ints, t, u and a canonical in [0, m)."""

    t: int
    u: int
    a: int
    m: int

    def as_tuple(self) -> tuple[int, int]:
        return (self.t, self.u)

    def pell_defect(self) -> int:
        """t^2 - (a^2-1)u^2 - 1 mod m; zero for genuine powers of omega_a."""
        return (self.t**2 - (self.a * self.a - 1) * self.u**2 - 1) % self.m


def _lucas_v(a: int, n: int, m: int) -> tuple[int, int]:
    """(V_n, V_{n+1}) mod 2m, where V_k = 2 T_k(a) is the Lucas V-sequence
    with P = 2a, Q = 1.

    The one exponent-bit ladder of the package: V_{2k} = V_k^2 - 2 and
    V_{2k+1} = V_k V_{k+1} - P, two multiplications per bit.  Taken mod 2m,
    every V_k stays even, so V_n / 2 is T_n(a) mod m for every m >= 1 and
    no modular inverse is needed.
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    mm = 2 * m
    p = 2 * a % mm
    v0, v1 = 2 % mm, p
    for bit in bin(n)[2:]:  # n = 0 gives one 0 bit, which fixes (V_0, V_1) = (2, P)
        if bit == "1":
            v0, v1 = (v0 * v1 - p) % mm, (v1 * v1 - 2) % mm
        else:
            v0, v1 = (v0 * v0 - 2) % mm, (v0 * v1 - p) % mm
    return v0, v1


def _ladder_tu(a: int, n: int, m: int) -> tuple[int, int]:
    """(T_n(a), U_{n-1}(a)) mod m for a^2 - 1 a unit mod m.

    Reads U off the ladder through V_{n+1} - a V_n = 2 (a^2-1) U_{n-1}(a):
    halving mod 2m leaves (a^2-1) U_{n-1} mod m, and one inverse finishes.
    This is the domain of the Euler-criterion and pseudoprime machinery;
    cheb_eval covers every (a, m).
    """
    v0, v1 = _lucas_v(a, n, m)
    t = v0 >> 1
    u = ((v1 - a * v0) % (2 * m) >> 1) * pow(a * a - 1, -1, m) % m
    return t, u


def _pair_pow_vec(a: np.ndarray, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pair powering: lanes of (T_n(a), U_{n-1}(a)) mod m."""
    d = (a * a - 1) % m
    t, u = np.ones_like(a), np.zeros_like(a)
    st, su = a % m, np.ones_like(a)
    while n:
        if n & 1:
            t, u = (t * st % m + (d * u % m) * su) % m, (t * su % m + st * u % m) % m
        n >>= 1
        if n:
            st, su = (st * st % m + (d * su % m) * su) % m, 2 * st * su % m
    return t, u


def cheb_eval(a: int, n: int, m: int) -> ChebPair:
    """Evaluate omega_a^n mod m in O(log n) ring operations, for every a and m.

    With d = a^2 - 1 nonzero, the ladder runs mod 2m|d|, where the identity
    V_{n+1} - a V_n = 2d U_{n-1}(a) leaves U_{n-1} mod m after an exact
    division by 2d.  At a = 1, d = 0 and U_{n-1}(1) = n.
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    d = a * a - 1
    if d == 0:
        t, u = 1, n % m
    else:
        v0, v1 = _lucas_v(a, n, m * abs(d))
        t = (v0 >> 1) % m
        u = (v1 - a * v0) % (2 * m * abs(d)) // (2 * d) % m
    return ChebPair(t, u, a, m)


def cheb_t(a: int, n: int, m: int) -> int:
    """T_n(a) mod m."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    return _lucas_v(a, n, m)[0] >> 1


def cheb_compose_check(a: int, n: int, k: int, m: int) -> bool:
    """Self-test primitive: T_n(T_k(a)) == T_{nk}(a) == T_k(T_n(a)) mod m."""
    if n < 1 or k < 1:
        raise ValueError("exponents must be >= 1")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    tk = cheb_t(a, k, m)
    tn = cheb_t(a, n, m)
    tnk = cheb_t(a, n * k, m)
    return cheb_t(tk, n, m) == tnk and cheb_t(tn, k, m) == tnk


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n); the Legendre symbol when n is prime."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"jacobi symbol needs an odd modulus >= 3, got {n}")
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
