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
two consecutive V terms by V_{n+1} - a V_n = 2(a^2-1) U_{n-1}(a), in one
reader (_ladder_tu) and with no modular inverse.  The values T_1(a), T_2(a),
... in a row are one walk of T_{k+1} = 2a T_k - T_{k-1} (_t_walk), which can
stop at a first hit; a run of known length, for several bases at once, is
filled by doubling through T_{b+i} = 2T_b T_i - T_{b-i} (_t_rows).  The
lane helpers run on int64 numpy lanes, one candidate per lane: _pow_vec
(modpow) and _t_ladder_vec (the one vector Chebyshev ladder), with per-lane
exponents and moduli.  The ladder takes each product as one int64 product
while every modulus is below 2^31, and on two limbs where m = p^2 reaches
2^31.  All of it is exact integer arithmetic on canonical residues in
[0, m).
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


def _t_walk(a: int, m: int):
    """T_1(a), T_2(a), ... mod m, without end, by T_{k+1} = 2a T_k - T_{k-1}."""
    prev, cur = 1, a % m
    while True:
        yield cur
        prev, cur = cur, (2 * a * cur - prev) % m


def _t_rows(a, m: int, size: int) -> np.ndarray:
    """T_0(a_r), ..., T_{size-1}(a_r) mod m for each entry a_r of a, as the
    rows of one int64 array of shape (len(a), size), for 2 <= m < 2^31.

    The walk of _t_walk filled by doubling: given T_0 ... T_b, the product
    formula T_{b+i} = 2 T_b T_i - T_{b-i} gives T_{b+1} ... T_{2b} at once,
    so the rows take ceil(log2 size) numpy steps.  Every product 2 T_b T_i
    is below 2(m - 1)^2 < 2^63, which is where m < 2^31 comes from.
    """
    a = np.asarray(a, dtype=np.int64) % m
    t = np.empty((a.size, size), dtype=np.int64)
    t[:, :1] = 1
    t[:, 1:2] = a[:, None]
    b = 1
    while b < size - 1:
        i = min(b, size - 1 - b)
        step = 2 * t[:, b : b + 1] * t[:, 1 : i + 1] - t[:, b - i : b][:, ::-1]
        np.remainder(step, m, out=t[:, b + 1 : b + i + 1])
        b += i
    return t


def _ladder_tu(a: int, n: int, m: int) -> tuple[int, int]:
    """(T_n(a), U_{n-1}(a)) mod m for a in [0, m) and every m >= 2: the one
    reader of U in the package.

    With d = a^2 - 1 nonzero, the ladder runs mod 2m|d|, where the identity
    V_{n+1} - a V_n = 2d U_{n-1}(a) leaves U_{n-1} mod m after an exact
    division by 2d, so no inverse is taken.  At a = 1, d = 0 and
    U_{n-1}(1) = n.
    """
    d = a * a - 1
    if d == 0:
        return 1, n % m
    md = m * abs(d)
    v0, v1 = _lucas_v(a, n, md)
    return (v0 >> 1) % m, (v1 - a * v0) % (2 * md) // (2 * d) % m


def _residues(x: int, m: np.ndarray) -> np.ndarray:
    """x mod each lane of m, for a Python int x of any size."""
    if -(1 << 62) <= x < 1 << 62:
        return np.int64(x) % m
    return np.array([x % int(v) for v in m], dtype=np.int64)


def _pow_vec(base: np.ndarray, e, m) -> np.ndarray:
    """base^e mod m on int64 lanes; the exponents e >= 0 and the moduli
    2 <= m < 2^31 are ints or arrays with one entry per lane of base.  Right
    to left over the bits of e, so lanes with shorter exponents just stop
    picking up factors."""
    b = base % m
    r = np.ones_like(b)
    for i in range(int(np.max(e)).bit_length()):
        if i:
            b = b * b % m
        r = np.where(e >> i & 1 == 1, r * b % m, r)
    return r


def _mulmod_p2(x: np.ndarray, y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x * y mod p^2 for residues below p^2, p < 2^31, on two limbs x0 + x1*p:
    every product is below 2^62 and the limb sum below 2^63."""
    x1, x0 = np.divmod(x, p)
    y1, y0 = np.divmod(y, p)
    c1, c0 = np.divmod(x0 * y0, p)
    return c0 + (c1 + x0 * y1 + x1 * y0) % p * p


def _t_ladder_vec(
    a: np.ndarray, k: np.ndarray, m: np.ndarray, p: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """T-ladder on int64 lanes: (T_k(a), T_{k+1}(a)) mod m, with a in [0, m);
    k and m are arrays with one entry per lane of a, or ints shared by every
    lane.

    Each bit of k maps (T_j, T_{j+1}) to (T_2j, T_2j+1) or (T_2j+1, T_2j+2)
    through T_2j = 2T_j^2 - 1 and T_2j+1 = 2T_j T_j+1 - a.  Leading zero bits
    keep (T_0, T_1) = (1, a), so exponents of every length share one loop.
    The moduli pick the product: while every m is below 2^31, a step is one
    int64 product reduced once, (2xy - c) mod m, as 2(m - 1)^2 < 2^63; past
    it m must be p^2 with p < 2^31 given, and each product is taken on two
    limbs.
    """
    if int(np.max(m)) < 1 << 31:
        step = lambda x, y, c: (2 * x * y - c) % m
    else:
        step = lambda x, y, c: (2 * _mulmod_p2(x, y, p) - c) % m
    t0, t1 = np.ones_like(a), a
    nbits = int(np.max(k)).bit_length()
    for i in range(nbits - 1, -1, -1):
        bit = k >> i & 1 == 1
        cross = step(t0, t1, a)
        sq = np.where(bit, t1, t0)
        sq = step(sq, sq, 1)
        t0, t1 = np.where(bit, cross, sq), np.where(bit, sq, cross)
    return t0, t1


def cheb_eval(a: int, n: int, m: int) -> ChebPair:
    """Evaluate omega_a^n mod m in O(log n) ring operations, for every a and m,
    through _ladder_tu."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a %= m
    return ChebPair(*_ladder_tu(a, n, m), a, m)


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
