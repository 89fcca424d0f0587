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
two consecutive V terms.  Everything here is exact integer arithmetic on
canonical residues in [0, m).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Modulus:
    """A modulus m >= 2; arbitrary precision."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"modulus must be >= 2, got {self.m}")


@dataclass(frozen=True)
class RingElement:
    """A canonical residue in [0, m)."""

    value: int
    modulus: Modulus

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.modulus.m:
            raise ValueError(f"residue {self.value} not canonical mod {self.modulus.m}")

    @property
    def m(self) -> int:
        return self.modulus.m


def element(value: int, m: int | Modulus) -> RingElement:
    """Build a RingElement, reducing value into canonical range."""
    mod = m if isinstance(m, Modulus) else Modulus(m)
    return RingElement(value % mod.m, mod)


@dataclass(frozen=True)
class ChebPair:
    """The pair (T_n(a), U_{n-1}(a)) mod m representing omega_a^n.

    The exponent n is bookkeeping only and does not take part in equality.
    """

    t: RingElement
    u: RingElement
    base: RingElement
    n: int = field(compare=False, default=0)

    def __post_init__(self) -> None:
        if not (self.t.modulus == self.u.modulus == self.base.modulus):
            raise ValueError("pair components must share one modulus")

    @property
    def m(self) -> int:
        return self.base.m

    def as_tuple(self) -> tuple[int, int]:
        return (self.t.value, self.u.value)

    def pell_defect(self) -> int:
        """t^2 - (a^2-1)u^2 - 1 mod m; zero for genuine powers of omega_a."""
        a, m = self.base.value, self.m
        return (self.t.value**2 - (a * a - 1) * self.u.value**2 - 1) % m


def identity_pair(a: RingElement) -> ChebPair:
    return ChebPair(element(1, a.modulus), element(0, a.modulus), a, 0)


def pair_mul(x: ChebPair, y: ChebPair, a: RingElement | None = None) -> ChebPair:
    """Multiply two powers of omega_a; exponents add."""
    if a is None:
        a = x.base
    if x.base != y.base or x.base != a:
        raise ValueError("pair_mul operands must share modulus and base")
    m = a.m
    av = a.value
    d = (av * av - 1) % m
    t1, u1 = x.t.value, x.u.value
    t2, u2 = y.t.value, y.u.value
    t = (t1 * t2 + d * u1 * u2) % m
    u = (t1 * u2 + t2 * u1) % m
    return ChebPair(RingElement(t, a.modulus), RingElement(u, a.modulus), a, x.n + y.n)


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


def cheb_eval(a: int | RingElement, n: int, m: int | Modulus | None = None) -> ChebPair:
    """Evaluate omega_a^n mod m in O(log n) ring operations, for every a and m.

    With d = a^2 - 1 nonzero, the ladder runs mod 2m|d|, where the identity
    V_{n+1} - a V_n = 2d U_{n-1}(a) leaves U_{n-1} mod m after an exact
    division by 2d.  At a = 1, d = 0 and U_{n-1}(1) = n.
    """
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    if isinstance(a, RingElement):
        base = a
    else:
        if m is None:
            raise ValueError("cheb_eval needs a modulus for a plain-int base")
        base = element(a, m)
    av, mv = base.value, base.m
    d = av * av - 1
    if d == 0:
        t, u = 1 % mv, n % mv
    else:
        v0, v1 = _lucas_v(av, n, mv * abs(d))
        t = (v0 >> 1) % mv
        u = (v1 - av * v0) % (2 * mv * abs(d)) // (2 * d) % mv
    return ChebPair(element(t, base.modulus), element(u, base.modulus), base, n)


def cheb_t(a: int, n: int, m: int) -> int:
    """T_n(a) mod m."""
    return _lucas_v(a, n, m)[0] >> 1


def cheb_compose_check(a: int | RingElement, n: int, k: int, m: int | Modulus | None = None) -> bool:
    """Self-test primitive: T_n(T_k(a)) == T_{nk}(a) == T_k(T_n(a)) mod m."""
    if n < 1 or k < 1:
        raise ValueError("exponents must be >= 1")
    if isinstance(a, RingElement):
        av, mv = a.value, a.m
    else:
        if m is None:
            raise ValueError("cheb_compose_check needs a modulus for a plain-int base")
        mv = m.m if isinstance(m, Modulus) else m
        av = a % mv
    tk = cheb_t(av, k, mv)
    tn = cheb_t(av, n, mv)
    tnk = cheb_t(av, n * k, mv)
    return cheb_t(tk, n, mv) == tnk and cheb_t(tn, k, mv) == tnk


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
