"""Polynomial-level primality congruences.

T_n(x) = x^n mod n as formal polynomials exactly when n is prime, the
Chebyshev twin of (x+a)^n = x^n + a.  The interior coefficient of
x^{n-2k} in T_n is (-1)^k d_k 2^{n-2k-1} with d_k = (n/k) C(n-k-1, k-1),
and a composite n fails at k = its least prime factor, since n divides d_k
whenever gcd(k, n) = 1.  A congruence of polynomials mod n also holds at
every integer point, so each check first tests one point with cheb_t, in
O(log n), and builds a polynomial only for the n that pass: every prime
and a few composites.  The power check tests the leading coefficient,
2^{n-1} = 1 mod n, then the point x = 2, T_n(2) = 2^n = 2 mod n, and
compares the whole of T_n(x) mod n with x^n; the shifted variant
T_n(x+a) = T_n(x) + a tests the point x = 1, T_n(a + 1) = a + 1 mod n,
then builds one polynomial, T_n(u + a/2) mod n, and reads the congruence
off its even part.  The polynomials mod m come from chebyshev_t_int on one
of two routes: the doubling ladder on int64 lanes, O(log n) reduced
products, each convolved in float64 while its sums stay below 2^53, while
(n // 2 + 1)(m - 1)^2 < 2^63, and the closed form reduced mod m past that
bound; the checks' m = n <= DEGREE_CAP keeps the ladder.
"""

from __future__ import annotations

from math import comb, gcd

from .modarith import cheb_t
from .primes import is_prime
from . import structure
from .structure import IntPolynomial, ResourceLimitError, _check_degree, chebyshev_t_int

DEGREE_CAP = structure.DEGREE_CAP  # chebyshev_t_int's cap, which _check_degree applies at every entry point
BINOMIAL_CAP = 2_000_000  # lucas_step_check's bound on the bits of C(n-p-1, p-1): about 0.6-0.9 s at it (2-CPU VM)


def chebyshev_poly_mod(n: int, modulus: int | None = None) -> IntPolynomial:
    """T_n(x) with coefficients reduced mod the modulus (exact if None), for
    n <= DEGREE_CAP, which chebyshev_t_int checks: the int64 ladder while
    (n // 2 + 1)(m - 1)^2 < 2^63, the closed form reduced past it."""
    return chebyshev_t_int(n, modulus=modulus)


def prime_iff_power_check(n: int) -> bool:
    """Is T_n(x) = x^n as a polynomial mod n?  True exactly for primes.

    Odd n: the leading coefficient 2^{n-1} = 1 mod n (Fermat to base 2),
    then the point x = 2, T_n(2) = 2^n = 2 mod n, by cheb_t, then
    chebyshev_poly_mod(n, n) equal to x^n, coefficient by coefficient.
    Of the 22 base-2 Fermat pseudoprimes up to 10^4, only 1729 and 2701
    pass the point and build T_n mod n; 8911 is refused in a few us and
    the prime 9973 takes 6-9 ms (2-CPU VM).
    n = 2 is special-cased to True as a primality predicate (the formal
    congruence itself needs an odd modulus for 2 to be invertible).
    """
    _check_degree(n)
    if n % 2 == 0:
        return n == 2
    if pow(2, n - 1, n) != 1 or cheb_t(2, n, n) != 2:
        return False
    return chebyshev_poly_mod(n, n).coefficients == (0,) * n + (1,)


def shifted_congruence_check(n: int, a: int = 1) -> bool:
    """Is T_n(x+a) = T_n(x) + a mod n?  For odd n, true exactly for primes;
    every even n fails, as the congruence needs an odd modulus.

    Odd n: first the point x = 1, where T_n(1) = 1 makes the congruence
    T_n(a + 1) = a + 1 mod n, by cheb_t; a composite that fails it builds
    nothing, and below 10^4 only 34 composites pass it at a = 1 (209, 231,
    399, ...), so 9999 is refused in a few us while the prime 9973 takes
    6-9 ms (2-CPU VM).  Then, with h = a/2 mod n, x = u - h is an
    invertible change of variable and T_n is odd, so the congruence reads
    F(u) + F(-u) = a for F(u) = T_n(u + h): the constant coefficient of F is
    h and every other even-degree coefficient is 0.  F is built mod n by
    chebyshev_t_int on its int64 ladder (at n <= DEGREE_CAP,
    (n // 2 + 1)(n - 1)^2 stays below 2^53, so every product is convolved in
    float64).
    Even n: T_n = 2T_{n/2}^2 - 1 is 1 mod 2, while T_n(x) + a is 0 mod 2 for
    the odd a coprime to n, so nothing is built.
    """
    _check_degree(n)
    if gcd(a, n) > 1:
        raise ValueError(f"shift {a} shares a factor with {n}")
    if n % 2 == 0:
        return False
    if cheb_t(a + 1, n, n) != (a + 1) % n:
        return False
    h = a * (n + 1) // 2 % n
    c = chebyshev_t_int(n, h, n).coefficients
    return c[0] == h and not any(c[2::2])


def coefficient_formula(n: int, k: int) -> int:
    """The exact coefficient of x^{n-2k} in T_n(x).

    (-1)^k (n/k) C(n-k-1, k-1) 2^{n-2k-1}; the n/k factor combines with
    the binomial into an integer, which is asserted.  At k = n/2 (even n)
    the power of two is negative and the value collapses to (-1)^{n/2}.
    """
    _check_degree(n)
    if not 1 <= k <= n // 2:
        raise ValueError(f"k must lie in [1, {n // 2}], got {k}")
    d, rem = divmod(n * comb(n - k - 1, k - 1), k)
    if rem:
        raise ArithmeticError(f"(n/k) C(n-k-1,k-1) not integral at n={n}, k={k}")
    sign = -1 if k % 2 else 1
    if 2 * k == n:
        half, rem = divmod(d, 2)
        if rem:
            raise ArithmeticError(f"odd middle coefficient pair at n={n}")
        return sign * half
    return sign * d * 2 ** (n - 2 * k - 1)


def lucas_step_check(n: int, p: int) -> bool:
    """C(n-p-1, p-1) = 1 mod p for a prime p dividing the odd composite n.

    Exact binomial, reduced; the base-p digit argument (the lowest digit
    of n-p-1 is p-1, all digits of p-1 fit) is asserted alongside.  The
    binomial is below 2^((p-1) b), b the bit length of n-p-1; past
    (p-1) b = BINOMIAL_CAP it raises ResourceLimitError unbuilt.  At the cap
    math.comb takes 0.6-0.9 s at any n/p from 3 to 10^30 (2-CPU VM).
    """
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n % p:
        raise ValueError(f"{p} does not divide {n}")
    if n % 2 == 0 or is_prime(n) or n < 3 * p:
        raise ValueError(f"n must be an odd composite multiple of {p} with n/p >= 3")
    if (n - p - 1) % p != p - 1:
        raise ArithmeticError(f"lowest base-{p} digit of {n - p - 1} is not {p - 1}")
    bits = (p - 1) * (n - p - 1).bit_length()
    if bits > BINOMIAL_CAP:
        raise ResourceLimitError(f"binomial bound of {bits} bits exceeds the cap of {BINOMIAL_CAP}")
    return comb(n - p - 1, p - 1) % p == 1
