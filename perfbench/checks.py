"""Correctness checks, made apart from the library.

Nothing here imports ``chebring``.  Lucas sequences come from a ladder on
(U_k, U_{k+1}), Legendre symbols from Euler's criterion, Jacobi symbols and
primality from sympy, exponential sums from ``numpy.exp``.  Each check
returns a list of problems; an empty list means the result is right.
"""

from __future__ import annotations

import math

import numpy as np
from sympy import isprime, jacobi_symbol, primefactors, primerange, totient

SUM_TOLERANCE = 1e-8


def lucas_u(P: int, n: int, m: int) -> tuple[int, int]:
    """(U_n, U_{n+1}) mod m of the Lucas sequence with parameters (P, 1).

    Doubling on the pair: U_{2k} = U_k (2 U_{k+1} - P U_k),
    U_{2k+1} = U_{k+1}^2 - U_k^2, U_{2k+2} = U_{k+1} (P U_{k+1} - 2 U_k).
    """
    u0, u1 = 0, 1 % m
    for bit in bin(n)[2:] if n else "":
        if bit == "1":
            u0, u1 = (u1 * u1 - u0 * u0) % m, u1 * (P * u1 - 2 * u0) % m
        else:
            u0, u1 = u0 * (2 * u1 - P * u0) % m, (u1 * u1 - u0 * u0) % m
    return u0, u1


def cheb_tu(a: int, n: int, m: int) -> tuple[int, int]:
    """(T_n(a), U_{n-1}(a)) mod odd m: T_n(a) = V_n(2a, 1) / 2 and
    U_{n-1}(a) = U_n(2a, 1), with V_n = 2 U_{n+1} - P U_n."""
    P = 2 * a % m
    u0, u1 = lucas_u(P, n, m)
    return (2 * u1 - P * u0) * pow(2, -1, m) % m, u0


def legendre(x: int, p: int) -> int:
    """Legendre symbol (x/p) for an odd prime p, by Euler's criterion."""
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# --- search -----------------------------------------------------------------


def wieferich_primes(base: int, limit: int) -> list[int]:
    """Odd primes p <= limit, base not 0 or +-1 mod p, with U_{(p-eps)/2}(2 base, 1) = 0 mod p^2."""
    out = []
    for p in primerange(3, limit + 1):
        eps = legendre(base * base - 1, p)
        if base % p == 0 or eps == 0:
            continue
        if lucas_u(2 * base, (p - eps) // 2, p * p)[0] == 0:
            out.append(p)
    return out


def strong_pseudoprimes(base: int, limit: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, signed doubling profile) for every odd composite n <= limit, coprime
    to base^2 - 1, that passes the strong Chebyshev test.

    The profile is T_{2^i Q1}(base) mod n for (n - eps)/2 = 2^t Q1, Q1 odd,
    with n - 1 written as -1.  A pass needs T_{(n-eps)/2} = delta and
    U_{(n-eps)/2 - 1} = 0, a 1 only after +-1 and a -1 only after 0.
    """
    out = []
    for n in range(9, limit + 1, 2):
        if isprime(n) or math.gcd(base * base - 1, n) > 1:
            continue
        eps = int(jacobi_symbol(base * base - 1, n))
        delta = int(jacobi_symbol(2 * (base + 1), n))
        half = (n - eps) // 2
        q1 = half >> ((half & -half).bit_length() - 1)
        tu = [cheb_tu(base, k, n) for k in _doublings(q1, half)]
        signed = [-1 if t == n - 1 else t for t, _ in tu]
        ok = tu[-1] == (delta % n, 0)
        ok = ok and all(
            (s != 1 or prev in (1, -1)) and (s != -1 or prev == 0) for prev, s in zip(signed, signed[1:])
        )
        if ok:
            out.append((n, tuple(signed)))
    return out


def _doublings(q1: int, half: int) -> list[int]:
    ks = [q1]
    while ks[-1] < half:
        ks.append(2 * ks[-1])
    return ks


def check_search(base: int, result, wieferich_limit: int, pseudoprime_limit: int) -> list[str]:
    hits, pseudo = result
    problems = []
    got = [h.p for h in hits]
    want = wieferich_primes(base, wieferich_limit)
    if got != want or any(h.base != base for h in hits):
        problems.append(f"search base {base}: Wieferich hits {got}, expected {want}")
    got_pp = [(v.n, v.profile) for v in pseudo]
    want_pp = strong_pseudoprimes(base, pseudoprime_limit)
    if got_pp != want_pp or any(v.base != base or v.kind != "strong" or not v.passed for v in pseudo):
        problems.append(f"search base {base}: pseudoprimes {[n for n, _ in got_pp]}, expected {[n for n, _ in want_pp]}")
    return problems


# --- sweep ------------------------------------------------------------------


def _cell(eps: int, delta: int) -> str:
    return ("+" if eps == 1 else "-") + ("+" if delta == 1 else "-")


def check_sweep(p: int, result) -> list[str]:
    report, lemma, shifted, classes = result
    problems = []
    domain = [0, *range(2, p - 1)]
    chars = {a: (legendre(a * a - 1, p), legendre(2 * (a + 1), p)) for a in domain}

    members = sorted(a for mem in classes.values() for a in mem)
    if members != domain:
        problems.append(f"sweep p={p}: order classes do not cover R_p exactly once")
    for d, mem in classes.items():
        if len(mem) != totient(d) // 2:
            problems.append(f"sweep p={p}: |I_{d}| = {len(mem)}, expected phi({d})/2")
        for a in mem:
            eps, delta = chars.get(a, (0, 0))
            if eps == 0 or (p - eps) % d:
                problems.append(f"sweep p={p}: order {d} of {a} does not divide p - eps")
            elif (delta == 1) != ((p - eps) // 2 % d == 0):
                problems.append(f"sweep p={p}: order {d} puts {a} in the wrong cell")
            elif not _has_order(a, d, p):
                problems.append(f"sweep p={p}: {a} does not have order {d}")

    zeta = np.exp(2j * np.pi * np.arange(p) / p)
    cells = {key: [] for key in ("++", "+-", "-+", "--")}
    for a, (eps, delta) in chars.items():
        cells[_cell(eps, delta)].append(a)
    bound = math.sqrt(p) + 1.25
    for key, mem in cells.items():
        want = zeta[mem].sum()
        got = report.g.get(key, math.nan)
        if not abs(got - want) <= SUM_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"sweep p={p}: g_{key} = {got}, expected {want}")
        if abs(want) > bound:
            problems.append(f"sweep p={p}: |g_{key}| = {abs(want)} exceeds sqrt(p) + 5/4")

    leg = np.array([0] + [legendre(a, p) for a in range(1, p)])
    weil = (leg[(np.arange(1, p) ** 2 - 1) % p] * zeta[1:]).sum()
    if not abs(report.S - weil) <= SUM_TOLERANCE * max(1.0, abs(weil)):
        problems.append(f"sweep p={p}: S = {report.S}, expected {weil}")
    if abs(weil) > 2 * math.sqrt(p):
        problems.append(f"sweep p={p}: |S| = {abs(weil)} exceeds 2 sqrt(p)")

    idx = np.array(domain)
    want_shifted = [
        (leg[(idx + shift) % p] * zeta[idx]).sum() for shift in (-1, 1)
    ] + [(leg[(idx * idx - 1) % p] * zeta[idx]).sum()]
    for name, got, want in zip(("a-1", "a+1", "a^2-1"), shifted, want_shifted):
        if not abs(got - want) <= SUM_TOLERANCE * max(1.0, abs(want)):
            problems.append(f"sweep p={p}: shifted sum over ({name}/p) is {got}, expected {want}")
    if report.p != p or lemma is not True:
        problems.append(f"sweep p={p}: difference lemma reported {lemma}")
    return problems


def _has_order(a: int, d: int, p: int) -> bool:
    """Is d the least n >= 1 with T_n(a) = 1 mod p?"""
    if cheb_tu(a, d, p)[0] != 1:
        return False
    return all(cheb_tu(a, d // q, p)[0] != 1 for q in primefactors(d))


# --- poly -------------------------------------------------------------------


def check_poly(n: int, result) -> list[str]:
    want = isprime(n)
    if tuple(result) != (want, want):
        return [f"poly n={n}: verdicts {result}, expected {want} for both"]
    return []


# --- keyx -------------------------------------------------------------------


def check_keyx(p: int, row: tuple[int, int, int], result) -> list[str]:
    g, sa, sb = row
    shared_a, shared_b, encoded, decoded = result
    want = cheb_tu(g, sa * sb, p)[0]
    problems = []
    if shared_a != want or shared_b != want:
        problems.append(f"keyx g={g}: shared keys {shared_a}, {shared_b}, expected T_(sa*sb)(g) = {want}")
    if list(decoded) != list(encoded):
        problems.append(f"keyx g={g}: wire round trip returned {decoded} for {encoded}")
    return problems
