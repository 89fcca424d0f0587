"""Primality criteria on Chebyshev pairs.

The central fact: for an odd prime p and a residue a with eps = ((a^2-1)/p)
nonzero, writing delta = ((2(a+1))/p),

    T_{(p-eps)/2}(a) = delta  and  U_{(p-eps)/2 - 1}(a) = 0   (mod p)
    T_{(p+eps)/2}(a) = delta*a and U_{(p+eps)/2 - 1}(a) = delta*eps (mod p)

and the first T-congruence even holds mod p^2.  Composites that slip through
the mod-n version of the test are the pseudoprimes hunted here; primes where
the U-congruence also lifts to mod p^2 are the Wieferich-style exceptions.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd

import numpy as np

from .modarith import _ladder_tu, _lucas_v, _pair_pow_vec, cheb_t, jacobi
from .primes import is_prime, primes_in

PSEUDOPRIME_KINDS = ("weak", "full", "strong")


@dataclass(frozen=True)
class CharPair:
    """The two quadratic characters (eps, delta) attached to a residue.

    eps = 0 exactly when a = +-1 mod p; delta = 0 exactly when a = -1.
    """

    eps: int
    delta: int


@dataclass(frozen=True)
class PseudoprimeVerdict:
    n: int
    base: int
    kind: str
    passed: bool
    profile: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in PSEUDOPRIME_KINDS:
            raise ValueError(f"unknown test kind {self.kind!r}")


@dataclass(frozen=True)
class WieferichHit:
    p: int
    base: int


def characters(a: int, p: int) -> CharPair:
    """(eps, delta) = ((a^2-1)/p), ((2(a+1))/p) as Jacobi symbols."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"characters need an odd modulus >= 3, got {p}")
    a %= p
    return CharPair(jacobi(a * a - 1, p), jacobi(2 * (a + 1), p))


def _nondegenerate_characters(a: int, p: int) -> CharPair:
    """characters(a, p), rejecting eps = 0, which means gcd(a^2 - 1, p) > 1."""
    ch = characters(a, p)
    if ch.eps == 0:
        if a % p in (1, p - 1):
            raise ValueError(f"degenerate base: {a} = +-1 mod {p}")
        raise ValueError(f"degenerate base: gcd({a}^2 - 1, {p}) = {gcd(a * a - 1, p)}")
    return ch


def _euler_criterion(a: int, n: int, eps: int, delta: int) -> tuple[bool, list[int]]:
    """Whether T_k(a) = delta and U_{k-1}(a) = 0 mod n for k = (n-eps)/2, and
    the profile [T_q, T_2q, ..., T_k] mod n, where k = 2^s q with q odd.

    a^2 - 1 must be a unit mod n.  One ladder reaches q; each of the s
    doublings is T_{2j} = 2T_j^2 - 1 and U_{2j-1} = 2T_j U_{j-1}.
    """
    k = (n - eps) // 2
    s = (k & -k).bit_length() - 1
    t, u = _ladder_tu(a % n, k >> s, n)
    profile = [t]
    for _ in range(s):
        t, u = (2 * t * t - 1) % n, 2 * t * u % n
        profile.append(t)
    return t == delta % n and u == 0, profile


def euler_test(a: int, p: int) -> bool:
    """T_{(p-eps)/2}(a) = delta and U_{(p-eps)/2-1}(a) = 0 mod p.

    Always true when p is a genuine odd prime; a composite p slipping
    through is by definition a pseudoprime to the base a.
    """
    ch = _nondegenerate_characters(a, p)
    return _euler_criterion(a, p, ch.eps, ch.delta)[0]


def euler_test_modp2(a: int, p: int) -> bool:
    """The sharper T_{(p-eps)/2}(a) = delta congruence taken mod p^2."""
    ch = _nondegenerate_characters(a, p)
    m = p * p
    return cheb_t(a, (p - ch.eps) // 2, m) == ch.delta % m


def _pow_vec(base: np.ndarray, e: int, m: int) -> np.ndarray:
    r = np.ones_like(base)
    b = base % m
    while e:
        if e & 1:
            r = r * b % m
        e >>= 1
        if e:
            b = b * b % m
    return r


def euler_criterion_failures(p: int, squared: bool = False) -> list[int]:
    """Residues a in R_p violating the prime congruences; [] for primes.

    Default mode checks all four mod-p congruences (both exponents
    (p -+ eps)/2); squared=True checks the T = delta congruence mod p^2.
    Vectorized over all of R_p with a single pair exponentiation: the pair
    at (p+1)/2 is the pair at (p-1)/2 times omega_a, so each lane picks the
    two exponents it needs from one ladder.  Moduli must stay below 2^31
    (int64 intermediate products).
    """
    m = p * p if squared else p
    if m >= 1 << 31:
        raise ValueError("modulus too large for the vectorized int64 path")
    if p < 3 or p % 2 == 0:
        raise ValueError(f"characters need an odd modulus >= 3, got {p}")
    a = np.delete(np.arange(p - 1, dtype=np.int64), 1)  # R_p = {0, 2, ..., p-2}
    half = (p - 1) // 2
    eps = np.where(_pow_vec((a * a - 1) % p, half, p) == 1, 1, -1)
    delta = np.where(_pow_vec(2 * (a + 1) % p, half, p) == 1, 1, -1)

    d = (a * a - 1) % m
    t_lo, u_lo = _pair_pow_vec(a, half, m)  # exponent (p-1)/2
    t_hi = (t_lo * (a % m) % m + d * u_lo % m) % m  # times omega_a
    u_hi = (t_lo + (a % m) * u_lo % m) % m  # exponent (p+1)/2

    minus = eps == 1  # lanes where (p-eps)/2 is the low exponent
    t_at_minus = np.where(minus, t_lo, t_hi)
    u_at_minus = np.where(minus, u_lo, u_hi)
    if squared:
        ok = t_at_minus == delta % m
        return sorted(int(x) for x in a[~ok])
    t_at_plus = np.where(minus, t_hi, t_lo)
    u_at_plus = np.where(minus, u_hi, u_lo)
    ok = (
        (t_at_minus == delta % p)
        & (u_at_minus == 0)
        & (t_at_plus == delta * a % p)
        & (u_at_plus == delta * eps % p)
    )
    return sorted(int(x) for x in a[~ok])


# --- searches ---------------------------------------------------------------


def _worker_count(threads: int | None) -> int:
    if threads is None:
        threads = os.cpu_count() or 1
    return max(1, threads)


def _split_range(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    step = max(1, -(-(hi - lo) // pieces))
    return [(x, min(x + step, hi)) for x in range(lo, hi, step)]


def _run_chunks(worker, jobs: list, threads: int | None) -> list:
    """[worker(job) for job in jobs], in job order, on a pool when threads allow."""
    n = _worker_count(threads)
    if n <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(worker, jobs))


def _wieferich_chunk(job: tuple[int, int, int]) -> list[WieferichHit]:
    base, lo, hi = job
    hits = []
    for p in primes_in(lo, hi):
        if p == 2 or base % p == 0:
            continue
        eps = jacobi(base * base - 1, p)
        if eps == 0:
            continue
        # With n = (p-eps)/2, V_{n+1} - a V_n = 2(a^2-1) U_{n-1} and a^2 - 1 is a
        # unit mod p^2, so U_{n-1} = 0 mod p^2 exactly when the left side
        # vanishes mod 2p^2: no modular inverse needed.
        m = p * p
        a = base % m
        v0, v1 = _lucas_v(a, (p - eps) // 2, m)
        if (v1 - a * v0) % (2 * m) == 0:
            hits.append(WieferichHit(p, base))
    return hits


def wieferich_search(base: int, limit: int = 10**6, threads: int | None = None) -> list[WieferichHit]:
    """Primes p <= limit with U_{(p-eps)/2 - 1}(base) = 0 mod p^2, ascending.

    These are the primes where the Euler-criterion U-congruence lifts from
    mod p to mod p^2; they play the role Wieferich primes play for Fermat's
    little theorem, and are about as scarce.  Scope: primes with the base
    not congruent to 0 or +-1, the residues where the criterion applies.
    """
    if base in (0, 1, -1):
        raise ValueError("base must not be 0 or +-1")
    if limit < 3:
        raise ValueError("limit must be >= 3")
    jobs = [(base, lo, hi) for lo, hi in _split_range(3, limit + 1, max(1, (limit + 1) // 200_000))]
    return [hit for chunk in _run_chunks(_wieferich_chunk, jobs, threads) for hit in chunk]


def weak_pseudoprime_test(n: int, base: int) -> bool:
    """T_n(a) = a mod n; holds for every prime n, so a composite passing
    is a (weak) pseudoprime."""
    if n < 3 or n % 2 == 0:
        raise ValueError("test defined for odd n >= 3")
    return cheb_t(base, n, n) == base % n


def full_pseudoprime_test(n: int, base: int) -> PseudoprimeVerdict:
    """Both Euler-criterion congruences evaluated at n with Jacobi characters."""
    if n < 3 or n % 2 == 0:
        raise ValueError("test defined for odd n >= 3")
    if gcd(base * base - 1, n) > 1:
        raise ValueError(f"base {base} shares a factor of {n} with base^2 - 1")
    eps = jacobi(base * base - 1, n)
    delta = jacobi(2 * (base + 1), n)
    return PseudoprimeVerdict(n, base, "full", _euler_criterion(base, n, eps, delta)[0])


def _signed(v: int, n: int) -> int:
    return -1 if v == n - 1 else v


def strong_profile(n: int, base: int) -> PseudoprimeVerdict:
    """Doubling profile [T_Q1, T_2Q1, ..., T_{(n-eps)/2}] mod n, plus verdict.

    Writing (n-eps)/2 = 2^t * Q1 with Q1 odd, successive entries are related
    by T_{2k} = 2 T_k^2 - 1, so over a prime the value 1 can only follow
    +-1 and the value -1 can only follow 0.  A profile violating that rule
    certifies compositeness even when the endpoint congruences hold; passed
    means the full test passed and no violation occurred.  Entries equal to
    n-1 are reported as -1 (profiles read 0, +-1 at the stabilized tail).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("test defined for odd n >= 3")
    if gcd(base * base - 1, n) > 1:
        raise ValueError(f"base {base} shares a factor of {n} with base^2 - 1")
    eps = jacobi(base * base - 1, n)
    delta = jacobi(2 * (base + 1), n)
    endpoint_ok, profile = _euler_criterion(base, n, eps, delta)
    signed = [_signed(v, n) for v in profile]
    violation = any(
        (signed[i] == 1 and signed[i - 1] not in (1, -1)) or (signed[i] == -1 and signed[i - 1] != 0)
        for i in range(1, len(signed))
    )
    return PseudoprimeVerdict(n, base, "strong", endpoint_ok and not violation, tuple(signed))


def _pseudoprime_chunk(job: tuple[int, int, int, str]) -> list[PseudoprimeVerdict]:
    base, lo, hi, kind = job
    out = []
    start = lo if lo % 2 else lo + 1
    for n in range(start, hi, 2):
        if n < 9 or is_prime(n):
            continue
        if kind == "weak":
            if weak_pseudoprime_test(n, base):
                out.append(PseudoprimeVerdict(n, base, kind, True))
            continue
        if gcd(base * base - 1, n) > 1:
            continue
        if kind == "full":
            v = full_pseudoprime_test(n, base)
        else:
            v = strong_profile(n, base)
        if v.passed:
            out.append(v)
    return out


def pseudoprime_search(
    base: int, limit: int, kind: str = "full", threads: int | None = None
) -> list[PseudoprimeVerdict]:
    """All odd composites <= limit passing the chosen test, ascending.

    Compositeness is labeled by deterministic Miller-Rabin; the searches
    themselves never consult it for the verdict, only for the scan filter.
    """
    if kind not in PSEUDOPRIME_KINDS:
        raise ValueError(f"unknown test kind {kind!r}")
    if limit < 9:
        return []
    jobs = [(base, lo, hi, kind) for lo, hi in _split_range(9, limit + 1, max(1, (limit + 1) // 20_000))]
    return [v for chunk in _run_chunks(_pseudoprime_chunk, jobs, threads) for v in chunk]


def lucas_lehmer(p: int) -> bool:
    """Mersenne-number test: M_p = 2^p - 1 is prime iff s_{p-2} = 0 mod M_p,
    where s_0 = 4 and s_{k+1} = s_k^2 - 2.

    The iteration is the doubling chain s_k = 2 T_{2^k}(2); the final value
    is cross-checked against an independent pair evaluation of T_{2^(p-2)}(2).
    p = 2 is outside the iteration (s index would be negative) and returns
    True directly since M_2 = 3 is prime.
    """
    if p == 2:
        return True
    if p < 2 or not is_prime(p):
        raise ValueError(f"exponent must be prime, got {p}")
    mp = (1 << p) - 1
    s = 4 % mp
    for _ in range(p - 2):
        s = (s * s - 2) % mp
    check = 2 * cheb_t(2, 1 << (p - 2), mp) % mp
    if s != check:
        raise ArithmeticError(f"doubling chain and pair evaluation disagree at p={p}")
    return s == 0


def taxicab_search(limit: int) -> int | None:
    """Least odd composite n <= limit with n | 2^n - 2 and n | T_n(2) - 2.

    None when no such n exists below the limit.
    """
    for n in range(9, limit + 1, 2):
        if pow(2, n, n) == 2 and not is_prime(n) and cheb_t(2, n, n) == 2:
            return n
    return None
