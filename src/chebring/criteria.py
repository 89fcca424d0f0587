"""Primality criteria on Chebyshev pairs.

The central fact: for an odd prime p and a residue a with eps = ((a^2-1)/p)
nonzero, writing delta = ((2(a+1))/p) and k = (p-eps)/2,

    T_k(a) = delta  and  U_{k-1}(a) = 0   (mod p),

that is omega_a^k = delta for omega_a = a + sqrt(a^2-1); the T-congruence
even holds mod p^2.  No test here checks the pair T = delta*a, U = delta*eps
at (p+eps)/2 = k + eps, as it follows: omega_a^{k+-1} = delta*omega_a^{+-1}
and omega_a^{-1} = a - sqrt(a^2-1).  Composites that slip through the mod-n
test are the pseudoprimes hunted here; primes where the U-congruence also
lifts to mod p^2 are the Wieferich-style exceptions.

The single-n tests run the scalar ladder.  The two searches test every
candidate of a chunk at once on int64 numpy lanes (modarith's lane helpers),
so their limits stay below SEARCH_CAP = 2^31; the scalar tests are their
oracles in the test suite.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd

import numpy as np

from .modarith import (
    _jacobi_vec,
    _ladder_tu,
    _mulmod_p2,
    _pow_vec,
    _residues,
    _t_ladder_vec,
    cheb_t,
)
from .primes import _sieve_flags, is_prime
from .structure import CharPair, ResourceLimitError, _check_table_cap, characters

PSEUDOPRIME_KINDS = ("weak", "full", "strong")
SEARCH_CAP = 1 << 31  # search limits stay below it: every lane modulus fits the int64 kernels
MERSENNE_CAP = 4423  # largest Lucas-Lehmer exponent: p = 4423 takes 0.84-0.92 s (2-CPU VM), 9689 takes 8.3 s


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


def euler_criterion_failures(p: int, squared: bool = False) -> list[int]:
    """Residues a in R_p violating the prime congruences; [] for primes.

    With eps, delta by Euler's criterion mod p (not Jacobi symbols at a
    composite p) and k = (p-eps)/2, default mode checks T_k = delta and
    U_{k-1} = 0 mod p, which give the pair at (p+eps)/2 = k + eps through
    omega_a^{k+-1} = delta omega_a^{+-1}; squared=True checks T_k = delta
    mod p^2.  One T-ladder over R_p to a per-lane k; with d = a^2 - 1,
    U_{k-1} = 0 is T_{k+1} = a T_k where d is a unit.  p is capped at
    TABLE_CAP (ResourceLimitError above), and in squared mode p^2 must stay
    below 2^31 (int64 intermediate products).
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"characters need an odd modulus >= 3, got {p}")
    m = p * p if squared else p
    if m >= 1 << 31:
        raise ValueError("modulus too large for the vectorized int64 path")
    _check_table_cap(p, "modulus")
    a = np.delete(np.arange(p - 1, dtype=np.int64), 1)  # R_p = {0, 2, ..., p-2}
    half = (p - 1) // 2
    d = (a * a - 1) % p
    eps = np.where(_pow_vec(d, half, p) == 1, 1, -1)
    delta = np.where(_pow_vec(2 * (a + 1) % p, half, p) == 1, 1, -1)
    rows, t_next = _t_ladder_vec(a, (p - eps) // 2, m)
    ok = rows[-1] == delta % m
    if not squared:
        # U_{k-1} = 0 follows from d U_{k-1} = 0 only where d is a unit.  Elsewhere
        # p is composite with a prime q | gcd(d, p), a = +-1 mod q, and
        # U_{k-1} = k a^(k-1) mod q, nonzero as 2k = -eps mod q: those lanes fail.
        ok &= (np.gcd(d, p) == 1) & (t_next == a * rows[-1] % p)
    return a[~ok].tolist()


# --- searches ---------------------------------------------------------------


def _check_search_cap(limit: int) -> None:
    if limit >= SEARCH_CAP:
        raise ResourceLimitError(f"limit {limit} exceeds the search cap of {SEARCH_CAP - 1} (int64 lanes)")


def _split_range(lo: int, hi: int, pieces: int) -> list[tuple[int, int]]:
    step = max(1, -(-(hi - lo) // pieces))
    return [(x, min(x + step, hi)) for x in range(lo, hi, step)]


def _run_chunks(worker, jobs: list, threads: int | None) -> list:
    """[worker(job) for job in jobs], in job order, on a pool when threads allow.
    The pool forks all its workers at the first submit, so their count is
    threads (default: the CPU count) capped at the CPU count and at len(jobs)."""
    cpus = os.cpu_count() or 1
    n = min(cpus if threads is None else threads, cpus, len(jobs))
    if n <= 1:
        return [worker(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(worker, jobs))


def _wieferich_chunk(job: tuple[int, int, int]) -> list[WieferichHit]:
    base, lo, hi = job
    p = np.flatnonzero(_sieve_flags(lo, hi)) + lo
    a2 = _residues(base, p * p)
    a = a2 % p
    live = (a > 1) & (a < p - 1)  # eps = 0 exactly when base = +-1 mod p
    p, a, a2 = p[live], a[live], a2[live]
    if not p.size:
        return []
    eps = np.where(_pow_vec(a * a - 1, (p - 1) // 2, p) == 1, 1, -1)
    # With n = (p-eps)/2, T_{n+1} - a T_n = (a^2-1) U_{n-1} and a^2 - 1 is a unit
    # mod p^2, so U_{n-1} = 0 mod p^2 exactly when the left side vanishes.
    rows, t1 = _t_ladder_vec(a2, (p - eps) // 2, p * p, p)
    hit = t1 == _mulmod_p2(a2, rows[-1], p)
    return [WieferichHit(int(x), base) for x in p[hit]]


def wieferich_search(base: int, limit: int = 10**6, threads: int | None = None) -> list[WieferichHit]:
    """Primes p <= limit with U_{(p-eps)/2 - 1}(base) = 0 mod p^2, ascending.

    These are the primes where the Euler-criterion U-congruence lifts from
    mod p to mod p^2; they play the role Wieferich primes play for Fermat's
    little theorem, and are about as scarce.  Scope: primes with the base
    not congruent to 0 or +-1, the residues where the criterion applies.
    Each chunk of the range runs as int64 lanes, one prime per lane: eps by
    Euler's criterion mod p, then the T-ladder mod p^2 on two limbs.  A limit
    of SEARCH_CAP = 2^31 or more raises ResourceLimitError.
    """
    if base in (0, 1, -1):
        raise ValueError("base must not be 0 or +-1")
    if limit < 3:
        raise ValueError("limit must be >= 3")
    _check_search_cap(limit)
    jobs = [(base, lo, hi) for lo, hi in _split_range(3, limit + 1, max(1, (limit + 1) // 200_000))]
    return [hit for chunk in _run_chunks(_wieferich_chunk, jobs, threads) for hit in chunk]


def weak_pseudoprime_test(n: int, base: int) -> bool:
    """T_n(a) = a mod n; holds for every prime n, so a composite passing
    is a (weak) pseudoprime."""
    if n < 3 or n % 2 == 0:
        raise ValueError("test defined for odd n >= 3")
    return cheb_t(base, n, n) == base % n


def full_pseudoprime_test(n: int, base: int) -> PseudoprimeVerdict:
    """euler_test(base, n) as a verdict: both Euler-criterion congruences at n."""
    return PseudoprimeVerdict(n, base, "full", euler_test(base, n))


def strong_profile(n: int, base: int) -> PseudoprimeVerdict:
    """Doubling profile [T_Q1, T_2Q1, ..., T_{(n-eps)/2}] mod n, plus verdict.

    Writing (n-eps)/2 = 2^t * Q1 with Q1 odd, successive entries are related
    by T_{2k} = 2 T_k^2 - 1, so over a prime the value 1 can only follow
    +-1 and the value -1 can only follow 0.  A profile violating that rule
    certifies compositeness even when the endpoint congruences hold; passed
    means the full test passed and no violation occurred.  Entries equal to
    n-1 are reported as -1 (profiles read 0, +-1 at the stabilized tail).
    """
    ch = _nondegenerate_characters(base, n)
    return _strong_verdict(n, base, *_euler_criterion(base, n, ch.eps, ch.delta))


def _strong_verdict(n: int, base: int, endpoint_ok: bool, profile: list[int]) -> PseudoprimeVerdict:
    """The strong verdict from the endpoint test and the profile mod n."""
    signed = [-1 if v == n - 1 else v for v in profile]
    violation = any(
        (signed[i] == 1 and signed[i - 1] not in (1, -1)) or (signed[i] == -1 and signed[i - 1] != 0)
        for i in range(1, len(signed))
    )
    return PseudoprimeVerdict(n, base, "strong", endpoint_ok and not violation, tuple(signed))


def _pseudoprime_chunk(job: tuple[int, int, int, str]) -> list[PseudoprimeVerdict]:
    base, lo, hi, kind = job
    n = np.flatnonzero(_sieve_flags(lo, hi) == 0) + lo
    n = n[n & 1 == 1]  # the odd composites of the chunk
    if not n.size:
        return []
    a = _residues(base, n)
    if kind == "weak":
        rows, _ = _t_ladder_vec(a, n, n)
        return [PseudoprimeVerdict(int(x), base, kind, True) for x in n[rows[-1] == a]]
    keep = np.gcd(a * a - 1, n) == 1
    n, a = n[keep], a[keep]
    if not n.size:
        return []
    eps = _jacobi_vec(a * a - 1, n)
    delta = _jacobi_vec(2 * (a + 1), n)
    # The ladder to k = (n-eps)/2 = 2^s q ends in s doublings T_2j = 2T_j^2 - 1,
    # so its last s + 1 rows are the profile [T_q, ..., T_k].  U_{k-1} = 0 mod n
    # exactly when T_{k+1} = a T_k, as a^2 - 1 is a unit mod n.
    k = (n - eps) // 2
    s = np.frexp(k & -k)[1] - 1
    rows, t1 = _t_ladder_vec(a, k, n, keep=int(s.max()) + 1 if kind == "strong" else 1)
    t = rows[-1]
    passed = np.flatnonzero((t == delta % n) & (t1 == a * t % n))
    if kind == "full":
        return [PseudoprimeVerdict(int(n[i]), base, kind, True) for i in passed]
    out = []
    for i in passed:
        v = _strong_verdict(int(n[i]), base, True, rows[len(rows) - 1 - s[i] :, i].tolist())
        if v.passed:
            out.append(v)
    return out


def pseudoprime_search(
    base: int, limit: int, kind: str = "full", threads: int | None = None
) -> list[PseudoprimeVerdict]:
    """All odd composites <= limit passing the chosen test, ascending.

    Each chunk of the range runs as int64 lanes, one candidate n per lane:
    composites are the zeros of the sieve, the full and strong kinds drop n
    sharing a factor with base^2 - 1 (weak keeps them), eps and delta are lane
    Jacobi symbols, and one T-ladder mod n gives the endpoint and the doubling
    profile.  Verdicts are built only for the candidates that pass; they match
    the single-n tests weak_pseudoprime_test, full_pseudoprime_test and
    strong_profile.  A limit of SEARCH_CAP = 2^31 or more raises
    ResourceLimitError.
    """
    if kind not in PSEUDOPRIME_KINDS:
        raise ValueError(f"unknown test kind {kind!r}")
    _check_search_cap(limit)
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
    True directly since M_2 = 3 is prime.  p above MERSENNE_CAP raises
    ResourceLimitError before any squaring.
    """
    if p == 2:
        return True
    if p < 2 or not is_prime(p):
        raise ValueError(f"exponent must be prime, got {p}")
    if p > MERSENNE_CAP:
        raise ResourceLimitError(f"exponent {p} exceeds the Lucas-Lehmer cap of {MERSENNE_CAP}")
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
