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
oracles in the test suite.  Both run one ladder to h = (n-1)/2 over every
lane and take no character first.  At a prime p with a != 0, +-1 mod p,
omega_a^h = +-1 where eps = +1 and delta * omega_a^{-1} where eps = -1, so
T_h = +-1 mod p exactly where eps = +1: the Wieferich scan reads eps off
T_h.  The pseudoprime scan keeps only the n whose T_h, T_{h+1} could pass
at either eps, and gives those few to the single-n tests, so every full and
strong verdict comes from one routine, _euler_criterion.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import gcd, isqrt

import numpy as np

from .modarith import (
    _lucas_v,
    _mulmod_p2,
    _pow_vec,
    _residues,
    _t_ladder_vec,
    cheb_t,
)
from .primes import _sieve_flags, is_prime, primes_in
from .structure import CharPair, ResourceLimitError, _check_table_cap, characters

PSEUDOPRIME_KINDS = ("weak", "full", "strong")
SEARCH_CAP = 1 << 31  # search limits stay below it: every lane modulus fits the int64 kernels
MERSENNE_CAP = 11213  # largest Lucas-Lehmer exponent: p = 11213 takes 0.55-0.72 s (2-CPU VM); the next Mersenne exponent, 19937, takes about 3 s


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

    a^2 - 1 must be a unit mod n.  One ladder reaches (V_q, V_{q+1}) mod 2n;
    each of the s doublings is V_{2j} = V_j^2 - 2 and V_{2j+1} = V_j V_{j+1} - 2a,
    and each profile entry is V/2.  As V_{k+1} - a V_k = 2(a^2-1) U_{k-1} and
    a^2 - 1 is a unit, U_{k-1} = 0 mod n is V_{k+1} = a V_k mod 2n: no inverse.
    """
    k = (n - eps) // 2
    s = (k & -k).bit_length() - 1
    a, mm = a % n, 2 * n
    v0, v1 = _lucas_v(a, k >> s, n)
    profile = [v0 >> 1]
    for _ in range(s):
        v0, v1 = (v0 * v0 - 2) % mm, (v0 * v1 - 2 * a) % mm
        profile.append(v0 >> 1)
    return profile[-1] == delta % n and v1 == a * v0 % mm, profile


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
    U_{k-1} = 0 is T_{k+1} = a T_k where d is a unit.  The ladder takes one
    int64 product per step while its modulus is below 2^31, and two limbs
    where p^2 reaches it (squared mode from p = 46341 on).  p is capped at
    TABLE_CAP (ResourceLimitError above) in both modes.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"characters need an odd modulus >= 3, got {p}")
    m = p * p if squared else p
    _check_table_cap(p, "modulus")
    a = np.delete(np.arange(p - 1, dtype=np.int64), 1)  # R_p = {0, 2, ..., p-2}
    half = (p - 1) // 2
    d = (a * a - 1) % p
    eps = np.where(_pow_vec(d, half, p) == 1, 1, -1)
    delta = np.where(_pow_vec(2 * (a + 1) % p, half, p) == 1, 1, -1)
    t, t_next = _t_ladder_vec(a, (p - eps) // 2, m, p if squared else None)
    ok = t == delta % m
    if not squared:
        # U_{k-1} = 0 follows from d U_{k-1} = 0 only where d is a unit.  Elsewhere
        # p is composite with a prime q | gcd(d, p), a = +-1 mod q, and
        # U_{k-1} = k a^(k-1) mod q, nonzero as 2k = -eps mod q: those lanes fail.
        ok &= (np.gcd(d, p) == 1) & (t_next == a * t % p)
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
    p, a2 = p[live], a2[live]
    if not p.size:
        return []
    # With h = (p-1)/2, omega_a^h = +-1 where eps = +1 and delta/omega_a where
    # eps = -1, so T_h = +-1 mod p exactly where eps = +1 (a != +-1 mod p).  With
    # k = (p-eps)/2, T_{k+1} - a T_k = (a^2-1) U_{k-1} and a^2 - 1 is a unit mod
    # p^2, so U_{k-1} = 0 mod p^2 exactly when T_{h+1} = a T_h (k = h) or, by
    # T_{h+2} = 2a T_{h+1} - T_h, when a T_{h+1} = T_h (k = h + 1).
    t0, t1 = _t_ladder_vec(a2, (p - 1) // 2, p * p, p)
    r = t0 % p
    plus = (r == 1) | (r == p - 1)
    hit = _mulmod_p2(a2, np.where(plus, t0, t1), p) == np.where(plus, t1, t0)
    return [WieferichHit(int(x), base) for x in p[hit]]


def wieferich_search(base: int, limit: int = 10**6, threads: int | None = None) -> list[WieferichHit]:
    """Primes p <= limit with U_{(p-eps)/2 - 1}(base) = 0 mod p^2, ascending.

    These are the primes where the Euler-criterion U-congruence lifts from
    mod p to mod p^2; they play the role Wieferich primes play for Fermat's
    little theorem, and are about as scarce.  Scope: primes with the base
    not congruent to 0 or +-1, the residues where the criterion applies.
    Each chunk of the range runs as int64 lanes, one prime per lane: one
    T-ladder mod p^2 to h = (p-1)/2 gives T_h and T_{h+1}, eps = +1 exactly
    where T_h = +-1 mod p, and the hit test T_{h+1} = base T_h (eps = +1) or
    base T_{h+1} = T_h (eps = -1) mod p^2.  The ladder takes one int64
    product per step while the chunk's primes stop at 46337 (46337^2 < 2^31)
    and two limbs once one passes it.  The first chunk stops at 46337, so
    its primes stay on one limb whatever the limit.
    A limit of SEARCH_CAP = 2^31 or more raises ResourceLimitError.  With
    threads=1, base 3 to 10^7 took 1.0-1.05 s on a 2-CPU VM; to SEARCH_CAP it
    would take about 7 minutes (extrapolated from 10^6-wide windows up to the
    cap, not run).
    """
    if base in (0, 1, -1):
        raise ValueError("base must not be 0 or +-1")
    if limit < 3:
        raise ValueError("limit must be >= 3")
    _check_search_cap(limit)
    edge = min(limit + 1, 46_338)  # the one-limb primes, 46337^2 < 2^31
    ranges = [(3, edge), *_split_range(edge, limit + 1, max(1, (limit + 1) // 200_000))]
    jobs = [(base, lo, hi) for lo, hi in ranges]
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
    endpoint_ok, profile = _euler_criterion(base, n, ch.eps, ch.delta)
    signed = [-1 if v == n - 1 else v for v in profile]
    violation = any(
        (signed[i] == 1 and signed[i - 1] not in (1, -1)) or (signed[i] == -1 and signed[i - 1] != 0)
        for i in range(1, len(signed))
    )
    return PseudoprimeVerdict(n, base, "strong", endpoint_ok and not violation, tuple(signed))


def _pseudoprime_chunk(job: tuple[int, int, int, str]) -> list[PseudoprimeVerdict]:
    base, lo, hi, kind = job
    comp = ~_sieve_flags(lo, hi)
    if kind != "weak":
        # A lane n sharing a prime q with base^2 - 1 has eps = 0 and cannot pass.
        # Every composite n < hi has a prime factor q <= sqrt(hi - 1), so the
        # multiples of each such q with base = +-1 mod q are struck in the window
        # [lo, hi).  A lane whose shared primes all pass sqrt(hi - 1) still runs
        # the ladder and is dropped by the gcd test of the candidates below.
        q = np.array(primes_in(3, isqrt(hi - 1) + 1), dtype=np.int64)
        r = _residues(base, q)
        for x in q[(r == 1) | (r == q - 1)].tolist():
            comp[-lo % x :: x] = False
    n = np.flatnonzero(comp) + lo
    n = n[n & 1 == 1]  # the odd composites of the chunk, less those struck
    if not n.size:
        return []
    a = _residues(base, n)
    if kind == "weak":
        t, _ = _t_ladder_vec(a, n, n)
        return [PseudoprimeVerdict(int(x), base, kind, True) for x in n[t == a]]
    # A pass at eps = +1 has T_h = delta = +-1 and T_{h+1} = a T_h for h = (n-1)/2,
    # one at eps = -1 has T_{h+1} = delta and a T_{h+1} = T_h: one ladder to h
    # over every lane keeps the few candidates that can pass at either eps.  The
    # gcd test on those few makes eps nonzero for the single-n test of each.
    t0, t1 = _t_ladder_vec(a, n // 2, n)
    cand = ((t0 == 1) | (t0 == n - 1)) & (t1 == a * t0 % n)
    cand |= ((t1 == 1) | (t1 == n - 1)) & (a * t1 % n == t0)
    test = full_pseudoprime_test if kind == "full" else strong_profile
    d = base * base - 1
    return [v for v in (test(x, base) for x in n[cand].tolist() if gcd(d, x) == 1) if v.passed]


def pseudoprime_search(
    base: int, limit: int, kind: str = "full", threads: int | None = None
) -> list[PseudoprimeVerdict]:
    """All odd composites <= limit passing the chosen test, ascending.

    Each chunk of the range runs as int64 lanes, one candidate n per lane:
    composites are the zeros of the sieve; the weak kind tests T_n = base on
    one ladder.  The full and strong kinds skip every n sharing a prime q with
    base^2 - 1, where eps = 0: before the ladder, the chunk's mask strikes the
    multiples of each prime q <= sqrt(hi - 1) with base = +-1 mod q.  They
    then run one ladder to h = (n-1)/2 and keep only the n where
    (T_h = +-1 and T_{h+1} = base T_h) or (T_{h+1} = +-1 and
    base T_{h+1} = T_h) mod n, which every pass at eps = +1 or at eps = -1
    satisfies.  Of those few candidates, the ones prime to base^2 - 1 (a gcd
    per candidate, which drops an n whose shared primes all pass the
    strike's reach) go through the single-n tests full_pseudoprime_test or
    strong_profile, and the verdicts that pass are kept; the weak kind
    matches weak_pseudoprime_test.  A base of 0 or +-1 raises ValueError; a
    limit of SEARCH_CAP = 2^31 or more raises ResourceLimitError.  With
    threads=1, base 2 to 10^7 took 1.1-1.6 s for the strong kind, 1.1-1.3 s
    for the full kind and 1.6-2.0 s for the weak kind on a 2-CPU VM; the
    strong kind to SEARCH_CAP would take about 15 minutes (extrapolated from
    10^6-wide windows up to the cap, not run).
    """
    if kind not in PSEUDOPRIME_KINDS:
        raise ValueError(f"unknown test kind {kind!r}")
    if base in (0, 1, -1):
        raise ValueError("base must not be 0 or +-1")
    _check_search_cap(limit)
    if limit < 9:
        return []
    jobs = [(base, lo, hi, kind) for lo, hi in _split_range(9, limit + 1, max(1, (limit + 1) // 20_000))]
    return [v for chunk in _run_chunks(_pseudoprime_chunk, jobs, threads) for v in chunk]


def lucas_lehmer(p: int) -> bool:
    """Mersenne-number test: M_p = 2^p - 1 is prime iff s_{p-2} = 0 mod M_p,
    where s_0 = 4 and s_{k+1} = s_k^2 - 2.

    The iteration is the doubling chain s_k = 2 T_{2^k}(2), run once: it is
    the V-doubling that cheb_t(2, 2^k, M_p) steps through, so the tests, not
    this function, compare the two.  Each square is reduced mod M_p = 2^p - 1
    by folding, as 2^p = 1 mod M_p: the low p bits plus the rest, a sum below
    2M_p, so one subtraction leaves s in [0, M_p) and the final s == 0 is
    exact.  The bitwise & and >> also fold the negative s^2 - 2 at s = 0, 1
    to its residue.  p = 2 is outside the iteration (s index would be
    negative) and returns True directly since M_2 = 3 is prime.  p above
    MERSENNE_CAP raises ResourceLimitError before any squaring.
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
        s = s * s - 2
        s = (s & mp) + (s >> p)
        if s >= mp:
            s -= mp
    return s == 0


def taxicab_search(limit: int) -> int | None:
    """Least odd composite n <= limit with n | 2^n - 2 and n | T_n(2) - 2.

    None when no such n exists below the limit.
    """
    for n in range(9, limit + 1, 2):
        if pow(2, n, n) == 2 and not is_prime(n) and cheb_t(2, n, n) == 2:
            return n
    return None
