"""Criterion tests: goldens for the searches, property sweeps for primes."""

import random
import time
from math import gcd

import pytest

from chebring import criteria
from chebring.criteria import (
    MERSENNE_CAP,
    SEARCH_CAP,
    PseudoprimeVerdict,
    euler_criterion_failures,
    euler_test,
    euler_test_modp2,
    full_pseudoprime_test,
    lucas_lehmer,
    pseudoprime_search,
    strong_profile,
    taxicab_search,
    weak_pseudoprime_test,
    wieferich_search,
)
from chebring.modarith import _ladder_tu, cheb_eval, jacobi
from chebring.primes import is_prime, primes_in, primes_upto
from chebring.structure import TABLE_CAP, ResourceLimitError, characters

BASE2_FULL_PSEUDOPRIMES = [989, 2701, 10609, 11041, 15505, 18721, 18817]
BASE2_WEAK_PSEUDOPRIMES_2000 = [209, 231, 399, 455, 901, 903, 923, 989, 1295, 1729, 1855]

# Leading entries of the base-2 doubling profiles; any omitted tail is all 1s.
PROFILE_HEADS = {
    989: (1,),
    2701: (0, -1),
    10609: (9083, 0, -1, 1),
    11041: (0, -1, 1, 1, 1),
    15505: (8416, 4431, 8861, 1),
    18721: (14063, 17370, 18527, 387, 1),
    18817: (18791, 1351, 18720, 0, -1, 1),
}
STRONG_SURVIVORS = [989, 2701, 10609, 11041, 18817]


def test_characters_golden():
    ch = characters(19, 23)
    assert (ch.eps, ch.delta) == (-1, -1)
    ch = characters(2, 23)
    assert (ch.eps, ch.delta) == (1, 1)
    assert characters(1, 23).eps == 0
    assert characters(22, 23).delta == 0


def test_characters_reject_even_modulus():
    with pytest.raises(ValueError):
        characters(2, 10)


def test_euler_test_true_on_primes():
    for p in primes_in(3, 300):
        for a in range(p):
            if characters(a, p).eps == 0:
                continue
            assert euler_test(a, p)
            assert euler_test_modp2(a, p)


def test_euler_test_degenerate_base():
    with pytest.raises(ValueError):
        euler_test(1, 23)
    with pytest.raises(ValueError):
        euler_test_modp2(24, 23)


def test_criterion_failures_empty_for_primes():
    for p in (5, 23, 101, 997):
        assert euler_criterion_failures(p) == []
        assert euler_criterion_failures(p, squared=True) == []


def test_criterion_failures_flag_a_composite():
    # 15 fails at every eligible residue, both exponents included
    assert euler_criterion_failures(15) == [a for a in range(15) if a not in (1, 14)]


def test_criterion_failures_match_scalar_pairs():
    """The lanes test two congruences at (n-eps)/2 and read U from d*U with
    d = a^2 - 1; at composites d may be no unit, and the failures still equal
    those of all four congruences on the exact pairs from cheb_eval.  The
    Carmichael numbers up to 8911 add many lanes where the Euler-power
    characters differ from the Jacobi symbol or gcd(d, n) > 1."""
    for n in (*range(5, 400, 2), 561, 1105, 1729, 2465, 2821, 6601, 8911):
        h = (n - 1) // 2
        expected = []
        for a in (0, *range(2, n - 1)):
            eps = 1 if pow(a * a - 1, h, n) == 1 else -1
            delta = 1 if pow(2 * (a + 1), h, n) == 1 else -1
            lo, hi = cheb_eval(a, (n - eps) // 2, n), cheb_eval(a, (n + eps) // 2, n)
            if (lo.t, lo.u, hi.t, hi.u) != (delta % n, 0, delta * a % n, delta * eps % n):
                expected.append(a)
        assert euler_criterion_failures(n) == expected, n


def test_criterion_failures_modulus_cap():
    for p in (46_341, 70_001):  # 46_341 is the least p with p^2 >= 2^31
        with pytest.raises(ValueError, match="too large"):
            euler_criterion_failures(p, squared=True)


def test_criterion_failures_even_modulus_named_first():
    """An even p is refused for its parity, even where p^2 >= 2^31 as well."""
    with pytest.raises(ValueError, match="^characters need an odd modulus >= 3, got 70000$"):
        euler_criterion_failures(70_000, squared=True)


def test_criterion_failures_table_cap():
    """Past TABLE_CAP the lanes are never allocated: p-long int64 arrays at any
    modulus below 2^31 would need on the order of 100 GB near the top."""
    for p in (TABLE_CAP + 1, 1_000_003):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"^modulus {p} exceeds the table cap of {TABLE_CAP}$"):
            euler_criterion_failures(p)
        assert time.perf_counter() - start < 1.0


def test_criterion_failures_reject_bad_modulus():
    # p <= 0 would give the vector power a negative exponent, which never shrinks to 0
    for p in (0, -5, 1, 2, 4):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"odd modulus >= 3, got {p}$"):
            euler_criterion_failures(p)
        assert time.perf_counter() - start < 1.0


def test_weak_search_golden():
    found = pseudoprime_search(2, 2000, kind="weak")
    assert [v.n for v in found] == BASE2_WEAK_PSEUDOPRIMES_2000


def test_full_search_golden():
    found = pseudoprime_search(2, 20_000)
    assert [v.n for v in found] == BASE2_FULL_PSEUDOPRIMES
    assert all(v.kind == "full" and v.passed for v in found)


def test_full_pseudoprimes_are_weak_pseudoprimes():
    weak = {v.n for v in pseudoprime_search(2, 20_000, kind="weak")}
    assert set(BASE2_FULL_PSEUDOPRIMES) <= weak


def test_strong_profiles_golden():
    for n, head in PROFILE_HEADS.items():
        profile = strong_profile(n, 2).profile
        assert profile[: len(head)] == head
        assert set(profile[len(head) :]) <= {1}


def test_strong_search_golden():
    found = pseudoprime_search(2, 20_000, kind="strong")
    assert [v.n for v in found] == STRONG_SURVIVORS
    rejected = set(BASE2_FULL_PSEUDOPRIMES) - {v.n for v in found}
    assert rejected == {15505, 18721}
    assert not strong_profile(15505, 2).passed
    assert not strong_profile(18721, 2).passed


def test_strong_profile_clean_on_primes():
    rng = random.Random(21)
    for p in primes_in(3, 2000):
        base = rng.randrange(2, max(3, p - 1))
        if gcd(base * base - 1, p) > 1:
            continue
        v = strong_profile(p, base)
        assert v.passed, (p, base, v.profile)


def _reference_criterion(n: int, base: int) -> tuple[bool, list[int]]:
    """The endpoint verdict and doubling profile of the Euler criterion mod n:
    cheb_eval up to the odd part of (n-eps)/2, then pair squaring
    (t, u) -> (t^2 + d u^2, 2tu) with d = base^2 - 1."""
    eps, delta = jacobi(base * base - 1, n), jacobi(2 * (base + 1), n)
    k, doublings = (n - eps) // 2, 0
    while k % 2 == 0:
        k, doublings = k // 2, doublings + 1
    t, u = cheb_eval(base, k, n).as_tuple()
    d = (base * base - 1) % n
    profile = [t]
    for _ in range(doublings):
        t, u = (t * t + d * u * u) % n, 2 * t * u % n
        profile.append(t)
    return t == delta % n and u == 0, profile


def test_criterion_tests_match_reference():
    for n in range(9, 3000, 2):
        for base in (2, 3, 5, 7, 10):
            if gcd(base * base - 1, n) > 1:
                continue
            endpoint_ok, profile = _reference_criterion(n, base)
            signed = tuple(-1 if v == n - 1 else v for v in profile)
            # over a prime, 1 follows only +-1 and -1 follows only 0
            violation = any(
                (cur == 1 and prev not in (1, -1)) or (cur == -1 and prev != 0)
                for prev, cur in zip(signed, signed[1:])
            )
            assert full_pseudoprime_test(n, base).passed == endpoint_ok, (n, base)
            strong = strong_profile(n, base)
            assert strong.profile == signed, (n, base)
            assert strong.passed == (endpoint_ok and not violation), (n, base)


def _outcome(test):
    """A test's result, or the message of the ValueError it raises."""
    try:
        return test()
    except ValueError as exc:
        return str(exc)


def test_full_test_is_euler_test():
    for n in range(3, 2000, 2):
        for base in (2, 3, 10, -7):
            full = _outcome(lambda: full_pseudoprime_test(n, base).passed)
            assert full == _outcome(lambda: euler_test(base, n)), (n, base)


def test_degenerate_bases_name_the_cause():
    for test in (full_pseudoprime_test, strong_profile):
        with pytest.raises(ValueError, match=r"^degenerate base: gcd\(4\^2 - 1, 15\) = 15$"):
            test(15, 4)
        with pytest.raises(ValueError, match=r"^degenerate base: 14 = \+-1 mod 15$"):
            test(15, 14)


def test_pseudoprime_validation():
    with pytest.raises(ValueError):
        weak_pseudoprime_test(10, 2)
    with pytest.raises(ValueError):
        pseudoprime_search(2, 100, kind="sloppy")
    with pytest.raises(ValueError):
        PseudoprimeVerdict(9, 2, "bogus", False)
    assert pseudoprime_search(2, 8) == []


def test_wieferich_small_limits():
    assert [h.p for h in wieferich_search(13, 100)] == [5, 43, 71]
    assert [h.p for h in wieferich_search(18, 10_000)] == [11]
    assert [h.p for h in wieferich_search(2, 10_000)] == [103]
    assert wieferich_search(8, 10_000) == []


def test_wieferich_matches_inverse_route():
    """The scan tests U = 0 mod p^2 without an inverse; _ladder_tu computes
    U_{(p-eps)/2 - 1} itself through the inverse of base^2 - 1.  Bases from
    2^63 on overflow base % int64 lanes."""
    wide = (1 << 63, (1 << 64) + 13, -(1 << 63) - 3, (1 << 70) + 3)
    for base in (2, 3, 5, 6, 7, 10, 12, 13, 17, 18, -5, 10**12 + 39, *wide):
        want = []
        for p in primes_in(3, 20_000):
            eps = jacobi(base * base - 1, p)
            if base % p and eps and _ladder_tu(base % (p * p), (p - eps) // 2, p * p)[1] == 0:
                want.append(p)
        assert [h.p for h in wieferich_search(base, 20_000, threads=1)] == want, base


def test_wieferich_skips_degenerate_primes():
    # primes dividing base or base^2 - 1 are outside the criterion's domain
    hits = wieferich_search(9, 10_000)
    assert all(h.p not in (2, 3) for h in hits)
    assert hits == []


def test_wieferich_validation():
    with pytest.raises(ValueError):
        wieferich_search(1, 100)
    with pytest.raises(ValueError):
        wieferich_search(5, 2)


def test_lucas_lehmer_goldens():
    assert lucas_lehmer(2)
    assert lucas_lehmer(7)
    assert not lucas_lehmer(11)
    assert not lucas_lehmer(23)
    assert lucas_lehmer(127)
    with pytest.raises(ValueError):
        lucas_lehmer(9)
    with pytest.raises(ResourceLimitError, match=f"^exponent 4441 exceeds the Lucas-Lehmer cap of {MERSENNE_CAP}$"):
        lucas_lehmer(4441)  # the least prime past the cap


def test_taxicab_goldens():
    assert taxicab_search(2000) == 1729
    assert taxicab_search(1728) is None
    assert taxicab_search(8) is None


def test_primes_never_flagged_pseudoprime():
    found = pseudoprime_search(2, 20_000, kind="weak")
    prime_set = set(primes_upto(20_000))
    assert not prime_set & {v.n for v in found}


SCAN_BASES = (2, 3, 10, -7, 30030, (1 << 63) + 7, (1 << 70) + 3)  # 30030 = 2*3*5*7*11*13


def _scalar_scan(base: int, limit: int, kind: str) -> list[PseudoprimeVerdict]:
    """The pseudoprime scan written with the single-n tests, one n at a time."""
    out = []
    for n in range(9, limit + 1, 2):
        if is_prime(n):
            continue
        if kind == "weak":
            if weak_pseudoprime_test(n, base):
                out.append(PseudoprimeVerdict(n, base, kind, True))
            continue
        if gcd(base * base - 1, n) > 1:
            continue
        v = full_pseudoprime_test(n, base) if kind == "full" else strong_profile(n, base)
        if v.passed:
            out.append(v)
    return out


@pytest.mark.parametrize("base", SCAN_BASES)
def test_pseudoprime_lanes_match_single_n_tests(base):
    """Every odd composite n in [9, 5000), all three kinds, verdicts and profiles."""
    for kind in ("weak", "full", "strong"):
        assert pseudoprime_search(base, 4999, kind, threads=1) == _scalar_scan(base, 4999, kind), kind


@pytest.mark.parametrize("cpus", [3, 64])
def test_pool_is_capped_at_cpus_and_chunks(monkeypatch, cpus):
    """threads=10**6 asks for min(cpus, 5 chunks) workers.  The recording pool
    runs map in-process, so no process starts."""
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(criteria, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(criteria.os, "cpu_count", lambda: cpus)
    serial = pseudoprime_search(2, 100_000, threads=1)
    assert asked == []
    assert pseudoprime_search(2, 100_000, threads=10**6) == serial
    assert asked == [min(cpus, 5)]


def test_search_cap():
    for limit in (SEARCH_CAP, 10**12):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"limit {limit} exceeds the search cap of 2147483647"):
            wieferich_search(3, limit)
        with pytest.raises(ResourceLimitError, match=f"limit {limit} exceeds the search cap of 2147483647"):
            pseudoprime_search(3, limit, "strong")
        assert time.perf_counter() - start < 1.0
