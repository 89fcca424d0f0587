"""Criterion tests: goldens for the searches, property sweeps for primes."""

import random
import time
from math import gcd

import pytest

from chebring import criteria, modarith
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
from chebring.modarith import _ladder_tu, cheb_eval, cheb_t, jacobi
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


def test_criterion_failures_squared_past_2_31():
    """Squared mode where p^2 >= 2^31 runs the ladder on two limbs: [] at the
    prime 70001, and at 46341 = 3^2 * 19 * 271, the least p with p^2 >= 2^31,
    a sampled residue fails exactly when T_k(a) != delta mod p^2 (scalar
    cheb_t, eps and delta by Euler's criterion mod p); 0 is the one residue
    that passes there."""
    start = time.perf_counter()
    assert euler_criterion_failures(70_001, squared=True) == []
    assert time.perf_counter() - start < 1.0
    p = 46_341
    start = time.perf_counter()
    failures = set(euler_criterion_failures(p, squared=True))
    assert time.perf_counter() - start < 1.0
    for a in [0, *random.Random(p).sample(range(2, p - 1), 200)]:
        eps = 1 if pow(a * a - 1, (p - 1) // 2, p) == 1 else -1
        delta = 1 if pow(2 * (a + 1), (p - 1) // 2, p) == 1 else -1
        assert (a in failures) == (cheb_t(a, (p - eps) // 2, p * p) != delta % (p * p)), a


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


@pytest.mark.parametrize("base", [0, 1, -1])
def test_pseudoprime_search_rejects_degenerate_bases(base):
    """At base 1 every odd composite is a weak pseudoprime and the full and
    strong kinds have no candidate; every kind refuses such a base, as the
    single-n tests and wieferich_search do."""
    for kind in ("weak", "full", "strong"):
        with pytest.raises(ValueError, match=r"^base must not be 0 or \+-1$"):
            pseudoprime_search(base, 200, kind)


def test_wieferich_small_limits():
    assert [h.p for h in wieferich_search(13, 100)] == [5, 43, 71]
    assert [h.p for h in wieferich_search(18, 10_000)] == [11]
    assert [h.p for h in wieferich_search(2, 10_000)] == [103]
    assert wieferich_search(8, 10_000) == []


def test_wieferich_matches_inverse_route(monkeypatch):
    """The scan tests U = 0 mod p^2 as T_{k+1} = a T_k, without an inverse;
    the scalar oracle _ladder_tu reads U_{(p-eps)/2 - 1} itself, by an exact
    division by 2(a^2 - 1) with a = base mod p^2.  Bases from
    2^63 on overflow base % int64 lanes.  A chunk whose primes stop at 46337
    (46337^2 < 2^31) runs its ladder on one limb, one reaching 46349 on two,
    as the calls to _mulmod_p2 show; the bases 634770566 and 1124612139 are
    hits at 46337 and at 46349."""
    calls = []
    mulmod = modarith._mulmod_p2
    monkeypatch.setattr(modarith, "_mulmod_p2", lambda *args: calls.append(args) or mulmod(*args))

    def want(base, lo, hi):
        hits = []
        for p in primes_in(lo, hi):
            eps = jacobi(base * base - 1, p)
            if base % p and eps and _ladder_tu(base % (p * p), (p - eps) // 2, p * p)[1] == 0:
                hits.append(p)
        return hits

    wide = (1 << 63, (1 << 64) + 13, -(1 << 63) - 3, (1 << 70) + 3)
    signs = set()
    for base in (2, 3, 5, 6, 7, 10, 12, 13, 17, 18, -5, 10**12 + 39, 634_770_566, 1_124_612_139, *wide):
        assert [h.p for h in wieferich_search(base, 20_000, threads=1)] == want(base, 3, 20_000), base
        for hi in (46_338, 46_400):
            calls.clear()
            assert [h.p for h in criteria._wieferich_chunk((base, 45_000, hi))] == want(base, 45_000, hi), (base, hi)
            assert bool(calls) == (hi == 46_400), (base, hi)
        signs.update(jacobi(base * base - 1, p) for p in want(base, 3, 20_000) + want(base, 45_000, 46_400))
    assert signs == {1, -1}  # hits at eps = +1 and at eps = -1


def test_wieferich_first_chunk_stays_on_one_limb(monkeypatch):
    """The scan starts a new chunk at 46338, so past a limit of 46349 no prime
    up to 46337 reaches the two-limb product of _t_ladder_vec; the hits at
    46337 and at 46349 are those of the scan run as one chunk from 3."""
    reached = []
    mulmod = modarith._mulmod_p2
    monkeypatch.setattr(modarith, "_mulmod_p2", lambda x, y, p: reached.append(int(p.min())) or mulmod(x, y, p))
    assert [h.p for h in wieferich_search(634_770_566, 100_000, threads=1)] == [1229, 46337]
    assert [h.p for h in wieferich_search(1_124_612_139, 100_000, threads=1)] == [25219, 46349]
    assert reached and min(reached) > 46_337


def test_half_ladder_reads_eps():
    """T_{(p-1)/2}(a) = +-1 mod p exactly where eps = +1, for a != 0, +-1 mod p:
    omega_a^{(p-1)/2} is +-1 where eps = +1 and delta/omega_a where eps = -1."""
    rng = random.Random(5)
    cases = [(p, a) for p in primes_in(5, 600) for a in range(2, p - 1)]
    cases += [(p, a) for p in (99_991, 100_003, 100_019) for a in rng.sample(range(2, p - 1), 300)]
    for p, a in cases:
        assert (cheb_t(a, (p - 1) // 2, p) in (1, p - 1)) == (jacobi(a * a - 1, p) == 1), (a, p)


def test_wieferich_takes_no_power_for_eps(monkeypatch):
    def refuse(*args):
        raise AssertionError("_pow_vec called")

    monkeypatch.setattr(criteria, "_pow_vec", refuse)
    for base in (2, 3, 123_457):
        wieferich_search(base, 100_000, threads=1)


def test_pseudoprime_scan_takes_jacobi_only_for_survivors(monkeypatch):
    """The Jacobi symbols and the single-n Euler criterion run once for each
    composite whose ladder to h = (n-1)/2 passes at eps = +1 or at eps = -1, and
    for no other: (T_h = +-1 and T_{h+1} = a T_h) or (T_{h+1} = +-1 and
    a T_{h+1} = T_h) mod n, found here with the scalar ladder."""
    seen = {"characters": [], "_euler_criterion": []}

    def recorder(name):
        original = getattr(criteria, name)

        def record(a, n, *rest):
            seen[name].append(n)
            return original(a, n, *rest)

        return record

    for name in seen:
        monkeypatch.setattr(criteria, name, recorder(name))
    found = pseudoprime_search(2, 20_000, "strong", threads=1)
    composites = [n for n in range(9, 20_001, 2) if not is_prime(n)]
    survivors = []
    for n in composites:
        h = n // 2
        t0, t1 = cheb_t(2, h, n), cheb_t(2, h + 1, n)
        if n % 3 and ((t0 in (1, n - 1) and t1 == 2 * t0 % n) or (t1 in (1, n - 1) and 2 * t1 % n == t0)):
            survivors.append(n)
    assert (len(survivors), len(composites)) == (17, 7738)
    assert {v.n for v in found} <= set(survivors)
    assert seen == {"characters": survivors, "_euler_criterion": survivors}


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


@pytest.mark.parametrize("p", [*primes_in(3, 128), 521, 607, 1279])
def test_lucas_lehmer_matches_pair_ladder(p):
    """s_{p-2} = 2 T_{2^(p-2)}(2) mod M_p: the chain's verdict is the pair
    ladder's T_{2^(p-2)}(2) = 0."""
    assert lucas_lehmer(p) == (cheb_t(2, 1 << (p - 2), (1 << p) - 1) == 0)


def test_lucas_lehmer_runs_the_cap_on_the_chain_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("lucas_lehmer must not call cheb_t")

    monkeypatch.setattr(criteria, "cheb_t", refuse)
    start = time.perf_counter()
    assert lucas_lehmer(MERSENNE_CAP)  # M_4423 is prime
    assert time.perf_counter() - start < 1.0


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
        found = pseudoprime_search(base, 4999, kind, threads=1)
        assert found == _scalar_scan(base, 4999, kind), kind
        if kind != "weak":  # passes at eps = +1 and at eps = -1
            assert {jacobi(base * base - 1, v.n) for v in found} == {1, -1}, kind


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
