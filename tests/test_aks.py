"""Polynomial congruences: primality equivalences and exact coefficients."""

import random
import time
from math import comb, gcd

import pytest

from chebring import aks
from chebring.aks import (
    BINOMIAL_CAP,
    DEGREE_CAP,
    ResourceLimitError,
    chebyshev_poly_mod,
    coefficient_formula,
    lucas_step_check,
    prime_iff_power_check,
    shifted_congruence_check,
)
from chebring.criteria import taxicab_search
from chebring.modarith import cheb_t
from chebring.primes import is_prime, prime_factors
from chebring.structure import IntPolynomial, chebyshev_t_int


def test_poly_mod_goldens():
    assert chebyshev_poly_mod(2).coefficients == (-1, 0, 2)
    assert chebyshev_poly_mod(5).coefficients == (0, 5, 0, -20, 0, 16)
    assert chebyshev_poly_mod(5, 7).coefficients == (0, 5, 0, 1, 0, 2)
    assert chebyshev_poly_mod(0, 5).coefficients == (1,)
    assert chebyshev_poly_mod(3, 2).coefficients == (0, 1)  # 4x^3-3x mod 2


def test_poly_mod_paths_agree():
    """The int64 ladder, the closed form reduced mod m and the exact closed
    form: all one polynomial."""
    rng = random.Random(51)
    wide = (1 << 30) - 35  # the ladder up to n = 15, the closed form past it
    big = (1 << 31) + 11  # the ladder at n < 2 only
    for _ in range(40):
        n = rng.randrange(0, 60)
        m = rng.randrange(2, 1000)
        exact = chebyshev_poly_mod(n).coefficients
        assert chebyshev_poly_mod(n, m) == IntPolynomial.of(c % m for c in exact)
        assert chebyshev_poly_mod(n, wide) == IntPolynomial.of(c % wide for c in exact)
        assert chebyshev_poly_mod(n, big) == IntPolynomial.of(c % big for c in exact)


def test_poly_mod_validation():
    with pytest.raises(ValueError):
        chebyshev_poly_mod(-1)
    with pytest.raises(ValueError):
        chebyshev_poly_mod(5, 1)
    for m in (0, -5):
        with pytest.raises(ValueError, match="modulus must be >= 2"):
            chebyshev_t_int(5, 0, m)
    with pytest.raises(ValueError) as refused:
        chebyshev_t_int(5, 1)  # the exact build covers T_n(x) only
    assert str(refused.value) == "shift 1 needs a modulus: exact coefficients are built for T_n(x) only"
    with pytest.raises(ResourceLimitError):
        chebyshev_poly_mod(DEGREE_CAP + 1)
    assert chebyshev_poly_mod(DEGREE_CAP, 10007).degree == DEGREE_CAP


@pytest.mark.parametrize(
    "call",
    [
        lambda: chebyshev_poly_mod(DEGREE_CAP),
        lambda: chebyshev_poly_mod(DEGREE_CAP, 10007),  # the int64 ladder
        lambda: chebyshev_poly_mod(DEGREE_CAP, (1 << 30) + 3),  # the closed form reduced, from here up
        lambda: chebyshev_poly_mod(DEGREE_CAP, (1 << 61) - 1),
        lambda: chebyshev_poly_mod(DEGREE_CAP, (1 << 4000) - 1),
        lambda: prime_iff_power_check(9973),  # the largest prime below DEGREE_CAP
        lambda: prime_iff_power_check(8911),  # the largest Fermat pseudoprime below DEGREE_CAP
        lambda: shifted_congruence_check(9973, 1),
        lambda: coefficient_formula(DEGREE_CAP, DEGREE_CAP // 4),
    ],
    ids=[
        "exact",
        "mod-10007",
        "mod-2^30+3",
        "mod-2^61-1",
        "mod-4000-bit",
        "power-check",
        "power-check-pseudoprime",
        "shifted-check",
        "coefficient",
    ],
)
def test_entry_points_within_budget_at_the_cap(call, cold_caches):
    start = time.perf_counter()
    call()
    assert time.perf_counter() - start < 1.0


def test_exact_and_reduced_agree_at_the_cap():
    exact = chebyshev_poly_mod(DEGREE_CAP).coefficients
    for m in (10007, (1 << 30) + 3, (1 << 61) - 1, (1 << 4000) - 1):
        assert chebyshev_poly_mod(DEGREE_CAP, m) == IntPolynomial.of(c % m for c in exact)


def test_power_check_matches_primality():
    for n in range(2, 3001):
        assert prime_iff_power_check(n) == is_prime(n), n


def test_power_check_edges():
    assert prime_iff_power_check(2)
    assert not prime_iff_power_check(4)
    for n in (9, 15, 21, 25, 341, 561):  # includes Fermat pseudoprimes
        assert not prime_iff_power_check(n)
    with pytest.raises(ValueError):
        prime_iff_power_check(1)
    with pytest.raises(ResourceLimitError):
        prime_iff_power_check(DEGREE_CAP + 1)


def _record_builds(monkeypatch) -> list[int]:
    """The n of every chebyshev_t_int call the aks checks make from here on."""
    builds = []
    real = aks.chebyshev_t_int
    monkeypatch.setattr(aks, "chebyshev_t_int", lambda n, *rest, **kw: builds.append(n) or real(n, *rest, **kw))
    return builds


def test_power_check_rejects_every_fermat_pseudoprime_to_10_4(monkeypatch, cold_caches):
    """The base-2 Fermat pseudoprimes are the only composites that pass the
    leading coefficient, and each fails the check; only those that also pass
    the point x = 2, T_n(2) = 2^n = 2 mod n, build T_n mod n: 1729 and 2701,
    the simultaneous pseudoprimes of taxicab_search."""
    pseudoprimes = [n for n in range(3, 10**4, 2) if pow(2, n - 1, n) == 1 and not is_prime(n)]
    assert len(pseudoprimes) == 22 and pseudoprimes[0] == 341 and pseudoprimes[-1] == 8911
    builds = _record_builds(monkeypatch)
    for n in pseudoprimes:
        assert not prime_iff_power_check(n), n
    assert builds == [n for n in pseudoprimes if cheb_t(2, n, n) == 2] == [1729, 2701]
    assert taxicab_search(10**4) == 1729


@pytest.mark.parametrize("a", [1, 2])
def test_shifted_check_builds_only_past_the_point_test(monkeypatch, cold_caches, a):
    """Over every odd n < 3000, T_n(u + a/2) is built exactly for the primes
    and the composites with T_n(a + 1) = a + 1 mod n, and each such
    composite still fails the check."""
    builds = _record_builds(monkeypatch)
    passing_composites = []
    for n in range(3, 3000, 2):
        before = len(builds)
        prime, point = is_prime(n), cheb_t(a + 1, n, n) == (a + 1) % n
        assert shifted_congruence_check(n, a) == prime, n
        assert builds[before:] == ([n] if prime or point else []), n
        if point and not prime:
            passing_composites.append(n)
    assert passing_composites  # some composites reach the build, and fail it


def test_no_composite_of_the_poly_band_builds(monkeypatch, cold_caches, workloads):
    """Every composite n of the benchmark's poly band fails both checks at
    their point tests, before any polynomial is built."""
    builds = _record_builds(monkeypatch)
    lo, hi = workloads.POLY_BAND
    composites = [n for n in range(lo, hi, 2) if not is_prime(n)]
    assert len(composites) == 20
    for n in composites:
        assert not shifted_congruence_check(n, 1), n
        assert not prime_iff_power_check(n), n
    assert builds == []


@pytest.mark.parametrize("power_first", [True, False], ids=["power-then-shifted", "shifted-then-power"])
def test_power_and_shifted_checks_build_one_polynomial_each(monkeypatch, cold_caches, power_first):
    """At one prime n each check builds one polynomial, whichever runs first:
    the power check T_n(x), the shifted check T_n(u + h) at h = a/2 mod n and
    never T_n(x); at an even n the shifted check builds nothing."""
    n = 1409
    shifts = []
    real = aks.chebyshev_t_int

    def counting(n, shift=0, modulus=None):
        shifts.append(shift)
        return real(n, shift, modulus)

    monkeypatch.setattr(aks, "chebyshev_t_int", counting)
    checks = {0: lambda: prime_iff_power_check(n), 705: lambda: shifted_congruence_check(n, 1)}
    order = [0, 705] if power_first else [705, 0]
    for i, shift in enumerate(order, 1):
        assert checks[shift]()
        assert shifts == order[:i]
    assert not shifted_congruence_check(1410, 1)
    assert shifts == order


def test_shifted_check_matches_primality():
    for n in range(3, 501, 2):
        assert shifted_congruence_check(n, 1) == is_prime(n), n
        assert shifted_congruence_check(n, 2) == is_prime(n), n


def test_shifted_check_edges():
    # the literal congruence needs an odd modulus; n=2 is not special-cased here
    assert not shifted_congruence_check(2, 1)
    assert shifted_congruence_check(11, 12) == shifted_congruence_check(11, 1)
    for n, a in ((15, 3), (9, -3), (9, 12), (9, 0), (10, -2)):  # the refusal names the shift as given
        with pytest.raises(ValueError, match=f"^shift {a} shares a factor with {n}$"):
            shifted_congruence_check(n, a)
    with pytest.raises(ResourceLimitError):
        shifted_congruence_check(DEGREE_CAP + 1, 1)
    assert shifted_congruence_check(9973, 1)  # the largest prime below DEGREE_CAP, timed in the budget test


def test_shifted_check_matches_the_literal_congruence(chebyshev_recurrence):
    """T_n(x+a) against T_n(x) + a, both sides built mod n by the three-term
    recurrence, for every n < 200, even n included, at shifts on both sides
    of [0, n)."""
    for n in range(2, 200):
        t = chebyshev_recurrence(n).coefficients
        for a in (1, 2, -1, n + 1, 7 * n + 4):
            if gcd(a, n) > 1:
                continue
            left = IntPolynomial.of(c % n for c in chebyshev_recurrence(n, a % n).coefficients)
            right = IntPolynomial.of([(t[0] + a) % n] + [c % n for c in t[1:]])
            assert shifted_congruence_check(n, a) == (left == right), (n, a)


def test_coefficient_formula_goldens():
    assert coefficient_formula(5, 1) == -20
    assert coefficient_formula(5, 2) == 5
    assert coefficient_formula(4, 2) == 1  # middle coefficient, even n
    assert coefficient_formula(2, 1) == -1
    with pytest.raises(ValueError):
        coefficient_formula(5, 0)
    with pytest.raises(ValueError):
        coefficient_formula(5, 3)


def test_coefficient_formula_matches_recurrence(chebyshev_recurrence):
    for n in range(2, 201):
        coeffs = chebyshev_recurrence(n).coefficients
        assert coeffs[n] == 2 ** (n - 1)  # leading term, outside the formula
        for k in range(1, n // 2 + 1):
            assert coefficient_formula(n, k) == coeffs[n - 2 * k], (n, k)
        for j in range(n - 1, -1, -2):
            assert coeffs[j] == 0  # parity gaps


def test_coefficient_formula_double_sum():
    """Binomial expansion of (x + sqrt(x^2-1))^n gives the same numbers."""
    for n in range(2, 81):
        for k in range(1, n // 2 + 1):
            alt = (-1) ** k * sum(comb(n, 2 * t) * comb(t, k) for t in range(k, n // 2 + 1))
            assert coefficient_formula(n, k) == alt


def test_composite_witness_at_prime_factors():
    """The x^{n-2p} coefficient leaves 0 mod n at every prime p | n."""
    for n in range(9, 500, 2):
        if is_prime(n):
            continue
        for p in prime_factors(n):
            assert coefficient_formula(n, p) % n != 0, (n, p)
        # walking the d_k chain: zero mod n strictly before the least factor
        lpf = prime_factors(n)[0]
        d = n
        for k in range(1, lpf + 1):
            if k > 1:
                num = d * (n - 2 * (k - 1)) * (n - 2 * (k - 1) - 1)
                den = k * (n - k)
                d, rem = divmod(num, den)
                assert rem == 0
            if k < lpf:
                assert d % n == 0, (n, k)
        assert d % n != 0, n


def test_lucas_step_goldens():
    assert lucas_step_check(15, 3)
    assert lucas_step_check(15, 5)
    assert lucas_step_check(21, 3)
    assert lucas_step_check(21, 7)
    assert lucas_step_check(9, 3)


def test_lucas_step_validation():
    with pytest.raises(ValueError):
        lucas_step_check(15, 7)  # 7 does not divide 15
    with pytest.raises(ValueError):
        lucas_step_check(15, 6)
    with pytest.raises(ValueError):
        lucas_step_check(17, 17)  # prime n
    with pytest.raises(ValueError):
        lucas_step_check(10, 5)  # even n
    with pytest.raises(ValueError):
        lucas_step_check(25, 25)


def test_lucas_step_refuses_past_the_binomial_cap():
    """The exact binomial is refused before it is built: at p = 300007 and
    n = 3p, C(n-p-1, p-1) would take several seconds."""
    p = 300007
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"exceeds the cap of {BINOMIAL_CAP}$"):
        lucas_step_check(3 * p, p)
    with pytest.raises(ResourceLimitError, match=f"exceeds the cap of {BINOMIAL_CAP}$"):
        lucas_step_check((3 * 10**6 + 1) * 100003, 100003)  # a longer n at a smaller p
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("modulus", [None, 10007], ids=["exact", "mod-10007"])
def test_chebyshev_t_int_refuses_past_the_degree_cap(modulus):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError) as refused:
        chebyshev_t_int(DEGREE_CAP + 1, modulus=modulus)
    assert str(refused.value) == f"degree {DEGREE_CAP + 1} exceeds the cap of {DEGREE_CAP}"
    assert time.perf_counter() - start < 1.0


def test_modpolynomial_normalization():
    """Reduced polynomials drop the top coefficients that vanish mod m."""
    assert IntPolynomial.of([1, 2, 0, 0]).coefficients == (1, 2)
    assert IntPolynomial.of([]).degree == -1
    assert chebyshev_poly_mod(4, 8).coefficients == (1,)  # 8x^4-8x^2+1 mod 8
    assert chebyshev_t_int(2, 1, 2).coefficients == (1,)  # 2(x+1)^2-1 mod 2
