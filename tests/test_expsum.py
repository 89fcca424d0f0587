"""Exponential sums: closed forms, bounds, symmetry of the four cells."""

import cmath
import math
import time

import pytest

from chebring import expsum, structure
from chebring.expsum import (
    TOLERANCE,
    conjugacy_check,
    difference_lemma_check,
    epsilon_p,
    gauss_sums,
    partition_sums,
    shifted_character_sums,
    weil_sum,
    zeta_powers,
)
from chebring.modarith import jacobi
from chebring.primes import primes_in
from chebring.structure import (
    TABLE_CAP,
    ResourceLimitError,
    order_class_decomposition,
    partition,
    residue_shift_refinement,
)

# (real.hex(), imag.hex()) of each sum, recorded from the per-residue Python
# loops (CPython 3.11's builtin sum); the empty ++ cell at p = 5 is the int 0.
# Cells by key, S (the report's and weil_sum's), the shifted sums over R_p
# with ((a-1)/p), ((a+1)/p), ((a^2-1)/p), and the Gauss sums g_R, g_N.
PINNED = {
    5: {
        "++": 0,
        "+-": ("0x1.0000000000000p+0", "0x0.0p+0"),
        "-+": ("-0x1.9e3779b97f4a7p-1", "0x1.2cf2304755a5ep-1"),
        "--": ("-0x1.9e3779b97f4a8p-1", "-0x1.2cf2304755a5dp-1"),
        "S": ("0x1.9e3779b97f4a8p+0", "-0x1.0000000000000p-53"),
        "minus": ("0x1.0000000000000p+0", "0x1.2cf2304755a5ep+0"),
        "plus": ("0x1.0000000000000p+0", "-0x1.2cf2304755a5ep+0"),
        "both": ("0x1.4f1bbcdcbfa54p+1", "-0x1.0000000000000p-53"),
        "R": ("0x1.3c6ef372fe94ep-1", "-0x1.0000000000000p-53"),
        "N": ("-0x1.9e3779b97f4a8p+0", "0x1.0000000000000p-53"),
    },
    7: {
        "++": ("-0x1.cd4bca9cb5c71p-1", "0x1.bc4c04d71abc5p-2"),
        "+-": ("-0x1.cd4bca9cb5c72p-1", "-0x1.bc4c04d71abbfp-2"),
        "-+": ("0x1.0000000000000p+0", "0x0.0p+0"),
        "--": ("-0x1.c7b90e3024584p-2", "0x0.0p+0"),
        "S": ("-0x1.5b5d8710acb11p+0", "0x1.0000000000000p-52"),
        "minus": ("-0x1.71ee438c09160p+0", "0x1.bc4c04d71abc2p-1"),
        "plus": ("0x1.71ee438c09161p+0", "0x1.bc4c04d71abc2p-1"),
        "both": ("-0x1.2daec38856587p+1", "0x1.0000000000000p-52"),
        "R": ("-0x1.fffffffffffffp-2", "0x1.52a7fa9d2f8eap+0"),
        "N": ("-0x1.0000000000003p-1", "-0x1.52a7fa9d2f8ebp+0"),
    },
    23: {
        "++": ("0x1.5659b899c386bp+0", "0x1.1648c865e11aap+1"),
        "+-": ("0x1.5659b899c3866p+0", "-0x1.1648c865e11a2p+1"),
        "-+": ("-0x1.113eea6e901dfp+1", "-0x1.0000000000000p-53"),
        "--": ("-0x1.3b9c8d7d1cd5fp+1", "0x1.c000000000000p-51"),
        "S": ("0x1.08cd4c215c1eap+3", "0x1.1000000000000p-48"),
        "minus": ("-0x1.52ed187465beep-2", "0x1.1648c865e11a8p+2"),
        "plus": ("0x1.52ed187465c04p-2", "0x1.1648c865e11a5p+2"),
        "both": ("0x1.d19a9842b83d4p+2", "0x1.1000000000000p-48"),
        "R": ("-0x1.fffffffffffcfp-2", "0x1.32eee75770419p+1"),
        "N": ("-0x1.0000000000001p-1", "-0x1.32eee7577040bp+1"),
    },
    1049: {
        "++": ("0x1.bfde8aed588dcp+2", "0x1.a0f0000000000p-45"),
        "+-": ("-0x1.863c68ee1c4d8p+4", "0x1.39b8000000000p-43"),
        "-+": ("0x1.ec89d7a27b652p+2", "-0x1.9991517a8192cp-4"),
        "--": ("0x1.ec89d7a27b63cp+2", "0x1.9991517a84774p-4"),
        "S": ("-0x1.0e44d90201eddp+5", "0x1.351c000000000p-44"),
        "minus": ("0x1.f6340ba972711p+4", "0x1.9991517a82347p-3"),
        "plus": ("0x1.f6340ba972719p+4", "-0x1.9991517a83cc5p-3"),
        "both": ("-0x1.0644d90201edcp+5", "0x1.351c000000000p-44"),
        "R": ("0x1.f6365a0f4a9e8p+3", "0x1.77ef000000000p-44"),
        "N": ("-0x1.0b1b2d07a545fp+4", "0x1.aca4000000000p-43"),
    },
    262139: {
        "++": ("-0x1.10643de93006bp+1", "-0x1.fffec18f436edp+7"),
        "+-": ("-0x1.10643de92ecd2p+1", "0x1.fffec18f43256p+7"),
        "-+": ("0x1.3e6cb648cde1dp-1", "-0x1.1e120fc000000p-37"),
        "--": ("0x1.a25a9c83cd422p+0", "0x1.f59f380800000p-37"),
        "S": ("-0x1.60c87bd3fb4bep+2", "0x1.2f4fe06000000p-40"),
        "minus": ("-0x1.0324415ff5a02p+0", "0x1.fffec18f45fd6p+8"),
        "plus": ("0x1.0324415ff96eap+0", "0x1.fffec18f45f3bp+8"),
        "both": ("-0x1.a0c87bd3fb470p+2", "0x1.2f4fe06000000p-40"),
        "R": ("-0x1.ffffffffe062ap-2", "0x1.fffebfff97490p+7"),
        "N": ("-0x1.ffffffffaf9a8p-2", "-0x1.fffebfff98478p+7"),
    },
}


def test_epsilon_p():
    assert epsilon_p(5) == 1.0
    assert epsilon_p(13) == 1.0
    assert epsilon_p(7) == 1.0j
    assert epsilon_p(23) == 1.0j


def test_zeta_powers():
    for p in (23, 257, 1009):
        zp = zeta_powers(p)
        assert len(zp) == p
        assert zp[0] == 1.0
        assert all(abs(abs(z) - 1.0) < 1e-12 for z in zp)
        assert abs(zp[1] ** p - 1.0) < 1e-9
        assert abs(zp[p - 1] - zp[1].conjugate()) < 1e-12


@pytest.mark.parametrize("p", sorted(PINNED))
def test_sums_pinned_bit_for_bit(p):
    """Pinned literals, not the builtin sum: CPython 3.12+ changed how sum adds
    floats, so a comparison with it would drift on newer interpreters."""

    def bits(v):
        if type(v) is int:
            return v
        assert type(v) is complex
        return (v.real.hex(), v.imag.hex())

    report = partition_sums(p)
    got = {cell: bits(v) for cell, v in report.g.items()}
    got["S"] = bits(report.S)
    assert bits(weil_sum(p)) == got["S"]
    got.update(zip(("minus", "plus", "both"), map(bits, shifted_character_sums(p))))
    got.update(zip(("R", "N"), map(bits, gauss_sums(p))))
    assert got == PINNED[p]
    zp = zeta_powers(p)
    assert type(zp) is list and all(type(z) is complex for z in zp)


def test_gauss_sums_closed_form():
    for p in (5, 7, 13, 23, 101):
        g_r, g_n = gauss_sums(p)
        root = epsilon_p(p) * math.sqrt(p)
        assert abs(g_r - (-1 + root) / 2) < 1e-9
        assert abs(g_n - (-1 - root) / 2) < 1e-9
        assert abs(g_r + g_n + 1.0) < 1e-9  # all of zeta's nontrivial powers


def test_weil_bound_sweep():
    """From p = 3, where R_p = {0} and S is the empty sum, still a complex."""
    for p in primes_in(3, 500):
        assert abs(weil_sum(p)) <= 2 * math.sqrt(p) + TOLERANCE
    assert type(weil_sum(3)) is complex


def test_shifted_sums_internal_asserts():
    # the closed forms are asserted inside; a return means they held
    for p in primes_in(5, 300):
        s_minus, s_plus, s_both = shifted_character_sums(p)
        assert abs(s_both - jacobi(-1, p) - weil_sum(p)) < 1e-9


def test_partition_sums_golden_p23():
    report = partition_sums(23)
    assert report.p == 23
    assert report.bound == pytest.approx(math.sqrt(23) + 1.25)
    # compare against a from-scratch direct summation
    table = partition(23)
    for cell, members in table.sets.items():
        direct = sum(cmath.exp(2j * math.pi * a / 23) for a in members)
        assert abs(report.g[cell] - direct) < 1e-9
    assert report.max_ratio == pytest.approx(
        max(abs(v) for v in report.g.values()) / math.sqrt(23)
    )
    assert abs(report.S) == pytest.approx(8.275061, abs=1e-5)


def test_four_cell_sum_collapses():
    for p in primes_in(5, 200):
        total = sum(partition_sums(p).g.values())
        assert abs(total + 2 * math.cos(2 * math.pi / p)) < 1e-9


def test_cell_bound_sweep():
    for p in primes_in(5, 500):
        report = partition_sums(p)
        for z in report.g.values():
            assert abs(z) <= report.bound + TOLERANCE


def test_difference_lemma_sweep():
    assert all(difference_lemma_check(p) for p in primes_in(5, 500))


def test_conjugacy_sweep():
    assert all(conjugacy_check(p) for p in primes_in(5, 500))


def test_domain_validation():
    with pytest.raises(ValueError):
        partition_sums(4)
    with pytest.raises(ValueError):
        partition_sums(15)
    with pytest.raises(ValueError):
        gauss_sums(9)
    for fn in (gauss_sums, weil_sum, shifted_character_sums):
        for bad in (1, 2, 9, 15):
            with pytest.raises(ValueError, match=f"modulus must be an odd prime, got {bad}$"):
                fn(bad)
    for check, bad in ((difference_lemma_check, 3), (difference_lemma_check, 4), (conjugacy_check, 3)):
        with pytest.raises(ValueError, match=f"^partition sums need p >= 5, got {bad}$"):
            check(bad)


def test_zeta_powers_refuse_moduli_below_one():
    for bad in (0, -5):
        with pytest.raises(ValueError, match=f"^modulus must be >= 1, got {bad}$"):
            zeta_powers(bad)
    assert zeta_powers(1) == [1.0]


def test_table_cap_domain():
    """Above the cap the sums refuse at once; just below it they still hold."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"cap of {TABLE_CAP}"):
        gauss_sums(1_000_003)
    with pytest.raises(ResourceLimitError, match=f"prime {TABLE_CAP + 1} exceeds the table cap of {TABLE_CAP}"):
        zeta_powers(TABLE_CAP + 1)
    assert time.perf_counter() - start < 1.0
    p = max(primes_in(TABLE_CAP - 100, TABLE_CAP))
    assert difference_lemma_check(p)
    assert conjugacy_check(p)


def test_cell_readers_run_no_walk(monkeypatch, cold_caches):
    """The shifted sums and the shift refinement read their cells off the
    Legendre table; partition, which gives the orders, runs the Chebyshev walk."""

    def no_walk(*args):
        raise AssertionError("the Chebyshev walk ran")

    monkeypatch.setattr(structure, "_t_rows", no_walk)
    p = 1009
    assert len(shifted_character_sums(p)) == 3
    assert residue_shift_refinement(p).p == p
    with pytest.raises(AssertionError, match="walk ran"):
        partition(p)


def test_cached_zeta_powers_are_read_only_and_lists_fresh():
    p = 101
    with pytest.raises(ValueError, match="read-only"):
        expsum._zeta_array(p)[1] = 0
    powers = zeta_powers(p)
    expected = list(powers)
    powers[1] = 0j
    powers.append(1j)
    assert zeta_powers(p) == expected


def _per_prime_caches() -> list:
    """Every lru_cache(maxsize=1) defined in structure or expsum: the caches
    of the last prime."""
    found = {}
    for module in (structure, expsum):
        for obj in vars(module).values():
            info = getattr(obj, "cache_info", None)
            if info and obj.__module__ == module.__name__ and info().maxsize == 1:
                found[obj.__qualname__] = obj
    return list(found.values())


def test_sweep_builds_each_table_once(monkeypatch, cold_caches):
    """The four per-prime calls of a sweep share one Legendre table, one R_p
    with its characters, one array of zeta powers, one Chebyshev walk, one
    Weil sum and one set of cell sums: every per-prime cache misses once."""
    real = structure._t_rows
    walks = []
    monkeypatch.setattr(structure, "_t_rows", lambda a, m, size: walks.append((len(a), m)) or real(a, m, size))
    p = 1049
    partition_sums(p)
    difference_lemma_check(p)
    shifted_character_sums(p)
    order_class_decomposition(p)
    assert walks == [(2, p)]  # one walk, a row per eps class
    caches = _per_prime_caches()
    assert {"_legendre_table", "_r_characters", "_walk_orders", "_zeta_array", "weil_sum", "_cell_sums"} <= {
        cached.__qualname__ for cached in caches
    }
    for cached in caches:
        assert cached.cache_info().misses == 1, cached.__qualname__


def test_checks_reuse_the_cell_sums(cold_caches):
    """difference_lemma_check and conjugacy_check read the cell sums that
    partition_sums computed; each report's g is its own dict."""
    p = 1049
    first = partition_sums(p)
    assert expsum._cell_sums.cache_info().misses == 1
    assert difference_lemma_check(p) and conjugacy_check(p)
    assert expsum._cell_sums.cache_info().misses == 1
    expected = dict(first.g)
    first.g["++"] = 0j
    del first.g["--"]
    assert partition_sums(p).g == expected
