"""Exponential sums: closed forms, bounds, symmetry of the four cells."""

import cmath
import math
import time

import pytest

from chebring import structure
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
from chebring.structure import TABLE_CAP, ResourceLimitError, partition, residue_shift_refinement


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


def test_gauss_sums_closed_form():
    for p in (5, 7, 13, 23, 101):
        g_r, g_n = gauss_sums(p)
        root = epsilon_p(p) * math.sqrt(p)
        assert abs(g_r - (-1 + root) / 2) < 1e-9
        assert abs(g_n - (-1 - root) / 2) < 1e-9
        assert abs(g_r + g_n + 1.0) < 1e-9  # all of zeta's nontrivial powers


def test_weil_bound_sweep():
    for p in primes_in(5, 500):
        assert abs(weil_sum(p)) <= 2 * math.sqrt(p) + TOLERANCE


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


def test_table_cap_domain():
    """Above the cap the sums refuse at once; just below it they still hold."""
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=f"cap of {TABLE_CAP}"):
        gauss_sums(1_000_003)
    assert time.perf_counter() - start < 1.0
    p = max(primes_in(TABLE_CAP - 100, TABLE_CAP))
    assert difference_lemma_check(p)
    assert conjugacy_check(p)


def test_cell_readers_run_no_walk(monkeypatch):
    """The shifted sums and the shift refinement read their cells off the
    Legendre table; partition, which gives the orders, runs the Chebyshev walk."""

    def no_walk(*args):
        raise AssertionError("the Chebyshev walk ran")

    monkeypatch.setattr(structure, "_t_ladder_vec", no_walk)
    p = 1009
    assert len(shifted_character_sums(p)) == 3
    assert residue_shift_refinement(p).p == p
    with pytest.raises(AssertionError, match="walk ran"):
        partition(p)
