"""The benchmark's own correctness checks: each accepts the library's true
result and rejects a deliberately corrupted one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

cb = workloads.cb


def test_lucas_u_matches_the_recurrence():
    m = 1_000_003
    for P in (2, 5, 26, 999_999):
        u = [0, 1]
        for _ in range(60):
            u.append((P * u[-1] - u[-2]) % m)
        for n in range(60):
            assert checks.lucas_u(P, n, m) == (u[n], u[n + 1])


def test_cheb_tu_matches_the_chebyshev_recurrences():
    m, a = 10_007, 1234
    t, u = [1, a], [0, 1]  # T_n(a) and U_{n-1}(a)
    for _ in range(40):
        t.append((2 * a * t[-1] - t[-2]) % m)
        u.append((2 * a * u[-1] - u[-2]) % m)
    for n in range(40):
        assert checks.cheb_tu(a, n, m) == (t[n], u[n])


# --- search -----------------------------------------------------------------

BASE, W_LIMIT, P_LIMIT = 13, 100, 1000


@pytest.fixture(scope="module")
def search_result():
    hits = cb.wieferich_search(BASE, W_LIMIT, threads=1)
    pseudo = cb.pseudoprime_search(BASE, P_LIMIT, "strong", threads=1)
    assert [h.p for h in hits] == [5, 43, 71] and [v.n for v in pseudo] == [25, 527, 649]
    return hits, pseudo


def test_search_accepts_the_true_result(search_result):
    assert checks.check_search(BASE, search_result, W_LIMIT, P_LIMIT) == []


def test_search_rejects_a_dropped_wieferich_hit(search_result):
    hits, pseudo = search_result
    assert checks.check_search(BASE, (hits[:1] + hits[2:], pseudo), W_LIMIT, P_LIMIT)


def test_search_rejects_a_dropped_pseudoprime(search_result):
    hits, pseudo = search_result
    assert checks.check_search(BASE, (hits, pseudo[1:]), W_LIMIT, P_LIMIT)


def test_search_rejects_a_prime_reported_as_pseudoprime(search_result):
    hits, pseudo = search_result
    fake = dataclasses.replace(pseudo[0], n=29)
    assert checks.check_search(BASE, (hits, [fake, *pseudo]), W_LIMIT, P_LIMIT)


def test_search_rejects_a_wrong_profile(search_result):
    hits, pseudo = search_result
    bad = dataclasses.replace(pseudo[1], profile=pseudo[1].profile[:-1] + (0,))
    assert checks.check_search(BASE, (hits, [pseudo[0], bad, *pseudo[2:]]), W_LIMIT, P_LIMIT)


# --- sweep ------------------------------------------------------------------

P = 101


@pytest.fixture(scope="module")
def sweep_result():
    return workloads.sweep_op(P)


def _cell_key(a: int, d: int) -> tuple[int, bool]:
    eps = checks.legendre(a * a - 1, P)
    return eps, (P - eps) // 2 % d == 0


def test_sweep_accepts_the_true_result(sweep_result):
    assert checks.check_sweep(P, sweep_result) == []


def test_sweep_rejects_a_residue_moved_to_the_wrong_cell(sweep_result):
    report, lemma, shifted, classes = sweep_result
    d1, d2 = next(
        (d1, d2)
        for d1 in classes
        for d2 in classes
        if _cell_key(classes[d1][0], d1)[0] == _cell_key(classes[d2][0], d2)[0]
        and _cell_key(classes[d1][0], d1)[1] != _cell_key(classes[d2][0], d2)[1]
    )
    a = classes[d1][0]
    moved = {**classes, d1: classes[d1][1:], d2: classes[d2] + (a,)}
    problems = checks.check_sweep(P, (report, lemma, shifted, moved))
    assert any("wrong cell" in line for line in problems)


def test_sweep_rejects_two_residues_swapped_between_orders(sweep_result):
    # Same cell and same class sizes: only the order check can see it.
    report, lemma, shifted, classes = sweep_result
    d1, d2 = next(
        (d1, d2)
        for d1 in classes
        for d2 in classes
        if d1 < d2 and _cell_key(classes[d1][0], d1) == _cell_key(classes[d2][0], d2)
    )
    a, b = classes[d1][0], classes[d2][0]
    swapped = {**classes, d1: (b, *classes[d1][1:]), d2: (a, *classes[d2][1:])}
    problems = checks.check_sweep(P, (report, lemma, shifted, swapped))
    assert problems and all("does not have order" in line for line in problems)


def test_sweep_rejects_a_wrong_cell_sum(sweep_result):
    report, lemma, shifted, classes = sweep_result
    bad = dataclasses.replace(report, g={**report.g, "-+": report.g["-+"] + 1e-6})
    assert checks.check_sweep(P, (bad, lemma, shifted, classes))


def test_sweep_rejects_a_wrong_weil_sum_and_shifted_sum(sweep_result):
    report, lemma, shifted, classes = sweep_result
    assert checks.check_sweep(P, (dataclasses.replace(report, S=-report.S), lemma, shifted, classes))
    assert checks.check_sweep(P, (report, lemma, (shifted[1], shifted[0], shifted[2]), classes))


def test_sweep_rejects_a_failed_difference_lemma(sweep_result):
    report, _, shifted, classes = sweep_result
    assert checks.check_sweep(P, (report, False, shifted, classes))


# --- poly -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1409, 1411])
def test_poly_accepts_true_and_rejects_a_flipped_verdict(n):
    shifted, power = workloads.poly_op(n)
    assert checks.check_poly(n, (shifted, power)) == []
    assert checks.check_poly(n, (not shifted, power))
    assert checks.check_poly(n, (shifted, not power))


# --- keyx -------------------------------------------------------------------

ROW = (123_456_789_123_456_789, (1 << 126) + 12345, (1 << 126) + 67891)


def test_keyx_accepts_true_and_rejects_a_wrong_shared_key():
    shared_a, shared_b, encoded, decoded = workloads.keyx_op(ROW)
    assert checks.check_keyx(workloads.KEYX_P, ROW, (shared_a, shared_b, encoded, decoded)) == []
    assert checks.check_keyx(workloads.KEYX_P, ROW, (shared_a, shared_b + 1, encoded, decoded))
    assert checks.check_keyx(workloads.KEYX_P, ROW, (shared_a ^ 1, shared_a ^ 1, encoded, decoded))


def test_keyx_rejects_a_broken_wire_round_trip():
    shared_a, shared_b, encoded, decoded = workloads.keyx_op(ROW)
    assert checks.check_keyx(workloads.KEYX_P, ROW, (shared_a, shared_b, encoded, decoded[:3]))


# --- tracer -----------------------------------------------------------------


def test_tracer_counts_repeat_and_uninstall_restores():
    originals = (cb.structure.cheb_t, cb.expsum.partition, cb.partition_sums)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(cb)
        try:
            workloads.clear_caches()
            workloads.sweep_op(P)
        finally:
            tracer.uninstall()
        counts.append({name: calls for name, (calls, _) in tracer.totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["structure.partition"] == 3 and counts[0]["modarith.cheb_t"] > 0
    assert (cb.structure.cheb_t, cb.expsum.partition, cb.partition_sums) == originals


def test_clear_caches_empties_every_library_cache():
    names = {cache.__qualname__ for cache in workloads.CACHES}
    assert {"prime_factors", "_cyclotomic_coeffs"} <= names
    workloads.sweep_op(P)
    cb.cyclotomic(12)
    assert any(cache.cache_info().currsize for cache in workloads.CACHES)
    workloads.clear_caches()
    assert all(cache.cache_info().currsize == 0 for cache in workloads.CACHES)
