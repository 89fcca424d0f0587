"""Order structure: partition goldens at p=23, polynomial identities, shifts."""

import dataclasses
import gc
import json
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from sympy.abc import x

from chebring import ResourceLimitError, structure
from chebring.aks import chebyshev_poly_mod, shifted_congruence_check
from chebring.expsum import partition_sums, shifted_character_sums
from chebring.modarith import _t_ladder_vec, cheb_eval, cheb_t, jacobi
from chebring.primes import divisors, euler_phi, primes_in
from chebring.structure import (
    IntPolynomial,
    characters,
    character_transport_check,
    chebyshev_t_int,
    cyclotomic,
    cyclotomic_factorization_check,
    omega_order,
    order_class_decomposition,
    partition,
    psi,
    real_cyclotomic,
    residue_shift_refinement,
    splitting_check,
    splitting_roots,
)

CAP_PRIME = max(primes_in(structure.TABLE_CAP - 100, structure.TABLE_CAP))  # 262139

PARTITION_23 = {
    "++": (2, 3, 5, 7, 17),
    "+-": (6, 16, 18, 20, 21),
    "-+": (0, 8, 11, 12, 15),
    "--": (4, 9, 10, 13, 14, 19),
}

ORDER_CLASSES_23 = {
    3: (11,),
    4: (0,),
    6: (12,),
    8: (9, 14),
    11: (2, 3, 5, 7, 17),
    12: (8, 15),
    22: (6, 16, 18, 20, 21),
    24: (4, 10, 13, 19),
}


def test_partition_golden():
    table = partition(23)
    assert table.sets == PARTITION_23
    assert table.cell_of(19) == "--"
    assert table.cell_of(2) == "++"
    with pytest.raises(KeyError):
        table.cell_of(1)


def test_cell_of_matches_characters():
    """cell_of looks each a up in R_p and reads its characters; a value
    outside R_p is a KeyError."""
    p = 1049
    table = partition(p)
    for a in table.r.tolist():
        assert structure.CELLS[table.cell_of(a)] == dataclasses.astuple(characters(a, p))
    for a in (1, p - 1, -1, p):
        with pytest.raises(KeyError):
            table.cell_of(a)


def test_partition_orders_golden():
    table = partition(23)
    assert table.orders[19] == 24
    assert table.orders[11] == 3
    assert table.orders[0] == 4
    for d, members in ORDER_CLASSES_23.items():
        for a in members:
            assert table.orders[a] == d


def test_partition_orders_match_omega_order():
    """The table is a plain record of R_p's arrays whose orders, read off the
    walk, agree with omega_order on all of R_p."""
    assert [f.name for f in dataclasses.fields(structure.PartitionTable)] == ["p", "r", "eps", "delta", "order"]
    for p in primes_in(3, 300):
        assert partition(p).orders == {a: omega_order(a, p) for a in (0, *range(2, p - 1))}


def test_partition_serialization():
    table = partition(23)
    blob = json.loads(table.to_json())
    assert blob["p"] == 23
    assert tuple(blob["sets"]["--"]) == PARTITION_23["--"]
    assert blob["orders"]["19"] == 24
    rows = table.csv_rows()
    assert rows[0] == (0, -1, 1, 4)
    assert len(rows) == 21
    assert (19, -1, -1, 24) in rows


def test_partition_sweep_consistent():
    # the dual-route check and order bookkeeping are internal asserts
    for p in primes_in(3, 300):
        table = partition(p)
        assert sum(len(v) for v in table.sets.values()) == p - 2


def test_partition_checks_its_prime_once(monkeypatch, cold_caches):
    """One primality check per partition on cold caches, not one per residue; the cells and
    orders run on vector lanes, and the only scalar cheb_t calls, as
    structure binds it, are the full-order tests of the walk's generators."""
    primality_calls, ladder_calls = [], []
    real_is_prime, real_cheb_t = structure.is_prime, structure.cheb_t
    monkeypatch.setattr(structure, "is_prime", lambda n: primality_calls.append(n) or real_is_prime(n))
    monkeypatch.setattr(structure, "cheb_t", lambda *args: ladder_calls.append(args) or real_cheb_t(*args))
    table = partition(1009)
    assert primality_calls == [1009]
    assert 0 < len(ladder_calls) < 100
    assert table.orders[0] == 4


def test_legendre_table_matches_jacobi():
    for p in primes_in(3, 1000):
        assert structure._legendre_table(p).tolist() == [jacobi(x, p) for x in range(p)]


def test_partition_matches_scalar_characters():
    for p in primes_in(3, 300):
        cells = {key: [] for key in structure.CELLS}
        for a in (0, *range(2, p - 1)):
            eps, delta = jacobi(a * a - 1, p), jacobi(2 * (a + 1), p)
            cells[("+" if eps == 1 else "-") + ("+" if delta == 1 else "-")].append(a)
        assert partition(p).sets == {key: tuple(val) for key, val in cells.items()}


@pytest.mark.parametrize("bad", [5, 19])  # cells ++ and -- at p = 23: eps = +1 and eps = -1
def test_partition_second_route_is_live(monkeypatch, bad, cold_caches):
    """Corrupting the walk step that meets one residue breaks partition there."""
    real = structure._t_rows

    def corrupted(a, m, size):
        rows = real(a, m, size)
        rows[rows == bad] = bad + 1
        return rows

    monkeypatch.setattr(structure, "_t_rows", corrupted)
    with pytest.raises(ArithmeticError, match=rf"^the Chebyshev walk mod 23 disagrees with .* table at {bad}$"):
        partition(23)


def test_walk_edge_primes():
    """At p = 3 the class eps = +1 is empty; at 5 and 7 each walk has one or
    two lanes.  Cells, orders and classes still match the scalar oracles."""
    assert partition(3).sets == {"++": (), "+-": (), "-+": (), "--": (0,)}
    assert partition(3).orders == {0: 4}
    assert order_class_decomposition(3) == {4: (0,)}
    assert order_class_decomposition(5) == {3: (2,), 4: (0,), 6: (3,)}
    for p in (3, 5, 7):
        table = partition(p)
        for a in (0, *range(2, p - 1)):
            assert structure.CELLS[table.cell_of(a)] == (jacobi(a * a - 1, p), jacobi(2 * (a + 1), p))
            assert table.orders[a] == omega_order(a, p)


def _ladder_walk_orders(p):
    """The omega-orders of R_p from the lane ladder: T_k(g) on its own int64
    lane for each step k, one full-order g per eps class."""
    a, eps, _ = structure._r_characters(p)
    walk, steps, groups = [], [], []
    for e in (1, -1):
        n = p - e
        if n > 2:
            g = next(x for x in a[eps == e].tolist() if omega_order(x, p) == n)
            k = np.arange(1, n // 2, dtype=np.int64)
            walk.append(_t_ladder_vec(np.full_like(k, g), k, p)[0])
            steps.append(k)
            groups.append(np.full_like(k, n))
    walk, k, n = np.concatenate(walk), np.concatenate(steps), np.concatenate(groups)
    lane = np.zeros(p, dtype=np.int64)
    lane[walk] = np.arange(walk.size)
    k, n = k[lane[a]], n[lane[a]]
    return n // np.gcd(k, n)


def test_walk_generators_are_the_least_of_full_order(monkeypatch, cold_caches):
    """Each walk starts from the least element of its eps class whose
    omega-order is p - eps, at every odd prime below 3000."""
    real, picked = structure._t_rows, []
    monkeypatch.setattr(structure, "_t_rows", lambda a, m, size: picked.append(a) or real(a, m, size))
    for p in primes_in(3, 3000):
        picked.clear()
        structure._walk_orders(p)
        least = [
            next(x for x in (0, *range(2, p - 1)) if p - jacobi(x * x - 1, p) == n and omega_order(x, p) == n)
            for n in (p - 1, p + 1)
            if n > 2
        ]
        assert picked == [least], p


def test_walk_generator_pick_stops_early(monkeypatch, cold_caches):
    """The pick tests only delta = -1 candidates and stops each at the first
    prime q | n with T_{n/q} = 1: at most 9 cheb_t calls per prime over the
    16 primes of [1000, 1100) (24.4 for the full order descent of each
    candidate; 12.3 without the delta filter, 9.9 without the early stop)."""
    calls = []
    real = structure.cheb_t
    monkeypatch.setattr(structure, "cheb_t", lambda *args: calls.append(args) or real(*args))
    band = primes_in(1000, 1100)
    assert len(band) == 16
    for p in band:
        structure._walk_orders(p)
    assert len(calls) / len(band) <= 9


def test_step_orders_match_gcd():
    """n / gcd(k, n) read off the prime powers of n equals numpy's gcd for
    k = 1 ... n - 1, at every n = p -+ 1 with p below 5000 and at 2^17 and
    2 * 3^10, where the powers of one prime run deep."""
    ns = {n for p in primes_in(3, 5000) for n in (p - 1, p + 1)} | {1 << 17, 2 * 3**10}
    for n in sorted(ns):
        assert np.array_equal(structure._step_orders(n, n - 1), n // np.gcd(np.arange(1, n), n)), n
        assert np.array_equal(structure._step_orders(n, n // 2 - 1), n // np.gcd(np.arange(1, n // 2), n)), n


def test_walk_orders_match_the_lane_ladder():
    """The three-term walk gives the orders the lane ladder gives, at every
    odd prime below 5000 and at the largest prime below TABLE_CAP."""
    for p in (*primes_in(3, 5000), CAP_PRIME):
        assert np.array_equal(structure._walk_orders(p), _ladder_walk_orders(p)), p


def test_order_classes_at_the_cap_are_fast():
    start = time.perf_counter()
    classes = order_class_decomposition(CAP_PRIME)
    assert time.perf_counter() - start < 3.0
    assert sum(len(members) for members in classes.values()) == CAP_PRIME - 2


def test_per_prime_caches_retain_the_stated_memory(cold_caches):
    """What the caches of one sweep op at the cap prime retain stays within the
    figure of the structure docstring, plus 10 %."""
    stated = float(re.search(r"these caches retain\s+([\d.]+) MB", structure.__doc__).group(1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        partition_sums(CAP_PRIME)
        shifted_character_sums(CAP_PRIME)
        order_class_decomposition(CAP_PRIME)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 1.1 * stated * 1e6, retained


def test_order_classes_match_a_dict_grouping():
    """The argsort grouping against the plain one: each order's elements
    collected from the orders dict and sorted, with |I_d| = totient(d)/2."""
    for p in primes_in(3, 3000):
        classes = {}
        for a, d in partition(p).orders.items():
            classes.setdefault(d, []).append(a)
        expected = [(d, tuple(sorted(members))) for d, members in sorted(classes.items())]
        assert all(len(members) == sympy.totient(d) // 2 for d, members in expected), p
        assert list(order_class_decomposition(p).items()) == expected, p


def test_order_classes_need_orders_dividing_p_minus_or_plus_one(monkeypatch):
    table = partition(23)
    order = table.order.copy()
    order[np.searchsorted(table.r, 11)] = 5  # I_3 = {11} at p = 23; 5 divides neither 22 nor 24
    corrupted = structure.PartitionTable(23, table.r, table.eps, table.delta, order)
    monkeypatch.setattr(structure, "partition", lambda p: corrupted)
    with pytest.raises(ArithmeticError, match="^order 5 divides neither p - 1 nor p \\+ 1 at p=23$"):
        order_class_decomposition(23)


def test_order_classes_follow_the_walk(monkeypatch, cold_caches):
    """Two walk values swapped between an even and an odd step still meet
    every residue once, but break the parity rule, so the order classes
    never form on a walk that does not refine the cells."""
    real = structure._t_rows

    def swapped(a, m, size):
        rows = real(a, m, size)
        return np.where(rows == 2, 6, np.where(rows == 6, 2, rows))  # omega-orders 11 and 22 at p = 23

    monkeypatch.setattr(structure, "_t_rows", swapped)
    with pytest.raises(ArithmeticError, match="^the Chebyshev walk mod 23 disagrees with the Legendre table at 2$"):
        order_class_decomposition(23)


def test_cached_arrays_are_read_only_and_results_fresh():
    """The per-prime arrays are cached read-only, and each partition is a
    fresh object: mutating two in turn leaves the next call's result unchanged."""
    p = 101
    for cached in (structure._legendre_table(p), *structure._r_characters(p), structure._walk_orders(p)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 7
    expected = partition(p).to_json()
    for _ in range(2):
        table = partition(p)
        table.orders[0] = 99
        del table.orders[2]
        table.sets["++"] = ()
        table.sets.pop("--")
    assert partition(p).to_json() == expected


def test_table_cap():
    """Tables stop at TABLE_CAP with a typed error raised before any allocation."""
    assert structure._legendre_table(CAP_PRIME).shape == (CAP_PRIME,)
    for p in (min(primes_in(structure.TABLE_CAP, structure.TABLE_CAP + 100)), 1_000_000_007, 2_147_483_659):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"prime {p} exceeds the table cap of {structure.TABLE_CAP}"):
            partition(p)
        assert time.perf_counter() - start < 1.0


def test_omega_order_golden():
    assert omega_order(19, 23) == 24
    assert omega_order(11, 23) == 3
    for p in (5, 11, 23, 97):
        assert omega_order(0, p) == 4
    with pytest.raises(ValueError):
        omega_order(1, 23)
    with pytest.raises(ValueError):
        omega_order(22, 23)


def test_omega_order_properties():
    """T_d(a) = 1 with U_{d-1}(a) = 0, d | p - eps, and d is minimal."""
    rng = random.Random(31)
    for _ in range(150):
        p = rng.choice(primes_in(5, 500))
        a = rng.choice([0, *range(2, p - 1)])
        d = omega_order(a, p)
        assert (p - jacobi(a * a - 1, p)) % d == 0
        assert cheb_eval(a, d, p).as_tuple() == (1, 0)
        assert cheb_t(a, d + 1, p) == a
        assert all(cheb_t(a, e, p) != 1 for e in divisors(d)[:-1])


def test_order_classes_golden():
    assert order_class_decomposition(23) == ORDER_CLASSES_23


def test_order_classes_sweep():
    for p in primes_in(3, 200):
        classes = order_class_decomposition(p)
        for d, members in classes.items():
            assert len(members) == euler_phi(d) // 2


def test_cyclotomic_matches_sympy():
    for d in [*range(1, 61), 105, 385, 1155, 1365, 1386, 1400]:
        ours = cyclotomic(d).coefficients
        theirs = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
        assert list(ours) == theirs


def test_real_cyclotomic_goldens():
    assert real_cyclotomic(3).coefficients == (1, 1)  # y + 1
    assert real_cyclotomic(4).coefficients == (0, 1)  # y
    assert real_cyclotomic(12).coefficients == (-3, 0, 1)  # y^2 - 3
    with pytest.raises(ValueError):
        real_cyclotomic(2)


def test_real_cyclotomic_degree_and_roots():
    for d in range(3, 40):
        poly = real_cyclotomic(d)
        assert poly.degree == euler_phi(d) // 2
        assert poly.coefficients[-1] == 1
        for k in range(1, d):
            if math.gcd(k, d) == 1:
                val = np.polyval(poly.coefficients[::-1], 2 * math.cos(2 * math.pi * k / d))
                assert abs(val) < 1e-6


def test_psi_goldens():
    assert psi(1).coefficients == (-1, 1)
    assert psi(2).coefficients == (2, 2)
    assert psi(3).coefficients == (1, 4, 4)  # (2x+1)^2
    assert psi(4).coefficients == (0, 0, 4)  # (2x)^2


def test_chebyshev_t_int_goldens():
    assert chebyshev_t_int(0).coefficients == (1,)
    assert chebyshev_t_int(2).coefficients == (-1, 0, 2)
    assert chebyshev_t_int(5).coefficients == (0, 5, 0, -20, 0, 16)


def test_chebyshev_t_int_matches_sympy():
    for n in range(0, 101, 7):
        ours = list(chebyshev_t_int(n).coefficients)
        theirs = sympy.Poly(sympy.chebyshevt(n, x), x).all_coeffs()[::-1]
        assert ours == theirs
    for n in range(0, 40, 3):
        for shift in (0, -3, 1, 5):
            theirs = sympy.Poly(sympy.chebyshevt(n, x + shift), x).all_coeffs()[::-1]
            for m in (2, 97, (1 << 30) - 35, (1 << 40) + 15):
                if shift and (n // 2 + 1) * (m - 1) ** 2 >= 1 << 63:  # a shift needs the int64 ladder
                    with pytest.raises(ValueError, match=f"^shift {shift} needs int64 lanes"):
                        chebyshev_t_int(n, shift, m)
                    continue
                reduced = chebyshev_t_int(n, shift, m).coefficients
                assert reduced == IntPolynomial.of(int(c) % m for c in theirs).coefficients


def test_chebyshev_t_int_matches_exact_recurrence(chebyshev_recurrence):
    """The closed-form coefficients against the three-term recurrence."""
    for n in [*range(0, 301), 1399, 1400, 1459]:
        assert chebyshev_t_int(n) == chebyshev_recurrence(n), n


def test_chebyshev_t_int_reduced_matches_exact_recurrence(chebyshev_recurrence):
    """Both routes mod m against the exact recurrence reduced mod m, on each
    side of the ladder's bound and of its products' float64 bound."""
    # At n = 200 the last product's shorter operand has 101 coefficients: the
    # int64 ladder up to the largest m with 101 (m-1)^2 < 2^63, the closed form
    # past it; that product convolves in float64 up to the largest m with
    # 101 (m-1)^2 < 2^53, in int64 past it.
    edge = math.isqrt((2**63 - 1) // 101) + 1
    fedge = math.isqrt((2**53 - 1) // 101) + 1
    for bound in (edge, fedge):
        worst = np.full(101, bound - 1, dtype=np.int64)  # the largest sums a product can hold
        want = [(2 * min(i + 1, 201 - i) * (bound - 1) ** 2 - (i == 0)) % bound for i in range(201)]
        assert structure._twice_product(worst, worst, np.ones(1, dtype=np.int64), bound).tolist() == want
    for shift in (0, 1):
        exact = chebyshev_recurrence(200, shift).coefficients
        for m in (fedge, fedge + 1, edge, edge + 1) if shift == 0 else (fedge, fedge + 1, edge):
            assert chebyshev_t_int(200, shift, m).coefficients == IntPolynomial.of(c % m for c in exact).coefficients
    with pytest.raises(ValueError) as refused:
        chebyshev_t_int(200, 1, edge + 1)
    assert str(refused.value) == f"shift 1 needs int64 lanes, (n // 2 + 1)(m - 1)^2 < 2^63: m = {edge + 1} at n = 200"
    exact = chebyshev_recurrence(1459).coefficients  # a prime of the benchmark's poly band
    for m in (1459, (1 << 30) - 35, (1 << 31) + 11):
        assert chebyshev_t_int(1459, 0, m).coefficients == IntPolynomial.of(c % m for c in exact).coefficients


def test_ladder_products_convolve_in_float64_while_exact(monkeypatch):
    """The ladder's products take the float64 convolution wherever their sums
    stay below 2^53, as at the benchmark's poly band and at DEGREE_CAP mod a
    prime just above it, and the int64 one past that."""
    convolve, seen = np.convolve, []

    def recording(a, b, *args):
        seen.append((a.dtype.name, b.dtype.name))
        return convolve(a, b, *args)

    monkeypatch.setattr(structure.np, "convolve", recording)
    for check in (lambda: shifted_congruence_check(1451, 1), lambda: chebyshev_poly_mod(10000, 10007)):
        seen.clear()
        check()
        assert seen and set(seen) == {("float64", "float64")}
    seen.clear()
    chebyshev_t_int(200, 0, math.isqrt((2**53 - 1) // 101) + 2)  # fedge + 1: only the last product passes 2^53
    assert set(seen[:-1]) == {("float64", "float64")} and seen[-1] == ("int64", "int64")


def test_factorization_degree_bookkeeping():
    for n in range(1, 51):
        assert sum(psi(d).degree for d in divisors(n)) == n


def test_factorization_check_small():
    for n in (1, 2, 6, 12):
        assert cyclotomic_factorization_check(n)
    with pytest.raises(ValueError):
        cyclotomic_factorization_check(0)


def test_splitting_golden():
    assert splitting_roots(11, 23) == (2, 3, 5, 7, 17)
    assert splitting_check(11, 23)
    assert splitting_check(24, 23)
    assert not splitting_check(5, 23)
    assert not splitting_check(7, 23)
    with pytest.raises(ValueError):
        splitting_roots(2, 23)


def test_splitting_table_cap():
    """The residue scan stops at TABLE_CAP before the polynomial is built."""
    for p in (min(primes_in(structure.TABLE_CAP, structure.TABLE_CAP + 100)), 1_000_000_007):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=f"^prime {p} exceeds the table cap of {structure.TABLE_CAP}$"):
            splitting_roots(5, p)
        assert time.perf_counter() - start < 1.0


def test_splitting_roots_match_residue_scan():
    """The int64 lane scan against Horner's rule on Python integers, one
    residue at a time, p | d included."""
    for d in range(3, 61):
        coeffs = real_cyclotomic(d).coefficients[::-1]
        for p in primes_in(3, 200):
            want = []
            for a in range(p):
                acc = 0
                for c in coeffs:
                    acc = (acc * 2 * a + c) % p
                if acc == 0:
                    want.append(a)
            assert splitting_roots(d, p) == tuple(want), (d, p)
    assert splitting_roots(9, 3) == (1,)
    assert splitting_roots(14, 7) == (6,)


def test_splitting_roots_are_order_class():
    for p in primes_in(5, 100):
        classes = order_class_decomposition(p)
        for d in range(3, 30):
            if splitting_check(d, p):
                assert splitting_roots(d, p) == classes.get(d, ())


def test_transport_golden():
    assert cheb_t(19, 2, 23) == 8
    assert character_transport_check(19, 2, 23) is True
    assert character_transport_check(19, 12, 23) is None  # lands on -1
    with pytest.raises(ValueError):
        character_transport_check(1, 2, 23)


def test_transport_never_fails():
    rng = random.Random(32)
    for _ in range(400):
        p = rng.choice(primes_in(5, 200))
        a = rng.randrange(2, p - 1)  # 0 is excluded: T_n(0) cycles through 0, +-1
        n = rng.randrange(1, 50)
        assert character_transport_check(a, n, p) is not False


SHIFT_23_CELLS = {
    "Q+1": ((), "--", "++"),
    "Q-1": ((1,), "-+", "++"),
    "N+1": ((22,), "-+", "+-"),
    "N-1": ((), "--", "+-"),
}


def test_shift_refinement_golden():
    ref = residue_shift_refinement(23)
    assert {s.source for s in ref.splits} == set(SHIFT_23_CELLS)
    for source, (dropped, sym_cell, nonsym_cell) in SHIFT_23_CELLS.items():
        s = ref.split(source)
        assert s.dropped == dropped
        assert s.symmetric_cell == sym_cell
        assert s.nonsymmetric_cell == nonsym_cell
        assert s.symmetric == PARTITION_23[sym_cell]
        assert s.nonsymmetric == PARTITION_23[nonsym_cell]
    q_plus = ref.split("Q+1")
    assert q_plus.symmetric_shifted_back == (3, 8, 9, 12, 13, 18)
    assert q_plus.nonsymmetric_shifted_back == (1, 2, 4, 6, 16)
    q_minus = ref.split("Q-1")
    assert q_minus.symmetric_shifted_back == (1, 9, 12, 13, 16)
    assert q_minus.nonsymmetric_shifted_back == (3, 4, 6, 8, 18)
    with pytest.raises(KeyError):
        ref.split("Q+2")


def test_shift_refinement_sweep():
    """Symmetric part always sits in the cell with eps = (-1/p)."""
    for p in primes_in(5, 500):
        ref = residue_shift_refinement(p)
        want = "+" if jacobi(-1, p) == 1 else "-"
        for s in ref.splits:
            assert s.symmetric_cell[0] == want
            assert s.nonsymmetric_cell[0] != want
            assert len(s.dropped) <= 1
            back = set(s.symmetric_shifted_back) | set(s.nonsymmetric_shifted_back)
            shift = 1 if s.source.endswith("+1") else -1
            rebuilt = {(b + shift) % p for b in back} | set(s.dropped)
            squares = {v * v % p for v in range(1, p)}
            base = squares if s.source.startswith("Q") else set(range(1, p)) - squares
            assert rebuilt == {(v + shift) % p for v in base}


def _set_refinement(p):
    """The refinement built from Python sets: Q and N read off the squares,
    each shift applied elementwise, the mirror found by lookup, and each part
    compared with the cells of partition(p).  The oracle of the mask build."""
    sets = partition(p).sets
    q = {v * v % p for v in range(1, p)}
    n = set(range(1, p)) - q
    sign2, sign_minus1 = jacobi(2, p), jacobi(-1, p)
    splits = []
    for source, base_set, shift, value in (
        ("Q+1", q, 1, sign2),
        ("Q-1", q, -1, sign2),
        ("N+1", n, 1, -sign2),
        ("N-1", n, -1, -sign2),
    ):
        shifted = {(v + shift) % p for v in base_set}
        kept = shifted - {1, p - 1}
        sym = {v for v in kept if (p - v) % p in kept}
        nonsym = kept - sym
        sym_cell, nonsym_cell = (structure._cell(e, e * value if shift == 1 else value) for e in (sign_minus1, -sign_minus1))
        assert sym == set(sets[sym_cell]) and nonsym == set(sets[nonsym_cell]), (p, source)
        splits.append(
            structure.ShiftedSetSplit(
                source=source,
                dropped=tuple(sorted(shifted & {1, p - 1})),
                symmetric=tuple(sorted(sym)),
                symmetric_cell=sym_cell,
                nonsymmetric=tuple(sorted(nonsym)),
                nonsymmetric_cell=nonsym_cell,
                symmetric_shifted_back=tuple(sorted((v - shift) % p for v in sym)),
                nonsymmetric_shifted_back=tuple(sorted((v - shift) % p for v in nonsym)),
            )
        )
    return structure.ShiftRefinement(p, tuple(splits))


def test_shift_refinement_matches_set_oracle():
    for p in [*primes_in(5, 3000), 100003, 262139]:
        ref, want = residue_shift_refinement(p), _set_refinement(p)
        assert ref.p == want.p == p
        for got, exp in zip(ref.splits, want.splits, strict=True):
            for field in dataclasses.fields(exp):
                g, e = getattr(got, field.name), getattr(exp, field.name)
                assert g == e and type(g) is type(e), (p, exp.source, field.name)
                if isinstance(g, tuple):  # plain ints, not numpy scalars
                    assert all(type(v) is int for v in g), (p, exp.source, field.name)


def test_shift_refinement_label_check_is_live(monkeypatch):
    """With two cells swapped the derived labels no longer match, so the
    refinement must refuse rather than report the wrong cells."""
    masks = structure._cell_masks

    def swapped(eps, delta):
        cells = masks(eps, delta)
        cells["++"], cells["--"] = cells["--"], cells["++"]
        return cells

    monkeypatch.setattr(structure, "_cell_masks", swapped)
    for p in (23, 1009):
        with pytest.raises(ArithmeticError, match=f"does not split into cells at p={p}$"):
            residue_shift_refinement(p)


def test_shift_refinement_within_budget_at_the_cap(cold_caches):
    start = time.perf_counter()
    residue_shift_refinement(262139)  # the largest prime below TABLE_CAP
    assert time.perf_counter() - start < 1.0


def test_cells_map_keys_to_signs():
    assert list(structure.CELLS) == ["++", "+-", "-+", "--"]  # the CLI's printing order
    for key, (eps, delta) in structure.CELLS.items():
        assert structure._cell(eps, delta) == key


def test_intpolynomial_product_matches_schoolbook():
    rng = random.Random(7)

    def schoolbook(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPolynomial.of(out)

    def random_poly():  # negative and wider-than-64-bit coefficients
        return IntPolynomial.of(rng.randint(-(1 << 80), 1 << 80) for _ in range(rng.randint(1, 12)))

    zero = IntPolynomial.of([])
    for _ in range(200):
        f, g = random_poly(), random_poly()
        assert f * g == schoolbook(f.coefficients, g.coefficients)
        assert f * zero == zero * f == zero


def test_intpolynomial_arithmetic():
    f = IntPolynomial.of([1, 2])  # 1 + 2x
    g = IntPolynomial.of([0, 0, 3])  # 3x^2
    assert (f + g).coefficients == (1, 2, 3)
    assert (f - f).coefficients == ()
    assert (f - f).degree == -1
    assert (f * g).coefficients == (0, 0, 3, 6)
    assert f.scale_arg(2).coefficients == (1, 4)
    assert IntPolynomial.of([1, 1, 0, 0]).coefficients == (1, 1)
