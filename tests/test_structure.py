"""Order structure: partition goldens at p=23, polynomial identities, shifts."""

import dataclasses
import json
import math
import random
import time

import numpy as np
import pytest
import sympy
from sympy.abc import x

from chebring import ResourceLimitError, structure
from chebring.modarith import cheb_eval, cheb_t, jacobi
from chebring.primes import divisors, euler_phi, primes_in
from chebring.structure import (
    IntPolynomial,
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


def test_partition_orders_golden():
    table = partition(23)
    assert table.orders[19] == 24
    assert table.orders[11] == 3
    assert table.orders[0] == 4
    for d, members in ORDER_CLASSES_23.items():
        for a in members:
            assert table.orders[a] == d


def test_partition_orders_match_omega_order():
    """The table is a plain record whose orders, read off the walk, agree
    with omega_order on all of R_p."""
    assert [f.name for f in dataclasses.fields(structure.PartitionTable)] == ["p", "sets", "orders"]
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
    """Corrupting the walk lane that meets one residue breaks partition there."""
    real = structure._t_ladder_vec

    def corrupted(a, k, m):
        rows, t1 = real(a, k, m)
        rows[-1][rows[-1] == bad] = bad + 1
        return rows, t1

    monkeypatch.setattr(structure, "_t_ladder_vec", corrupted)
    with pytest.raises(ArithmeticError, match=rf"^the Chebyshev walk mod 23 disagrees with .* table at {bad}$"):
        partition(23)


def test_walk_edge_primes():
    """At p = 3 the class eps = +1 is empty; at 5 and 7 each walk has one or
    two lanes.  Cells, orders and classes still match the scalar oracles."""
    assert partition(3) == structure.PartitionTable(3, {"++": (), "+-": (), "-+": (), "--": (0,)}, {0: 4})
    assert order_class_decomposition(3) == {4: (0,)}
    assert order_class_decomposition(5) == {3: (2,), 4: (0,), 6: (3,)}
    for p in (3, 5, 7):
        table = partition(p)
        for a in (0, *range(2, p - 1)):
            assert structure.CELLS[table.cell_of(a)] == (jacobi(a * a - 1, p), jacobi(2 * (a + 1), p))
            assert table.orders[a] == omega_order(a, p)


def test_order_classes_at_the_cap_are_fast():
    p = max(primes_in(structure.TABLE_CAP - 100, structure.TABLE_CAP))  # 262139
    start = time.perf_counter()
    classes = order_class_decomposition(p)
    assert time.perf_counter() - start < 3.0
    assert sum(len(members) for members in classes.values()) == p - 2


def test_order_classes_follow_the_walk(monkeypatch, cold_caches):
    """Two walk lanes swapped between an even and an odd step still meet
    every residue once, but break the parity rule, so the order classes
    never form on a walk that does not refine the cells."""
    real = structure._t_ladder_vec

    def swapped(a, k, m):
        rows, t1 = real(a, k, m)
        two, six = rows[-1] == 2, rows[-1] == 6  # omega-orders 11 and 22 at p = 23
        rows[-1][two], rows[-1][six] = 6, 2
        return rows, t1

    monkeypatch.setattr(structure, "_t_ladder_vec", swapped)
    with pytest.raises(ArithmeticError, match="^the Chebyshev walk mod 23 disagrees with the Legendre table at 2$"):
        order_class_decomposition(23)


def test_cached_arrays_are_read_only_and_results_fresh():
    """The per-prime arrays are cached read-only, and each partition is a
    fresh object: mutating one leaves the next call's result unchanged."""
    p = 101
    for cached in (structure._legendre_table(p), structure._walk_orders(p)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 7
    first = partition(p)
    expected = first.to_json()
    first.orders[0] = 99
    del first.orders[2]
    first.sets["++"] = ()
    first.sets.pop("--")
    assert partition(p).to_json() == expected


def test_table_cap():
    """Tables stop at TABLE_CAP with a typed error raised before any allocation."""
    below = max(primes_in(structure.TABLE_CAP - 100, structure.TABLE_CAP))
    assert structure._legendre_table(below).shape == (below,)
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
        for shift in (-3, 1, 5):
            theirs = sympy.Poly(sympy.chebyshevt(n, x + shift), x).all_coeffs()[::-1]
            assert list(chebyshev_t_int(n, shift).coefficients) == theirs
            for m in (2, 97, (1 << 30) - 35, (1 << 40) + 15):  # int64, 15-bit halves, exact
                reduced = chebyshev_t_int(n, shift, m).coefficients
                assert reduced == IntPolynomial.of(int(c) % m for c in theirs).coefficients


def test_chebyshev_t_int_reduced_matches_exact_recurrence():
    """Doubling mod m against the exact recurrence reduced mod m, on every lane."""
    # At n = 200 the last product's shorter operand has 101 coefficients: one
    # int64 convolution up to the largest m with 101 (m-1)^2 < 2^63, halves past it.
    edge = math.isqrt((2**63 - 1) // 101) + 1
    exact = chebyshev_t_int(200, 1).coefficients
    for m in (edge, edge + 1):
        worst = np.full(101, m - 1, dtype=np.int64)  # the largest sums a product can hold
        want = [min(i + 1, 201 - i) * (m - 1) ** 2 % m for i in range(201)]
        assert structure._mulmod(worst, worst, m).tolist() == want
        assert chebyshev_t_int(200, 1, m).coefficients == IntPolynomial.of(c % m for c in exact).coefficients
    exact = chebyshev_t_int(1459).coefficients  # a prime of the benchmark's poly band
    for m in (1459, (1 << 30) - 35, (1 << 31) + 11):
        assert chebyshev_t_int(1459, 0, m).coefficients == IntPolynomial.of(c % m for c in exact).coefficients


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
