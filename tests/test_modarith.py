"""Pair arithmetic: golden orbit, cross-route agreement, algebraic laws."""

import itertools
import random
from dataclasses import dataclass

import numpy as np
import pytest
import sympy

from chebring.modarith import (
    ChebPair,
    _ladder_tu,
    _pow_vec,
    _residues,
    _t_ladder_vec,
    _t_rows,
    _t_walk,
    cheb_compose_check,
    cheb_eval,
    cheb_t,
    jacobi,
)
from chebring.primes import primes_in, primes_upto
from chebring.structure import TABLE_CAP

# --- oracle: the transfer-matrix route, independent of the Lucas ladder ------


@dataclass(frozen=True)
class TransferMatrix:
    """The 2x2 step matrix [[a, a^2-1], [1, a]] acting on (T_n, U_{n-1}).

    Derived from omega^(n+1) = omega * omega^n:
        T_{n+1} = a T_n + (a^2-1) U_{n-1},   U_n = T_n + a U_{n-1}.
    Its n-th power is [[T_n, (a^2-1) U_{n-1}], [U_{n-1}, T_n]], so matrix
    powering is an independent route to cheb_eval (determinant stays 1,
    the Pell identity in disguise).
    """

    a: int
    m: int

    def entries(self) -> tuple[tuple[int, int], tuple[int, int]]:
        a, m = self.a % self.m, self.m
        return ((a, (a * a - 1) % m), (1 % m, a))

    def det(self) -> int:
        (e00, e01), (e10, e11) = self.entries()
        return (e00 * e11 - e01 * e10) % self.m

    def pow(self, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """Matrix n-th power mod m by repeated squaring (2x2, generic)."""
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        m = self.m

        def mul(x, y):
            (a0, a1), (a2, a3) = x
            (b0, b1), (b2, b3) = y
            return (
                ((a0 * b0 + a1 * b2) % m, (a0 * b1 + a1 * b3) % m),
                ((a2 * b0 + a3 * b2) % m, (a2 * b1 + a3 * b3) % m),
            )

        result = ((1 % m, 0), (0, 1 % m))
        sq = self.entries()
        while n:
            if n & 1:
                result = mul(result, sq)
            n >>= 1
            if n:
                sq = mul(sq, sq)
        return result

    def pair(self, n: int) -> tuple[int, int]:
        """(T_n, U_{n-1}) read off the first column of the n-th power."""
        mat = self.pow(n)
        return (mat[0][0], mat[1][0])


# The full orbit of omega_19 mod 23: (T_n(19), U_{n-1}(19)) for n = 1..24.
ORBIT_19_MOD_23 = [
    (19, 1), (8, 15), (9, 17), (12, 10), (10, 18), (0, 7),
    (13, 18), (11, 10), (14, 17), (15, 15), (4, 1), (22, 0),
    (4, 22), (15, 8), (14, 6), (11, 13), (13, 5), (0, 16),
    (10, 5), (12, 13), (9, 6), (8, 8), (19, 22), (1, 0),
]


def test_orbit_golden():
    for n, expected in enumerate(ORBIT_19_MOD_23, start=1):
        assert cheb_eval(19, n, 23).as_tuple() == expected


def test_orbit_t_coordinates_palindromic():
    t = [pair[0] for pair in ORBIT_19_MOD_23]
    assert t[:23] == t[:23][::-1]  # T_n = T_{24-n} on the period-24 orbit


def test_identity_and_conventions():
    assert cheb_eval(19, 0, 23).as_tuple() == (1, 0)  # U_{-1} = 0
    assert cheb_eval(7, 1, 100).as_tuple() == (7, 1)
    assert cheb_eval(-4, 24, 23) == ChebPair(t=1, u=0, a=19, m=23)  # base reduced mod m


def test_linear_recurrence_oracle():
    """Three-term recurrence walk agrees with logarithmic powering."""
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(m)
        t_prev, t_cur = 1 % m, a
        u_prev, u_cur = 0, 1 % m
        for n in range(1, 40):
            assert cheb_eval(a, n, m).as_tuple() == (t_cur % m, u_cur % m)
            t_prev, t_cur = t_cur, (2 * a * t_cur - t_prev) % m
            u_prev, u_cur = u_cur, (2 * a * u_cur - u_prev) % m


def test_ladder_agrees_with_pair_pow():
    """_ladder_tu on every (a, m), a^2-1 a unit mod m or not, with a = 0, 1
    and m-1 forced in, against the transfer-matrix oracle."""
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randrange(2, 10**6)
        n = rng.randrange(0, 10**9)
        for a in (0, 1, m - 1, rng.randrange(m)):
            assert _ladder_tu(a, n, m) == TransferMatrix(a, m).pair(n), (a, n, m)


def test_eval_matches_matrix_oracle_everywhere():
    """cheb_eval and cheb_t on every kind of (a, m), not only where a^2-1 is
    a unit: a = 0, 1, -1, negative a, even m, gcd(a^2-1, m) > 1, and
    moduli above 2^127."""
    rng = random.Random(18)
    for _ in range(1500):
        m = rng.choice(
            (
                rng.randrange(2, 100),
                rng.randrange(2, 10**6),
                2 * rng.randrange(1, 10**6),
                rng.randrange(1 << 127, 1 << 130),
            )
        )
        a = rng.choice(
            (0, 1, -1, m - 1, m + 1, rng.randrange(m), -rng.randrange(1, 10**9), rng.randrange(10**40))
        )
        if rng.random() < 0.25:  # a - 1 divides m, so gcd(a^2 - 1, m) > 1
            a = rng.randrange(3, 10**4)
            m = (a - 1) * rng.randrange(1, 10**4)
        n = rng.choice((0, 1, 2, rng.randrange(3, 100), rng.randrange(0, 10**15)))
        want = TransferMatrix(a, m).pair(n)
        assert cheb_eval(a, n, m).as_tuple() == want, (a, n, m)
        assert cheb_t(a, n, m) == want[0], (a, n, m)


def test_matrix_route_agrees():
    rng = random.Random(13)
    for _ in range(100):
        m = rng.randrange(2, 10**5)
        a = rng.randrange(m)
        n = rng.randrange(0, 10**6)
        mat = TransferMatrix(a, m)
        assert mat.pair(n) == cheb_eval(a, n, m).as_tuple()
        assert mat.det() == 1 % m


def test_pell_invariant():
    rng = random.Random(14)
    for _ in range(300):
        m = rng.randrange(2, 10**9)
        a = rng.randrange(m)
        n = rng.randrange(0, 10**12)
        assert cheb_eval(a, n, m).pell_defect() == 0


def test_pair_mul_is_exponent_addition():
    """omega_a^i * omega_a^j = omega_a^(i+j), multiplied in Z[sqrt(a^2-1)] mod m."""
    rng = random.Random(15)
    for _ in range(200):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(m)
        i, j = rng.randrange(0, 10**4), rng.randrange(0, 10**4)
        (t1, u1), (t2, u2) = cheb_eval(a, i, m).as_tuple(), cheb_eval(a, j, m).as_tuple()
        prod = ((t1 * t2 + (a * a - 1) * u1 * u2) % m, (t1 * u2 + t2 * u1) % m)
        assert prod == cheb_eval(a, i + j, m).as_tuple()


def test_composition_commutes():
    rng = random.Random(16)
    for _ in range(100):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(m)
        n, k = rng.randrange(1, 500), rng.randrange(1, 500)
        assert cheb_compose_check(a, n, k, m)


def test_t_p_fixes_base_mod_p():
    for p in primes_upto(500):
        if p == 2:
            continue
        for a in range(p):
            assert cheb_t(a, p, p) == a


def test_jacobi_against_square_table():
    for p in primes_upto(200):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert jacobi(a, p) == expected


def test_jacobi_against_sympy_and_laws():
    rng = random.Random(17)
    for _ in range(500):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(-(10**6), 10**6)
        b = rng.randrange(-(10**6), 10**6)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, 1)


def test_eval_argument_errors():
    with pytest.raises(ValueError):
        cheb_eval(5, -1, 23)
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        cheb_eval(5, 3, 1)
    with pytest.raises(ValueError):
        cheb_t(5, -1, 23)
    for m in (1, 0, -7):
        with pytest.raises(ValueError, match=f"modulus must be >= 2, got {m}$"):
            cheb_t(5, 3, m)
    with pytest.raises(ValueError):
        TransferMatrix(5, 23).pow(-1)
    with pytest.raises(ValueError):
        cheb_compose_check(5, 0, 3, 23)
    with pytest.raises(ValueError, match="modulus must be >= 2, got 0"):
        cheb_compose_check(5, 3, 3, 0)
    with pytest.raises(ValueError, match="modulus must be >= 2, got -5"):
        cheb_compose_check(5, 3, 3, -5)


# --- lane kernels at the top of their range, against the scalar routines ------


def test_t_ladder_lanes_below_2_31():
    """Moduli just below 2^31, where a ladder step left unreduced overflows
    int64 at the next product: every lane's T_j and T_{j+1} equal cheb_t for the
    prefixes j = k >> 3, ..., k >> 0 of its exponent k."""
    rng = random.Random(31)
    m = np.array([(1 << 31) - 1 - 2 * i for i in range(300)], dtype=np.int64)
    a = np.array([rng.randrange(1 << 31) for _ in m], dtype=np.int64)
    k = np.array([rng.randrange(1, 1 << 31) for _ in m], dtype=np.int64)
    for j in (3, 2, 1, 0):
        t0, t1 = _t_ladder_vec(a, k >> j, m)
        for i in range(len(m)):
            ai, ki, mi = int(a[i]), int(k[i]) >> j, int(m[i])
            assert t0[i] == cheb_t(ai, ki, mi), (ai, ki, mi)
            assert t1[i] == cheb_t(ai, ki + 1, mi), (ai, ki, mi)


def test_t_ladder_two_limbs_below_2_62():
    """m = p^2 for the primes just below 2^31, on two limbs x0 + x1*p, where a
    product left unreduced mod p^2 overflows int64 when doubled."""
    rng = random.Random(62)
    p = np.array(primes_in((1 << 31) - 6000, 1 << 31), dtype=np.int64)
    m = p * p
    a = np.array([rng.randrange(1 << 62) for _ in p], dtype=np.int64) % m
    k = np.array([rng.randrange(1, 1 << 31) for _ in p], dtype=np.int64)
    t0, t1 = _t_ladder_vec(a, k, m, p)
    for i in range(len(p)):
        ai, ki, mi = int(a[i]), int(k[i]), int(m[i])
        assert t0[i] == cheb_t(ai, ki, mi), (ai, ki, mi)
        assert t1[i] == cheb_t(ai, ki + 1, mi), (ai, ki, mi)


def test_t_ladder_mixed_exponents_and_shared_ints():
    """One call mixing exponents 0, 1, 2 and 30-bit ones, on one-limb moduli
    below 2^31 and on two-limb moduli m = p^2, and one call whose exponent and
    modulus are ints shared by every lane: every lane's T_k and T_{k+1} equal
    cheb_t, whatever the bit length of its exponent."""
    rng = random.Random(34)
    ks = [0, 1, 2, 0, 1, 2] + [rng.randrange(1 << 29, 1 << 30) for _ in range(6)]
    p = np.array([3, 5, 46337, 46349, *primes_in((1 << 31) - 300, 1 << 31)[-8:]], dtype=np.int64)
    k = np.array(ks, dtype=np.int64)
    for m, limbs in ((p, None), (p * p, p)):
        a = np.array([rng.randrange(int(v)) for v in m], dtype=np.int64)
        t0, t1 = _t_ladder_vec(a, k, m, limbs)
        for ai, ki, mi, x0, x1 in zip(a.tolist(), ks, m.tolist(), t0.tolist(), t1.tolist()):
            assert (x0, x1) == (cheb_t(ai, ki, mi), cheb_t(ai, ki + 1, mi)), (ai, ki, mi)
    m, ki = (1 << 31) - 1, rng.randrange(1 << 29, 1 << 30)
    a = np.array([0, 1, 2, m - 1, *(rng.randrange(m) for _ in range(8))], dtype=np.int64)
    t0, t1 = _t_ladder_vec(a, ki, m)
    assert t0.tolist() == [cheb_t(ai, ki, m) for ai in a.tolist()]
    assert t1.tolist() == [cheb_t(ai, ki + 1, m) for ai in a.tolist()]


def test_t_rows_match_the_walk():
    """Each row of _t_rows is T_0 = 1 and then the three-term walk of _t_walk:
    sizes on both sides of the doubling steps, both walk lengths at the largest
    prime below TABLE_CAP, one row and two, moduli from 3 up to 2^31 - 1."""
    rng = random.Random(28)
    cap = max(primes_in(TABLE_CAP - 100, TABLE_CAP))
    cases = [(m, size) for m in (3, 23, 1049, cap, (1 << 31) - 1) for size in (1, 2, 3, 5, 8, 1000)]
    for m, size in cases + [(cap, (cap - 1) // 2), (cap, (cap + 1) // 2)]:
        gens = [rng.randrange(m), -2]
        walks = [[1, *itertools.islice(_t_walk(g, m), size - 1)] for g in gens]
        assert _t_rows(gens[:1], m, size).tolist() == walks[:1], (m, size)
        assert _t_rows(gens, m, size).tolist() == walks, (m, size)


def test_pow_and_jacobi_lanes():
    rng = random.Random(7)
    n = np.array([(1 << 31) - 1 - 2 * i for i in range(200)] + list(range(3, 400, 2)), dtype=np.int64)
    x = np.array([rng.randrange(-(1 << 40), 1 << 40) for _ in n], dtype=np.int64)
    e = np.array([rng.randrange(1 << 31) for _ in n], dtype=np.int64)
    powers = _pow_vec(x, e, n)
    for i in range(len(n)):
        assert powers[i] == pow(int(x[i]), int(e[i]), int(n[i]))
    assert _pow_vec(x, 12345, 1_000_003).tolist() == [pow(int(v), 12345, 1_000_003) for v in x]


def test_residues_of_wide_integers():
    """base % int64 lanes raises OverflowError from 2^63 on; _residues takes any int."""
    m = np.array([3, 1_000_003, (1 << 31) - 1, ((1 << 31) - 1) ** 2], dtype=np.int64)
    for x in (0, -7, (1 << 62) - 1, 1 << 62, 1 << 63, (1 << 64) + 13, -(1 << 63) - 5, (1 << 70) + 3):
        assert _residues(x, m).tolist() == [x % int(v) for v in m], x
