"""Order structure of the Chebyshev action mod an odd prime.

R_p denotes the residues {0, 2, 3, ..., p-2}: everything except the two
fixed points +-1.  The characters (eps, delta) cut R_p into four cells,
the cells decompose further into classes I_d of fixed omega-order d, and
each I_d is exactly the root set of a scaled real-cyclotomic polynomial.
The same cells reappear when the quadratic residues are shifted by +-1
and split by the symmetry a -> p - a.

Two per-prime arrays are built once and shared: the Legendre table
(_legendre_table) and the omega-orders of the Chebyshev walk
(_walk_orders); expsum keeps the powers of zeta the same way.  Each is an
lru_cache of one prime, as every caller works on one prime at a time.  At
TABLE_CAP the table and the orders (int64) take 2.1 MB each and the powers
(complex128) 4.2 MB, so 8.4 MB at most.  The cached arrays are read-only,
and every public result is a fresh object built from them per call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modarith import _t_ladder_vec, cheb_t, jacobi
from .primes import divisors, euler_phi, is_prime, prime_factors

CELLS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}  # cell key -> (eps, delta)
TABLE_CAP = 1 << 18  # largest p for per-prime tables and scans: at 262139 each takes under 1 s (2-CPU VM)
CYCLOTOMIC_CAP = 1400  # largest exact cyclotomic index: cyclotomic_factorization_check(1399) takes 1.0 s (2-CPU VM)


class ResourceLimitError(RuntimeError):
    """An input exceeds one of the package's size caps."""


@dataclass(frozen=True)
class CharPair:
    """The two quadratic characters (eps, delta) attached to a residue.

    eps = 0 exactly when a = +-1 mod p; delta = 0 exactly when a = -1.
    """

    eps: int
    delta: int


def characters(a: int, p: int) -> CharPair:
    """(eps, delta) = ((a^2-1)/p), ((2(a+1))/p) as Jacobi symbols."""
    if p < 3 or p % 2 == 0:
        raise ValueError(f"characters need an odd modulus >= 3, got {p}")
    a %= p
    return CharPair(jacobi(a * a - 1, p), jacobi(2 * (a + 1), p))


def _cell(eps: int, delta: int) -> str:
    return ("+" if eps == 1 else "-") + ("+" if delta == 1 else "-")


def _check_odd_prime(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")


def _check_table_cap(p: int, noun: str = "prime") -> None:
    if p > TABLE_CAP:
        raise ResourceLimitError(f"{noun} {p} exceeds the table cap of {TABLE_CAP}")


def _check_cyclotomic_cap(d: int) -> None:
    if d > CYCLOTOMIC_CAP:
        raise ResourceLimitError(f"index {d} exceeds the cyclotomic cap of {CYCLOTOMIC_CAP}")


@lru_cache(maxsize=1)
def _legendre_table(p: int) -> np.ndarray:
    """chi[x] = (x/p) for every x in [0, p), read off the squares; read-only,
    cached per prime."""
    _check_odd_prime(p)
    _check_table_cap(p)
    chi = np.full(p, -1, dtype=np.int64)
    chi[np.arange(p, dtype=np.int64) ** 2 % p] = 1
    chi[0] = 0
    chi.setflags(write=False)
    return chi


@dataclass(frozen=True)
class PartitionTable:
    """The four cells A_{eps delta} of R_p and the omega-order of each element."""

    p: int
    sets: dict[str, tuple[int, ...]]
    orders: dict[int, int]

    def cell_of(self, a: int) -> str:
        for key, members in self.sets.items():
            if a in members:
                return key
        raise KeyError(f"{a} is not in R_{self.p}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "sets": {key: list(val) for key, val in self.sets.items()},
                "orders": {str(a): d for a, d in sorted(self.orders.items())},
            }
        )

    def csv_rows(self) -> list[tuple[int, int, int, int]]:
        return sorted(
            (a, eps, delta, self.orders[a]) for key, (eps, delta) in CELLS.items() for a in self.sets[key]
        )


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial, coefficients lowest degree first."""

    coefficients: tuple[int, ...]

    @staticmethod
    def of(coeffs) -> "IntPolynomial":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return IntPolynomial(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial.of([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + IntPolynomial.of([-x for x in other.coefficients])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if not a or not b:
            return IntPolynomial(())
        return IntPolynomial.of(np.convolve(np.array(a, dtype=object), np.array(b, dtype=object)).tolist())

    def scale_arg(self, c: int) -> "IntPolynomial":
        """The polynomial x -> self(c*x)."""
        return IntPolynomial.of([coef * c**i for i, coef in enumerate(self.coefficients)])


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Phi_d, lowest degree first.  For d >= 2, Phi_d(x) is the product of
    (1 - x^(d/e))^mu(e) over the squarefree e | d (the signs of x^k - 1 cancel,
    as the mu(e) sum to 0).  On power series cut at degree phi(d), multiplying
    by 1 - x^k is one descending pass c[i] -= c[i-k], and dividing by it one
    ascending pass c[i] += c[i-k].  Cold, d = 1260 takes 0.2 ms (2-CPU VM).
    """
    _check_cyclotomic_cap(d)
    if d == 1:
        return (-1, 1)
    top = euler_phi(d)
    c = [1] + [0] * top
    terms = [(d, 1)]  # (d/e, mu(e)) over the squarefree e | d
    for q in prime_factors(d):
        terms += [(k // q, -mu) for k, mu in terms]
    for k, mu in terms:
        for i in range(top, k - 1, -1) if mu == 1 else range(k, top + 1):
            c[i] -= mu * c[i - k]
    if c[top] != 1:
        raise ArithmeticError(f"cyclotomic {d} is not monic of degree {top}")
    return tuple(c)


def cyclotomic(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial over the integers, for d <= CYCLOTOMIC_CAP."""
    if d < 1:
        raise ValueError(f"index must be >= 1, got {d}")
    return IntPolynomial(_cyclotomic_coeffs(d))


def real_cyclotomic(d: int) -> IntPolynomial:
    """Minimal polynomial of 2cos(2pi/d): monic, degree phi(d)/2.

    Extracted from the self-reciprocal cyclotomic polynomial by rewriting
    x^{-h} Phi_d(x) in the basis x^k + x^{-k} = D_k(x + 1/x), where D_k is
    the Dickson recurrence D_0 = 2, D_1 = y, D_{k+1} = y D_k - D_{k-1}.
    """
    if d < 3:
        raise ValueError(f"real cyclotomic defined for d >= 3, got {d}")
    c = _cyclotomic_coeffs(d)
    h = euler_phi(d) // 2
    if c != c[::-1]:
        raise ArithmeticError(f"cyclotomic {d} is not self-reciprocal")
    out = [c[h]] + [0] * h
    prev, cur = [2] + [0] * h, [0, 1] + [0] * (h - 1)  # D_0, D_1
    for k in range(1, h + 1):
        for i in range(h + 1):
            out[i] += c[h + k] * cur[i]
        if k < h:
            nxt = [-x for x in prev]
            for i in range(h):
                nxt[i + 1] += cur[i]
            prev, cur = cur, nxt
    return IntPolynomial.of(out)


def psi(d: int) -> IntPolynomial:
    """The degree-phi(d) factor of T_n - 1 attached to the divisor d."""
    if d < 1:
        raise ValueError(f"index must be >= 1, got {d}")
    if d == 1:
        return IntPolynomial.of([-1, 1])
    if d == 2:
        return IntPolynomial.of([2, 2])
    half = real_cyclotomic(d).scale_arg(2)
    return half * half


def chebyshev_t_int(n: int, shift: int = 0, modulus: int | None = None) -> IntPolynomial:
    """T_n(x + shift) as an integer polynomial, coefficients reduced mod the
    modulus when one is given.

    The one polynomial routine of the package.  With a modulus m >= 2 it
    doubles over the bits of n, carrying (T_k, T_{k+1}) in y = x + shift
    through T_{2k} = 2T_k^2 - 1 and T_{2k+1} = 2T_k T_{k+1} - y: O(log n)
    products, each reduced mod m, on int64 lanes for m below 2^30 and
    Python-integer lanes otherwise.  Without one it steps the exact
    three-term recurrence T_{k+1} = 2y T_k - T_{k-1}, dense O(n^2): exact
    coefficients grow to n bits, where products cost more than the sums
    of the recurrence.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if modulus is None:
        return _chebyshev_t_exact(n, shift)
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    dtype = np.int64 if modulus < 1 << 30 else object
    one, y = np.ones(1, dtype=dtype), np.array([shift % modulus, 1], dtype=dtype)
    # (T_k, T_{k+1}) from k = 0 up to k = n // 2, then T_n by one product.
    k = n >> 1
    t0, t1 = one, y
    for i in range(k.bit_length() - 1, -1, -1):
        if k >> i & 1:
            t0, t1 = _twice_product(t0, t1, y, modulus), _twice_product(t1, t1, one, modulus)
        else:
            t0, t1 = _twice_product(t0, t0, one, modulus), _twice_product(t0, t1, y, modulus)
    out = _twice_product(t0, t1, y, modulus) if n & 1 else _twice_product(t0, t0, one, modulus)
    return IntPolynomial.of(out.tolist())


def _twice_product(a: np.ndarray, b: np.ndarray, low: np.ndarray, m: int) -> np.ndarray:
    """2ab - low mod m, for coefficient vectors with entries in [0, m)."""
    out = _mulmod(a, b, m)
    out *= 2
    out[: len(low)] -= low
    out %= m
    return out


def _mulmod(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """ab mod m for coefficient vectors with entries in [0, m).

    On int64 lanes (m < 2^30) one convolution is exact while its longest
    sum, min(len) terms below m^2 each, stays below 2^63; past that the
    operands split into 15-bit halves, whose four convolutions sum terms
    below 2^30.
    """
    if a.dtype == object or min(len(a), len(b)) * (m - 1) ** 2 < 1 << 63:
        return np.convolve(a, b) % m
    a0, a1, b0, b1 = a & 0x7FFF, a >> 15, b & 0x7FFF, b >> 15
    lo = np.convolve(a0, b0)
    mid = np.convolve(a0, b1) + np.convolve(a1, b0)
    hi = np.convolve(a1, b1)
    return (hi % m * ((1 << 30) % m) + mid % m * (1 << 15) + lo) % m


def _chebyshev_t_exact(n: int, shift: int) -> IntPolynomial:
    """T_n(x + shift) over the integers by the three-term recurrence."""
    # Start from T_{-1} = T_1 = x + shift and T_0 = 1, so that n steps give T_n.
    prev = np.zeros(n + 2, dtype=object)
    prev[0], prev[1] = shift, 1
    cur = np.zeros(n + 2, dtype=object)
    cur[0] = 1
    two_shift = 2 * shift
    for _ in range(n):
        nxt = np.zeros(n + 2, dtype=object)
        nxt[1:] = 2 * cur[:-1]
        if two_shift:
            nxt += two_shift * cur
        nxt -= prev
        prev, cur = cur, nxt
    return IntPolynomial.of(cur.tolist())


def cyclotomic_factorization_check(n: int) -> bool:
    """Does the product of psi(d) over d | n equal T_n - 1 exactly?  n <= CYCLOTOMIC_CAP."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    _check_cyclotomic_cap(n)
    prod = IntPolynomial.of([1])
    for d in divisors(n):
        prod = prod * psi(d)
    return prod == chebyshev_t_int(n) - IntPolynomial.of([1])


def omega_order(a: int, p: int) -> int:
    """Least n >= 1 with T_n(a) = 1 mod p; the order of omega_a.

    Divisor descent from p - eps; hitting T_n = 1 forces the companion
    U_{n-1} = 0, so the single coordinate determines the order.
    """
    _check_odd_prime(p)
    a %= p
    if a == 1 or a == p - 1:
        raise ValueError(f"{a} is a fixed point, outside R_{p}")
    return _order(a, p, jacobi(a * a - 1, p))


def _order(a: int, p: int, eps: int) -> int:
    """omega_order for a in R_p with eps = ((a^2-1)/p), p not re-checked."""
    order = p - eps
    for q in prime_factors(order):
        while order % q == 0 and cheb_t(a, order // q, p) == 1:
            order //= q
    return order


def _r_characters(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R_p ascending and its characters eps and delta, from the Legendre table."""
    chi = _legendre_table(p)
    a = np.delete(np.arange(p - 1, dtype=np.int64), 1)  # R_p = {0, 2, ..., p-2}
    return a, chi[(a * a - 1) % p], chi[2 * (a + 1) % p]


def _character_cells(a: np.ndarray, eps: np.ndarray, delta: np.ndarray) -> dict[str, tuple[int, ...]]:
    """The four cells: R_p masked at each (eps, delta) of CELLS."""
    return {key: tuple(a[(eps == e) & (delta == d)].tolist()) for key, (e, d) in CELLS.items()}


@lru_cache(maxsize=1)
def _walk_orders(p: int) -> np.ndarray:
    """The omega-order of each element of R_p, ascending, from the Chebyshev
    walk: T_k(g), k = 1 ... n/2 - 1, for one g of each eps with omega-order
    n = p - eps (one T-ladder, a lane per k).  The walk must meet each
    residue of R_p once, with the table's eps and delta = +1 exactly at even
    k; T_k(g) has omega-order n / gcd(k, n).  Read-only, cached per prime.
    """
    a, eps, delta = _r_characters(p)
    lanes = []  # the (g, k, n) lane arrays of each walk
    for e in (1, -1):
        n = p - e
        if n > 2:  # at p = 3 the class eps = +1 is empty
            g = next(x for x in a[eps == e].tolist() if _order(x, p, e) == n)
            k = np.arange(1, n // 2, dtype=np.int64)
            lanes.append((np.full_like(k, g), k, np.full_like(k, n)))
    g, k, n = (np.concatenate(col) for col in zip(*lanes))
    walk = _t_ladder_vec(g, k, p)[0][-1]
    lane = np.zeros(p, dtype=np.int64)
    lane[walk] = np.arange(walk.size)
    k, n = k[lane[a]], n[lane[a]]  # the step and group order that met each a
    met = np.bincount(walk, minlength=p)[a]
    bad = a[(met != 1) | (p - n != eps) | ((k % 2 == 0) != (delta == 1))]
    if bad.size:
        raise ArithmeticError(f"the Chebyshev walk mod {p} disagrees with the Legendre table at {bad[0]}")
    orders = n // np.gcd(k, n)
    orders.setflags(write=False)
    return orders


def partition(p: int) -> PartitionTable:
    """The four cells of R_p and every element's omega-order, two ways.

    Route one, _character_cells, reads the cells off the Legendre table; the
    shift refinement reads only it.  Route two, the Chebyshev walk of
    _walk_orders, is the cross-check and gives the orders.  Both read arrays
    cached for the last prime (the table and the orders, 4.2 MB together at
    TABLE_CAP), so repeated calls at one p walk once; each call returns a
    fresh table.
    """
    a, eps, delta = _r_characters(p)
    orders = dict(zip(a.tolist(), _walk_orders(p).tolist()))
    return PartitionTable(p, _character_cells(a, eps, delta), orders)


def order_class_decomposition(p: int) -> dict[int, tuple[int, ...]]:
    """I_d = {a in R_p : omega-order d}, from the orders of the partition,
    whose walk ties them to the cells: delta = +1 exactly where d divides
    (p-eps)/2.  Each nonempty I_d with d > 2 has exactly phi(d)/2 elements.
    """
    classes: dict[int, list[int]] = {}
    for a, d in partition(p).orders.items():
        classes.setdefault(d, []).append(a)
    out = {d: tuple(sorted(v)) for d, v in sorted(classes.items())}
    for d, members in out.items():
        if d <= 2:
            raise ArithmeticError(f"order {d} cannot occur on R_{p}")
        if len(members) != euler_phi(d) // 2:
            raise ArithmeticError(f"|I_{d}| = {len(members)} != phi({d})/2 at p={p}")
    return out


def splitting_roots(d: int, p: int) -> tuple[int, ...]:
    """The a in [0, p) with f(2a) = 0 mod p, ascending, for f = real_cyclotomic(d):
    Horner's rule on int64 lanes, one per residue a, so p is capped at TABLE_CAP
    (ResourceLimitError above), where the scan takes 0.55 s at d = 1285 and
    0.8 s at d = 1399 (2-CPU VM).  For p >= 5 the roots number phi(d)/2
    exactly when d | p-1 or d | p+1 (ArithmeticError if not)."""
    if d < 3:
        raise ValueError(f"splitting defined for d >= 3, got {d}")
    _check_odd_prime(p)
    _check_table_cap(p)
    coeffs = [c % p for c in real_cyclotomic(d).coefficients]
    x = 2 * np.arange(p, dtype=np.int64) % p
    acc = np.zeros(p, dtype=np.int64)
    for i, c in enumerate(reversed(coeffs)):
        acc *= x
        acc += c
        if i % 2:  # from acc < p two steps stay below p^3 < 2^54, as p < 2^18
            acc %= p
    roots = tuple(np.flatnonzero(acc % p == 0).tolist())
    if p >= 5 and (len(roots) == euler_phi(d) // 2) != ((p - 1) % d == 0 or (p + 1) % d == 0):
        raise ArithmeticError(f"splitting of d={d} mod {p} contradicts d | p -+ 1")
    return roots


def splitting_check(d: int, p: int) -> bool:
    """Does the degree-phi(d)/2 polynomial split into distinct linear
    factors mod p?  len(splitting_roots(d, p)) == phi(d)/2, from one scan
    (0.55-0.8 s at p = 262139 and d = 1285 or 1399).  For p >= 5 this happens
    exactly when d | p-1 or d | p+1, and the roots are then the order class I_d.
    """
    return len(splitting_roots(d, p)) == euler_phi(d) // 2


def character_transport_check(a: int, n: int, p: int) -> bool | None:
    """Do the characters of T_n(a) follow those of a?

    eps is preserved; delta becomes +1 for even n and is preserved for odd
    n.  Returns None when T_n(a) = +-1 mod p (the characters degenerate and
    the claim does not apply).
    """
    _check_odd_prime(p)
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    a %= p
    if a in (0, 1, p - 1):
        raise ValueError(f"base {a} is degenerate mod {p}")
    t = cheb_t(a, n, p)
    if t == 1 or t == p - 1:
        return None
    before, after = characters(a, p), characters(t, p)
    return after.eps == before.eps and after.delta == (1 if n % 2 == 0 else before.delta)


@dataclass(frozen=True)
class ShiftedSetSplit:
    """One of Q+-1 / N+-1 split by the symmetry a -> p-a.

    Boundary residues +-1 (at most one can occur) are dropped before the
    split; the two parts land exactly on partition cells, and shifting
    back returns subsets of the residues/non-residues with the same
    exponential-sum bound.
    """

    source: str
    dropped: tuple[int, ...]
    symmetric: tuple[int, ...]
    symmetric_cell: str
    nonsymmetric: tuple[int, ...]
    nonsymmetric_cell: str
    symmetric_shifted_back: tuple[int, ...]
    nonsymmetric_shifted_back: tuple[int, ...]


@dataclass(frozen=True)
class ShiftRefinement:
    p: int
    splits: tuple[ShiftedSetSplit, ...]

    def split(self, source: str) -> ShiftedSetSplit:
        for s in self.splits:
            if s.source == source:
                return s
        raise KeyError(source)


def residue_shift_refinement(p: int) -> ShiftRefinement:
    """Split each of Q+-1 and N+-1 into two partition cells.

    Membership of a in a shifted set fixes ((a -+ 1)/p), hence fixes
    eps*delta (shift by +1) or delta (shift by -1); the symmetric part is
    the cell with eps = (-1/p).  The derived cell labels are asserted
    against the actual symmetric/complement split.
    """
    if p < 5:
        raise ValueError(f"refinement needs p >= 5, got {p}")
    sets = _character_cells(*_r_characters(p))
    chi = _legendre_table(p)
    q, n = set(np.flatnonzero(chi == 1).tolist()), set(np.flatnonzero(chi == -1).tolist())
    sign2 = jacobi(2, p)
    sign_minus1 = jacobi(-1, p)
    plan = [
        ("Q+1", q, 1, sign2),  # eps*delta = (2/p)
        ("Q-1", q, -1, sign2),  # delta = (2/p)
        ("N+1", n, 1, -sign2),
        ("N-1", n, -1, -sign2),
    ]
    splits = []
    for source, base_set, shift, value in plan:
        shifted = {(x + shift) % p for x in base_set}
        dropped = tuple(sorted(shifted & {1, p - 1}))
        kept = shifted - {1, p - 1}
        sym = {x for x in kept if (p - x) % p in kept}
        nonsym = kept - sym
        # delta of the cell with a given eps: eps * value (shift +1) or value (shift -1)
        sym_cell, nonsym_cell = (
            _cell(e, e * value if shift == 1 else value) for e in (sign_minus1, -sign_minus1)
        )
        if sym != set(sets[sym_cell]) or nonsym != set(sets[nonsym_cell]):
            raise ArithmeticError(f"{source} does not split into cells at p={p}")
        splits.append(
            ShiftedSetSplit(
                source=source,
                dropped=dropped,
                symmetric=tuple(sorted(sym)),
                symmetric_cell=sym_cell,
                nonsymmetric=tuple(sorted(nonsym)),
                nonsymmetric_cell=nonsym_cell,
                symmetric_shifted_back=tuple(sorted((x - shift) % p for x in sym)),
                nonsymmetric_shifted_back=tuple(sorted((x - shift) % p for x in nonsym)),
            )
        )
    return ShiftRefinement(p, tuple(splits))
