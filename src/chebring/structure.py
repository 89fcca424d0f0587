"""Order structure of the Chebyshev action mod an odd prime.

R_p denotes the residues {0, 2, 3, ..., p-2}: everything except the two
fixed points +-1.  The characters (eps, delta) cut R_p into four cells,
the cells decompose further into classes I_d of fixed omega-order d, and
each I_d is exactly the root set of a scaled real-cyclotomic polynomial.
The same cells reappear when the quadratic residues are shifted by +-1
and split by the symmetry a -> p - a.

Per-prime data is built once and shared, each piece an lru_cache of one
prime, as every caller works on one prime at a time: the Legendre table
(_legendre_table), R_p with its characters eps and delta (_r_characters)
and the omega-orders of the Chebyshev walk (_walk_orders, both eps classes
filled by doubling as the rows of one array), which a PartitionTable views
without a copy; expsum keeps the powers of zeta, the Weil sum and the four
cell sums the same way.  Each walk's generator is the least element of its
eps class with delta = -1 that passes _full_order: by Euler's criterion
omega_a^((p-eps)/2) = delta, so no element with delta = +1 has full order.
At TABLE_CAP these caches retain 14.7 MB (tracemalloc at
p = 262139): the table and the orders (int64) 2.1 MB each, R_p and its
characters 6.3 MB, the powers (complex128) 4.2 MB.
The cached arrays are read-only, and every public result is a fresh
object per call.  The primality verdict of the last modulus checked is
cached the same way (_is_odd_prime).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .modarith import _t_rows, cheb_t, jacobi
from .primes import ResourceLimitError, divisors, euler_phi, is_prime, prime_factors

CELLS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}  # cell key -> (eps, delta)
TABLE_CAP = 1 << 18  # largest p for per-prime tables and scans: at 262139 each takes under 1 s (2-CPU VM)
CYCLOTOMIC_CAP = 1400  # largest exact cyclotomic index: cyclotomic_factorization_check(1399) takes about 0.8 s (2-CPU VM)
DEGREE_CAP = 10_000  # largest T_n and aks index; at 10000 exact T_n takes 0.02 s, T_n mod m at most 0.31 s (2-CPU VM)


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


@lru_cache(maxsize=1)
def _is_odd_prime(p: int) -> bool:
    """The verdict of _check_odd_prime for the last p, so that the callers
    at one prime (the two sides of a key exchange, say) prove it once."""
    return p >= 3 and p % 2 != 0 and is_prime(p)


def _check_odd_prime(p: int) -> None:
    if not _is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")


def _check_table_cap(p: int, noun: str = "prime") -> None:
    if p > TABLE_CAP:
        raise ResourceLimitError(f"{noun} {p} exceeds the table cap of {TABLE_CAP}")


def _check_degree(n: int, least: int = 2) -> None:
    """The check of chebyshev_t_int and every aks entry point: least <= n <= DEGREE_CAP."""
    if n < least:
        raise ValueError(f"index must be >= {least}, got {n}")
    if n > DEGREE_CAP:
        raise ResourceLimitError(f"degree {n} exceeds the cap of {DEGREE_CAP}")


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


@dataclass(frozen=True, eq=False)
class PartitionTable:
    """The four cells A_{eps delta} of R_p and the omega-order of each element:
    R_p ascending (r), its characters (eps, delta) and orders (order), each a
    read-only int64 array.  Two tables are equal when p and the arrays are."""

    p: int
    r: np.ndarray
    eps: np.ndarray
    delta: np.ndarray
    order: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionTable):
            return NotImplemented
        arrays = ("r", "eps", "delta", "order")
        return self.p == other.p and all(np.array_equal(getattr(self, f), getattr(other, f)) for f in arrays)

    @cached_property
    def sets(self) -> dict[str, tuple[int, ...]]:
        """The cells as ascending tuples, keyed as CELLS; built on first read."""
        return {key: tuple(self.r[mask].tolist()) for key, mask in _cell_masks(self.eps, self.delta).items()}

    @cached_property
    def orders(self) -> dict[int, int]:
        """a -> omega-order of a, ascending in a; built on first read."""
        return dict(zip(self.r.tolist(), self.order.tolist()))

    def cell_of(self, a: int) -> str:
        i = np.searchsorted(self.r, a)
        if i == self.r.size or self.r[i] != a:
            raise KeyError(f"{a} is not in R_{self.p}")
        return _cell(self.eps[i], self.delta[i])

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "sets": self.sets, "orders": self.orders})

    def csv_rows(self) -> list[tuple[int, int, int, int]]:
        return list(zip(self.r.tolist(), self.eps.tolist(), self.delta.tolist(), self.order.tolist()))


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
        out = [o + c[h + k] * x for o, x in zip(out, cur)]
        prev, cur = cur, [-prev[0]] + [x - y for x, y in zip(cur, prev[1:])]
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

    The one polynomial routine of the package, on two routes picked from the
    inputs alone.  The ladder runs when a modulus m >= 2 is given and
    (n // 2 + 1)(m - 1)^2 < 2^63, which bounds the longest sum of any of its
    convolutions on int64 lanes: it doubles over the bits of n, carrying
    (T_k, T_{k+1}) in y = x + shift through T_{2k} = 2T_k^2 - 1 and
    T_{2k+1} = 2T_k T_{k+1} - y, O(log n) products, each reduced mod m.
    The lanes stay int64 between products; each product is convolved in
    float64 while its own sums stay below 2^53 (_twice_product).
    Otherwise the closed form of T_n(x) is written out: 2^{n-1} x^n plus
    (-1)^k d_k 2^{n-2k-1} x^{n-2k} for k >= 1, with the d_k from _d_chain,
    O(n) steps on integers of up to n bits, each reduced mod m if one is
    given.  A shift needs the ladder, so it raises ValueError without a
    modulus or past the bound.  n > DEGREE_CAP raises ResourceLimitError:
    the exact coefficients of T_n take O(n^2) bits.
    """
    _check_degree(n, 0)
    if modulus is not None and modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if modulus is None or (n // 2 + 1) * (modulus - 1) ** 2 >= 1 << 63:
        if shift and modulus is None:
            raise ValueError(f"shift {shift} needs a modulus: exact coefficients are built for T_n(x) only")
        if shift:
            raise ValueError(f"shift {shift} needs int64 lanes, (n // 2 + 1)(m - 1)^2 < 2^63: m = {modulus} at n = {n}")
        c = [0] * n + [1 << (n - 1)] if n else [1]
        for k, d in enumerate(_d_chain(n), 1):
            term = d << (n - 2 * k) >> 1  # d_k 2^{n-2k-1}, and d_{n/2} / 2 = 1 at 2k = n
            c[n - 2 * k] = -term if k & 1 else term
        return IntPolynomial.of(c if modulus is None else (x % modulus for x in c))
    one, y = np.ones(1, dtype=np.int64), np.array([shift % modulus, 1], dtype=np.int64)
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
    """2ab - low mod m, for int64 coefficient vectors with entries in [0, m)
    and min(len(a), len(b)) (m - 1)^2 < 2^63, so the convolution is exact.

    Below 2^53 the convolution runs on float64 copies, where numpy's dot
    kernel is several times faster than its int64 loop, and is cast back:
    every term and every partial sum is a nonnegative integer no larger than
    the final sum, which is below 2^53, so the float64 result is exact
    whatever order the kernel adds in."""
    if min(len(a), len(b)) * (m - 1) ** 2 < 1 << 53:
        a, b = a.astype(np.float64), b.astype(np.float64)
    out = np.convolve(a, b).astype(np.int64, copy=False) % m
    out *= 2
    out[: len(low)] -= low
    out %= m
    return out


def _d_chain(n: int):
    """d_k = (n/k) C(n-k-1, k-1) for k = 1, ..., n // 2, so that the x^{n-2k}
    coefficient of T_n(x) is (-1)^k d_k 2^{n-2k-1}: d_1 = n, then the ratio
    d_{k+1} (k+1)(n-k-1) = d_k (n-2k)(n-2k-1), whose division is checked."""
    if n < 2:
        return
    d = n
    yield d
    for k in range(1, n // 2):
        d, rem = divmod(d * (n - 2 * k) * (n - 2 * k - 1), (k + 1) * (n - k - 1))
        if rem:
            raise ArithmeticError(f"coefficient recurrence broke at n={n}, k={k}")
        yield d


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
    order = p - characters(a, p).eps
    for q in prime_factors(order):
        while order % q == 0 and cheb_t(a, order // q, p) == 1:
            order //= q
    return order


def _full_order(x: int, n: int, p: int) -> bool:
    """Is n the omega-order of x, for x in R_p with n = p - eps?  The order
    divides n, so it is n exactly when T_{n/q}(x) != 1 for every prime q | n;
    the test stops at the first q that fails."""
    return all(cheb_t(x, n // q, p) != 1 for q in prime_factors(n))


@lru_cache(maxsize=1)
def _r_characters(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R_p ascending and its characters eps and delta, from the Legendre table;
    read-only, cached per prime."""
    chi = _legendre_table(p)
    a = np.delete(np.arange(p - 1, dtype=np.int64), 1)  # R_p = {0, 2, ..., p-2}
    out = a, chi[(a * a - 1) % p], chi[2 * (a + 1) % p]
    for x in out:
        x.setflags(write=False)
    return out


def _cell_masks(eps: np.ndarray, delta: np.ndarray) -> dict[str, np.ndarray]:
    """The four cells as boolean masks over R_p, one per (eps, delta) of CELLS."""
    return {key: (eps == e) & (delta == d) for key, (e, d) in CELLS.items()}


def _step_orders(n: int, count: int) -> np.ndarray:
    """n / gcd(k, n) for k = 1 ... count, the order of k in Z/n, as int64:
    from n, divided by q at every q^i-th step for each prime power q^i | n."""
    orders = np.full(count, n, dtype=np.int64)
    for q in prime_factors(n):
        qi = q
        while n % qi == 0:
            orders[qi - 1 :: qi] //= q
            qi *= q
    return orders


@lru_cache(maxsize=1)
def _walk_orders(p: int) -> np.ndarray:
    """The omega-order of each element of R_p, ascending, from the Chebyshev
    walk: T_k(g), k = 1 ... n/2 - 1, for one g of each eps with omega-order
    n = p - eps, the two walks the rows of one _t_rows call (filled by
    doubling).  Each g is the least x of its class with delta = -1 that
    passes _full_order: delta = +1 puts the order inside n/2, and a candidate
    costs one cheb_t per prime of n up to the first that fails.  The walk
    must meet each residue of R_p once, with the table's eps and delta = +1
    exactly at even k; T_k(g) has omega-order n / gcd(k, n), read off the
    prime powers of n (_step_orders).  Read-only, cached per prime.
    """
    a, eps, delta = _r_characters(p)
    ns = [n for n in (p - 1, p + 1) if n > 2]  # eps = +1, -1; at p = 3 the class eps = +1 is empty
    gens = [next(x for x in map(int, a[(eps == p - n) & (delta == -1)]) if _full_order(x, n, p)) for n in ns]
    rows = _t_rows(gens, p, ns[-1] // 2)
    walk = np.concatenate([row[1 : n // 2] for row, n in zip(rows, ns)])
    k = np.concatenate([np.arange(1, n // 2) for n in ns])  # the step of each T_k(g)
    order = np.concatenate([_step_orders(n, n // 2 - 1) for n in ns])
    lane = np.zeros(p, dtype=np.int64)
    lane[walk] = np.arange(walk.size)
    at = lane[a]  # the position in the walk that met each a
    # The walk has |R_p| entries, so it meets each a once exactly when walk[at] = a
    # for every a; the eps = +1 row fills its first (p-1)/2 - 1 positions.
    plus = at < (p - 1) // 2 - 1
    bad = a[(walk[at] != a) | (plus != (eps == 1)) | ((k[at] % 2 == 0) != (delta == 1))]
    if bad.size:
        raise ArithmeticError(f"the Chebyshev walk mod {p} disagrees with the Legendre table at {bad[0]}")
    orders = order[at]
    orders.setflags(write=False)
    return orders


def partition(p: int) -> PartitionTable:
    """The four cells of R_p and every element's omega-order, two ways.

    Route one, _cell_masks, reads the cells off the Legendre table; the
    shift refinement reads only it.  Route two, the Chebyshev walk of
    _walk_orders (T_k(g) for one g per eps class, filled by doubling in
    about log2 p numpy steps), is the cross-check and gives the orders.
    Each call returns a fresh table over the cached arrays of _r_characters
    and _walk_orders, so repeated calls at one p walk once.
    """
    return PartitionTable(p, *_r_characters(p), _walk_orders(p))


def order_class_decomposition(p: int) -> dict[int, tuple[int, ...]]:
    """I_d = {a in R_p : omega-order d}, ascending in d and in a, from the
    orders of the partition, whose walk ties them to the cells: delta = +1
    exactly where d divides (p-eps)/2.  R_p is ascending, so one stable
    argsort of the orders, sliced at each change of order, forms the classes.
    Each d divides p - 1 or p + 1, and each I_d has d > 2 and exactly phi(d)/2
    elements, with phi(d) read off the primes of p - 1 and p + 1.
    """
    table = partition(p)
    by_order = np.argsort(table.order, kind="stable")
    d, a = table.order[by_order], table.r[by_order].tolist()
    starts = np.flatnonzero(np.diff(d, prepend=0)).tolist()  # each order is >= 1
    primes = set(prime_factors(p - 1) + prime_factors(p + 1))
    out = {}
    for order, lo, hi in zip(d[starts].tolist(), starts, starts[1:] + [len(a)]):
        if order <= 2:
            raise ArithmeticError(f"order {order} cannot occur on R_{p}")
        if (p - 1) % order and (p + 1) % order:
            raise ArithmeticError(f"order {order} divides neither p - 1 nor p + 1 at p={p}")
        phi = order
        for q in primes:
            if order % q == 0:
                phi = phi // q * (q - 1)
        if hi - lo != phi // 2:
            raise ArithmeticError(f"|I_{order}| = {hi - lo} != phi({order})/2 at p={p}")
        out[order] = tuple(a[lo:hi])
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

    Each set is a mask over R_p: a lies in Q+s (N+s) when chi[a - s] = +1
    (-1), and its mirror p - a when chi[-a - s] does.  Membership fixes
    ((a -+ 1)/p), hence eps*delta (shift +1) or delta (shift -1); the
    symmetric part is the cell with eps = (-1/p).  The derived cell labels
    are asserted against _cell_masks.  0.10-0.13 s at p = 262139 (2-CPU VM).
    """
    if p < 5:
        raise ValueError(f"refinement needs p >= 5, got {p}")
    a, eps, delta = _r_characters(p)
    chi, cells = _legendre_table(p), _cell_masks(eps, delta)
    sign_minus1 = jacobi(-1, p)
    splits = []
    for source in ("Q+1", "Q-1", "N+1", "N-1"):
        side, shift = (1 if source[0] == "Q" else -1), int(source[1:])
        value = side * jacobi(2, p)  # eps*delta (shift +1) or delta (shift -1) on the set
        kept, mirror = chi[(a - shift) % p] == side, chi[(-a - shift) % p] == side
        sym, nonsym = kept & mirror, kept & ~mirror
        # delta of the cell with a given eps: eps * value (shift +1) or value (shift -1)
        sym_cell, nonsym_cell = (_cell(e, e * value if shift == 1 else value) for e in (sign_minus1, -sign_minus1))
        if not (np.array_equal(sym, cells[sym_cell]) and np.array_equal(nonsym, cells[nonsym_cell])):
            raise ArithmeticError(f"{source} does not split into cells at p={p}")
        splits.append(
            ShiftedSetSplit(
                source=source,
                dropped=tuple(x for x in (1, p - 1) if chi[(x - shift) % p] == side),
                symmetric=tuple(a[sym].tolist()),
                symmetric_cell=sym_cell,
                nonsymmetric=tuple(a[nonsym].tolist()),
                nonsymmetric_cell=nonsym_cell,
                symmetric_shifted_back=tuple(np.sort((a[sym] - shift) % p).tolist()),
                nonsymmetric_shifted_back=tuple(np.sort((a[nonsym] - shift) % p).tolist()),
            )
        )
    return ShiftRefinement(p, tuple(splits))
