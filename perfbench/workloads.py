"""The four benchmark workloads: seeded inputs, one op each, items per op.

Every op calls the library through attributes of the ``chebring`` package,
looked up at call time, so that the tracer can swap in wrapped functions.
Inputs come only from the seed; the library never sees the seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_chebring():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "chebring" / "__init__.py").is_file():
        raise ImportError(f"no chebring package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chebring

    if SRC not in Path(chebring.__file__).resolve().parents:
        raise ImportError(f"chebring was imported from {chebring.__file__}, not from {SRC}")
    return chebring


cb = import_chebring()

# search: one base per op; both scans single-threaded, so that process
# start-up and the scheduler of a small shared machine stay out of the figures.
SEARCH_WIEFERICH_LIMIT = 30_000
SEARCH_PSEUDOPRIME_LIMIT = 10_000
# The pseudoprime scan skips every n sharing a factor with base^2 - 1, and a
# base divisible by a small prime q turns products of such q into trivial
# pseudoprimes; either way the op cost would swing with the seed (base 2,
# base^2 - 1 = 3, skips the multiples of 3; base 11, base^2 - 1 = 120, those
# of 5 as well).  So every base is +-1 mod 3 and neither 0 nor +-1 mod each
# prime from 5 to 31: all bases skip the multiples of 3 and, up to primes
# >= 37, nothing else.
SEARCH_BASE_RANGE = range(2, 100_000)
SEARCH_SIEVE_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
SEARCH_BASES_PER_ROUND = 8

# sweep: every prime of one narrow band, in seeded order.
SWEEP_BAND = (1000, 1100)

# poly: every odd n of one narrow band, prime or composite, in seeded order.
POLY_BAND = (1401, 1461)

# keyx: Chebyshev Diffie-Hellman modulo the Mersenne prime 2^127 - 1.
KEYX_P = (1 << 127) - 1
KEYX_SECRET_BITS = 127
KEYX_EXCHANGES_PER_ROUND = 128


def _primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi), by a plain sieve."""
    flags = bytearray([1]) * hi
    flags[:2] = b"\x00\x00"
    for p in range(2, isqrt(hi - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, hi, p)))
    return [n for n in range(lo, hi) if flags[n]]


# An item of search is one candidate examined: an odd prime of the Wieferich
# scan or an odd n >= 9 of the pseudoprime scan.
SEARCH_ITEMS = len(_primes(3, SEARCH_WIEFERICH_LIMIT + 1)) + len(range(9, SEARCH_PSEUDOPRIME_LIMIT + 1, 2))


def _uniform_cost_base(b: int) -> bool:
    return b % 3 != 0 and all(b % q not in (0, 1, q - 1) for q in SEARCH_SIEVE_PRIMES)


def search_inputs(rng: random.Random) -> tuple[list[int], list[int]]:
    bases: list[int] = []
    while len(bases) < SEARCH_BASES_PER_ROUND + 1:
        b = rng.choice(SEARCH_BASE_RANGE)
        if _uniform_cost_base(b) and b not in bases:
            bases.append(b)
    return bases[:-1], bases[-1:]


def search_op(base: int):
    hits = cb.wieferich_search(base, SEARCH_WIEFERICH_LIMIT, threads=1)
    pseudo = cb.pseudoprime_search(base, SEARCH_PSEUDOPRIME_LIMIT, "strong", threads=1)
    return hits, pseudo


def sweep_inputs(rng: random.Random) -> tuple[list[int], list[int]]:
    lo, hi = SWEEP_BAND
    band = _primes(lo, hi)
    rng.shuffle(band)
    return band, rng.sample(_primes(lo - 100, lo), 2)


def sweep_op(p: int):
    report = cb.partition_sums(p)
    lemma = cb.difference_lemma_check(p)
    shifted = cb.shifted_character_sums(p)
    classes = cb.order_class_decomposition(p)
    return report, lemma, shifted, classes


def poly_inputs(rng: random.Random) -> tuple[list[int], list[int]]:
    lo, hi = POLY_BAND
    band = list(range(lo, hi, 2))
    rng.shuffle(band)
    return band, rng.sample(range(lo - 100, lo, 2), 2)


def poly_op(n: int):
    return cb.shifted_congruence_check(n, 1), cb.prime_iff_power_check(n)


def keyx_inputs(rng: random.Random) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    def secret() -> int:
        return rng.getrandbits(KEYX_SECRET_BITS - 1) | 1 << (KEYX_SECRET_BITS - 1)

    rows = [(rng.randrange(2, KEYX_P - 1), secret(), secret()) for _ in range(KEYX_EXCHANGES_PER_ROUND + 8)]
    return rows[:-8], rows[-8:]


def keyx_op(row: tuple[int, int, int]):
    g, sa, sb = row
    alice = cb.dh_keygen(KEYX_P, g, sa)
    bob = cb.dh_keygen(KEYX_P, g, sb)
    fields = cb.decode_fields(cb.encode_fields(KEYX_P, g, alice.sent, bob.sent))
    alice = cb.dh_finish(alice, fields[3])
    bob = cb.dh_finish(bob, fields[2])
    return alice.shared, bob.shared, (KEYX_P, g, alice.sent, bob.sent), fields


# Calibration loops, about 1 ms each, timed around every op to measure the
# current speed of the core.  Each resembles its workload's work: the drift
# of a shared core slows big-integer arithmetic, small-integer interpreter
# loops and numpy calls on small arrays by different shares.
def bigint_loop() -> None:
    """3000 modular squarings of Python integers below 2^61 (like keyx)."""
    x = 3
    for _ in range(3000):
        x = (x * x + 12345) % 2305843009213693951


def interpreter_loop() -> list[int]:
    """A V-ladder step mod a 40-bit number and a Jacobi symbol, 300 times,
    then a small sieve (like the scans of search and the residues of sweep)."""
    out = []
    m = 1_000_003 * 1_000_033
    v0, v1 = 2, 5
    for i in range(300):
        v0, v1 = (v0 * v1 - 5) % m, (v1 * v1 - 2) % m
        a, n, r = i + 12345, 1_000_003, 1
        while a:
            while a % 2 == 0:
                a //= 2
                if n % 8 in (3, 5):
                    r = -r
            a, n = n, a
            if a % 4 == 3 and n % 4 == 3:
                r = -r
            a %= n
        out.append(r)
    flags = bytearray([1]) * 4000
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        flags[q * q :: q] = bytes(len(range(q * q, 4000, q)))
    return [i for i, f in enumerate(flags) if f]


_LANES = np.arange(1400, dtype=np.int64)


def numpy_loop() -> None:
    """80 steps of a three-term recurrence mod 1409 on 1400 int64 lanes."""
    prev, cur = _LANES, _LANES
    for _ in range(80):
        nxt = np.zeros(1400, dtype=np.int64)
        nxt[1:] = 2 * cur[:-1]
        nxt -= prev
        nxt %= 1409
        prev, cur = cur, nxt


# Set-up time is mostly importing numpy and the library: C extensions and
# many small objects.  Over 30 five-launch runs per workload, set-up time
# over this loop's time spread by 7-10% between quartiles, against 12-22%
# for plain wall time; over interpreter_loop or bigint_loop by up to 16%.
SETUP_CALIBRATE = numpy_loop


# Checks, from checks.py.  Imported only when a check runs, after timing, so
# that sympy stays out of set-up time.
def search_check(base: int, result) -> list[str]:
    import checks

    return checks.check_search(base, result, SEARCH_WIEFERICH_LIMIT, SEARCH_PSEUDOPRIME_LIMIT)


def sweep_check(p: int, result) -> list[str]:
    import checks

    return checks.check_sweep(p, result)


def poly_check(n: int, result) -> list[str]:
    import checks

    return checks.check_poly(n, result)


def keyx_check(row: tuple[int, int, int], result) -> list[str]:
    import checks

    return checks.check_keyx(KEYX_P, row, result)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[random.Random], tuple[list, list]]  # (one timed round, warm-up inputs)
    op: Callable[[Any], Any]
    items: Callable[[Any], int]
    calibrate: Callable[[], object]
    check: Callable[[Any, Any], list[str]]  # problems found in one op's result


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search", search_inputs, search_op, lambda base: SEARCH_ITEMS, interpreter_loop, search_check),
        Workload("sweep", sweep_inputs, sweep_op, lambda p: p - 2, interpreter_loop, sweep_check),
        Workload("poly", poly_inputs, poly_op, lambda n: 1, numpy_loop, poly_check),
        Workload("keyx", keyx_inputs, keyx_op, lambda row: 1, bigint_loop, keyx_check),
    )
}


def _library_caches() -> list:
    """Every functools cache of the package: each module-level function, and
    each function, static method or class method of a module-level class,
    that has ``cache_clear``."""
    found = {}
    for key, module in list(sys.modules.items()):
        if key != cb.__name__ and not key.startswith(cb.__name__ + "."):
            continue
        for value in list(vars(module).values()):
            members = list(vars(value).values()) if isinstance(value, type) else []
            for obj in [value, *(getattr(m, "__func__", m) for m in members)]:
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


# Collected at import, before the tracer replaces any name with a wrapper
# that hides ``cache_clear``.
CACHES = _library_caches()
PRIME_FACTORS = cb.primes.prime_factors


def clear_caches() -> None:
    """Reset every cross-call cache of the library, so that each op does the
    same work whatever ran before it in the process: a round that repeats an
    earlier input gains nothing from the earlier op."""
    for cache in CACHES:
        cache.cache_clear()
