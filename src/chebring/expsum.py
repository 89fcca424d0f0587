"""Exponential sums over the partition cells.

With zeta = exp(2 pi i / p), the cell sums g_{eps delta} = sum of zeta^a
over a cell admit a closed form up to one term: the complete character
sum S = sum ((a^2-1)/p) zeta^a over nonzero a.  Expanding the cell
indicator through the two characters turns each g into a combination of
Gauss sums plus (eps/4) S, so Weil's |S| <= 2 sqrt(p) yields
|g| <= sqrt(p) + 5/4: square-root cancellation on sets of size ~p/4.

Everything here is double precision; every closed form is asserted
against direct summation at 1e-9 tolerance, which holds on the domain:
odd primes up to structure.TABLE_CAP = 2^18 (ResourceLimitError above).
The direct sums run on numpy arrays and add left to right from 0, as
CPython 3.11's builtin sum does, so every float is bitwise equal to the
per-residue Python loops they replace.

The sums share per-prime data, each piece built once and cached for the
last prime: structure's Legendre table, R_p with its characters and the
walk's orders, which the partition table views, and here the powers of
zeta (_zeta_array, complex128, 4.2 MB at TABLE_CAP), the Weil sum
(weil_sum, one complex), which the cell sums and shifted_character_sums
both read, and the four checked cell sums with S (_cell_sums, a tuple),
which partition_sums hands out in a fresh report, so difference_lemma_check
and conjugacy_check sum no cell again.  The arrays are read-only;
zeta_powers hands out a fresh list.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modarith import jacobi
from .structure import CELLS, _cell, _cell_masks, _check_table_cap, _legendre_table, _r_characters, partition

TOLERANCE = 1e-9
_BLOCK = 256  # zeta_powers restarts from cmath.exp at every multiple of this


@dataclass(frozen=True)
class ExpSumReport:
    p: int
    g: dict[str, complex]
    S: complex
    bound: float
    max_ratio: float


def _close(x: complex, y: complex) -> bool:
    return abs(x - y) <= TOLERANCE * max(1.0, abs(x), abs(y))


def epsilon_p(p: int) -> complex:
    """The Gauss-sum sign: 1 for p = 1 mod 4, i for p = 3 mod 4."""
    return 1.0 if p % 4 == 1 else 1.0j


@lru_cache(maxsize=1)
def _zeta_array(p: int) -> np.ndarray:
    """zeta^k for k in [0, p): each block of 256 starts from exp(2 pi i k / p)
    and multiplies by zeta one step at a time, left to right (np.cumprod).
    Read-only, cached per prime, so p is capped at TABLE_CAP."""
    _check_table_cap(p)
    z = cmath.exp(2j * math.pi / p)
    zp = np.full((-(-p // _BLOCK), _BLOCK), z)
    zp[:, 0] = [1.0 + 0.0j, *(cmath.exp(2j * math.pi * k / p) for k in range(_BLOCK, p, _BLOCK))]
    np.cumprod(zp, axis=1, out=zp)
    out = zp.ravel()[:p]
    out.setflags(write=False)
    return out


def zeta_powers(p: int) -> list[complex]:
    """[zeta^0, ..., zeta^{p-1}], renormalized every 256 steps: a fresh list
    from the cached array, so p is capped at TABLE_CAP (ResourceLimitError
    above; ValueError for p < 1)."""
    if p < 1:
        raise ValueError(f"modulus must be >= 1, got {p}")
    return _zeta_array(p).tolist()


def _sum(x: np.ndarray) -> complex | int:
    """The builtin sum(x), bit for bit: np.cumsum adds left to right from 0
    as CPython 3.11's sum does (np.sum adds pairwise); the int 0 when empty."""
    if x.size == 0:
        return 0
    return complex(np.cumsum(np.concatenate(([0j], x)))[-1])


def gauss_sums(p: int) -> tuple[complex, complex]:
    """(g_R, g_N): zeta summed over residues and non-residues.

    Asserted against the classical evaluation (-1 +- eps_p sqrt(p))/2.
    """
    chi = _legendre_table(p)
    zp = _zeta_array(p)
    g_r, g_n = _sum(zp[chi == 1]), _sum(zp[chi == -1])
    root = epsilon_p(p) * math.sqrt(p)
    if not (_close(g_r, (-1 + root) / 2) and _close(g_n, (-1 - root) / 2)):
        raise ArithmeticError(f"Gauss sum evaluation failed at p={p}")
    return g_r, g_n


@lru_cache(maxsize=1)
def weil_sum(p: int) -> complex:
    """S = sum over nonzero a of ((a^2-1)/p) zeta^a; |S| <= 2 sqrt(p).
    The terms a = +-1 are zero, so S sums eps zeta^a over R_p without 0, with
    eps from _r_characters.  Cached per prime."""
    a, eps, _ = _r_characters(p)
    return complex(_sum(eps[1:] * _zeta_array(p)[a[1:]]))


def _shifted_closed_forms(p: int, zp: np.ndarray, s: complex) -> tuple[complex, complex, complex]:
    """(C_minus, C_plus, C_both), the closed forms of the shifted sums over R_p:
    sum ((a-1)/p) zeta^a = eps_p sqrt(p) zeta - ((-2)/p) zeta^{-1}
    sum ((a+1)/p) zeta^a = eps_p sqrt(p) zeta^{-1} - ((2)/p) zeta
    sum ((a^2-1)/p) zeta^a = ((-1)/p) + S
    """
    root = epsilon_p(p) * math.sqrt(p)
    zeta, zeta_inv = complex(zp[1]), complex(zp[p - 1])
    return root * zeta - jacobi(-2, p) * zeta_inv, root * zeta_inv - jacobi(2, p) * zeta, jacobi(-1, p) + s


def shifted_character_sums(p: int) -> tuple[complex, complex, complex]:
    """The three shifted sums over R_p, asserted against their closed forms; their
    characters are ((a+1)/p) = (2/p) delta and ((a-1)/p) = (2/p) eps delta on R_p."""
    a, eps, delta = _r_characters(p)
    zp = _zeta_array(p)
    za, plus = zp[a], jacobi(2, p) * delta
    sums = (_sum(plus * eps * za), _sum(plus * za), _sum(eps * za))
    if not all(map(_close, sums, _shifted_closed_forms(p, zp, weil_sum(p)))):
        raise ArithmeticError(f"shifted character sums disagree at p={p}")
    return sums


@lru_cache(maxsize=1)
def _cell_sums(p: int) -> tuple[tuple[complex | int, ...], complex]:
    """The four cell sums g in CELLS order, computed directly and via the
    character trick, with R_p, eps and delta from _r_characters, and the
    Weil sum S they were checked with.

    As ((2(a+1))/p) = (2/p)((a+1)/p) and ((2(a+1)(a^2-1))/p) = (2/p)((a-1)/p)
    on R_p, 4g = -2cos(2pi/p) + eps C_both + (2/p)(delta C_plus + eps delta C_minus).
    The two routes must agree, the four sums must add up to zeta summed over
    R_p, and S must keep Weil's bound.  Cached per prime, as immutable tuples.
    """
    a, eps, delta = _r_characters(p)
    zp = _zeta_array(p)
    s = weil_sum(p)
    if abs(s) > 2 * math.sqrt(p) + TOLERANCE:
        raise ArithmeticError(f"Weil bound violated at p={p}")
    c_minus, c_plus, c_both = _shifted_closed_forms(p, zp, s)
    sign2 = jacobi(2, p)
    whole = -2 * math.cos(2 * math.pi / p)  # zeta summed over R_p
    masks = _cell_masks(eps, delta)
    sums = []
    for cell, (e, d) in CELLS.items():
        direct = _sum(zp[a[masks[cell]]])
        trick = (whole + e * c_both + sign2 * (d * c_plus + e * d * c_minus)) / 4
        if not _close(direct, trick):
            raise ArithmeticError(f"direct and trick sums disagree for {cell} at p={p}")
        sums.append(direct)
    if not _close(sum(sums), whole):
        raise ArithmeticError(f"four-cell sum is off at p={p}")
    return tuple(sums), s


def partition_sums(p: int) -> ExpSumReport:
    """All four cell sums, computed directly and via the character trick
    (_cell_sums, summed and checked once per prime).

    The cells are those of partition(p), which cross-checks them against
    the Chebyshev walk.  Each call returns a fresh report, with a fresh g
    dict keyed as CELLS, which carries S, the bound sqrt(p) + 5/4, and the
    largest |g|/sqrt(p) observed.
    """
    if p < 5:
        raise ValueError(f"partition sums need p >= 5, got {p}")
    partition(p)
    sums, s = _cell_sums(p)
    g = dict(zip(CELLS, sums))
    root = math.sqrt(p)
    return ExpSumReport(p, g, s, root + 1.25, max(abs(v) for v in g.values()) / root)


def difference_lemma_check(p: int) -> bool:
    """Do the two closed-form cell differences hold at p?

    g_{+-} - g_{++} and g_{--} - g_{-+} each have a stated evaluation,
    split on p mod 4.  Returns False on numerical disagreement instead of
    raising, so sweeps can record exceptions per prime.
    """
    g = partition_sums(p).g
    angle = 2 * math.pi / p
    root = jacobi(2, p) * math.sqrt(p)
    if p % 4 == 1:
        first = (1 - root) * math.cos(angle)
        second = 1j * (1 + root) * math.sin(angle)
    else:
        first = 1j * (math.sin(angle) - root * math.cos(angle))
        second = math.cos(angle) - root * math.sin(angle)
    return _close(g["+-"] - g["++"], first) and _close(g["--"] - g["-+"], second)


def conjugacy_check(p: int) -> bool:
    """Cells with eps = (-1/p) are real; the other pair are conjugates."""
    g = partition_sums(p).g
    real_eps = jacobi(-1, p)
    real_ok = all(abs(g[_cell(real_eps, delta)].imag) < TOLERANCE for delta in (1, -1))
    conj_ok = _close(g[_cell(-real_eps, 1)], g[_cell(-real_eps, -1)].conjugate())
    return real_ok and conj_ok
