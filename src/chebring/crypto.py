"""Key exchange and primitive roots for the Chebyshev action.

T_a(T_b(g)) = T_b(T_a(g)) = T_ab(g) is the only commutativity in town
(power maps aside), and it supports a Diffie-Hellman exchange verbatim:
each side publishes T_secret(g) mod p and applies its own secret to the
peer's value.  Breaking it is the Chebyshev discrete-log problem.  The
state machine here is a demonstration at desk scale, not a hardened
implementation.

An element generates the full cycle when its omega-order is p - eps;
values of the form 2x^2 - 1 can never do so, having an omega that is
itself a square.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

from .modarith import _t_walk, cheb_t
from .primes import primes_in
from .structure import TABLE_CAP, ResourceLimitError, _check_odd_prime, _check_table_cap, _full_order, characters

DLOG_CAP = 1 << 22  # largest p for discrete_log_bruteforce: its worst case, p + 1 steps, takes about 1 s (2-CPU VM)


class ProtocolError(Exception):
    """A peer value that cannot have come from an honest exchange."""


@dataclass(frozen=True)
class DhParty:
    """One side of an exchange; progression returns new snapshots."""

    p: int
    g: int
    secret: int
    sent: int
    received: int | None = None

    @cached_property
    def shared(self) -> int | None:
        """T_secret(received) mod p, the shared key; None before a peer value arrives."""
        return None if self.received is None else cheb_t(self.received, self.secret, self.p)


@dataclass(frozen=True)
class PrimitiveRootReport:
    a: int
    least_p_minus: int | None
    least_p_plus: int | None


def is_chebyshev_square(a: int) -> bool:
    """Is a = 2x^2 - 1 for some integer x?"""
    if a < -1 or (a + 1) % 2:
        return False
    half = (a + 1) // 2
    return isqrt(half) ** 2 == half


def primitive_root_search(a: int, prime_limit: int) -> PrimitiveRootReport:
    """Least primes where omega_a has the full order p-1 and p+1.

    Scans odd primes ascending, skipping those dividing a^2 - 1 (where a
    degenerates to a fixed point).  A base of the form 2x^2 - 1 can never
    be primitive; the search still runs but warns.  Only a prime whose class
    eps = ((a^2-1)/p) still lacks its least prime and where
    delta = ((2(a+1))/p) = -1 gets an order test: delta = +1 puts the
    omega-order inside (p - eps)/2.  The test is the one that picks the
    walk's generators, structure._full_order: T_{(p-eps)/q}(a) != 1 for
    every prime q | p - eps, stopping at the first q that fails.  The scan
    stops at TABLE_CAP; a limit above it raises ResourceLimitError if the
    scan to the cap has not found both primes.
    """
    if a in (0, 1, -1):
        raise ValueError("base must not be 0 or +-1")
    if is_chebyshev_square(a):
        warnings.warn(f"{a} = 2x^2 - 1 can never have full order", stacklevel=2)
    least = {1: None, -1: None}  # eps -> least prime with omega-order p - eps
    for p in primes_in(3, min(prime_limit, TABLE_CAP) + 1):
        am = a % p
        if am == 1 or am == p - 1:
            continue
        ch = characters(am, p)
        if least[ch.eps] is None and ch.delta == -1 and _full_order(am, p - ch.eps, p):
            least[ch.eps] = p
            if None not in least.values():
                break
    else:  # the scan ended without both primes: refuse a limit past the cap
        _check_table_cap(prime_limit, "prime limit")
    return PrimitiveRootReport(a, least[1], least[-1])


def dh_keygen(p: int, g: int, secret: int) -> DhParty:
    """Start an exchange: publish T_secret(g) mod p.

    The base g should have large omega-order; omega_order and
    primitive_root_search are the vetting helpers.
    """
    _check_odd_prime(p)
    g %= p
    if g == 1 or g == p - 1:
        raise ValueError(f"base {g} is a fixed point mod {p}")
    if secret < 1:
        raise ValueError("secret must be a positive integer")
    return DhParty(p, g, secret, cheb_t(g, secret, p))


def dh_finish(party: DhParty, peer_value: int) -> DhParty:
    """Absorb the peer's value; the new snapshot derives the shared key."""
    if not 0 <= peer_value < party.p:
        raise ProtocolError(f"peer value {peer_value} outside [0, {party.p})")
    return DhParty(party.p, party.g, party.secret, party.sent, peer_value)


def discrete_log_bruteforce(p: int, g: int, target: int) -> int | None:
    """Least n >= 1 with T_n(g) = target mod p, or None within one period.

    One mulmod per step of _t_walk, up to the first T_n(g) = 1: n = ord(omega_g),
    as T_n = 1 forces U_{n-1} = 0, so p - eps is never factored.  At most p + 1
    steps, about 1 s at p = DLOG_CAP (ResourceLimitError above).
    """
    _check_odd_prime(p)
    if p > DLOG_CAP:
        raise ResourceLimitError(f"prime {p} exceeds the discrete-log cap of {DLOG_CAP}")
    g %= p
    if g == 1 or g == p - 1:
        raise ValueError(f"base {g} is a fixed point mod {p}")
    if not 0 <= target < p:
        raise ValueError(f"target {target} outside [0, {p})")
    for n, t in enumerate(_t_walk(g, p), 1):
        if t == target or t == 1:
            return n if t == target else None


def encode_fields(*values: int) -> bytes:
    """Length-prefixed decimal wire encoding: b"<len>:<digits>" per field."""
    out = bytearray()
    for v in values:
        if v < 0:
            raise ValueError("wire fields are nonnegative integers")
        digits = str(v).encode()
        out += str(len(digits)).encode() + b":" + digits
    return bytes(out)


def _is_canonical_decimal(digits: bytes) -> bool:
    """ASCII digits as str(int) writes them: no sign, space, underscore or
    leading zero."""
    return digits.isdigit() and (digits[:1] != b"0" or digits == b"0")


def decode_fields(data: bytes) -> list[int]:
    """Inverse of encode_fields; accepts exactly the bytes it emits."""
    values = []
    i = 0
    while i < len(data):
        sep = data.find(b":", i)
        if sep < 0:
            raise ValueError("truncated wire field header")
        header = data[i:sep]
        if not _is_canonical_decimal(header) or header == b"0":
            raise ValueError("malformed wire field length")
        length = int(header)
        start, end = sep + 1, sep + 1 + length
        if end > len(data):
            raise ValueError("truncated wire field body")
        body = data[start:end]
        if not _is_canonical_decimal(body):
            raise ValueError("wire field body is not canonical decimal")
        values.append(int(body))
        i = end
    return values
