"""Key exchange, primitive roots, discrete log, wire format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebring import structure
from chebring.crypto import (
    DLOG_CAP,
    DhParty,
    ProtocolError,
    decode_fields,
    dh_finish,
    dh_keygen,
    discrete_log_bruteforce,
    encode_fields,
    is_chebyshev_square,
    primitive_root_search,
)
from chebring.modarith import cheb_t
from chebring.primes import primes_in
from chebring.structure import TABLE_CAP, ResourceLimitError, omega_order

# least prime with full order p-1 / p+1, scanned to 1000
PRIMROOT_TABLE = {
    2: (11, 7),
    3: (None, 3),
    4: (7, 19),
    5: (5, 7),
    6: (17, 3),
    8: (19, 5),
    9: (None, 3),
    10: (5, 17),
}


def test_chebyshev_squares():
    for a in (-1, 1, 7, 17, 31, 49, 71, 97, 127):
        assert is_chebyshev_square(a)
    for a in (-3, 0, 2, 3, 5, 9, 15, 30):
        assert not is_chebyshev_square(a)


def test_primitive_root_table():
    for a, (minus, plus) in PRIMROOT_TABLE.items():
        report = primitive_root_search(a, 1000)
        assert (report.least_p_minus, report.least_p_plus) == (minus, plus), a


def test_primitive_root_warns_on_square_base():
    with pytest.warns(UserWarning):
        report = primitive_root_search(7, 300)
    assert report.least_p_minus is None
    assert report.least_p_plus is None


def test_square_bases_never_primitive():
    for a in (17, 31, 49):
        with pytest.warns(UserWarning):
            report = primitive_root_search(a, 200)
        assert report.least_p_minus is None
        assert report.least_p_plus is None


def test_primitive_root_validation():
    for a in (0, 1, -1):
        with pytest.raises(ValueError):
            primitive_root_search(a, 100)


@pytest.mark.filterwarnings("ignore:.*can never have full order")
def test_primitive_root_scan_matches_every_order():
    """The scan tests orders only where delta = -1; the least full-order
    primes are those of the plain omega_order scan over every prime."""
    for a in (*range(-12, -1), *range(2, 40)):
        least = {}
        for p in primes_in(3, 400):
            if a % p not in (1, p - 1):
                order = omega_order(a, p)
                if order in (p - 1, p + 1):
                    least.setdefault(order - p, p)
        report = primitive_root_search(a, 400)
        assert (report.least_p_minus, report.least_p_plus) == (least.get(-1), least.get(1)), a


def test_primitive_root_limit_capped():
    """A limit past TABLE_CAP is refused only when the scan to the cap has not
    found both primes."""
    with pytest.raises(ResourceLimitError, match=f"prime limit {TABLE_CAP + 1} exceeds the table cap"):
        primitive_root_search(3, TABLE_CAP + 1)
    report = primitive_root_search(2, 10**7)
    assert (report.least_p_minus, report.least_p_plus) == (11, 7)


def test_dh_golden_exchange():
    alice = dh_keygen(23, 19, 5)
    bob = dh_keygen(23, 19, 7)
    assert alice.sent == 10  # T_5(19) mod 23
    assert bob.sent == 13  # T_7(19) mod 23
    alice = dh_finish(alice, bob.sent)
    bob = dh_finish(bob, alice.sent)
    assert alice.shared == bob.shared == 4  # T_35(19) = T_11(19) mod 23


def test_dh_randomized_equality():
    rng = random.Random(41)
    primes = primes_in(5, 5000)
    for _ in range(300):
        p = rng.choice(primes)
        g = rng.choice([0, *range(2, p - 1)])
        sa, sb = rng.randrange(1, 10**9), rng.randrange(1, 10**9)
        alice = dh_finish(dh_keygen(p, g, sa), dh_keygen(p, g, sb).sent)
        bob = dh_finish(dh_keygen(p, g, sb), dh_keygen(p, g, sa).sent)
        assert alice.shared == bob.shared
        assert alice.shared == cheb_t(g, sa * sb, p)


def test_dh_validation():
    with pytest.raises(ValueError):
        dh_keygen(15, 2, 5)
    with pytest.raises(ValueError):
        dh_keygen(23, 1, 5)
    with pytest.raises(ValueError):
        dh_keygen(23, 22, 5)
    with pytest.raises(ValueError):
        dh_keygen(23, 19, 0)
    party = dh_keygen(23, 19, 5)
    with pytest.raises(ProtocolError):
        dh_finish(party, 23)
    with pytest.raises(ProtocolError):
        dh_finish(party, -1)
    with pytest.raises(TypeError):
        DhParty(23, 19, 5, 10, received=13, shared=5)  # the key is derived, never passed


def test_exchange_proves_its_modulus_once(monkeypatch, cold_caches):
    """Both sides of one exchange check the same modulus: on cold caches the
    primality test of 2^127 - 1 runs once, and a bad modulus after it is
    still refused."""
    p = (1 << 127) - 1
    primality_calls = []
    real_is_prime = structure.is_prime
    monkeypatch.setattr(structure, "is_prime", lambda n: primality_calls.append(n) or real_is_prime(n))
    alice, bob = dh_keygen(p, 3, 5), dh_keygen(p, 3, 7)
    alice, bob = dh_finish(alice, bob.sent), dh_finish(bob, alice.sent)
    assert alice.shared == bob.shared == cheb_t(3, 35, p)
    assert primality_calls == [p]
    with pytest.raises(ValueError, match="modulus must be an odd prime, got 15$"):
        dh_keygen(15, 2, 5)
    assert primality_calls == [p, 15]


def test_shared_key_is_derived():
    assert DhParty(23, 19, 5, 10, received=13).shared == cheb_t(13, 5, 23)
    assert dh_keygen(23, 19, 5).shared is None
    assert "shared" not in repr(dh_finish(dh_keygen(23, 19, 5), 13))


def test_dlog_goldens():
    assert discrete_log_bruteforce(23, 19, 0) == 6
    assert discrete_log_bruteforce(23, 19, 19) == 1
    assert discrete_log_bruteforce(23, 19, 1) == 24
    assert discrete_log_bruteforce(23, 19, 2) is None  # not in the orbit


def test_dlog_round_trip():
    rng = random.Random(42)
    for _ in range(100):
        p = rng.choice(primes_in(5, 500))
        g = rng.choice([0, *range(2, p - 1)])
        n = rng.randrange(1, 3 * p)
        target = cheb_t(g, n, p)
        found = discrete_log_bruteforce(p, g, target)
        assert found is not None
        assert cheb_t(g, found, p) == target
        assert found <= omega_order(g, p)


def test_dlog_matches_the_period_bounded_walk():
    """The walk that stops at T_n(g) = 1 answers as the old walk bounded by
    omega_order(g, p), for every g and target at every odd prime below 60."""
    for p in primes_in(3, 60):
        for g in (0, *range(2, p - 1)):
            period = omega_order(g, p)
            first = {}
            prev, cur = 1, g
            for n in range(1, period + 1):
                first.setdefault(cur, n)
                prev, cur = cur, (2 * g * cur - prev) % p
            for target in range(p):
                assert discrete_log_bruteforce(p, g, target) == first.get(target), (p, g, target)


def test_dlog_factors_nothing(monkeypatch):
    """The walk finds the period itself, so p - eps is never factored: 7 is
    in the other eps class from the full-order 5, so its walk runs the whole
    period of 1000002 steps."""

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(structure, "prime_factors", no_factoring)
    assert discrete_log_bruteforce(1000003, 5, 7) is None
    assert discrete_log_bruteforce(1000003, 5, 4) == 228966


def test_dlog_cap():
    """The least prime past DLOG_CAP is refused before the walk's first step;
    the largest prime below it still answers."""
    above, below = min(primes_in(DLOG_CAP, DLOG_CAP + 100)), max(primes_in(DLOG_CAP - 100, DLOG_CAP))
    with pytest.raises(ResourceLimitError, match=f"^prime {above} exceeds the discrete-log cap of {DLOG_CAP}$"):
        discrete_log_bruteforce(above, 5, 7)
    assert discrete_log_bruteforce(below, 5, 5) == 1


def test_dlog_validation():
    with pytest.raises(ValueError):
        discrete_log_bruteforce(15, 2, 0)
    with pytest.raises(ValueError):
        discrete_log_bruteforce(23, 1, 0)
    with pytest.raises(ValueError):
        discrete_log_bruteforce(23, 19, 23)


def test_wire_golden():
    assert encode_fields(23, 19, 10) == b"2:232:192:10"
    assert encode_fields() == b""
    assert decode_fields(b"2:232:192:10") == [23, 19, 10]
    assert decode_fields(b"") == []
    assert decode_fields(b"1:01:0") == [0, 0]


def test_wire_round_trip():
    rng = random.Random(43)
    for _ in range(200):
        values = [rng.randrange(0, 10**18) for _ in range(rng.randrange(0, 6))]
        assert decode_fields(encode_fields(*values)) == values


def test_wire_rejects_malformed():
    with pytest.raises(ValueError):
        encode_fields(-1)
    with pytest.raises(ValueError):
        decode_fields(b"2:2")  # body shorter than declared
    with pytest.raises(ValueError):
        decode_fields(b"29")  # no separator
    with pytest.raises(ValueError):
        decode_fields(b"x:23")  # non-numeric length
    with pytest.raises(ValueError):
        decode_fields(b"2:ab")  # non-decimal body
    with pytest.raises(ValueError):
        decode_fields(b"0:")  # zero-length body is never emitted
    with pytest.raises(ValueError):
        decode_fields(b"2:232:1")  # truncated second field
    # accepted by int() but never emitted: zero padding, space, sign, underscore
    for data in (b"02:10", b" 2:10", b"+1:5", b"1_0:1111111111", b"2:05"):
        with pytest.raises(ValueError):
            decode_fields(data)


# Fields whose declared length fits the body, with the prefixes and the
# characters that int() accepts and encode_fields never writes.
NEAR_CANONICAL_FIELD = st.tuples(
    st.sampled_from(["", "0", " ", "+"]), st.text(alphabet="0123456789 +_", min_size=1, max_size=6)
).map(lambda pair: f"{pair[0]}{len(pair[1])}:{pair[1]}")
WIRE_BYTES = st.one_of(
    st.binary(max_size=24),
    st.lists(NEAR_CANONICAL_FIELD, max_size=3).map(lambda fields: "".join(fields).encode()),
    st.lists(st.integers(min_value=0, max_value=10**30), max_size=4).map(lambda vs: encode_fields(*vs)),
)


@settings(max_examples=400, deadline=None)
@given(WIRE_BYTES)
def test_wire_accepts_only_what_it_emits(data):
    try:
        values = decode_fields(data)
    except ValueError:
        return
    assert encode_fields(*values) == data
