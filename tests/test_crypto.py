"""Key exchange, primitive roots, discrete log, wire format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebring.crypto import (
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
from chebring.structure import omega_order

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
