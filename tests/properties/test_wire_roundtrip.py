"""Wire-format property tests: encode/decode round-trips exactly.

Hypothesis generates structurally valid instances of *every* packet
type (HS1, HS2, S1, A1, S2, A2) and asserts:

1. Round trip — ``decode_packet(p.encode(), h) == p`` field for field.
2. Truncation safety — every strict prefix of a valid encoding is
   rejected with :class:`~repro.core.exceptions.PacketError`.
3. Damage safety — flipping any single bit either still decodes to
   *some* packet or raises :class:`PacketError`; no other exception
   type ever escapes the parser (no ``struct.error``, ``IndexError``,
   ``UnicodeDecodeError``, ...).
4. Trailing garbage is rejected (``expect_end``).
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import PacketError
from repro.core.modes import Mode
from repro.core.packets import (
    A1Packet,
    A2Packet,
    AckVerdict,
    HandshakePacket,
    LedgerSummary,
    S1Packet,
    S2Packet,
    decode_packet,
)

#: Digest width used by every generated packet (SHA-1-sized; the codec
#: only cares that encode and decode agree on it).
H = 20


def hashes_of(width: int):
    return st.binary(min_size=width, max_size=width)


assoc_ids = st.integers(min_value=0, max_value=2**64 - 1)
seqs = st.integers(min_value=0, max_value=2**32 - 1)
u32s = st.integers(min_value=0, max_value=2**32 - 1)
u16s = st.integers(min_value=0, max_value=2**16 - 1)
payloads = st.binary(max_size=64)

#: Optional ledger-summary telemetry riding A1 and HS2 (PROTOCOL.md §16).
ledger_summaries = st.builds(
    LedgerSummary,
    corrupt_arrivals=u32s,
    verified=u32s,
    dropped=u32s,
    rtt_us=u32s,
)
maybe_telemetry = st.none() | ledger_summaries


@st.composite
def s1_packets(draw, width=H):
    hashes = hashes_of(width)
    mode = draw(st.sampled_from(list(Mode)))
    message_count = draw(st.integers(min_value=1, max_value=8))
    if mode is Mode.MERKLE:
        n_sigs = 1
    elif mode is Mode.MERKLE_CUMULATIVE:
        n_sigs = draw(st.integers(min_value=1, max_value=message_count))
    else:
        n_sigs = message_count
    return S1Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        mode=mode,
        chain_index=draw(u32s),
        chain_element=draw(hashes),
        pre_signatures=draw(
            st.lists(hashes, min_size=n_sigs, max_size=n_sigs)
        ),
        message_count=message_count,
        reliable=draw(st.booleans()),
    )


@st.composite
def a1_packets(draw, width=H):
    hashes = hashes_of(width)
    n_pairs = draw(st.integers(min_value=0, max_value=6))
    return A1Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        ack_index=draw(u32s),
        ack_element=draw(hashes),
        echo_sig_index=draw(u32s),
        echo_sig_element=draw(hashes),
        pre_acks=draw(st.lists(hashes, min_size=n_pairs, max_size=n_pairs)),
        pre_nacks=draw(st.lists(hashes, min_size=n_pairs, max_size=n_pairs)),
        amt_root=draw(st.none() | hashes),
        telemetry=draw(maybe_telemetry),
    )


@st.composite
def s2_packets(draw, width=H):
    hashes = hashes_of(width)
    return S2Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        disclosed_index=draw(u32s),
        disclosed_element=draw(hashes),
        msg_index=draw(u16s),
        message=draw(payloads),
        auth_path=draw(st.lists(hashes, max_size=6)),
    )


@st.composite
def a2_packets(draw, width=H):
    hashes = hashes_of(width)
    verdicts = draw(
        st.lists(
            st.builds(
                AckVerdict,
                msg_index=u16s,
                is_ack=st.booleans(),
                secret=st.binary(max_size=32),
                path=st.lists(hashes, max_size=4),
            ),
            max_size=5,
        )
    )
    return A2Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        disclosed_index=draw(u32s),
        disclosed_element=draw(hashes),
        verdicts=verdicts,
    )


@st.composite
def handshake_packets(draw):
    nonce = draw(st.binary(min_size=8, max_size=32))
    return HandshakePacket(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        is_response=draw(st.booleans()),
        hash_name=draw(
            st.text(
                alphabet=string.ascii_lowercase + string.digits + "-",
                min_size=1,
                max_size=16,
            )
        ),
        nonce=nonce,
        sig_anchor=draw(st.binary(min_size=1, max_size=32)),
        sig_chain_length=draw(u32s),
        ack_anchor=draw(st.binary(min_size=1, max_size=32)),
        ack_chain_length=draw(u32s),
        peer_nonce=draw(st.just(b"") | st.binary(min_size=8, max_size=32)),
        public_key=draw(st.binary(max_size=64)),
        signature=draw(st.binary(max_size=64)),
        telemetry=draw(maybe_telemetry),
    )


def packets_of_width(width: int):
    """Every packet type, with ``width``-byte chain elements and hashes."""
    return st.one_of(
        s1_packets(width),
        a1_packets(width),
        s2_packets(width),
        a2_packets(width),
        handshake_packets(),
    )


any_packets = packets_of_width(H)


@given(packet=any_packets)
@settings(max_examples=200, deadline=None)
def test_roundtrip_every_packet_type(packet):
    assert decode_packet(packet.encode(), H) == packet


@given(packet=any_packets, data=st.data())
@settings(max_examples=100, deadline=None)
def test_truncation_always_raises_packet_error(packet, data):
    encoded = packet.encode()
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(PacketError):
        decode_packet(encoded[:cut], H)


@given(packet=any_packets)
@settings(max_examples=25, deadline=None)
def test_every_prefix_rejected(packet):
    """Exhaustive sweep: no prefix length slips through the parser."""
    encoded = packet.encode()
    for cut in range(len(encoded)):
        with pytest.raises(PacketError):
            decode_packet(encoded[:cut], H)


@given(packet=any_packets, data=st.data())
@settings(max_examples=200, deadline=None)
def test_bit_flip_raises_only_packet_error(packet, data):
    encoded = bytearray(packet.encode())
    bit = data.draw(st.integers(min_value=0, max_value=len(encoded) * 8 - 1))
    encoded[bit // 8] ^= 1 << (bit % 8)
    try:
        decode_packet(bytes(encoded), H)
    except PacketError:
        pass  # typed rejection is the contract


@given(packet=any_packets, garbage=st.binary(min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_trailing_garbage_rejected(packet, garbage):
    with pytest.raises(PacketError):
        decode_packet(packet.encode() + garbage, H)
