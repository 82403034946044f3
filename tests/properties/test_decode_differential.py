"""Differential property test: fused packet decoder vs a field-by-field spec.

``decode_packet`` (PROTOCOL.md §14.2) decodes S1/A1/S2/A2 with one
fixed-prefix unpack per packet and computes truncation geometry only on
the error path. It claims to be a pure speed-up: for every input it
returns the same packet, or raises the same exception type with the
same message, as a decoder that reads one field at a time through a
bounds-checked :class:`~repro.core.wire.Reader`.

That field-by-field decoder lives here, as the executable spec: header,
then body fields in wire order, each read checked on its own, then
``expect_end``. Its error precedence is the contract — bad magic,
version and type beat truncation; an unknown S1 mode beats a short
body; S1 ``validate()`` and the A1 pre-ack pairing beat trailing bytes.

``peek_type`` and ``peek_assoc_id`` are held to the spec's header read.

Inputs: valid packets of every type, mode, flag combination and digest
width; every strict prefix of them; every single-bit flip of them; and
random tails behind a valid 4-byte header. Each input is fed as
``bytes``, ``bytearray`` and ``memoryview``.
"""

from __future__ import annotations

import struct

from hypothesis import given, settings, strategies as st

from repro.core.exceptions import PacketError
from repro.core.modes import Mode
from repro.core.packets import (
    FLAG_AMT_ROOT,
    FLAG_HS_TELEMETRY,
    FLAG_PRE_ACK_PAIR,
    FLAG_RELIABLE,
    FLAG_TELEMETRY,
    MAGIC,
    VERSION,
    A1Packet,
    A2Packet,
    AckVerdict,
    HandshakePacket,
    LedgerSummary,
    PacketType,
    S1Packet,
    S2Packet,
    decode_packet,
    peek_assoc_id,
    peek_type,
)
from repro.core.wire import Reader
from tests.properties.test_wire_roundtrip import any_packets, packets_of_width

# -- the spec: one bounds-checked read per field -------------------------------


def spec_header(reader: Reader) -> tuple[PacketType, int, int]:
    magic = reader.u16()
    if magic != MAGIC:
        raise PacketError(f"bad magic 0x{magic:04x}")
    version = reader.u8()
    if version != VERSION:
        raise PacketError(f"unsupported version {version}")
    raw_type = reader.u8()
    try:
        packet_type = PacketType(raw_type)
    except ValueError:
        raise PacketError(f"unknown packet type {raw_type}") from None
    return packet_type, reader.u64(), reader.u32()


def spec_s1(reader: Reader, assoc_id: int, seq: int, h: int) -> S1Packet:
    mode_raw = reader.u8()
    try:
        mode = Mode(mode_raw)
    except ValueError:
        raise PacketError(f"unknown mode {mode_raw}") from None
    flags = reader.u8()
    chain_index = reader.u32()
    chain_element = reader.raw(h)
    message_count = reader.u16()
    pre_signatures = reader.hash_list(h)
    packet = S1Packet(
        assoc_id=assoc_id,
        seq=seq,
        mode=mode,
        chain_index=chain_index,
        chain_element=chain_element,
        pre_signatures=pre_signatures,
        message_count=message_count,
        reliable=bool(flags & FLAG_RELIABLE),
    )
    packet.validate()
    return packet


def spec_a1(reader: Reader, assoc_id: int, seq: int, h: int) -> A1Packet:
    flags = reader.u8()
    ack_index = reader.u32()
    ack_element = reader.raw(h)
    echo_sig_index = reader.u32()
    echo_sig_element = reader.raw(h)
    pre_acks: list[bytes] = []
    pre_nacks: list[bytes] = []
    amt_root = None
    telemetry = None
    if flags & FLAG_PRE_ACK_PAIR:
        pre_acks = reader.hash_list(h)
        pre_nacks = reader.hash_list(h)
        if len(pre_acks) != len(pre_nacks):
            raise PacketError("pre-acks and pre-nacks must pair up")
    if flags & FLAG_AMT_ROOT:
        amt_root = reader.raw(h)
    if flags & FLAG_TELEMETRY:
        telemetry = LedgerSummary.decode(reader)
    return A1Packet(
        assoc_id=assoc_id,
        seq=seq,
        ack_index=ack_index,
        ack_element=ack_element,
        echo_sig_index=echo_sig_index,
        echo_sig_element=echo_sig_element,
        pre_acks=pre_acks,
        pre_nacks=pre_nacks,
        amt_root=amt_root,
        telemetry=telemetry,
    )


def spec_s2(reader: Reader, assoc_id: int, seq: int, h: int) -> S2Packet:
    disclosed_index = reader.u32()
    disclosed_element = reader.raw(h)
    msg_index = reader.u16()
    message = reader.var_bytes()
    auth_path = reader.hash_list(h)
    return S2Packet(
        assoc_id=assoc_id,
        seq=seq,
        disclosed_index=disclosed_index,
        disclosed_element=disclosed_element,
        msg_index=msg_index,
        message=message,
        auth_path=auth_path,
    )


def spec_a2(reader: Reader, assoc_id: int, seq: int, h: int) -> A2Packet:
    disclosed_index = reader.u32()
    disclosed_element = reader.raw(h)
    count = reader.u16()
    verdicts = []
    for _ in range(count):
        msg_index = reader.u16()
        is_ack = bool(reader.u8())
        secret = reader.var_bytes()
        path = reader.hash_list(h)
        verdicts.append(AckVerdict(msg_index, is_ack, secret, path))
    return A2Packet(
        assoc_id=assoc_id,
        seq=seq,
        disclosed_index=disclosed_index,
        disclosed_element=disclosed_element,
        verdicts=verdicts,
    )


def spec_handshake(
    reader: Reader, assoc_id: int, seq: int, is_response: bool
) -> HandshakePacket:
    flags = reader.u8()
    try:
        hash_name = reader.var_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise PacketError("handshake hash name is not ASCII") from None
    nonce = reader.var_bytes()
    peer_nonce = reader.var_bytes()
    sig_chain_length = reader.u32()
    sig_anchor = reader.var_bytes()
    ack_chain_length = reader.u32()
    ack_anchor = reader.var_bytes()
    public_key = reader.var_bytes()
    signature = reader.var_bytes()
    telemetry = None
    if flags & FLAG_HS_TELEMETRY:
        telemetry = LedgerSummary.decode(reader)
    if not sig_anchor or not ack_anchor:
        raise PacketError("handshake must carry both anchors")
    return HandshakePacket(
        assoc_id=assoc_id,
        seq=seq,
        is_response=is_response,
        hash_name=hash_name,
        nonce=nonce,
        sig_anchor=sig_anchor,
        sig_chain_length=sig_chain_length,
        ack_anchor=ack_anchor,
        ack_chain_length=ack_chain_length,
        peer_nonce=peer_nonce,
        public_key=public_key,
        signature=signature,
        telemetry=telemetry,
    )


SPEC_BODIES = {
    PacketType.S1: spec_s1,
    PacketType.A1: spec_a1,
    PacketType.S2: spec_s2,
    PacketType.A2: spec_a2,
}


def spec_decode(data, hash_size: int):
    """The field-by-field reference decoder."""
    reader = Reader(data)
    packet_type, assoc_id, seq = spec_header(reader)
    if packet_type in (PacketType.HS1, PacketType.HS2):
        packet = spec_handshake(
            reader, assoc_id, seq, is_response=packet_type is PacketType.HS2
        )
    else:
        packet = SPEC_BODIES[packet_type](reader, assoc_id, seq, hash_size)
    reader.expect_end()
    return packet


def spec_peek(data, _hash_size: int) -> tuple[PacketType, int]:
    return spec_header(Reader(data))[:2]


def fused_peek(data, _hash_size: int) -> tuple[PacketType, int]:
    return peek_type(data), peek_assoc_id(data)


# -- the comparison ------------------------------------------------------------


def outcome(decode, data, hash_size: int):
    try:
        return "ok", decode(data, hash_size)
    except Exception as exc:  # noqa: BLE001 - the exception IS the outcome
        return type(exc), str(exc)


def assert_same(data: bytes, hash_size: int) -> None:
    """Both decoders, and both header peeks, agree on ``data`` as bytes,
    bytearray and memoryview."""
    for form in (bytes, bytearray, memoryview):
        assert outcome(fused_peek, form(data), 0) == outcome(spec_peek, form(data), 0)
        fused = outcome(decode_packet, form(data), hash_size)
        spec = outcome(spec_decode, form(data), hash_size)
        assert fused == spec, (form.__name__, data.hex())
        if fused[0] == "ok":
            assert type(fused[1]) is type(spec[1])
            for value in vars(fused[1]).values():
                # Decoded fields never alias the input buffer.
                assert not isinstance(value, (bytearray, memoryview))


WIDTHS = (16, 20, 32)
widths = st.sampled_from(WIDTHS)
any_width_packets = widths.flatmap(
    lambda h: st.tuples(st.just(h), packets_of_width(h))
)


@given(drawn=any_width_packets)
@settings(max_examples=300, deadline=None)
def test_valid_packets_agree(drawn):
    h, packet = drawn
    assert_same(packet.encode(), h)
    # Decoding at the wrong width is a different, still-agreeing input.
    assert_same(packet.encode(), 20 if h != 20 else 32)


@given(drawn=any_width_packets)
@settings(max_examples=40, deadline=None)
def test_every_prefix_agrees(drawn):
    h, packet = drawn
    encoded = packet.encode()
    for cut in range(len(encoded)):
        assert_same(encoded[:cut], h)


@given(drawn=any_width_packets)
@settings(max_examples=15, deadline=None)
def test_every_bit_flip_agrees(drawn):
    h, packet = drawn
    encoded = packet.encode()
    for bit in range(len(encoded) * 8):
        damaged = bytearray(encoded)
        damaged[bit // 8] ^= 1 << (bit % 8)
        assert_same(bytes(damaged), h)


@given(
    raw_type=st.integers(min_value=0, max_value=8),
    tail=st.binary(max_size=120),
    h=widths,
)
@settings(max_examples=400, deadline=None)
def test_random_tails_agree(raw_type, tail, h):
    assert_same(struct.pack(">HBB", MAGIC, VERSION, raw_type) + tail, h)


@given(packet=any_packets, garbage=st.binary(min_size=1, max_size=16))
@settings(max_examples=100, deadline=None)
def test_trailing_garbage_agrees(packet, garbage):
    assert_same(packet.encode() + garbage, 20)


def test_header_precedence_examples():
    """Bad magic/version/type win over truncation, as in the spec."""
    good = struct.pack(">HBB", MAGIC, VERSION, PacketType.S1)
    for data in (
        b"", b"\xa1", b"\x00\x00\x01", b"\xa1\xfa", b"\xa1\xfa\x02",
        b"\xa1\xfa\x01", b"\xa1\xfa\x01\x09", good, good + b"\x00" * 12,
        good + b"\x00" * 12 + b"\x07", good + b"\x00" * 12 + b"\x02",
    ):
        assert_same(data, 20)
