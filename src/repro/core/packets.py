"""ALPHA packet formats (paper Figures 2, 3; Section 3.4).

Six packet types:

========  =====================================================
``HS1``   Handshake init: anchors of the initiator's chains.
``HS2``   Handshake response: anchors of the responder's chains.
``S1``    Pre-signature announcement (chain element + MAC(s)/root).
``A1``    Acknowledgment of the pre-signature (+ pre-(n)acks).
``S2``    Message disclosure (+ MAC key, + Merkle path in ALPHA-M).
``A2``    Opened pre-(n)ack / AMT leaf.
========  =====================================================

All multi-byte integers are big-endian. Chain elements and tree nodes
are fixed-width (the hash digest size of the association); decoding
therefore takes the ``hash_size`` negotiated in the handshake. The
handshake packets themselves are self-describing (anchors are
length-prefixed) because they travel before negotiation completes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.core.exceptions import PacketError, WireError
from repro.core.modes import Mode
from repro.core.wire import U16, U32, Reader, Writer

# The ledger digest lives with the ledger (repro.obs.linkhealth): the
# obs package must stay importable without repro.core (the engines all
# import obs), so the wire layer imports the type, not the other way
# around. Re-exported here because it IS a wire field.
from repro.obs.linkhealth import LedgerSummary

MAGIC = 0xA1FA
VERSION = 1

# -- hot-path codec machinery (PROTOCOL.md §14) --------------------------------
#
# S1/A1/S2/A2 encode into one reusable scratch buffer: the exact size is
# computed up front, the fixed prefix lands in a single ``pack_into`` and
# hash fields are copied by slice assignment. The scratch is reused
# across calls (the engines are single-threaded; the returned ``bytes``
# is a snapshot, so reuse never aliases a live packet). Decode mirrors
# it: one ``unpack_from`` of the fixed prefix, header included, then
# hash fields sliced from the ``bytes`` input. Only on failure does
# ``_short`` work out the WireError a field-by-field
# :class:`~repro.core.wire.Reader` raises. The golden corpus
# (tests/golden/) pins the byte layout.

#: magic u16 | version u8 | type u8  (decode_packet's dispatch key)
_PREAMBLE = struct.Struct(">HBB")
#: magic u16 | version u8 | type u8 | assoc_id u64 | seq u32
_HEADER = struct.Struct(">HBBQI")
#: header + mode u8 | flags u8 | chain_index u32  (S1 fixed prefix)
_S1_PREFIX = struct.Struct(">HBBQIBBI")
#: header + flags u8 | ack_index u32  (A1 fixed prefix)
_A1_PREFIX = struct.Struct(">HBBQIBI")
#: header + disclosed_index u32  (S2/A2 fixed prefix)
_DISCLOSE_PREFIX = struct.Struct(">HBBQII")
#: S2 msg_index u16 | message length u16
_U16_PAIR = struct.Struct(">HH")
#: A2 verdict msg_index u16 | is_ack u8 | secret length u16
_VERDICT_HEAD = struct.Struct(">HBH")

_scratch = bytearray(2048)


def _scratch_for(size: int) -> bytearray:
    global _scratch
    if len(_scratch) < size:
        _scratch = bytearray(max(size, 2 * len(_scratch)))
    return _scratch


def _check_width(value: bytes, width: int) -> None:
    if len(value) != width:
        raise ValueError(f"hash width mismatch: expected {width}, got {len(value)}")


def _put_hash_list(
    buf: bytearray, offset: int, hashes: list[bytes], width: int
) -> int:
    """Write a 16-bit counted fixed-width list; returns the new offset."""
    if len(hashes) > 0xFFFF:
        raise ValueError(f"hash list too long: {len(hashes)}")
    U16.pack_into(buf, offset, len(hashes))
    offset += 2
    for value in hashes:
        _check_width(value, width)
        buf[offset : offset + width] = value
        offset += width
    return offset


def _put_var_bytes(buf: bytearray, offset: int, data: bytes) -> int:
    """Write a 16-bit length-prefixed field; returns the new offset."""
    if len(data) > 0xFFFF:
        raise ValueError(f"var_bytes field too long: {len(data)}")
    U16.pack_into(buf, offset, len(data))
    offset += 2
    buf[offset : offset + len(data)] = data
    return offset + len(data)


def _short(n: int, offset: int, widths: tuple[int, ...]) -> WireError:
    """The WireError of the first field in ``widths``, laid out from
    ``offset``, that overruns ``n`` bytes."""
    for width in widths:
        if offset + width > n:
            break
        offset += width
    return WireError(offset, width, n - offset)


def _hash_list(data: bytes, offset: int, width: int) -> tuple[list[bytes], int]:
    """Slice a 16-bit counted list of ``width``-byte hashes; returns
    the list and the offset just past it."""
    n = len(data)
    start = offset + 2
    if start > n:
        raise WireError(offset, 2, n - offset)
    count = U16.unpack_from(data, offset)[0]
    end = start + count * width
    if end > n:
        # The first element that does not fit, as a per-element loop says.
        short = start + (n - start) // width * width
        raise WireError(short, width, n - short)
    if count > 1:
        return [data[i : i + width] for i in range(start, end, width)], end
    # BASE packets carry lists of zero or one: skip the comprehension.
    return ([data[start:end]] if count else []), end


def _expect_end(data: bytes, offset: int) -> None:
    if offset != len(data):
        raise PacketError(f"{len(data) - offset} trailing bytes after packet")


class PacketType(enum.IntEnum):
    HS1 = 1
    HS2 = 2
    S1 = 3
    A1 = 4
    S2 = 5
    A2 = 6


# S1 flag bits.
FLAG_RELIABLE = 0x01

# A1 flag bits.
FLAG_PRE_ACK_PAIR = 0x01
FLAG_AMT_ROOT = 0x02
FLAG_TELEMETRY = 0x04

# Handshake flag bits.
FLAG_PROTECTED = 0x01
FLAG_HS_TELEMETRY = 0x02


def _header(packet_type: PacketType, assoc_id: int, seq: int) -> Writer:
    writer = Writer()
    writer.u16(MAGIC).u8(VERSION).u8(int(packet_type)).u64(assoc_id).u32(seq)
    return writer


_MODES = {int(m): m for m in Mode}


def _header_error(data: bytes) -> PacketError:
    """Why ``data`` has no valid 16-byte header: bad magic, version or
    type win over truncation, in wire order (error path only)."""
    n = len(data)
    if n >= 2 and U16.unpack_from(data)[0] != MAGIC:
        return PacketError(f"bad magic 0x{U16.unpack_from(data)[0]:04x}")
    if n >= 3 and data[2] != VERSION:
        return PacketError(f"unsupported version {data[2]}")
    if n >= 4 and data[3] not in _DECODERS:
        return PacketError(f"unknown packet type {data[3]}")
    return _short(n, 0, (2, 1, 1, 8, 4))


@dataclass
class S1Packet:
    """Pre-signature announcement (first packet of an exchange).

    ``pre_signatures`` holds one MAC in base mode, ``n`` MACs in
    ALPHA-C, or a single keyed Merkle root in ALPHA-M (where
    ``message_count`` conveys the number of covered blocks).
    """

    assoc_id: int
    seq: int
    mode: Mode
    chain_index: int
    chain_element: bytes
    pre_signatures: list[bytes]
    message_count: int
    reliable: bool = False

    TYPE = PacketType.S1

    def encode(self) -> bytes:
        h = len(self.chain_element)
        sigs = self.pre_signatures
        size = _S1_PREFIX.size + h + 4 + len(sigs) * h
        buf = _scratch_for(size)
        _S1_PREFIX.pack_into(
            buf, 0, MAGIC, VERSION, int(self.TYPE), self.assoc_id, self.seq,
            int(self.mode), FLAG_RELIABLE if self.reliable else 0,
            self.chain_index,
        )
        offset = _S1_PREFIX.size
        buf[offset : offset + h] = self.chain_element
        offset += h
        U16.pack_into(buf, offset, self.message_count)
        offset = _put_hash_list(buf, offset + 2, sigs, h)
        return bytes(memoryview(buf)[:offset])

    @classmethod
    def decode_body(cls, data: bytes, hash_size: int) -> "S1Packet":
        n = len(data)
        start = _S1_PREFIX.size
        if n < start:
            if n > 16 and data[16] not in _MODES:
                raise PacketError(f"unknown mode {data[16]}")
            raise _short(n, 4, (8, 4, 1, 1, 4))
        _, _, _, assoc_id, seq, mode_raw, flags, chain_index = (
            _S1_PREFIX.unpack_from(data)
        )
        mode = _MODES.get(mode_raw)
        if mode is None:
            raise PacketError(f"unknown mode {mode_raw}")
        end = start + hash_size
        if end + 2 > n:
            raise _short(n, start, (hash_size, 2))
        pre_signatures, offset = _hash_list(data, end + 2, hash_size)
        packet = cls(
            assoc_id, seq, mode, chain_index, data[start:end], pre_signatures,
            U16.unpack_from(data, end)[0], bool(flags & FLAG_RELIABLE),
        )
        packet.validate()
        _expect_end(data, offset)
        return packet

    def validate(self) -> None:
        if self.message_count < 1:
            raise PacketError("S1 must cover at least one message")
        if not self.pre_signatures:
            raise PacketError("S1 carries no pre-signature")
        if self.mode is Mode.MERKLE:
            if len(self.pre_signatures) != 1:
                raise PacketError("ALPHA-M S1 carries exactly one tree root")
        elif self.mode is Mode.MERKLE_CUMULATIVE:
            if len(self.pre_signatures) > self.message_count:
                raise PacketError(
                    "combined C+M S1 carries at most one root per message"
                )
        elif len(self.pre_signatures) != self.message_count:
            raise PacketError(
                f"S1 claims {self.message_count} messages but carries "
                f"{len(self.pre_signatures)} pre-signatures"
            )


@dataclass
class A1Packet:
    """Verifier's acknowledgment of an S1 (second packet).

    Echoes the signer's chain element (Figure 2 shows A1 as
    ``h^Va_i, h^Ss_i``) and optionally commits to pre-(n)acks — one pair
    per covered message (Figure 3; Table 3 charges ``2n·h`` for ALPHA-C)
    — or to a single AMT root for ALPHA-M (Figure 7).
    """

    assoc_id: int
    seq: int
    ack_index: int
    ack_element: bytes
    echo_sig_index: int
    echo_sig_element: bytes
    pre_acks: list[bytes] = field(default_factory=list)
    pre_nacks: list[bytes] = field(default_factory=list)
    amt_root: bytes | None = None
    telemetry: LedgerSummary | None = None

    TYPE = PacketType.A1

    def encode(self) -> bytes:
        h = len(self.ack_element)
        flags = 0
        size = _A1_PREFIX.size + h + 4 + h
        if self.pre_acks or self.pre_nacks:
            if len(self.pre_acks) != len(self.pre_nacks):
                raise PacketError("pre-acks and pre-nacks must pair up")
            flags |= FLAG_PRE_ACK_PAIR
            size += 4 + (len(self.pre_acks) + len(self.pre_nacks)) * h
        if self.amt_root is not None:
            flags |= FLAG_AMT_ROOT
            size += h
        if self.telemetry is not None:
            flags |= FLAG_TELEMETRY
            size += LedgerSummary.SIZE
        buf = _scratch_for(size)
        _A1_PREFIX.pack_into(
            buf, 0, MAGIC, VERSION, int(self.TYPE), self.assoc_id, self.seq,
            flags, self.ack_index,
        )
        offset = _A1_PREFIX.size
        buf[offset : offset + h] = self.ack_element
        offset += h
        U32.pack_into(buf, offset, self.echo_sig_index)
        offset += 4
        _check_width(self.echo_sig_element, h)
        buf[offset : offset + h] = self.echo_sig_element
        offset += h
        if flags & FLAG_PRE_ACK_PAIR:
            offset = _put_hash_list(buf, offset, self.pre_acks, h)
            offset = _put_hash_list(buf, offset, self.pre_nacks, h)
        if flags & FLAG_AMT_ROOT:
            _check_width(self.amt_root, h)
            buf[offset : offset + h] = self.amt_root
            offset += h
        if flags & FLAG_TELEMETRY:
            offset = self.telemetry.encode_into(buf, offset)
        return bytes(memoryview(buf)[:offset])

    @classmethod
    def decode_body(cls, data: bytes, hash_size: int) -> "A1Packet":
        n = len(data)
        start = _A1_PREFIX.size
        if n < start:
            raise _short(n, 4, (8, 4, 1, 4))
        _, _, _, assoc_id, seq, flags, ack_index = _A1_PREFIX.unpack_from(data)
        mid = start + hash_size
        echo = mid + 4
        offset = echo + hash_size
        if offset > n:
            raise _short(n, start, (hash_size, 4, hash_size))
        pre_acks, pre_nacks, amt_root, telemetry = [], [], None, None
        if flags & FLAG_PRE_ACK_PAIR:
            pre_acks, offset = _hash_list(data, offset, hash_size)
            pre_nacks, offset = _hash_list(data, offset, hash_size)
            if len(pre_acks) != len(pre_nacks):
                raise PacketError("pre-acks and pre-nacks must pair up")
        if flags & FLAG_AMT_ROOT:
            if offset + hash_size > n:
                raise WireError(offset, hash_size, n - offset)
            amt_root = data[offset : offset + hash_size]
            offset += hash_size
        if flags & FLAG_TELEMETRY:
            if offset + LedgerSummary.SIZE > n:
                raise _short(n, offset, (4, 4, 4, 4))
            telemetry = LedgerSummary.unpack_from(data, offset)
            offset += LedgerSummary.SIZE
        _expect_end(data, offset)
        return cls(
            assoc_id, seq, ack_index, data[start:mid], U32.unpack_from(data, mid)[0],
            data[echo : echo + hash_size], pre_acks, pre_nacks, amt_root, telemetry,
        )


@dataclass
class S2Packet:
    """Message disclosure (third packet).

    Base/ALPHA-C: the message plus the disclosed MAC key. ALPHA-M: one
    block, its index, and the complementary branch set ``{Bc}``.
    """

    assoc_id: int
    seq: int
    disclosed_index: int
    disclosed_element: bytes
    msg_index: int
    message: bytes
    auth_path: list[bytes] = field(default_factory=list)

    TYPE = PacketType.S2

    def encode(self) -> bytes:
        h = len(self.disclosed_element)
        size = (
            _DISCLOSE_PREFIX.size + h + 4 + len(self.message)
            + 2 + len(self.auth_path) * h
        )
        buf = _scratch_for(size)
        _DISCLOSE_PREFIX.pack_into(
            buf, 0, MAGIC, VERSION, int(self.TYPE), self.assoc_id, self.seq,
            self.disclosed_index,
        )
        offset = _DISCLOSE_PREFIX.size
        buf[offset : offset + h] = self.disclosed_element
        offset += h
        U16.pack_into(buf, offset, self.msg_index)
        offset = _put_var_bytes(buf, offset + 2, self.message)
        offset = _put_hash_list(buf, offset, self.auth_path, h)
        return bytes(memoryview(buf)[:offset])

    @classmethod
    def decode_body(cls, data: bytes, hash_size: int) -> "S2Packet":
        n = len(data)
        start = _DISCLOSE_PREFIX.size
        if n < start:
            raise _short(n, 4, (8, 4, 4))
        _, _, _, assoc_id, seq, disclosed_index = _DISCLOSE_PREFIX.unpack_from(data)
        mid = start + hash_size
        body = mid + 4
        if body > n:
            raise _short(n, start, (hash_size, 2, 2))
        msg_index, length = _U16_PAIR.unpack_from(data, mid)
        end = body + length
        if end > n:
            raise WireError(body, length, n - body)
        auth_path, offset = _hash_list(data, end, hash_size)
        _expect_end(data, offset)
        return cls(
            assoc_id, seq, disclosed_index, data[start:mid], msg_index,
            data[body:end], auth_path,
        )


@dataclass
class AckVerdict:
    """One opened (n)ack inside an A2 packet."""

    msg_index: int
    is_ack: bool
    secret: bytes
    path: list[bytes] = field(default_factory=list)


@dataclass
class A2Packet:
    """Opened pre-(n)acks (fourth packet, reliable mode)."""

    assoc_id: int
    seq: int
    disclosed_index: int
    disclosed_element: bytes
    verdicts: list[AckVerdict]

    TYPE = PacketType.A2

    def encode(self) -> bytes:
        h = len(self.disclosed_element)
        size = _DISCLOSE_PREFIX.size + h + 2 + sum(
            7 + len(v.secret) + len(v.path) * h for v in self.verdicts
        )
        buf = _scratch_for(size)
        _DISCLOSE_PREFIX.pack_into(
            buf, 0, MAGIC, VERSION, int(self.TYPE), self.assoc_id, self.seq,
            self.disclosed_index,
        )
        offset = _DISCLOSE_PREFIX.size
        buf[offset : offset + h] = self.disclosed_element
        offset += h
        U16.pack_into(buf, offset, len(self.verdicts))
        offset += 2
        for verdict in self.verdicts:
            U16.pack_into(buf, offset, verdict.msg_index)
            buf[offset + 2] = 1 if verdict.is_ack else 0
            offset = _put_var_bytes(buf, offset + 3, verdict.secret)
            offset = _put_hash_list(buf, offset, verdict.path, h)
        return bytes(memoryview(buf)[:offset])

    @classmethod
    def decode_body(cls, data: bytes, hash_size: int) -> "A2Packet":
        n = len(data)
        start = _DISCLOSE_PREFIX.size
        if n < start:
            raise _short(n, 4, (8, 4, 4))
        _, _, _, assoc_id, seq, disclosed_index = _DISCLOSE_PREFIX.unpack_from(data)
        mid = start + hash_size
        offset = mid + 2
        if offset > n:
            raise _short(n, start, (hash_size, 2))
        verdicts = []
        for _ in range(U16.unpack_from(data, mid)[0]):
            body = offset + _VERDICT_HEAD.size
            if body > n:
                raise _short(n, offset, (2, 1, 2))
            msg_index, is_ack, length = _VERDICT_HEAD.unpack_from(data, offset)
            end = body + length
            if end > n:
                raise WireError(body, length, n - body)
            path, offset = _hash_list(data, end, hash_size)
            verdicts.append(AckVerdict(msg_index, bool(is_ack), data[body:end], path))
        _expect_end(data, offset)
        return cls(assoc_id, seq, disclosed_index, data[start:mid], verdicts)


@dataclass
class HandshakePacket:
    """HS1/HS2: anchor exchange (paper Section 3.4).

    Self-describing (anchors length-prefixed, hash algorithm named) so it
    can be decoded without association state. In protected mode the
    packet carries the sender's public key blob and a signature over
    :meth:`signed_blob`, binding the chains to a strong identity.
    """

    assoc_id: int
    seq: int
    is_response: bool
    hash_name: str
    nonce: bytes
    sig_anchor: bytes
    sig_chain_length: int
    ack_anchor: bytes
    ack_chain_length: int
    peer_nonce: bytes = b""
    public_key: bytes = b""
    signature: bytes = b""
    #: Optional HS2 ledger summary (PROTOCOL.md §16): a re-bootstrapping
    #: responder hands its link history back so the fresh association
    #: starts with a fused loss view. Advisory only — deliberately NOT
    #: part of :meth:`signed_blob`, so protected handshakes stay
    #: byte-compatible and a tampered summary can at worst skew loss
    #: attribution, never authentication.
    telemetry: LedgerSummary | None = None

    @property
    def TYPE(self) -> PacketType:  # noqa: N802 - mirrors the class constants
        return PacketType.HS2 if self.is_response else PacketType.HS1

    def signed_blob(self) -> bytes:
        """Canonical bytes covered by the protected-mode signature.

        Includes both nonces (the responder signs the initiator's nonce
        too), preventing replay of old signed anchors. The telemetry
        summary is excluded: it is advisory transport metadata, not part
        of the identity being bound.
        """
        writer = Writer()
        writer.var_bytes(self.hash_name.encode("ascii"))
        writer.raw(self.nonce)
        writer.raw(self.peer_nonce or b"\x00" * len(self.nonce))
        writer.u32(self.sig_chain_length).var_bytes(self.sig_anchor)
        writer.u32(self.ack_chain_length).var_bytes(self.ack_anchor)
        return writer.getvalue()

    def encode(self) -> bytes:
        writer = _header(self.TYPE, self.assoc_id, self.seq)
        flags = FLAG_PROTECTED if self.signature else 0
        if self.telemetry is not None:
            flags |= FLAG_HS_TELEMETRY
        writer.u8(flags)
        writer.var_bytes(self.hash_name.encode("ascii"))
        writer.var_bytes(self.nonce)
        writer.var_bytes(self.peer_nonce)
        writer.u32(self.sig_chain_length).var_bytes(self.sig_anchor)
        writer.u32(self.ack_chain_length).var_bytes(self.ack_anchor)
        writer.var_bytes(self.public_key)
        writer.var_bytes(self.signature)
        if self.telemetry is not None:
            writer.raw(self.telemetry.encode())
        return writer.getvalue()

    @classmethod
    def decode_body(cls, data: bytes, hash_size: int) -> "HandshakePacket":
        # Self-describing (``hash_size`` is unused) and cold, so it reads
        # field by field. Protection is evident from the signature field;
        # the telemetry bit gates the optional trailing summary.
        reader = Reader(data)
        reader.u32()  # magic | version | type, checked by decode_packet
        assoc_id, seq = reader.u64(), reader.u32()
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
        reader.expect_end()
        return cls(
            assoc_id=assoc_id,
            seq=seq,
            is_response=data[3] == PacketType.HS2,
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


AnyPacket = S1Packet | A1Packet | S2Packet | A2Packet | HandshakePacket

#: Body decoders keyed by the raw type byte: no enum built per packet.
_DECODERS = {
    PacketType.HS1.value: HandshakePacket.decode_body,
    PacketType.HS2.value: HandshakePacket.decode_body,
    PacketType.S1.value: S1Packet.decode_body,
    PacketType.A1.value: A1Packet.decode_body,
    PacketType.S2.value: S2Packet.decode_body,
    PacketType.A2.value: A2Packet.decode_body,
}


def _peek(data: bytes) -> tuple[PacketType, int]:
    """Type and association id from the 16-byte header, in one unpack."""
    if len(data) >= _HEADER.size:
        magic, version, raw_type, assoc_id, _ = _HEADER.unpack_from(data)
        if magic == MAGIC and version == VERSION and raw_type in _DECODERS:
            return PacketType(raw_type), assoc_id
    raise _header_error(data)


def peek_type(data: bytes) -> PacketType:
    """Classify a packet without decoding its body."""
    return _peek(data)[0]


def peek_assoc_id(data: bytes) -> int:
    """Read a packet's association id without decoding its body."""
    return _peek(data)[1]


def decode_packet(data: bytes, hash_size: int) -> AnyPacket:
    """Decode any ALPHA packet.

    ``hash_size`` is the digest width of the association's negotiated
    hash (ignored for the self-describing handshake packets). Input
    that is not ``bytes`` is copied once here, so every decoded field
    is an immutable ``bytes`` slice.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) >= 4:
        magic, version, raw_type = _PREAMBLE.unpack_from(data)
        decoder = _DECODERS.get(raw_type)
        if decoder is not None and magic == MAGIC and version == VERSION:
            return decoder(data, hash_size)
    raise _header_error(data)
