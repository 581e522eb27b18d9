"""Bit-exact SRoU wire codec: data headers, OAM messages, segments, TLVs.

Data packet header (network byte order):

     0                   1                   2                   3
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
    +---------------+---------------+-----+---+-+-+-+---------------+
    | magic (0x00)  | SRoU Length   | RRR |FT |C|F|T|  Protocol-ID  |
    +---------------+---------------+-----+---+-+-+-+---------------+
    |        Flow ID  (32 / 64 / 96 bits, per FT)                   |
    +---------------------------------------------------------------+
    |        Source Address  (IPv4: 4B / IPv6: 16B; absent for OAM) |
    +-------------------------------+---------------+---------------+
    |         Source Port           |   SLoC Type   |  SR Hdr Len   |
    +---------------+---------------+---------------+---------------+
    |  Last Entry   | Segments Left |   Segment List ...            |
    +---------------+---------------+---------------+---------------+
    |            ... optional TLVs (type, len, value) ...           |
    +---------------------------------------------------------------+

SR Hdr Len covers the four-octet (SLoC Type, SR Hdr Len, Last Entry,
Segments Left) quartet plus the segment list plus TLVs.  SRoU Length covers
the whole header.  Segments are 48 bits: either an IPv4 waypoint
(address + UDP port) or, when the first octet is 0xFF, a network function
(24-bit args, 16-bit function code).

OAM messages reuse the first four octets with Protocol-ID 0x00, then carry
(flow id, OAM type, OAM subtype, payload) instead of source/segment fields.

All values are immutable; encoders are pure functions, and the receive
functions never read past the length byte they were given.

Receive surface.  A node reads every message through four functions:

- `parse(data)` checks a message of either kind, dispatching on the
  protocol octet, and returns a `DataLayout` or an `OamLayout`;
- `parse_data(data)` checks a data-packet header and returns a `DataLayout`
  of offsets and scalar fields (SRoU Length, flow id and type, T bit, source
  offset, protocol, Segments Left offset and value, TLVs);
- `parse_oam(data)` checks an OAM message and returns an `OamLayout` of raw
  fields, a Linkstate payload as five ints;
- `data_source(data, lay)` reads the source address and port of a header
  `parse_data` checked.

Each check is made once, in the order of the fields on the wire, and a
rejected message raises a `CodecError` subclass that names the fault.  A
node checks each distinct data header on its first max(4, SRoU Length)
octets and caches the result, a runtime's with the relay from the observed
source (see `dataplane`): no receive function reads past SRoU Length, so
that gives what `parse` gives on the whole message.  The reserved RRR bits
are ignored on receipt.  A transit node relays a checked data packet with
`relay_in_place`, which patches a copy of the header octets as RFC 8754
4.3.1 does: it fills a zero IPv4 source with the observed outer source,
clears the RRR bits, decrements Segments Left and decodes only the
now-active segment, so a relay never re-encodes.

The send side builds value objects (`SRoUHeader`, `OamMessage`) and encodes
them with `encode_header` and `encode_oam`.  `encode_linkstate` packs a
Linkstate message from plain fields, to the bytes `encode_oam` gives when C,
F and T are clear, so a probe is written and read without message objects.
`pack_ipv4` gives the four octets of an IPv4 address, as `ipaddress`
parses it.

No object decoder lives here.  The reference decoder is `tests/srouref.py`,
written from the diagram above into `SRoUHeader` and `OamMessage` values;
the tests check every receive function and `relay_in_place` against it on
seeded clean and mutated messages.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional, Union

MAGIC = 0x00
FUNCTION_MARKER = 0xFF
SEGMENT_OCTETS = 6
FLAG_QUARTET_OCTETS = 4
MAX_HEADER_OCTETS = 255


class CodecError(Exception):
    pass


class BadMagic(CodecError):
    pass


class TruncatedHeader(CodecError):
    pass


class TruncatedPayload(CodecError):
    pass


class UnsupportedSlocType(CodecError):
    pass


class LengthMismatch(CodecError):
    pass


class InvariantViolation(CodecError):
    pass


class UnknownOamType(CodecError):
    pass


class FlowIdType(IntEnum):
    FT32 = 0x0
    FT64 = 0x1
    FT96 = 0x2

    @property
    def octets(self) -> int:
        return 4 * (self.value + 1)


class ProtocolId(IntEnum):
    OAM = 0x0
    IPV4 = 0x1
    IPV6 = 0x2


class SlocType(IntEnum):
    RESERVED = 0x0
    IPV4_PORT = 0x1   # 48-bit IPv4 + UDP port
    SRV6 = 0x2        # 128-bit, rejected
    COMPRESSED = 0x3  # rejected


class TlvType(IntEnum):
    PADDING = 0x0
    SR_INTEGRITY = 0x1
    PATH_TELEMETRY = 0x2


class OamType(IntEnum):
    LINKSTATE = 0x0
    TRACEROUTE = 0x1  # reserved, rejected on receipt
    STUN = 0x2


# Enum values that the probe path reads per message, as plain ints: a read
# of an enum member costs about 0.2 us.
_PROTO_OAM = int(ProtocolId.OAM)
_OAM_LINKSTATE = int(OamType.LINKSTATE)
_OAM_STUN = int(OamType.STUN)
_OAM_TRACEROUTE = int(OamType.TRACEROUTE)

LINKSTATE_REQUEST = 0x0
LINKSTATE_RESPONSE = 0x1
STUN_REQUEST = 0x0
STUN_RESPONSE = 0x1

LINKSTATE_PAYLOAD_OCTETS = 32  # seq(4) ts(8) rx_ts(8) sender_seq(4) sender_ts(8)
_LINKSTATE = struct.Struct(">IQQIQ")  # the Linkstate payload, packed and read
STUN_RESPONSE_PAYLOAD_OCTETS = 6

# Well-known network function codes (registry-driven; args carry VNID / VRF)
FUNC_END_DT2U = 0x0001
FUNC_END_DT4 = 0x0002
FUNCTION_NAMES = {FUNC_END_DT2U: "End.DT2U", FUNC_END_DT4: "End.DT4"}


@dataclass(frozen=True)
class Waypoint:
    """48-bit segment: IPv4 address + UDP port of the next relay."""

    address: str
    port: int


@dataclass(frozen=True)
class Function:
    """48-bit segment starting 0xFF: (24-bit args, 16-bit function code)."""

    args: int
    function: int


Segment = Union[Waypoint, Function]


@dataclass(frozen=True)
class Tlv:
    tlv_type: int
    value: bytes


def pack_ipv4(ip) -> bytes:
    """The 4 bytes of an IPv4 address, as `ipaddress.IPv4Address` parses it."""
    return ipaddress.IPv4Address(ip).packed


def _pack_ip(address: str, expect_v6: bool) -> bytes:
    try:
        ip = ipaddress.ip_address(address)
    except ValueError as exc:
        raise InvariantViolation(f"bad address {address!r}: {exc}") from None
    if expect_v6 != (ip.version == 6):
        raise InvariantViolation(f"address {address} does not match protocol family")
    return ip.packed


def _check_port(port: int, what: str) -> None:
    if not 0 <= port <= 0xFFFF:
        raise InvariantViolation(f"{what} {port} out of range")


def _pack_flags(ft: FlowIdType, c: bool, f: bool, t: bool) -> int:
    """The flags octet; the reserved RRR bits are zero on send."""
    return (ft & 0x3) << 3 | int(c) << 2 | int(f) << 1 | int(t)


def _pack_flow_id(flow_id: int, ft: FlowIdType) -> bytes:
    width = ft.octets
    if not 0 <= flow_id < 1 << (8 * width):
        raise InvariantViolation(f"flow_id does not fit {8 * width} bits")
    return flow_id.to_bytes(width, "big")


def _encode_segment(seg: Segment) -> bytes:
    if isinstance(seg, Function):
        if not 0 <= seg.args < 1 << 24:
            raise InvariantViolation("function args exceed 24 bits")
        if not 0 <= seg.function < 1 << 16:
            raise InvariantViolation("function code exceeds 16 bits")
        return bytes([FUNCTION_MARKER]) + seg.args.to_bytes(3, "big") + seg.function.to_bytes(2, "big")
    packed = _pack_ip(seg.address, expect_v6=False)
    if packed[0] == FUNCTION_MARKER:
        raise InvariantViolation("waypoint address may not start with octet 0xFF (function marker)")
    _check_port(seg.port, "waypoint port")
    return packed + seg.port.to_bytes(2, "big")


def _decode_segment(raw: bytes) -> Segment:
    if raw[0] == FUNCTION_MARKER:
        return Function(args=int.from_bytes(raw[1:4], "big"),
                        function=int.from_bytes(raw[4:6], "big"))
    return Waypoint(address="%d.%d.%d.%d" % tuple(raw[0:4]),
                    port=int.from_bytes(raw[4:6], "big"))


def _encode_tlvs(tlvs: tuple) -> bytes:
    out = bytearray()
    for tlv in tlvs:
        if not 0 <= tlv.tlv_type <= 0xFF:
            raise InvariantViolation("tlv type out of range")
        if len(tlv.value) > 0xFF:
            raise InvariantViolation("tlv value longer than 255 octets")
        out.append(tlv.tlv_type)
        out.append(len(tlv.value))
        out.extend(tlv.value)
    return bytes(out)


def _decode_tlvs(raw: bytes) -> tuple:
    tlvs = []
    off = 0
    while off < len(raw):
        if len(raw) - off < 2:
            raise LengthMismatch("dangling TLV bytes")
        ttype, tlen = raw[off], raw[off + 1]
        off += 2
        if off + tlen > len(raw):
            raise TruncatedHeader("TLV value exceeds header")
        tlvs.append(Tlv(ttype, bytes(raw[off:off + tlen])))
        off += tlen
    return tuple(tlvs)


@dataclass(frozen=True)
class SRoUHeader:
    """Parsed SRoU data-packet header.

    segment_list is stored in reverse visit order: index 0 is the final
    segment, higher indexes are visited earlier.  The first waypoint of a
    path is carried only in the outer UDP/IP destination.
    """

    protocol_id: ProtocolId
    source_address: str
    source_port: int
    segment_list: tuple[Segment, ...]
    segments_left: int
    flow_id: int = 0
    flow_id_type: FlowIdType = FlowIdType.FT32
    c_bit: bool = False
    f_bit: bool = False
    t_bit: bool = False
    sloc_type: SlocType = SlocType.IPV4_PORT
    tlvs: tuple[Tlv, ...] = ()

    @property
    def last_entry(self) -> int:
        return len(self.segment_list) - 1

    @property
    def sr_hdr_len(self) -> int:
        tlv_len = sum(2 + len(t.value) for t in self.tlvs)
        return FLAG_QUARTET_OCTETS + SEGMENT_OCTETS * len(self.segment_list) + tlv_len

    @property
    def srou_length(self) -> int:
        src = 6 if self.protocol_id == ProtocolId.IPV4 else 18
        return 4 + self.flow_id_type.octets + src + self.sr_hdr_len


def encode_header(hdr: SRoUHeader) -> bytes:
    """Serialize a data-packet header; length fields are computed, not trusted."""
    if hdr.protocol_id == ProtocolId.OAM:
        raise InvariantViolation("OAM messages use encode_oam")
    if hdr.protocol_id not in (ProtocolId.IPV4, ProtocolId.IPV6):
        raise InvariantViolation(f"unknown protocol id {hdr.protocol_id}")
    if hdr.sloc_type != SlocType.IPV4_PORT:
        raise UnsupportedSlocType(f"sloc type {int(hdr.sloc_type):#x} not supported")
    if not hdr.segment_list:
        raise InvariantViolation("segment list may not be empty")
    if len(hdr.segment_list) > 256:
        raise InvariantViolation("more than 256 segments")
    if not 0 <= hdr.segments_left <= hdr.last_entry + 1:
        raise InvariantViolation(
            f"segments_left {hdr.segments_left} exceeds last_entry+1 {hdr.last_entry + 1}")
    if hdr.source_port is None or hdr.source_address is None:
        raise InvariantViolation("data packets carry source address and port")
    _check_port(hdr.source_port, "source port")

    flow = _pack_flow_id(hdr.flow_id, hdr.flow_id_type)
    source = _pack_ip(hdr.source_address, expect_v6=hdr.protocol_id == ProtocolId.IPV6)
    segs = b"".join(_encode_segment(s) for s in hdr.segment_list)
    tlvs = _encode_tlvs(hdr.tlvs)
    sr_hdr_len = FLAG_QUARTET_OCTETS + len(segs) + len(tlvs)
    total = 4 + len(flow) + len(source) + 2 + sr_hdr_len
    if sr_hdr_len > 0xFF or total > MAX_HEADER_OCTETS:
        raise InvariantViolation(f"header too long ({total} octets)")

    out = bytearray()
    out.append(MAGIC)
    out.append(total)
    out.append(_pack_flags(hdr.flow_id_type, hdr.c_bit, hdr.f_bit, hdr.t_bit))
    out.append(hdr.protocol_id)
    out.extend(flow)
    out.extend(source)
    out.extend(hdr.source_port.to_bytes(2, "big"))
    out.append(hdr.sloc_type)
    out.append(sr_hdr_len)
    out.append(hdr.last_entry)
    out.append(hdr.segments_left)
    out.extend(segs)
    out.extend(tlvs)
    assert len(out) == total
    return bytes(out)


_FLOW_ID_TYPES = {ft.value: ft for ft in FlowIdType}
_SOURCE_OCTETS = {ProtocolId.IPV4.value: 4, ProtocolId.IPV6.value: 16}
_ZERO_SLOC = bytes(6)  # IPv4 0.0.0.0, port 0: "fill me in" from a NATed sender


def _parse_prefix(data: bytes):
    """Check the first four octets; returns SRoU Length, the flow id type,
    the T bit and the protocol octet.  The data is not copied: each later
    read is checked against SRoU Length first."""
    if len(data) < 4:
        raise TruncatedHeader(f"need at least 4 octets, have {len(data)}")
    if data[0] != MAGIC:
        raise BadMagic(f"first octet {data[0]:#04x} != 0x00")
    total = data[1]
    if total < 4:
        raise LengthMismatch(f"srou_length {total} below minimum")
    if total > len(data):
        raise TruncatedHeader(f"srou_length {total} exceeds available {len(data)}")
    flags = data[2]  # RRR, C and F are not read on receipt
    ft = _FLOW_ID_TYPES.get((flags >> 3) & 0x3)
    if ft is None:
        raise InvariantViolation(f"flow id type {(flags >> 3) & 0x3:#x} unknown")
    return total, ft, bool(flags & 0x1), data[3]


class DataLayout(NamedTuple):
    """Where the fields of a data-packet header checked by parse_data sit."""

    total: int          # SRoU Length: header octets; the inner payload follows
    flow_id: int
    flow_id_type: FlowIdType
    t_bit: bool
    src_off: int        # source address; the source port follows it
    protocol_id: int    # ProtocolId.IPV4 or ProtocolId.IPV6
    sl_off: int         # Segments Left; the segment list starts one octet later
    segments_left: int
    tlvs: tuple


def parse_data(data: bytes) -> DataLayout:
    """Check a data-packet header and locate its fields; addresses and
    segments are left undecoded (see data_source and relay_in_place)."""
    total, ft, t_bit, proto = _parse_prefix(data)
    src_octets = _SOURCE_OCTETS.get(proto)
    if src_octets is None:
        if proto == ProtocolId.OAM:
            raise InvariantViolation("OAM message; use parse_oam")
        raise InvariantViolation(f"unknown protocol id {proto:#x}")
    src_off = 4 + ft.octets
    quartet = src_off + src_octets + 2
    if quartet + FLAG_QUARTET_OCTETS > total:
        raise TruncatedHeader("header shorter than fixed fields")
    sloc_raw, sr_hdr_len, last_entry, segments_left = data[quartet:quartet + 4]
    if sloc_raw != SlocType.IPV4_PORT:
        raise UnsupportedSlocType(f"sloc type {sloc_raw:#04x} not supported")
    if total != quartet + sr_hdr_len:
        raise LengthMismatch(
            f"srou_length {total} != {quartet} + sr_hdr_len {sr_hdr_len}")
    seg_count = last_entry + 1
    seg_bytes = SEGMENT_OCTETS * seg_count
    if FLAG_QUARTET_OCTETS + seg_bytes > sr_hdr_len:
        raise LengthMismatch(
            f"{seg_count} segments do not fit sr_hdr_len {sr_hdr_len}")
    if segments_left > seg_count:
        raise InvariantViolation(
            f"segments_left {segments_left} exceeds segment count {seg_count}")
    sl_off = quartet + 3
    tlv_off = sl_off + 1 + seg_bytes
    tlvs = _decode_tlvs(data[tlv_off:total]) if tlv_off < total else ()
    return DataLayout._make((total, int.from_bytes(data[4:src_off], "big"), ft,
                             t_bit, src_off, proto, sl_off, segments_left, tlvs))


def data_source(data: bytes, lay: DataLayout) -> tuple[str, int]:
    """The source address and port of a data-packet header checked by parse_data."""
    src = lay.src_off
    if lay.protocol_id == ProtocolId.IPV4:
        port_off = src + 4
        address = "%d.%d.%d.%d" % tuple(data[src:port_off])
    else:
        port_off = src + 16
        address = str(ipaddress.IPv6Address(data[src:port_off]))
    return address, int.from_bytes(data[port_off:port_off + 2], "big")


def relay_in_place(buf: bytearray, lay: DataLayout,
                   observed: tuple[str, int]) -> tuple[bool, Optional[Segment]]:
    """Transit processing of a data packet checked by parse_data, patched in buf.

    A zero IPv4 source (0.0.0.0:0) is the sender asking the first hop to fill
    in its outer source: it becomes `observed`.  Unless Segments Left is 0,
    the reserved RRR bits are cleared, Segments Left is decremented and the
    now-active segment is decoded, so the header octets become those
    encode_header gives for the advanced header.  Returns (source was zero,
    active segment, or None when Segments Left was 0 and buf is left as it
    was).
    """
    src = lay.src_off
    zero_source = lay.protocol_id == ProtocolId.IPV4 and buf[src:src + 6] == _ZERO_SLOC
    sl = lay.segments_left
    if sl == 0:
        return zero_source, None
    if zero_source:
        _check_port(observed[1], "source port")
        buf[src:src + 6] = (_pack_ip(observed[0], expect_v6=False)
                            + observed[1].to_bytes(2, "big"))
    sl -= 1
    buf[2] &= 0x1F  # RRR: ignored on receipt, zero on send
    buf[lay.sl_off] = sl
    off = lay.sl_off + 1 + SEGMENT_OCTETS * sl
    return zero_source, _decode_segment(buf[off:off + SEGMENT_OCTETS])


# ---------------------------------------------------------------------------
# OAM messages


@dataclass(frozen=True)
class LinkstateData:
    """Two-way measurement payload (all timestamps are 64-bit nanoseconds)."""

    seq: int
    timestamp: int
    received_timestamp: int = 0
    sender_seq: int = 0
    sender_timestamp: int = 0


@dataclass(frozen=True)
class StunRequestData:
    pass


@dataclass(frozen=True)
class StunResponseData:
    observed_address: str
    observed_port: int


OamPayload = Union[LinkstateData, StunRequestData, StunResponseData]


@dataclass(frozen=True)
class OamMessage:
    oam_type: OamType
    oam_subtype: int
    payload: OamPayload
    flow_id: int = 0
    flow_id_type: FlowIdType = FlowIdType.FT32
    c_bit: bool = False
    f_bit: bool = False
    t_bit: bool = False


def _encode_oam_payload(msg: OamMessage) -> bytes:
    if msg.oam_type == OamType.LINKSTATE:
        p = msg.payload
        if not isinstance(p, LinkstateData):
            raise InvariantViolation("linkstate message needs LinkstateData payload")
        if msg.oam_subtype not in (LINKSTATE_REQUEST, LINKSTATE_RESPONSE):
            raise UnknownOamType(f"linkstate subtype {msg.oam_subtype:#x}")
        if msg.oam_subtype == LINKSTATE_REQUEST and (
                p.received_timestamp or p.sender_seq or p.sender_timestamp):
            raise InvariantViolation("linkstate request must zero echo fields")
        try:
            return _LINKSTATE.pack(p.seq, p.timestamp, p.received_timestamp,
                                   p.sender_seq, p.sender_timestamp)
        except struct.error as exc:
            raise InvariantViolation(f"linkstate field out of range: {exc}") from None
    if msg.oam_type == OamType.STUN:
        if msg.oam_subtype == STUN_REQUEST:
            if not isinstance(msg.payload, StunRequestData):
                raise InvariantViolation("stun request payload must be empty")
            return b""
        if msg.oam_subtype == STUN_RESPONSE:
            p = msg.payload
            if not isinstance(p, StunResponseData):
                raise InvariantViolation("stun response needs StunResponseData")
            _check_port(p.observed_port, "observed port")
            return _pack_ip(p.observed_address, expect_v6=False) + p.observed_port.to_bytes(2, "big")
        raise UnknownOamType(f"stun subtype {msg.oam_subtype:#x}")
    raise UnknownOamType(f"oam type {int(msg.oam_type):#x} not supported")


def encode_oam(msg: OamMessage) -> bytes:
    payload = _encode_oam_payload(msg)
    flow = _pack_flow_id(msg.flow_id, msg.flow_id_type)
    total = 4 + len(flow) + 2 + len(payload)
    if total > MAX_HEADER_OCTETS:
        raise InvariantViolation(f"OAM message too long ({total} octets)")
    out = bytearray()
    out.append(MAGIC)
    out.append(total)
    out.append(_pack_flags(msg.flow_id_type, msg.c_bit, msg.f_bit, msg.t_bit))
    out.append(ProtocolId.OAM)
    out.extend(flow)
    out.append(msg.oam_type)
    out.append(msg.oam_subtype)
    out.extend(payload)
    return bytes(out)


class OamLayout(NamedTuple):
    """The fields of an OAM message checked by parse_oam."""

    total: int          # SRoU Length: the whole message
    flow_id_type: FlowIdType
    flow_id: int
    oam_type: int       # OamType.LINKSTATE or OamType.STUN
    subtype: int
    payload: tuple      # Linkstate: (seq, timestamp, received_timestamp,
                        # sender_seq, sender_timestamp); STUN response:
                        # (observed address, observed port); STUN request: ()


def parse_oam(data: bytes) -> OamLayout:
    """Check an OAM message and return its raw fields.  A Linkstate payload
    stays five ints, so a probe is read without objects."""
    total, ft, _, proto = _parse_prefix(data)
    if proto != _PROTO_OAM:
        raise InvariantViolation(f"protocol id {proto:#x} is not OAM")
    off = 8 + 4 * ft  # 4 + ft.octets, without the property's calls
    if off + 2 > total:
        raise TruncatedHeader("OAM message shorter than fixed fields")
    oam_type, subtype = data[off], data[off + 1]
    body = total - off - 2

    if oam_type == _OAM_LINKSTATE:
        if subtype not in (LINKSTATE_REQUEST, LINKSTATE_RESPONSE):
            raise UnknownOamType(f"linkstate subtype {subtype:#x}")
        if body < LINKSTATE_PAYLOAD_OCTETS:
            raise TruncatedPayload(
                f"linkstate payload {body} < {LINKSTATE_PAYLOAD_OCTETS}")
        if body > LINKSTATE_PAYLOAD_OCTETS:
            raise LengthMismatch("trailing bytes after linkstate payload")
        payload = _LINKSTATE.unpack_from(data, off + 2)
    elif oam_type == _OAM_STUN:
        if subtype == STUN_REQUEST:
            if body:
                raise LengthMismatch("stun request carries no payload")
            payload = ()
        elif subtype == STUN_RESPONSE:
            if body < STUN_RESPONSE_PAYLOAD_OCTETS:
                raise TruncatedPayload(f"stun response payload {body} < 6")
            if body > STUN_RESPONSE_PAYLOAD_OCTETS:
                raise LengthMismatch("trailing bytes after stun payload")
            payload = ("%d.%d.%d.%d" % tuple(data[off + 2:off + 6]),
                       int.from_bytes(data[off + 6:off + 8], "big"))
        else:
            raise UnknownOamType(f"stun subtype {subtype:#x}")
    elif oam_type == _OAM_TRACEROUTE:
        raise UnknownOamType("oam type 0x1 (traceroute) is reserved")
    else:
        raise UnknownOamType(f"oam type {oam_type:#x}")
    return tuple.__new__(OamLayout, (total, ft, int.from_bytes(data[4:off], "big"),
                                     oam_type, subtype, payload))


def encode_linkstate(subtype: int, flow_id: int, flow_id_type: int, seq: int,
                     timestamp: int, received_timestamp: int = 0,
                     sender_seq: int = 0, sender_timestamp: int = 0) -> bytes:
    """Wire bytes of a Linkstate OAM message with C, F, T and RRR clear:
    encode_oam of the matching OamMessage, without building it.  The caller
    passes fields encode_oam accepts (a request zeroes the echo fields)."""
    octets = 4 * (flow_id_type + 1)
    return (bytes((MAGIC, 6 + octets + LINKSTATE_PAYLOAD_OCTETS, flow_id_type << 3,
                   _PROTO_OAM))
            + flow_id.to_bytes(octets, "big")
            + bytes((_OAM_LINKSTATE, subtype))
            + _LINKSTATE.pack(seq, timestamp, received_timestamp, sender_seq,
                              sender_timestamp))


def parse(data: bytes) -> Union[DataLayout, OamLayout]:
    """Check a message of either kind, dispatching on the protocol octet."""
    if len(data) > 3 and data[3] == ProtocolId.OAM:
        return parse_oam(data)
    return parse_data(data)  # shorter than 4 octets: TruncatedHeader
