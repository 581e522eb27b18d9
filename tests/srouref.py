"""Reference SRoU decoder: the test oracle for the codec's receive surface.

Written from the wire diagram in the `ruta.srou` docstring, field by field,
into the codec's value types (`SRoUHeader`, `OamMessage`).  It shares no
code with the receive path (`parse`, `parse_data`, `parse_oam`,
`data_source`, `relay_in_place`): from `srou` it takes only constants,
enums, exception classes and value types.  Addresses are read with
`ipaddress`, payload fields with `int.from_bytes`.

A rejected message raises the `CodecError` subclass the receive path must
raise, checking the fields in wire order.  Each decoder returns
`Decoded(message, consumed, rrr)`: the value, the SRoU Length, and the
reserved RRR bits, which the value types do not carry.
"""

import ipaddress
from dataclasses import astuple, replace
from typing import NamedTuple, Union

from ruta.srou import (
    FLAG_QUARTET_OCTETS,
    FUNCTION_MARKER,
    LINKSTATE_PAYLOAD_OCTETS,
    LINKSTATE_REQUEST,
    LINKSTATE_RESPONSE,
    MAGIC,
    SEGMENT_OCTETS,
    STUN_REQUEST,
    STUN_RESPONSE,
    STUN_RESPONSE_PAYLOAD_OCTETS,
    BadMagic,
    CodecError,
    DataLayout,
    FlowIdType,
    Function,
    InvariantViolation,
    LengthMismatch,
    LinkstateData,
    OamLayout,
    OamMessage,
    OamType,
    ProtocolId,
    SlocType,
    SRoUHeader,
    StunRequestData,
    StunResponseData,
    Tlv,
    TruncatedHeader,
    TruncatedPayload,
    UnknownOamType,
    UnsupportedSlocType,
    Waypoint,
)


class NoSegmentsLeft(CodecError):
    """advance_segment of a header whose Segments Left is 0."""


class Decoded(NamedTuple):
    message: Union[SRoUHeader, OamMessage]
    consumed: int  # SRoU Length: the payload starts here
    rrr: int       # the reserved bits, ignored on receipt


class _Prefix(NamedTuple):
    length: int
    rrr: int
    flow_id_type: FlowIdType
    c_bit: bool
    f_bit: bool
    t_bit: bool
    protocol: int


def _prefix(data: bytes) -> _Prefix:
    """Octets 0-3: magic, SRoU Length, flags (RRR|FT|C|F|T), Protocol-ID."""
    if len(data) < 4:
        raise TruncatedHeader("no room for the first four octets")
    magic, length, flags, protocol = data[:4]
    if magic != MAGIC:
        raise BadMagic("magic octet is not 0x00")
    if length < 4:
        raise LengthMismatch("SRoU Length shorter than the first four octets")
    if length > len(data):
        raise TruncatedHeader("SRoU Length runs past the message")
    rrr, ft, c, f, t = flags >> 5, flags >> 3 & 3, flags >> 2 & 1, flags >> 1 & 1, flags & 1
    if ft not in {member.value for member in FlowIdType}:
        raise InvariantViolation("flow id type 0x3 is not defined")
    return _Prefix(length, rrr, FlowIdType(ft), bool(c), bool(f), bool(t), protocol)


def _address(raw: bytes) -> str:
    return str(ipaddress.ip_address(bytes(raw)))


def _segment(raw: bytes):
    if raw[0] == FUNCTION_MARKER:
        return Function(args=int.from_bytes(raw[1:4], "big"),
                        function=int.from_bytes(raw[4:6], "big"))
    return Waypoint(address=_address(raw[:4]), port=int.from_bytes(raw[4:6], "big"))


def decode_header(data: bytes) -> Decoded:
    """A data-packet header: prefix, flow id, source, quartet, segments, TLVs."""
    pre = _prefix(data)
    if pre.protocol == ProtocolId.OAM:
        raise InvariantViolation("an OAM message is not a data packet")
    if pre.protocol not in (ProtocolId.IPV4, ProtocolId.IPV6):
        raise InvariantViolation("unknown protocol id")
    header = data[:pre.length]
    end = pre.length
    at = 4
    flow_id = int.from_bytes(header[at:at + pre.flow_id_type.octets], "big")
    at += pre.flow_id_type.octets
    address_octets = 4 if pre.protocol == ProtocolId.IPV4 else 16
    if at + address_octets + 2 + FLAG_QUARTET_OCTETS > end:
        raise TruncatedHeader("no room for source and quartet")
    source_address = _address(header[at:at + address_octets])
    at += address_octets
    source_port = int.from_bytes(header[at:at + 2], "big")
    at += 2
    quartet_at = at
    sloc_type, sr_hdr_len, last_entry, segments_left = header[at:at + 4]
    at += 4
    if sloc_type != SlocType.IPV4_PORT:
        raise UnsupportedSlocType("only IPv4 + port segments are supported")
    if quartet_at + sr_hdr_len != end:
        raise LengthMismatch("SR Hdr Len does not reach SRoU Length")
    count = last_entry + 1
    if FLAG_QUARTET_OCTETS + count * SEGMENT_OCTETS > sr_hdr_len:
        raise LengthMismatch("segment list overruns SR Hdr Len")
    if segments_left > count:
        raise InvariantViolation("Segments Left beyond the segment list")
    segments = []
    for _ in range(count):
        segments.append(_segment(header[at:at + SEGMENT_OCTETS]))
        at += SEGMENT_OCTETS
    tlvs = []
    while at < end:
        if end - at < 2:
            raise LengthMismatch("a lone TLV octet")
        tlv_type, tlv_len = header[at], header[at + 1]
        if at + 2 + tlv_len > end:
            raise TruncatedHeader("TLV value runs past the header")
        tlvs.append(Tlv(tlv_type, bytes(header[at + 2:at + 2 + tlv_len])))
        at += 2 + tlv_len
    hdr = SRoUHeader(
        protocol_id=ProtocolId(pre.protocol), source_address=source_address,
        source_port=source_port, segment_list=tuple(segments),
        segments_left=segments_left, flow_id=flow_id, flow_id_type=pre.flow_id_type,
        c_bit=pre.c_bit, f_bit=pre.f_bit, t_bit=pre.t_bit,
        sloc_type=SlocType.IPV4_PORT, tlvs=tuple(tlvs))
    return Decoded(hdr, pre.length, pre.rrr)


def decode_oam(data: bytes) -> Decoded:
    """An OAM message: prefix, flow id, OAM type, OAM subtype, payload."""
    pre = _prefix(data)
    if pre.protocol != ProtocolId.OAM:
        raise InvariantViolation("not an OAM message")
    message = data[:pre.length]
    at = 4 + pre.flow_id_type.octets
    if at + 2 > pre.length:
        raise TruncatedHeader("no room for OAM type and subtype")
    flow_id = int.from_bytes(message[4:at], "big")
    oam_type, subtype = message[at], message[at + 1]
    body = message[at + 2:]

    def sized(want: int) -> None:
        if len(body) < want:
            raise TruncatedPayload("payload shorter than its type")
        if len(body) > want:
            raise LengthMismatch("octets after the payload")

    if oam_type == OamType.LINKSTATE:
        if subtype not in (LINKSTATE_REQUEST, LINKSTATE_RESPONSE):
            raise UnknownOamType("unknown linkstate subtype")
        sized(LINKSTATE_PAYLOAD_OCTETS)
        cuts = (0, 4, 12, 20, 24, 32)  # seq, timestamp, rx ts, sender seq, sender ts
        payload = LinkstateData(*(int.from_bytes(body[a:b], "big")
                                  for a, b in zip(cuts, cuts[1:])))
    elif oam_type == OamType.STUN and subtype == STUN_REQUEST:
        if body:
            raise LengthMismatch("a STUN request carries no payload")
        payload = StunRequestData()
    elif oam_type == OamType.STUN and subtype == STUN_RESPONSE:
        sized(STUN_RESPONSE_PAYLOAD_OCTETS)
        payload = StunResponseData(_address(body[:4]), int.from_bytes(body[4:6], "big"))
    else:  # traceroute is reserved; STUN knows two subtypes
        raise UnknownOamType("unsupported OAM type or subtype")
    msg = OamMessage(oam_type=OamType(oam_type), oam_subtype=subtype, payload=payload,
                     flow_id=flow_id, flow_id_type=pre.flow_id_type,
                     c_bit=pre.c_bit, f_bit=pre.f_bit, t_bit=pre.t_bit)
    return Decoded(msg, pre.length, pre.rrr)


def decode_packet(data: bytes) -> Decoded:
    """Either kind: Protocol-ID 0x00 is OAM, anything else a data packet."""
    if len(data) >= 4 and data[3] == ProtocolId.OAM:
        return decode_oam(data)
    return decode_header(data)


def advance_segment(hdr: SRoUHeader):
    """(now-active segment, header with Segments Left one lower).  The list is
    stored in reverse visit order, so this visits index SL-1 down to 0."""
    if hdr.segments_left < 1:
        raise NoSegmentsLeft("Segments Left is 0")
    sl = hdr.segments_left - 1
    return hdr.segment_list[sl], replace(hdr, segments_left=sl)


# -- what the receive surface must return for a decoded message ---------------


def data_layout(hdr: SRoUHeader, consumed: int) -> DataLayout:
    """The `DataLayout` of a header, its offsets counted from the diagram."""
    src_off = 4 + hdr.flow_id_type.octets
    address_octets = 4 if hdr.protocol_id == ProtocolId.IPV4 else 16
    sl_off = src_off + address_octets + 2 + 3  # port, then SLoC Type .. Last Entry
    return DataLayout(consumed, hdr.flow_id, hdr.flow_id_type, hdr.t_bit, src_off,
                      hdr.protocol_id, sl_off, hdr.segments_left, hdr.tlvs)


def oam_layout(msg: OamMessage, consumed: int) -> OamLayout:
    """The `OamLayout` of a message: its payload fields as a plain tuple."""
    return OamLayout(consumed, msg.flow_id_type, msg.flow_id, msg.oam_type,
                     msg.oam_subtype, astuple(msg.payload))


def layout(decoded: Decoded) -> Union[DataLayout, OamLayout]:
    if isinstance(decoded.message, SRoUHeader):
        return data_layout(decoded.message, decoded.consumed)
    return oam_layout(decoded.message, decoded.consumed)


def relayed(hdr: SRoUHeader, observed: tuple[str, int]):
    """(source was zero, active segment, header after the relay) for a
    transit node, as RFC 8754 4.3.1: a zero IPv4 source takes the observed
    outer source and Segments Left drops by one; RRR goes out clear."""
    zero = hdr.protocol_id == ProtocolId.IPV4 and \
        (hdr.source_address, hdr.source_port) == ("0.0.0.0", 0)
    if zero:
        hdr = replace(hdr, source_address=observed[0], source_port=observed[1])
    segment, hdr = advance_segment(hdr)
    return zero, segment, hdr
