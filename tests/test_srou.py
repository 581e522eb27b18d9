"""SRoU codec: golden packets, round trips, segment advance, error paths.

The receive surface (parse, parse_data, parse_oam, data_source,
relay_in_place) is checked against the reference decoder in srouref.py.
"""

import ipaddress
import itertools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from ruta import srou
from ruta.srou import (
    Function,
    FlowIdType,
    LinkstateData,
    OamMessage,
    OamType,
    ProtocolId,
    SRoUHeader,
    StunRequestData,
    StunResponseData,
    Tlv,
    Waypoint,
)

import srouref
import wiregen

FIXTURES = Path(__file__).parent / "fixtures"


def read_hex(name: str) -> bytes:
    return bytes.fromhex((FIXTURES / name).read_text().replace("\n", " "))


def direct_header() -> SRoUHeader:
    """Single-function direct-path header: the 24-octet minimal data packet."""
    return SRoUHeader(
        protocol_id=ProtocolId.IPV4,
        source_address="192.168.99.77",
        source_port=5547,
        segment_list=(Function(args=1234, function=srou.FUNC_END_DT2U),),
        segments_left=1,
    )


def te_header() -> SRoUHeader:
    """Two-segment engineered header: function plus one relay waypoint."""
    return SRoUHeader(
        protocol_id=ProtocolId.IPV4,
        source_address="192.168.99.77",
        source_port=5547,
        segment_list=(
            Function(args=1234, function=srou.FUNC_END_DT2U),
            Waypoint("192.168.99.78", 5546),
        ),
        segments_left=2,
    )


class TestGoldenPackets:
    def test_direct_header_is_24_octets(self):
        data = encode = srou.encode_header(direct_header())
        assert len(data) == 24
        assert data == read_hex("fig7_direct.hex")

    def test_direct_header_fields(self):
        data = srou.encode_header(direct_header())
        assert data[0] == 0x00
        assert data[1] == 24          # srou length
        assert data[15] == 10         # sr hdr len: 4 + 6
        assert data[16] == 0          # last entry
        assert data[17] == 1          # segments left

    def test_te_header_golden(self):
        data = srou.encode_header(te_header())
        assert len(data) == 30
        assert data == read_hex("fig8_te.hex")

    def test_linkstate_request_golden(self):
        msg = OamMessage(
            oam_type=OamType.LINKSTATE,
            oam_subtype=srou.LINKSTATE_REQUEST,
            payload=LinkstateData(seq=1, timestamp=1_000_000_000),
        )
        data = srou.encode_oam(msg)
        assert data == read_hex("oam_ls_req.hex")
        # request zeroing rule: echo fields all zero on the wire
        assert data[22:42] == bytes(20)

    def test_stun_response_golden(self):
        msg = OamMessage(
            oam_type=OamType.STUN,
            oam_subtype=srou.STUN_RESPONSE,
            payload=StunResponseData("203.0.113.5", 40001),
        )
        data = srou.encode_oam(msg)
        assert data == read_hex("stun_resp.hex")
        assert data[-6:] == bytes([0xCB, 0x00, 0x71, 0x05, 0x9C, 0x41])

    def test_two_segment_length(self):
        # each 48-bit segment adds 6 octets to the 24-octet base
        assert len(srou.encode_header(te_header())) == 24 + 6

    def test_padding_tlv_length(self):
        hdr = direct_header()
        hdr = srou.SRoUHeader(
            **{**hdr.__dict__, "tlvs": (Tlv(srou.TlvType.PADDING, b"\x00\x00"),)}
        )
        data = srou.encode_header(hdr)
        assert len(data) == 28
        assert data[15] == 14  # sr hdr len: quartet + segment + TLV(2+2)


def verdict(fn, data):
    """fn(data), or the class of the CodecError it raises."""
    try:
        return fn(data)
    except srou.CodecError as exc:
        return type(exc)


def expected(decode, data):
    """The oracle's verdict on data in the receive surface's terms: the layout
    of the decoded message, or the class of the error it raises."""
    ref = verdict(decode, data)
    return ref if isinstance(ref, type) else srouref.layout(ref)


def rejects(exc, data, decode=srouref.decode_header, parse=srou.parse_data):
    """The oracle and the codec both reject data with exactly exc, and parse
    gives the verdict of decode_packet."""
    assert verdict(decode, data) is exc
    assert verdict(parse, data) is exc
    assert verdict(srou.parse, data) == expected(srouref.decode_packet, data)


class TestDecode:
    def test_round_trip_direct(self):
        hdr = direct_header()
        data = srou.encode_header(hdr)
        decoded, consumed, _ = srouref.decode_header(data)
        assert decoded == hdr
        assert consumed == 24
        assert srou.encode_header(decoded) == data
        lay = srou.parse_data(data)
        assert lay == srouref.data_layout(hdr, 24)
        assert srou.data_source(data, lay) == ("192.168.99.77", 5547)

    def test_consumed_leaves_payload(self):
        data = srou.encode_header(direct_header()) + b"inner payload"
        _, consumed, _ = srouref.decode_header(data)
        assert data[consumed:] == b"inner payload"
        assert data[srou.parse_data(data).total:] == b"inner payload"

    def test_bad_magic(self):
        data = bytearray(srou.encode_header(direct_header()))
        data[0] = 0x45
        rejects(srou.BadMagic, bytes(data))

    def test_truncated(self):
        data = srou.encode_header(direct_header())
        rejects(srou.TruncatedHeader, data[:20])

    def test_unsupported_sloc_type(self):
        data = bytearray(srou.encode_header(direct_header()))
        data[14] = 0x02
        rejects(srou.UnsupportedSlocType, bytes(data))
        data[14] = 0x03
        rejects(srou.UnsupportedSlocType, bytes(data))

    def test_length_mismatch(self):
        data = bytearray(srou.encode_header(te_header()) + b"x" * 6)
        data[1] += 6  # claim the junk; sr_hdr_len now inconsistent
        rejects(srou.LengthMismatch, bytes(data))

    def test_nonzero_reserved_accepted_and_cleared_by_relay(self):
        data = bytearray(srou.encode_header(direct_header()))
        data[2] |= 0xE0
        decoded, consumed, rrr = srouref.decode_header(bytes(data))
        assert rrr == 7
        assert decoded == direct_header()  # ignored on receipt
        lay = srou.parse_data(bytes(data))
        assert lay == srouref.data_layout(decoded, consumed)
        srou.relay_in_place(data, lay, ("1.2.3.4", 5))
        assert data[2] >> 5 == 0
        assert bytes(data) == srou.encode_header(srouref.advance_segment(decoded)[1])

    def test_segments_left_bound(self):
        hdr = direct_header()
        bad = srou.SRoUHeader(**{**hdr.__dict__, "segments_left": 2})
        with pytest.raises(srou.InvariantViolation):
            srou.encode_header(bad)

    def test_waypoint_ff_first_octet_rejected(self):
        hdr = SRoUHeader(
            protocol_id=ProtocolId.IPV4, source_address="10.0.0.1", source_port=1,
            segment_list=(Waypoint("255.0.0.1", 5),), segments_left=1,
        )
        with pytest.raises(srou.InvariantViolation):
            srou.encode_header(hdr)

    def test_ipv6_source_round_trip(self):
        hdr = SRoUHeader(
            protocol_id=ProtocolId.IPV6, source_address="2001:db8::77", source_port=7,
            segment_list=(Waypoint("10.0.0.2", 2),), segments_left=1,
        )
        data = srou.encode_header(hdr)
        decoded, consumed, _ = srouref.decode_header(data)
        assert decoded == hdr
        assert consumed == 4 + 4 + 18 + 10
        lay = srou.parse_data(data)
        assert lay == srouref.data_layout(hdr, consumed)
        assert srou.data_source(data, lay) == ("2001:db8::77", 7)

    def test_decode_packet_dispatch(self):
        data = srou.encode_header(direct_header())
        oam = srou.encode_oam(OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData()))
        assert isinstance(srouref.decode_packet(data).message, SRoUHeader)
        assert isinstance(srouref.decode_packet(oam).message, OamMessage)
        assert type(srou.parse(data)) is srou.DataLayout
        assert type(srou.parse(oam)) is srou.OamLayout
        rejects(srou.InvariantViolation, oam)  # an OAM message is no data header


def relay_visits(data: bytes) -> list:
    """The active segment of each relay of a header, until Segments Left is 0."""
    buf, visited = bytearray(data), []
    while True:
        _, seg = srou.relay_in_place(buf, srou.parse_data(bytes(buf)), ("1.2.3.4", 5))
        if seg is None:
            return visited
        visited.append(seg)


def header(**changes) -> SRoUHeader:
    """A one-waypoint IPv4 data header with changes applied."""
    return replace(SRoUHeader(protocol_id=ProtocolId.IPV4, source_address="10.0.0.1",
                              source_port=1, segment_list=(Waypoint("10.0.0.2", 2),),
                              segments_left=1), **changes)


class TestEncodeRejects:
    """Each argument check on the encode side raises its error, and the
    valid base of each case encodes."""

    @pytest.mark.parametrize("error, changes", [
        (srou.InvariantViolation, dict(protocol_id=ProtocolId.OAM)),
        (srou.InvariantViolation, dict(protocol_id=7)),
        (srou.UnsupportedSlocType, dict(sloc_type=srou.SlocType.SRV6)),
        (srou.InvariantViolation, dict(segment_list=(), segments_left=0)),
        (srou.InvariantViolation, dict(segment_list=(Waypoint("10.0.0.2", 2),) * 257)),
        (srou.InvariantViolation, dict(flow_id=1 << 32)),
        (srou.InvariantViolation, dict(flow_id=1 << 64, flow_id_type=FlowIdType.FT64)),
        (srou.InvariantViolation, dict(segment_list=(Function(1 << 24, 1),))),
        (srou.InvariantViolation, dict(segment_list=(Function(-1, 1),))),
        (srou.InvariantViolation, dict(segment_list=(Function(0, 1 << 16),))),
        (srou.InvariantViolation, dict(tlvs=(Tlv(256, b""),))),
        (srou.InvariantViolation, dict(tlvs=(Tlv(1, b"x" * 256),))),
        (srou.InvariantViolation, dict(segment_list=(Waypoint("10.0.0.2", 2),) * 42)),
        (srou.InvariantViolation, dict(tlvs=(Tlv(1, b"x" * 240),))),
    ], ids=["oam", "unknown-protocol", "sloc-type", "no-segment", "257-segments",
            "flow-id-ft32", "flow-id-ft64", "function-args", "negative-args",
            "function-code", "tlv-type", "tlv-value", "42-segments", "tlv-too-long"])
    def test_header(self, error, changes):
        srou.encode_header(header())
        with pytest.raises(error):
            srou.encode_header(header(**changes))

    @pytest.mark.parametrize("error, msg", [
        (srou.InvariantViolation,
         OamMessage(OamType.LINKSTATE, srou.LINKSTATE_REQUEST, StunRequestData())),
        (srou.UnknownOamType,
         OamMessage(OamType.LINKSTATE, 5, LinkstateData(seq=1, timestamp=1))),
        (srou.InvariantViolation,
         OamMessage(OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
                    LinkstateData(seq=1 << 32, timestamp=1))),
        (srou.InvariantViolation,
         OamMessage(OamType.LINKSTATE, srou.LINKSTATE_RESPONSE,
                    LinkstateData(seq=1, timestamp=-1))),
        (srou.InvariantViolation,
         OamMessage(OamType.STUN, srou.STUN_REQUEST, LinkstateData(seq=1, timestamp=1))),
        (srou.InvariantViolation,
         OamMessage(OamType.STUN, srou.STUN_RESPONSE, StunRequestData())),
        (srou.UnknownOamType, OamMessage(OamType.STUN, 9, StunRequestData())),
        (srou.UnknownOamType,
         OamMessage(OamType.TRACEROUTE, 0, StunRequestData())),
        (srou.InvariantViolation,
         OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData(), flow_id=1 << 32)),
    ], ids=["linkstate-payload", "linkstate-subtype", "linkstate-seq",
            "linkstate-timestamp", "stun-request-payload", "stun-response-payload",
            "stun-subtype", "traceroute", "flow-id"])
    def test_oam(self, error, msg):
        with pytest.raises(error):
            srou.encode_oam(msg)


class TestAdvance:
    def test_te_order(self):
        # SL=2 visits the waypoint first, then the function at index 0
        hdr = te_header()
        seg, hdr1 = srouref.advance_segment(hdr)
        assert seg == Waypoint("192.168.99.78", 5546)
        assert hdr1.segments_left == 1
        seg, hdr2 = srouref.advance_segment(hdr1)
        assert seg == Function(1234, srou.FUNC_END_DT2U)
        assert hdr2.segments_left == 0
        assert relay_visits(srou.encode_header(hdr)) == [
            Waypoint("192.168.99.78", 5546), Function(1234, srou.FUNC_END_DT2U)]

    def test_direct(self):
        seg, hdr1 = srouref.advance_segment(direct_header())
        assert seg == Function(1234, srou.FUNC_END_DT2U)
        assert hdr1.segments_left == 0
        assert relay_visits(srou.encode_header(direct_header())) == [seg]

    def test_exhausted(self):
        _, hdr1 = srouref.advance_segment(direct_header())
        with pytest.raises(srouref.NoSegmentsLeft):
            srouref.advance_segment(hdr1)
        data = srou.encode_header(hdr1)
        buf = bytearray(data)
        assert srou.relay_in_place(buf, srou.parse_data(data), ("1.2.3.4", 5)) == (False, None)
        assert bytes(buf) == data

    def test_only_segments_left_changes(self):
        hdr = te_header()
        _, hdr1 = srouref.advance_segment(hdr)
        assert hdr1.segment_list == hdr.segment_list
        assert hdr1.flow_id == hdr.flow_id
        assert hdr1.source_address == hdr.source_address
        buf = bytearray(srou.encode_header(hdr))
        srou.relay_in_place(buf, srou.parse_data(bytes(buf)), ("1.2.3.4", 5))
        assert bytes(buf) == srou.encode_header(hdr1)

    def test_reverse_visit_order_property(self):
        rng = random.Random(7)
        for _ in range(50):
            hdr = wiregen.random_header(rng)
            data = srou.encode_header(hdr)
            visited = []
            while hdr.segments_left:
                seg, hdr = srouref.advance_segment(hdr)
                visited.append(seg)
            start = len(visited)
            expect = [hdr.segment_list[i] for i in reversed(range(start))]
            assert visited == expect
            assert relay_visits(data) == expect


class TestOam:
    def test_linkstate_response_round_trip(self):
        msg = OamMessage(
            oam_type=OamType.LINKSTATE,
            oam_subtype=srou.LINKSTATE_RESPONSE,
            payload=LinkstateData(seq=9, timestamp=5_000, received_timestamp=4_000,
                                  sender_seq=7, sender_timestamp=1_000),
        )
        data = srou.encode_oam(msg)
        decoded, consumed, _ = srouref.decode_oam(data)
        assert decoded == msg
        assert consumed == 4 + 4 + 2 + 32
        assert srou.parse_oam(data) == (consumed, FlowIdType.FT32, 0, OamType.LINKSTATE,
                                        srou.LINKSTATE_RESPONSE, (9, 5_000, 4_000, 7, 1_000))

    def test_request_zero_fields_enforced(self):
        msg = OamMessage(
            oam_type=OamType.LINKSTATE,
            oam_subtype=srou.LINKSTATE_REQUEST,
            payload=LinkstateData(seq=1, timestamp=2, sender_seq=3),
        )
        with pytest.raises(srou.InvariantViolation):
            srou.encode_oam(msg)

    def test_unknown_type(self):
        data = bytearray(srou.encode_oam(
            OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData())))
        data[8] = 0x07
        rejects(srou.UnknownOamType, bytes(data), srouref.decode_oam, srou.parse_oam)

    def test_unknown_linkstate_subtype(self):
        data = bytearray(srou.encode_oam(OamMessage(
            OamType.LINKSTATE, srou.LINKSTATE_REQUEST, LinkstateData(seq=1, timestamp=1))))
        data[9] = 0x02
        rejects(srou.UnknownOamType, bytes(data), srouref.decode_oam, srou.parse_oam)

    def test_traceroute_reserved(self):
        data = bytearray(srou.encode_oam(
            OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData())))
        data[8] = 0x01
        rejects(srou.UnknownOamType, bytes(data), srouref.decode_oam, srou.parse_oam)

    def test_truncated_payload(self):
        data = bytearray(srou.encode_oam(OamMessage(
            OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
            LinkstateData(seq=1, timestamp=1))))
        data[1] -= 4  # shrink claimed length into the payload
        rejects(srou.TruncatedPayload, bytes(data[:len(data) - 4]),
                srouref.decode_oam, srou.parse_oam)

    def test_random_round_trip(self):
        rng = random.Random(11)
        for _ in range(10_000):
            msg = wiregen.random_oam(rng)
            data = srou.encode_oam(msg)
            decoded, consumed, rrr = srouref.decode_oam(data)
            assert decoded == msg
            assert consumed == len(data)
            assert rrr == 0
            assert srou.parse_oam(data) == srouref.oam_layout(msg, consumed)


class TestProperties:
    def test_header_round_trip_seeded(self):
        rng = random.Random(1)
        for _ in range(2_000):
            hdr = wiregen.random_header(rng)
            data = srou.encode_header(hdr)
            decoded, consumed, rrr = srouref.decode_header(data)
            assert decoded == hdr
            assert consumed == len(data)
            assert rrr == 0  # RRR is zero on send
            assert srou.encode_header(decoded) == data
            lay = srou.parse_data(data)
            assert lay == srouref.data_layout(hdr, consumed)
            assert srou.data_source(data, lay) == (hdr.source_address, hdr.source_port)

    def test_length_closure(self):
        rng = random.Random(2)
        for _ in range(500):
            hdr = wiregen.random_header(rng)
            data = srou.encode_header(hdr)
            src = 6 if hdr.protocol_id == ProtocolId.IPV4 else 18
            assert data[1] == 4 + hdr.flow_id_type.octets + src + hdr.sr_hdr_len
            assert data[1] == hdr.srou_length

    def test_decoder_never_overreads(self):
        # parse judges the octets up to the length byte and nothing after them
        rng = random.Random(3)
        accepted = rejected = 0
        for i in range(2_000):
            if i % 4 == 3:
                base = srou.encode_oam(wiregen.random_oam(rng))
            else:
                base = srou.encode_header(wiregen.random_header(rng))
            data = base if i % 2 == 0 else wiregen.mutate(rng, base)
            junk = rng.randbytes(rng.randrange(1, 40))
            got = verdict(srou.parse, data)
            if not isinstance(got, type):
                assert got.total == data[1] <= len(data)
                if data is base:
                    assert got.total == len(base)
                assert srou.parse(data + junk) == got
                assert srou.parse(data[:got.total] + junk) == got
                accepted += 1
            elif len(data) >= 4 and data[1] <= len(data):
                assert verdict(srou.parse, data + junk) is got
                rejected += 1
        assert accepted > 1_000 and rejected > 150


class TestFastPath:
    """The receive surface against the reference decoder (tests/srouref.py)."""

    @staticmethod
    def relay_case(rng: random.Random):
        hdr = wiregen.random_header(rng)
        hdr = replace(hdr, segments_left=rng.randrange(1, hdr.last_entry + 2))
        if hdr.protocol_id == ProtocolId.IPV4 and rng.random() < 0.3:
            hdr = replace(hdr, source_address="0.0.0.0", source_port=0)
        wire = bytearray(srou.encode_header(hdr))
        if rng.random() < 0.3:
            wire[2] |= rng.randrange(1, 8) << 5
        return bytes(wire) + rng.randbytes(rng.randrange(0, 40))

    def test_relay_in_place_matches_reference(self):
        rng = random.Random(11)
        zero_sources = reserved = 0
        for _ in range(2_500):
            data = self.relay_case(rng)
            observed = (wiregen.random_ipv4(rng), rng.randrange(65536))
            hdr, consumed, rrr = srouref.decode_header(data)
            zero, seg, advanced = srouref.relayed(hdr, observed)

            buf = bytearray(data)
            filled, active = srou.relay_in_place(buf, srou.parse_data(data), observed)
            assert (filled, active) == (zero, seg)
            assert bytes(buf) == srou.encode_header(advanced) + data[consumed:]
            zero_sources += zero
            reserved += rrr != 0
        assert zero_sources > 200 and reserved > 200

    def test_relay_in_place_leaves_exhausted_packet(self):
        hdr = replace(direct_header(), source_address="0.0.0.0", source_port=0,
                      segments_left=0)
        data = srou.encode_header(hdr) + b"inner"
        buf = bytearray(data)
        assert srou.relay_in_place(buf, srou.parse_data(data), ("1.2.3.4", 5)) == (True, None)
        assert bytes(buf) == data

    @staticmethod
    def variant(rng: random.Random, i: int, base: bytes) -> bytes:
        """Half the inputs clean, a quarter mutated, a quarter nudged."""
        if i % 2 == 0:
            return base
        return wiregen.mutate(rng, base) if i % 4 == 1 else wiregen.nudge(rng, base)

    def test_layout_agrees_with_decode_header(self):
        # differential: seeded headers (an OAM message in eight), half of
        # them mutated, through parse_data, parse, data_source and relay
        rng = random.Random(12)
        accepted = rejected = 0
        for i in range(4_000):
            if i % 8 == 7:
                base = srou.encode_oam(wiregen.random_oam(rng))
            elif i % 3:
                base = self.relay_case(rng)
            else:
                base = srou.encode_header(wiregen.random_header(rng))
            data = self.variant(rng, i, base + rng.randbytes(rng.randrange(0, 8)))
            want = expected(srouref.decode_header, data)
            assert verdict(srou.parse_data, data) == want
            assert verdict(srou.parse, data) == expected(srouref.decode_packet, data)
            if isinstance(want, type):
                rejected += 1
                continue
            accepted += 1
            hdr, consumed, _ = srouref.decode_header(data)
            assert srou.data_source(data, want) == (hdr.source_address, hdr.source_port)
            observed = (wiregen.random_ipv4(rng), rng.randrange(65536))
            buf = bytearray(data)
            got = srou.relay_in_place(buf, want, observed)
            if hdr.segments_left == 0:
                assert got[1] is None and bytes(buf) == data
                continue
            zero, seg, advanced = srouref.relayed(hdr, observed)
            assert got == (zero, seg)
            assert bytes(buf) == srou.encode_header(advanced) + data[consumed:]
        assert accepted > 500 and rejected > 500

    def test_linkstate_layout_agrees_with_decode_oam(self):
        # differential: seeded OAM messages (a data header in eight), half of
        # them mutated, through parse_oam and parse
        rng = random.Random(14)
        accepted = rejected = linkstate = 0
        for i in range(4_000):
            if i % 8 == 7:
                base = srou.encode_header(wiregen.random_header(rng))
            else:
                base = srou.encode_oam(wiregen.random_oam(rng))
            data = self.variant(rng, i, base + rng.randbytes(rng.randrange(0, 8)))
            want = expected(srouref.decode_oam, data)
            assert verdict(srou.parse_oam, data) == want
            assert verdict(srou.parse, data) == expected(srouref.decode_packet, data)
            if isinstance(want, type):
                rejected += 1
                continue
            accepted += 1
            linkstate += want.oam_type == OamType.LINKSTATE
        assert accepted > 500 and rejected > 500 and linkstate > 300

    def test_every_octet_value_agrees(self):
        # each header octet of six messages set to each of its 256 values,
        # with spare octets after, so every length and count bound is crossed
        messages = [
            srou.encode_header(replace(direct_header(), tlvs=(Tlv(7, b"abc"),))),
            srou.encode_header(replace(te_header(), protocol_id=ProtocolId.IPV6,
                                       source_address="2001:db8::1", t_bit=True,
                                       flow_id_type=FlowIdType.FT64, flow_id=5)),
            srou.encode_oam(OamMessage(OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
                                       LinkstateData(seq=1, timestamp=2))),
            srou.encode_oam(OamMessage(OamType.LINKSTATE, srou.LINKSTATE_RESPONSE,
                                       LinkstateData(3, 4, 5, 6, 7), flow_id=9,
                                       flow_id_type=FlowIdType.FT96)),
            srou.encode_oam(OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData())),
            srou.encode_oam(OamMessage(OamType.STUN, srou.STUN_RESPONSE,
                                       StunResponseData("203.0.113.5", 40001))),
        ]
        verdicts = Counter()
        for message in messages:
            base = message + b"\x5a" * 8
            for at in range(len(message)):
                for value in range(256):
                    data = base[:at] + bytes((value,)) + base[at + 1:]
                    want = expected(srouref.decode_packet, data)
                    assert verdict(srou.parse, data) == want, (data.hex(), want)
                    verdicts[want if isinstance(want, type) else "accepted"] += 1
        assert set(verdicts) == {"accepted", srou.BadMagic, srou.TruncatedHeader,
                                 srou.TruncatedPayload, srou.UnsupportedSlocType,
                                 srou.LengthMismatch, srou.InvariantViolation,
                                 srou.UnknownOamType}

    def test_short_messages_agree(self):
        # every message of up to four octets drawn from the values that
        # matter in the first four: lengths, flags, protocols
        values = (0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x18, 0xE0, 0xFF)
        for n in range(5):
            for octets in itertools.product(values, repeat=n):
                data = bytes(octets)
                assert verdict(srou.parse, data) == expected(srouref.decode_packet, data)
                assert verdict(srou.parse_data, data) == expected(srouref.decode_header, data)
                assert verdict(srou.parse_oam, data) == expected(srouref.decode_oam, data)

    def test_encode_linkstate_is_encode_oam(self):
        rng = random.Random(15)
        for _ in range(2_000):
            msg = wiregen.random_oam(rng)
            if msg.oam_type != OamType.LINKSTATE:
                continue
            msg = replace(msg, c_bit=False, f_bit=False, t_bit=False)
            p = msg.payload
            assert srou.encode_linkstate(
                msg.oam_subtype, msg.flow_id, msg.flow_id_type, p.seq, p.timestamp,
                p.received_timestamp, p.sender_seq, p.sender_timestamp) == srou.encode_oam(msg)

    def test_ipv4_text_accepted_as_by_ipaddress(self):
        rng = random.Random(13)
        texts = ["1.2.3.4", "1.2.3", "01.2.3.4", "1.2.3.04", "256.1.1.1", " 1.2.3.4",
                 "1.2.3.4 ", "1.2.3.4\x00", "0x1.2.3.4", "::1", "", "1..2.3",
                 "\u0661.2.3.4", 16909060, b"\x01\x02\x03\x04", None]
        for _ in range(500):
            texts.append(".".join(str(rng.choice([0, 1, 9, 10, 99, 100, 255, 256, 999]))
                                  for _ in range(rng.choice([3, 4, 4, 4, 5]))))
        for text in texts:
            hdr = replace(direct_header(), source_address=text)
            try:
                ip = ipaddress.ip_address(text)
                expected = ip.packed if ip.version == 4 else None
            except ValueError:
                expected = None
            if expected is None:
                with pytest.raises(srou.InvariantViolation):
                    srou.encode_header(hdr)
            else:
                assert srou.encode_header(hdr)[8:12] == expected
