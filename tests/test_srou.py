"""SRoU codec: golden packets, round trips, segment advance, error paths."""

import ipaddress
import random
from dataclasses import astuple, replace
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
    SlocType,
    StunRequestData,
    StunResponseData,
    Tlv,
    Waypoint,
)

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


class TestDecode:
    def test_round_trip_direct(self):
        hdr = direct_header()
        data = srou.encode_header(hdr)
        decoded, consumed = srou.decode_header(data)
        assert decoded == hdr
        assert consumed == 24
        assert srou.encode_header(decoded) == data

    def test_consumed_leaves_payload(self):
        data = srou.encode_header(direct_header()) + b"inner payload"
        decoded, consumed = srou.decode_header(data)
        assert data[consumed:] == b"inner payload"

    def test_bad_magic(self):
        data = bytearray(srou.encode_header(direct_header()))
        data[0] = 0x45
        with pytest.raises(srou.BadMagic):
            srou.decode_header(bytes(data))

    def test_truncated(self):
        data = srou.encode_header(direct_header())
        with pytest.raises(srou.TruncatedHeader):
            srou.decode_header(data[:20])

    def test_unsupported_sloc_type(self):
        data = bytearray(srou.encode_header(direct_header()))
        data[14] = 0x02
        with pytest.raises(srou.UnsupportedSlocType):
            srou.decode_header(bytes(data))
        data[14] = 0x03
        with pytest.raises(srou.UnsupportedSlocType):
            srou.decode_header(bytes(data))

    def test_length_mismatch(self):
        data = bytearray(srou.encode_header(te_header()) + b"x" * 6)
        data[1] += 6  # claim the junk; sr_hdr_len now inconsistent
        with pytest.raises(srou.LengthMismatch):
            srou.decode_header(bytes(data))

    def test_nonzero_reserved_warns(self):
        data = bytearray(srou.encode_header(direct_header()))
        data[2] |= 0xE0
        decoded, _ = srou.decode_header(bytes(data))
        assert decoded.reserved_rrr == 7
        assert decoded.warnings

    def test_reserved_must_be_zero_on_encode(self):
        hdr = SRoUHeader(
            protocol_id=ProtocolId.IPV4, source_address="10.0.0.1", source_port=1,
            segment_list=(Waypoint("10.0.0.2", 2),), segments_left=1, reserved_rrr=3,
        )
        with pytest.raises(srou.InvariantViolation):
            srou.encode_header(hdr)

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
        decoded, consumed = srou.decode_header(srou.encode_header(hdr))
        assert decoded == hdr
        assert consumed == 4 + 4 + 18 + 10

    def test_decode_packet_dispatch(self):
        hdr, _ = srou.decode_packet(srou.encode_header(direct_header()))
        assert isinstance(hdr, SRoUHeader)
        msg, _ = srou.decode_packet(
            srou.encode_oam(OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData())))
        assert isinstance(msg, OamMessage)


class TestAdvance:
    def test_te_order(self):
        # SL=2 visits the waypoint first, then the function at index 0
        hdr = te_header()
        seg, hdr1 = srou.advance_segment(hdr)
        assert seg == Waypoint("192.168.99.78", 5546)
        assert hdr1.segments_left == 1
        seg, hdr2 = srou.advance_segment(hdr1)
        assert seg == Function(1234, srou.FUNC_END_DT2U)
        assert hdr2.segments_left == 0

    def test_direct(self):
        seg, hdr1 = srou.advance_segment(direct_header())
        assert seg == Function(1234, srou.FUNC_END_DT2U)
        assert hdr1.segments_left == 0

    def test_exhausted(self):
        _, hdr1 = srou.advance_segment(direct_header())
        with pytest.raises(srou.NoSegmentsLeft):
            srou.advance_segment(hdr1)

    def test_only_segments_left_changes(self):
        hdr = te_header()
        _, hdr1 = srou.advance_segment(hdr)
        assert hdr1.segment_list == hdr.segment_list
        assert hdr1.flow_id == hdr.flow_id
        assert hdr1.source_address == hdr.source_address

    def test_reverse_visit_order_property(self):
        rng = random.Random(7)
        for _ in range(50):
            hdr = wiregen.random_header(rng)
            visited = []
            while hdr.segments_left:
                seg, hdr = srou.advance_segment(hdr)
                visited.append(seg)
            start = len(visited)
            expect = [hdr.segment_list[i] for i in reversed(range(start))]
            assert visited == expect


class TestOam:
    def test_linkstate_response_round_trip(self):
        msg = OamMessage(
            oam_type=OamType.LINKSTATE,
            oam_subtype=srou.LINKSTATE_RESPONSE,
            payload=LinkstateData(seq=9, timestamp=5_000, received_timestamp=4_000,
                                  sender_seq=7, sender_timestamp=1_000),
        )
        decoded, consumed = srou.decode_oam(srou.encode_oam(msg))
        assert decoded == msg
        assert consumed == 4 + 4 + 2 + 32

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
        with pytest.raises(srou.UnknownOamType):
            srou.decode_oam(bytes(data))

    def test_unknown_linkstate_subtype(self):
        data = bytearray(srou.encode_oam(OamMessage(
            OamType.LINKSTATE, srou.LINKSTATE_REQUEST, LinkstateData(seq=1, timestamp=1))))
        data[9] = 0x02
        with pytest.raises(srou.UnknownOamType):
            srou.decode_oam(bytes(data))

    def test_traceroute_reserved(self):
        data = bytearray(srou.encode_oam(
            OamMessage(OamType.STUN, srou.STUN_REQUEST, StunRequestData())))
        data[8] = 0x01
        with pytest.raises(srou.UnknownOamType):
            srou.decode_oam(bytes(data))

    def test_truncated_payload(self):
        data = bytearray(srou.encode_oam(OamMessage(
            OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
            LinkstateData(seq=1, timestamp=1))))
        data[1] -= 4  # shrink claimed length into the payload
        with pytest.raises(srou.TruncatedPayload):
            srou.decode_oam(bytes(data[:len(data) - 4]))

    def test_random_round_trip(self):
        rng = random.Random(11)
        for _ in range(10_000):
            msg = wiregen.random_oam(rng)
            data = srou.encode_oam(msg)
            decoded, consumed = srou.decode_oam(data)
            assert decoded == msg
            assert consumed == len(data)


class TestProperties:
    def test_header_round_trip_seeded(self):
        rng = random.Random(1)
        for _ in range(2_000):
            hdr = wiregen.random_header(rng)
            data = srou.encode_header(hdr)
            decoded, consumed = srou.decode_header(data)
            assert decoded == hdr
            assert consumed == len(data)
            assert srou.encode_header(decoded) == data

    def test_length_closure(self):
        rng = random.Random(2)
        for _ in range(500):
            hdr = wiregen.random_header(rng)
            data = srou.encode_header(hdr)
            src = 6 if hdr.protocol_id == ProtocolId.IPV4 else 18
            assert data[1] == 4 + hdr.flow_id_type.octets + src + hdr.sr_hdr_len
            assert data[1] == hdr.srou_length

    def test_decoder_never_overreads(self):
        rng = random.Random(3)
        for _ in range(2_000):
            base = srou.encode_header(wiregen.random_header(rng))
            data = wiregen.mutate(rng, base)
            try:
                _, consumed = srou.decode_packet(data)
                assert consumed <= len(data)
            except srou.CodecError:
                pass


class TestFastPath:
    """The layout check and the in-place relay against the reference codec."""

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
            hdr, consumed = srou.decode_header(data)
            zero = (hdr.source_address, hdr.source_port) == ("0.0.0.0", 0)
            ref = replace(hdr, reserved_rrr=0)
            if zero:
                ref = replace(ref, source_address=observed[0], source_port=observed[1])
            seg, advanced = srou.advance_segment(ref)

            buf = bytearray(data)
            filled, active = srou.relay_in_place(buf, srou._layout(data), observed)
            assert (filled, active) == (zero, seg)
            assert bytes(buf) == srou.encode_header(advanced) + data[consumed:]
            zero_sources += zero
            reserved += hdr.reserved_rrr != 0
        assert zero_sources > 200 and reserved > 200

    def test_relay_in_place_leaves_exhausted_packet(self):
        hdr = replace(direct_header(), source_address="0.0.0.0", source_port=0,
                      segments_left=0)
        data = srou.encode_header(hdr) + b"inner"
        buf = bytearray(data)
        assert srou.relay_in_place(buf, srou._layout(data), ("1.2.3.4", 5)) == (True, None)
        assert bytes(buf) == data

    def test_layout_agrees_with_decode_header(self):
        rng = random.Random(12)
        rejected = 0
        for i in range(3_000):
            if i % 4 == 3:
                base = srou.encode_oam(wiregen.random_oam(rng))
            else:
                base = srou.encode_header(wiregen.random_header(rng))
            data = wiregen.mutate(rng, base)
            try:
                hdr, consumed = srou.decode_header(data)
            except srou.CodecError as exc:
                with pytest.raises(type(exc)) as got:
                    srou._layout(data)
                assert type(got.value) is type(exc)
                rejected += 1
                continue
            lay = srou._layout(data)
            assert (lay.total, lay.flow_id, lay.t_bit, lay.segments_left, lay.tlvs) == (
                consumed, hdr.flow_id, hdr.t_bit, hdr.segments_left, hdr.tlvs)
        assert 500 < rejected < 3_000

    def test_linkstate_layout_agrees_with_decode_oam(self):
        rng = random.Random(14)
        rejected = linkstate = 0
        for i in range(3_000):
            if i % 4 == 3:
                base = srou.encode_header(wiregen.random_header(rng))
            else:
                base = srou.encode_oam(wiregen.random_oam(rng))
            data = wiregen.mutate(rng, base)
            try:
                msg, consumed = srou.decode_oam(data)
            except srou.CodecError as exc:
                with pytest.raises(type(exc)) as got:
                    srou._oam_layout(data)
                assert type(got.value) is type(exc)
                rejected += 1
                continue
            lay = srou._oam_layout(data)
            assert (lay.total, lay.flow_id_type, lay.flow_id, lay.oam_type, lay.subtype) == (
                consumed, msg.flow_id_type, msg.flow_id, msg.oam_type, msg.oam_subtype)
            assert lay.payload == astuple(msg.payload)
            linkstate += msg.oam_type == OamType.LINKSTATE
        assert 500 < rejected < 3_000 and linkstate > 300

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
