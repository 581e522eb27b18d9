"""Seeded random generators for valid SRoU headers and OAM messages.

Shared by the codec unit tests and the acceptance fuzz suite.  Everything is
driven by an explicit random.Random so runs are reproducible.
"""

import random

from ruta import srou


def random_ipv4(rng: random.Random, no_ff_first: bool = False) -> str:
    first = rng.randrange(0, 0xFF if no_ff_first else 0x100)
    return f"{first}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}"


def random_ipv6(rng: random.Random) -> str:
    import ipaddress

    return str(ipaddress.IPv6Address(rng.getrandbits(128)))


def random_segment(rng: random.Random) -> srou.Segment:
    if rng.random() < 0.4:
        return srou.Function(args=rng.getrandbits(24), function=rng.getrandbits(16))
    return srou.Waypoint(address=random_ipv4(rng, no_ff_first=True), port=rng.randrange(65536))


def random_header(rng: random.Random) -> srou.SRoUHeader:
    ft = rng.choice(list(srou.FlowIdType))
    proto = rng.choice([srou.ProtocolId.IPV4, srou.ProtocolId.IPV4, srou.ProtocolId.IPV6])
    nseg = rng.randrange(1, 6)
    segs = tuple(random_segment(rng) for _ in range(nseg))
    tlvs = []
    for _ in range(rng.randrange(0, 3)):
        tlvs.append(srou.Tlv(rng.choice(list(srou.TlvType)),
                             rng.randbytes(rng.randrange(0, 12))))
    return srou.SRoUHeader(
        protocol_id=proto,
        source_address=random_ipv4(rng) if proto == srou.ProtocolId.IPV4 else random_ipv6(rng),
        source_port=rng.randrange(65536),
        segment_list=segs,
        segments_left=rng.randrange(0, nseg + 1),
        flow_id=rng.getrandbits(8 * ft.octets),
        flow_id_type=ft,
        c_bit=rng.random() < 0.5,
        f_bit=rng.random() < 0.5,
        t_bit=rng.random() < 0.5,
        tlvs=tuple(tlvs),
    )


def random_oam(rng: random.Random) -> srou.OamMessage:
    ft = rng.choice(list(srou.FlowIdType))
    kind = rng.randrange(3)
    if kind == 0:
        payload = srou.LinkstateData(seq=rng.getrandbits(32), timestamp=rng.getrandbits(64))
        oam_type, subtype = srou.OamType.LINKSTATE, srou.LINKSTATE_REQUEST
    elif kind == 1:
        payload = srou.LinkstateData(
            seq=rng.getrandbits(32),
            timestamp=rng.getrandbits(64),
            received_timestamp=rng.getrandbits(64),
            sender_seq=rng.getrandbits(32),
            sender_timestamp=rng.getrandbits(64),
        )
        oam_type, subtype = srou.OamType.LINKSTATE, srou.LINKSTATE_RESPONSE
    else:
        if rng.random() < 0.5:
            payload = srou.StunRequestData()
            oam_type, subtype = srou.OamType.STUN, srou.STUN_REQUEST
        else:
            payload = srou.StunResponseData(random_ipv4(rng), rng.randrange(65536))
            oam_type, subtype = srou.OamType.STUN, srou.STUN_RESPONSE
    return srou.OamMessage(
        oam_type=oam_type,
        oam_subtype=subtype,
        payload=payload,
        flow_id=rng.getrandbits(8 * ft.octets),
        flow_id_type=ft,
        c_bit=rng.random() < 0.5,
        f_bit=rng.random() < 0.5,
        t_bit=rng.random() < 0.5,
    )


def mutate(rng: random.Random, data: bytes) -> bytes:
    """Corrupt valid wire bytes: flip/insert/delete/truncate."""
    buf = bytearray(data)
    op = rng.randrange(4)
    if op == 0 and buf:
        buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
    elif op == 1:
        buf.insert(rng.randrange(len(buf) + 1), rng.randrange(256))
    elif op == 2 and len(buf) > 1:
        del buf[rng.randrange(len(buf))]
    else:
        buf = buf[:rng.randrange(len(buf) + 1)]
    return bytes(buf)


def nudge(rng: random.Random, data: bytes) -> bytes:
    """Move one header octet (before SRoU Length) up or down by one or two:
    the edits that cross a length or count bound by one, which mutate's bit
    flips seldom make.  Append spare octets so a grown length still fits."""
    buf = bytearray(data)
    at = rng.randrange(max(4, min(buf[1], len(buf))))
    buf[at] = (buf[at] + rng.choice((-2, -1, 1, 2))) % 256
    return bytes(buf)
