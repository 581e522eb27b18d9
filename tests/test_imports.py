"""Import guard: no `ruta` module loads `socket`.

`socket` also loads `selectors` and `select`, which nothing else a
benchmark run does needs.  So the decoders format an IPv4 address with
`"%d.%d.%d.%d" % tuple(octets)`; the second test checks each place that
does so against `socket.inet_ntoa` on the two extreme addresses and on
seeded random ones.
"""

import random
import socket
import subprocess
import sys
from pathlib import Path

from ruta import srou
from ruta.dataplane import decode_frame
from ruta.srou import Function, OamMessage, OamType, SRoUHeader, StunResponseData, Waypoint

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "ruta").glob("*.py") if p.stem != "__init__")


def test_no_ruta_module_loads_socket_or_selectors():
    # a fresh interpreter without site, so only ruta and what it imports load
    code = ("import importlib, sys\n"
            f"for name in {MODULES!r}:\n"
            "    importlib.import_module('ruta.' + name)\n"
            "print(sorted({'socket', 'selectors'} & set(sys.modules)))\n")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def addresses() -> list[bytes]:
    rng = random.Random(44)
    return [bytes(4), b"\xff" * 4] + [rng.randbytes(4) for _ in range(200)]


def test_each_decoded_ipv4_address_reads_as_inet_ntoa_gives_it():
    for raw in addresses():
        text = socket.inet_ntoa(raw)
        frame = decode_frame(b"\x00" * 12 + raw + raw[::-1] + b"x")
        assert (frame.src_ip, frame.dst_ip) == (text, socket.inet_ntoa(raw[::-1]))

        stun = srou.encode_oam(OamMessage(OamType.STUN, srou.STUN_RESPONSE,
                                          StunResponseData(text, 3478)))
        assert srou.parse_oam(stun).payload == (text, 3478)

        hop = text if raw[0] != srou.FUNCTION_MARKER else "10.0.0.1"  # 0xFF marks a function
        data = srou.encode_header(SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address=text, source_port=5547,
            segment_list=(Function(1, srou.FUNC_END_DT2U), Waypoint(hop, 5546)),
            segments_left=2))
        lay = srou.parse_data(data)
        assert srou.data_source(data, lay) == (text, 5547)
        _, segment = srou.relay_in_place(bytearray(data), lay, ("192.0.2.1", 1))
        assert segment == Waypoint(hop, 5546)
