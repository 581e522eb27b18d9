"""Dataplane: encap/relay/function execution, NAT source fill, tokens, demux."""

import hashlib
import hmac
import ipaddress
import random
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from functools import partial

import pytest

from ruta import dataplane, schema, srou
from ruta.dataplane import (
    AppEndpoint,
    FabricRuntime,
    HostFrame,
    HostPort,
    LinecardRuntime,
    LsdbRuntime,
    ProbeConfig,
    StunRuntime,
    TokenAuthority,
    TokenEdgeConfig,
    World,
    decode_frame,
    encode_frame,
    stun_serve,
)
from ruta.kvstore import KvStore
from ruta.netsim import Datagram, Network, Trace, VirtualClock, millis, seconds
from ruta.pathengine import (
    PATH_DIRECT,
    PATH_ENGINEERED,
    ComputedPath,
    NoRoute,
    SlaPolicy,
)
from ruta.schema import PolicyRule, Sloc

import srouref
import storegen
import wiregen


def make_world(seed=0):
    clock = VirtualClock()
    trace = Trace()
    net = Network(clock, trace, seed=seed)
    store = KvStore(clock)
    return World(clock=clock, net=net, store=store, trace=trace)


def sloc(ip, port, color="inet", bw=1e9):
    return Sloc(color=color, private_ip=ip, private_port=port, public_ip=ip,
                public_port=port, rx_bw=bw, tx_bw=bw)


class SpineLeaf:
    """Hand-wired miniature of the two-leaf / two-spine deployment."""

    def __init__(self, seed=0, probe=None, sla=None, lc_b_slocs=None):
        self.world = make_world(seed)
        w = self.world
        for name in ("LC_A", "LC_B", "Spine_A", "Spine_B"):
            w.net.add_node(name)
        w.net.add_link("LC_A", "Spine_A", millis(0.3))
        w.net.add_link("LC_A", "Spine_B", millis(0.2))
        w.net.add_link("LC_B", "Spine_A", millis(0.3))
        w.net.add_link("LC_B", "Spine_B", millis(0.2))
        kw = dict(probe=probe) if probe else {}
        lc_kw = dict(imports_l2={"100:1": 1234}, l2_services={1234: ("100:1", "")},
                     sla=sla or SlaPolicy(), **kw)
        self.lc_a = LinecardRuntime(w, "LC_A", [sloc("192.168.99.77", 5547)],
                                    site_id=1, **{**lc_kw,
                                                  "l2_services": {1234: ("100:1", "1:1")}})
        self.lc_b = LinecardRuntime(w, "LC_B", lc_b_slocs or [sloc("192.168.99.78", 5546)],
                                    site_id=2, **{**lc_kw,
                                                  "l2_services": {1234: ("100:1", "2:1")}})
        self.spine_a = FabricRuntime(w, "Spine_A", [sloc("192.168.99.75", 17777)], **kw)
        self.spine_b = FabricRuntime(w, "Spine_B", [sloc("192.168.99.76", 17777)], **kw)
        self.delivered = []
        self.lc_a.attach_host(HostPort("H1", "0a:00:00:00:00:88", "10.0.0.88",
                                       vnid=1234))
        self.lc_b.attach_host(HostPort(
            "H2", "0a:00:00:00:00:99", "10.0.0.99", vnid=1234,
            deliver=lambda f: self.delivered.append(f)))
        self.runtimes = [self.lc_a, self.lc_b, self.spine_a, self.spine_b]
        for rt in self.runtimes:
            rt.start()

    def frame_h1_to_h2(self, payload=b"hello"):
        return HostFrame("0a:00:00:00:00:88", "0a:00:00:00:00:99",
                         "10.0.0.88", "10.0.0.99", payload)


def run_function_at_lc_b(net, function, args, inner):
    """Send LC_B of a SpineLeaf a packet whose one segment runs function(args)
    on inner, with the T bit set; returns LC_B's trace records from then on."""
    w = net.world
    start = w.clock.now
    w.clock.run_until(start + millis(5))
    hdr = srou.SRoUHeader(
        protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.76",
        source_port=17777, segment_list=(srou.Function(args, function),),
        segments_left=1, t_bit=True)
    since = len(w.trace)
    w.net.send("Spine_B", Datagram("192.168.99.76", 17777, "192.168.99.78", 5546,
                                   srou.encode_header(hdr) + inner))
    w.clock.run_until(start + millis(20))
    return [(r["event"], r["detail"]) for r in w.trace.records[since:] if r["node"] == "LC_B"]


class TestFrames:
    def test_round_trip(self):
        f = HostFrame("aa:bb:cc:dd:ee:ff", "11:22:33:44:55:66",
                      "10.0.0.1", "10.0.0.2", b"payload")
        assert decode_frame(encode_frame(f)) == f

    def test_short_frame(self):
        with pytest.raises(dataplane.DataplaneError):
            decode_frame(b"short")

    def test_codec_matches_ipaddress_reference(self):
        rng = random.Random(5)
        for _ in range(1_000):
            macs = [":".join(f"{b:02x}" for b in rng.randbytes(6)) for _ in range(2)]
            ips = [wiregen.random_ipv4(rng) for _ in range(2)]
            frame = HostFrame(*macs, *ips, rng.randbytes(rng.randrange(20)))
            wire = encode_frame(frame)
            assert wire[12:20] == (ipaddress.IPv4Address(ips[0]).packed
                                   + ipaddress.IPv4Address(ips[1]).packed)
            assert decode_frame(wire) == frame
        for bad in ("10.0.0", "10.0.0.256", "010.0.0.1", "::1", "10.0.0.1\x00", ""):
            with pytest.raises(ipaddress.AddressValueError):
                encode_frame(HostFrame("00:00:00:00:00:01", "00:00:00:00:00:02",
                                       bad, "10.0.0.2", b""))
        odd_macs = ("a:b:c:d:e:f", "0x1f:00:00:00:00:0X2", "1_0:00:00:00:00:01",
                    "1:2:3", "00:00:00:00:00:100", "ff:ff:ff:ff:ff:-1", "zz:0:0:0:0:0",
                    "00::00:00:00:01", "", " 1:2:3:4:5:6 ")
        for mac in odd_macs * 2:  # a second time: a rejected MAC is rejected again
            frame = HostFrame(mac, "00:00:00:00:00:02", "10.0.0.1", "10.0.0.2", b"")
            try:
                want = bytes(int(p, 16) for p in mac.split(":"))
            except ValueError:
                with pytest.raises(ValueError):
                    encode_frame(frame)
            else:
                assert encode_frame(frame)[:len(want)] == want


class TestDirectEncap:
    def test_fig_style_direct_packet(self):
        net = SpineLeaf()
        w = net.world
        wire = {}
        w.clock.call_at(millis(10), lambda: wire.update(
            bytes=net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2())))
        w.clock.run_until(millis(50))
        hdr, consumed, _ = srouref.decode_header(wire["bytes"])
        assert len(wire["bytes"][:consumed]) == 24
        assert hdr.segments_left == 1
        assert hdr.segment_list == (srou.Function(1234, srou.FUNC_END_DT2U),)
        assert hdr.source_address == "192.168.99.77"
        assert hdr.source_port == 5547
        assert net.delivered and net.delivered[0].payload == b"hello"
        encap = w.trace.select("encap", "LC_A")[0]["detail"]
        assert encap["outer_src"] == "192.168.99.77:5547"
        assert encap["outer_dst"] == "192.168.99.78:5546"

    def test_local_delivery_without_encap(self):
        net = SpineLeaf()
        got = []
        net.lc_a.attach_host(HostPort("H3", "0a:00:00:00:00:33", "10.0.0.33",
                                      vnid=1234, deliver=got.append))
        frame = HostFrame("0a:00:00:00:00:88", "0a:00:00:00:00:33",
                          "10.0.0.88", "10.0.0.33", b"local")
        out = net.lc_a.inject_host_frame("H1", frame)
        assert out is None
        assert got and got[0].payload == b"local"

    def test_no_route_drop(self):
        net = SpineLeaf()
        frame = HostFrame("0a:00:00:00:00:88", "ff:ee:dd:cc:bb:aa",
                          "10.0.0.88", "10.0.0.250", b"x")
        net.world.clock.run_until(millis(1))
        assert net.lc_a.inject_host_frame("H1", frame) is None
        assert net.lc_a.counts["drop_no_route"] == 1

    def test_a_frame_from_an_unknown_host_raises(self):
        net = SpineLeaf()
        with pytest.raises(dataplane.DataplaneError, match="unknown host H9"):
            net.lc_a.inject_host_frame("H9", net.frame_h1_to_h2())
        assert not net.lc_a.counts.get("encap")

    def test_dynamic_host_learning_announces(self):
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(millis(1))
        net.lc_a.attach_host(HostPort("H4", "0a:00:00:00:00:44", "10.0.0.44",
                                      vnid=1234))
        key = "/route/2/100:1/1:1/0a:00:00:00:00:44/10.0.0.44"
        assert w.store.get(key) is None
        frame = HostFrame("0a:00:00:00:00:44", "0a:00:00:00:00:99",
                          "10.0.0.44", "10.0.0.99", b"first")
        net.lc_a.inject_host_frame("H4", frame)
        assert w.store.get(key) is not None

    def test_a_host_in_a_vnid_without_an_l2_service_is_not_announced(self):
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(millis(1))
        net.lc_a.attach_host(HostPort("H5", "0a:00:00:00:00:55", "10.0.0.55", vnid=999))
        frame = HostFrame("0a:00:00:00:00:55", "0a:00:00:00:00:99",
                          "10.0.0.55", "10.0.0.99", b"x")
        assert net.lc_a.inject_host_frame("H5", frame) is None
        assert net.lc_a.counts["drop_no_route"] == 1
        assert "H5" not in net.lc_a.announced
        assert not [k for k in net.lc_a.owned if "0a:00:00:00:00:55" in k]
        assert len(w.trace.select("type2_announced", "LC_A")) == 1  # H1's, at start


class TestPolicy:
    def test_deny_drops(self):
        net = SpineLeaf()
        w = net.world
        # H1 tagged group 10; H2's route carries policy tag 0
        w.store.put(schema.group_rule_key(10, 0),
                    schema.to_json_bytes(PolicyRule("deny").to_doc()))
        w.store.put(schema.identity_key("u1", "d1"),
                    schema.to_json_bytes({"groups": [10]}))
        net.lc_a.hosts["H1"].identity = ("u1", "d1")
        w.clock.run_until(millis(1))
        assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()) is None
        assert net.lc_a.counts["drop_policy_deny"] == 1
        assert net.delivered == []

    def test_steer_overrides_waypoints(self):
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
        w.clock.run_until(millis(5))
        wire = net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(b"steered"))
        hdr, _, _ = srouref.decode_header(wire)
        assert hdr.segments_left == 2
        assert hdr.segment_list[1] == srou.Waypoint("192.168.99.78", 5546)
        encap = w.trace.select("encap", "LC_A")[-1]["detail"]
        assert encap["outer_dst"] == "192.168.99.75:17777"
        assert encap["path"] == "policy-steer"
        w.clock.run_until(millis(20))
        assert net.delivered and net.delivered[0].payload == b"steered"
        assert net.spine_a.counts.get("relay") == 1


    def test_empty_identity_groups_mean_default_group(self):
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.identity_key("u4", "d4"), schema.to_json_bytes({"groups": []}))
        net.lc_a.attach_host(HostPort("H4", "0a:00:00:00:00:44", "10.0.0.44",
                                      vnid=1234, identity=("u4", "d4")))
        w.clock.run_until(millis(5))
        net.lc_a.inject_host_frame("H4", HostFrame(
            "0a:00:00:00:00:44", "0a:00:00:00:00:99", "10.0.0.44", "10.0.0.99", b"untagged"))
        w.clock.run_until(millis(20))
        assert [f.payload for f in net.delivered] == [b"untagged"]
        route = w.store.get("/route/2/100:1/1:1/0a:00:00:00:00:44/10.0.0.44")
        assert schema.from_json_bytes(route.value)["policy_tag"] == 0

    def test_a_host_moved_to_another_group_reowns_its_route_by_its_next_frame(self):
        # first an identity record moves H1 from group 0 to 10, then an edit
        # of H1's identity moves it to group 20; each time, H1's next frame
        # owns its route again, so frames towards H1 meet its new tag
        net = SpineLeaf()
        w = net.world
        key = "/route/2/100:1/1:1/0a:00:00:00:00:88/10.0.0.88"
        w.store.put(schema.identity_key("u2", "d2"), schema.to_json_bytes({"groups": [20]}))
        net.lc_a.hosts["H1"].identity = ("u1", "d1")  # no record: group 0

        def next_frame_tags(payload):
            net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(payload))
            stored = schema.from_json_bytes(w.store.get(key).value)["policy_tag"]
            w.clock.run_until(w.clock.now + millis(20))
            seen = net.lc_b.route_sync.table.resolve_l2(1234, "0a:00:00:00:00:88")
            return stored, seen.policy_tag

        w.clock.run_until(seconds(1))
        assert next_frame_tags(b"a") == (0, 0)
        w.store.put(schema.identity_key("u1", "d1"), schema.to_json_bytes({"groups": [10]}))
        w.clock.run_until(seconds(2))
        assert next_frame_tags(b"b") == (10, 10)
        net.lc_a.hosts["H1"].identity = ("u2", "d2")
        assert next_frame_tags(b"c") == (20, 20)
        assert next_frame_tags(b"d") == (20, 20)
        assert [f.payload for f in net.delivered] == [b"a", b"b", b"c", b"d"]
        assert len(w.trace.select("type2_announced", "LC_A")) == 3


class TestUnencodablePath:
    """A path that no SRoU header can carry is a counted drop, each time,
    and the event loop goes on."""

    @staticmethod
    def steer(net, *relays):
        net.world.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", relays).to_doc()))

    @staticmethod
    def send_two(net):
        w = net.world
        for at in (w.clock.now + millis(5), w.clock.now + millis(6)):
            w.clock.call_at(at, lambda: net.lc_a.inject_host_frame(
                "H1", net.frame_h1_to_h2()))
        w.clock.run_until(w.clock.now + millis(20))

    def test_steer_past_the_segment_budget(self):
        # four relays and the destination are five waypoints, over budget 4
        net = SpineLeaf()
        self.steer(net, *("Spine_A|inet|192.168.99.75:17777",
                          "Spine_B|inet|192.168.99.76:17777") * 2)
        self.send_two(net)
        assert net.lc_a.counts["drop_unencodable_path"] == 2
        assert "encap" not in net.lc_a.counts
        assert net.delivered == []

    def test_a_waypoint_no_segment_can_hold(self):
        # LC_B re-announces at public IP 255.1.1.1, valid in the store, but
        # a waypoint that starts with octet 0xFF reads as a function segment
        net = SpineLeaf()
        w = net.world
        self.steer(net, "Spine_A|inet|192.168.99.75:17777")
        w.clock.run_until(seconds(1))
        odd = Sloc(color="inet", private_ip="192.168.99.78", private_port=5546,
                   public_ip="255.1.1.1", public_port=5546, rx_bw=1e9, tx_bw=1e9)
        w.store.put(schema.service_key("linecard", "LC_B"),
                    schema.to_json_bytes({"slocs": [odd.to_doc()]}))
        self.send_two(net)
        assert net.lc_a.counts["drop_unencodable_path"] == 2
        assert net.delivered == []


class TestRelayAndFunctions:
    def test_relay_decrements_and_rewrites(self):
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
        w.clock.run_until(millis(5))
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2())
        w.clock.run_until(millis(20))
        relay = w.trace.select("relay", "Spine_A")[0]["detail"]
        assert relay["to"] == "192.168.99.78:5546"
        assert relay["sl"] == 1

    def test_fabric_transparency(self):
        # relays leave flow id and inner payload bit-identical
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
        w.clock.run_until(millis(5))
        sent = net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(b"inner-bytes"))
        hdr0, consumed0, _ = srouref.decode_header(sent)
        captured = []
        orig = net.lc_b._on_datagram

        def spy(pkt):
            captured.append(pkt.payload)
            orig(pkt)

        # rebind the spy on the live socket
        net.world.net.nodes["LC_B"].bindings[("192.168.99.78", 5546)] = spy
        w.clock.run_until(millis(20))
        hdr1, consumed1, _ = srouref.decode_header(captured[0])
        assert captured[0][consumed1:] == sent[consumed0:]
        assert hdr1.flow_id == hdr0.flow_id
        assert hdr1.segments_left == hdr0.segments_left - 1
        assert hdr1.segment_list == hdr0.segment_list

    def test_each_socket_calls_its_runtime_directly(self):
        # no wrapper frame between the network and the runtime's handler
        net = SpineLeaf(lc_b_slocs=TestFlowCache.LC_B)
        for rt in net.runtimes:
            handlers = list(net.world.net.nodes[rt.name].bindings.values())
            assert handlers == [rt._on_datagram] * len(rt.slocs)

    def test_sl_zero_dropped(self):
        net = SpineLeaf()
        w = net.world
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.77",
            source_port=5547, segment_list=(srou.Waypoint("192.168.99.78", 5546),),
            segments_left=0)
        w.net.send("LC_A", Datagram("192.168.99.77", 5547, "192.168.99.75", 17777,
                                    srou.encode_header(hdr)))
        w.clock.run_until(millis(5))
        assert net.spine_a.counts["drop_no_segments_left"] == 1

    def test_non_srou_on_fabric_port_dropped(self):
        net = SpineLeaf()
        w = net.world
        w.net.send("LC_A", Datagram("192.168.99.77", 5547, "192.168.99.75", 17777,
                                    b"\x45junk"))
        w.clock.run_until(millis(5))
        assert net.spine_a.counts["drop_bad_magic"] == 1

    def test_unknown_function_dropped(self):
        net = SpineLeaf()
        w = net.world
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.77",
            source_port=5547, segment_list=(srou.Function(0, 0x9999),),
            segments_left=1)
        frame = encode_frame(net.frame_h1_to_h2())
        w.net.send("LC_A", Datagram("192.168.99.77", 5547, "192.168.99.78", 5546,
                                    srou.encode_header(hdr) + frame))
        w.clock.run_until(millis(5))
        assert net.lc_b.counts["drop_unknown_function"] == 1

    def test_dt2u_no_l2_entry(self):
        net = SpineLeaf()
        w = net.world
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.77",
            source_port=5547,
            segment_list=(srou.Function(1234, srou.FUNC_END_DT2U),),
            segments_left=1)
        ghost = HostFrame("0a:00:00:00:00:88", "de:ad:be:ef:00:01",
                          "10.0.0.88", "10.0.0.66", b"x")
        w.net.send("LC_A", Datagram("192.168.99.77", 5547, "192.168.99.78", 5546,
                                    srou.encode_header(hdr) + encode_frame(ghost)))
        w.clock.run_until(millis(5))
        assert net.lc_b.counts["drop_no_l2_entry"] == 1

    @pytest.mark.parametrize("function,args", [(srou.FUNC_END_DT2U, 1234),
                                               (srou.FUNC_END_DT4, 77)])
    def test_end_dt_drops_an_inner_frame_under_20_octets(self, function, args):
        net = SpineLeaf()
        records = run_function_at_lc_b(net, function, args, b"\x00" * 19)
        assert net.lc_b.counts["drop_malformed_frame"] == 1
        assert records == [("postcard", {"flow_id": 0, "sl": 0, "action": "function"})]
        assert net.delivered == []

    def test_end_dt2u_toward_a_system_with_no_service_is_dropped(self):
        # LC_B holds a type-2 route to a system that announced no SLoC
        net = SpineLeaf()
        ghost = schema.ServiceRoute(route_type=2, export_rt="100:1", rd="9:1",
                                    mac="0a:00:00:00:00:77", ip="10.0.0.77", site_id=9,
                                    system_name="LC_GHOST", policy_tag=0)
        net.world.store.put(ghost.key(), schema.to_json_bytes(ghost.to_doc()))
        frame = HostFrame("0a:00:00:00:00:99", "0a:00:00:00:00:77",
                          "10.0.0.99", "10.0.0.77", b"x")
        records = run_function_at_lc_b(net, srou.FUNC_END_DT2U, 1234, encode_frame(frame))
        assert net.lc_b.counts["drop_no_service"] == 1
        assert "encap" not in net.lc_b.counts
        assert records == [("postcard", {"flow_id": 0, "sl": 0, "action": "function"})]

    @staticmethod
    def route_to_ghost(net, system, rd):
        """A type-2 route naming system for a MAC no host of it has."""
        w = net.world
        w.clock.run_until(millis(5))
        ghost = schema.ServiceRoute(route_type=2, export_rt="100:1", rd=rd,
                                    mac="0a:00:00:00:00:aa", ip="10.0.0.170", site_id=1,
                                    system_name=system, policy_tag=0)
        w.store.put(ghost.key(), schema.to_json_bytes(ghost.to_doc()))
        return HostFrame("0a:00:00:00:00:88", "0a:00:00:00:00:aa",
                         "10.0.0.88", "10.0.0.170", b"ghost")

    def test_end_dt2u_on_a_route_back_to_its_own_node_is_dropped(self):
        # the route names LC_B itself: re-encapsulating would loop at LC_B
        net = SpineLeaf()
        frame = self.route_to_ghost(net, "LC_B", "2:1")
        records = run_function_at_lc_b(net, srou.FUNC_END_DT2U, 1234, encode_frame(frame))
        assert net.lc_b.counts["drop_no_l2_entry"] == 1
        assert "encap" not in net.lc_b.counts and net.delivered == []
        assert records == [("postcard", {"flow_id": 0, "sl": 0, "action": "function"})]

    def test_a_host_frame_on_a_route_back_to_its_own_node_is_dropped_on_arrival(self):
        # LC_A encapsulates to its own SLoC once; End.DT2U there drops it
        net = SpineLeaf()
        frame = self.route_to_ghost(net, "LC_A", "1:1")
        assert net.lc_a.inject_host_frame("H1", frame) is not None
        net.world.clock.run_until(millis(20))
        assert (net.lc_a.counts["encap"], net.lc_a.counts["drop_no_l2_entry"]) == (1, 1)
        assert [e["detail"]["outer_dst"] for e in net.world.trace.select("encap", "LC_A")] \
            == ["192.168.99.77:5547"]

    def test_relay_clears_reserved_bits(self):
        # reserved RRR bits are ignored on receipt and zeroed on send
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(millis(5))
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.77",
            source_port=5547,
            segment_list=(srou.Function(1234, srou.FUNC_END_DT2U),
                          srou.Waypoint("192.168.99.78", 5546)),
            segments_left=2)
        wire = bytearray(srou.encode_header(hdr)
                         + encode_frame(net.frame_h1_to_h2(b"rrr")))
        wire[2] |= 0xE0
        w.net.send("LC_A", Datagram("192.168.99.77", 5547, "192.168.99.75", 17777,
                                    bytes(wire)))
        w.clock.run_until(millis(20))
        assert net.spine_a.counts.get("relay") == 1
        assert [f.payload for f in net.delivered] == [b"rrr"]

    def test_dt2u_reencaps_toward_remote_owner(self):
        # LC_B receives a frame for H1, which lives behind LC_A
        net = SpineLeaf()
        w = net.world
        got = []
        net.lc_a.hosts["H1"].deliver = got.append
        w.clock.run_until(millis(5))
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.76",
            source_port=17777,
            segment_list=(srou.Function(1234, srou.FUNC_END_DT2U),),
            segments_left=1)
        frame = HostFrame("0a:00:00:00:00:99", "0a:00:00:00:00:88",
                          "10.0.0.99", "10.0.0.88", b"bounce")
        w.net.send("Spine_B", Datagram("192.168.99.76", 17777, "192.168.99.78", 5546,
                                       srou.encode_header(hdr) + encode_frame(frame)))
        w.clock.run_until(millis(20))
        assert [f.payload for f in got] == [b"bounce"]
        encaps = w.trace.select("encap", "LC_B")
        assert len(encaps) == 1
        assert encaps[0]["detail"]["function"] == "End.DT2U"

    def test_postcards_per_hop(self):
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
        w.clock.run_until(millis(5))
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(), t_bit=True)
        w.clock.run_until(millis(20))
        # three processing hops: encap at LC_A, relay at Spine_A, function at LC_B
        cards = {node: [r["detail"] for r in w.trace.select("postcard", node)]
                 for node in ("LC_A", "Spine_A", "LC_B")}
        assert cards == {
            "LC_A": [{"flow_id": 0, "sl": 2, "action": "encap"}],
            "Spine_A": [{"flow_id": 0, "sl": 1, "action": "relay"}],
            "LC_B": [{"flow_id": 0, "sl": 0, "action": "function"}],
        }
        assert net.delivered


class TestFuzzRuntime:
    def test_packets_never_escape_run_until(self):
        # seeded headers and OAM messages, half of them mutated, into every
        # runtime socket of a running world; every malformed one is counted.
        # Each message goes twice, so its second copy meets the header memos
        net = SpineLeaf(seed=4)
        w = net.world
        w.net.add_node("FZ")
        w.net.add_link("FZ", "Spine_A", millis(1))
        w.net.bind("FZ", "172.16.0.9", 4000, lambda pkt: None)
        expected = {rt.name: Counter() for rt in net.runtimes}
        for rt in net.runtimes:
            node = w.net.nodes[rt.name]
            for key, handler in list(node.bindings.items()):
                def spy(pkt, handler=handler, name=rt.name):
                    try:
                        srouref.decode_packet(pkt.payload)
                    except srou.BadMagic:
                        expected[name]["drop_bad_magic"] += 1
                    except srou.CodecError:
                        expected[name]["drop_malformed"] += 1
                    handler(pkt)
                node.bindings[key] = spy
        targets = [ss.addr for rt in net.runtimes for ss in rt.slocs]
        rng = random.Random(7)
        w.clock.run_until(seconds(1))
        start = w.clock.now
        for i in range(3_000):
            if rng.random() < 0.5:
                wire = srou.encode_oam(wiregen.random_oam(rng))
            else:
                wire = (srou.encode_header(wiregen.random_header(rng))
                        + rng.randbytes(rng.randrange(40)))
            if i % 2:
                wire = wiregen.mutate(rng, wire)
            dst = targets[i % len(targets)]
            for at in (start + i * 100_000, start + i * 100_000 + 50_000):
                w.clock.call_at(at, lambda wire=wire, dst=dst: w.net.send(
                    "FZ", Datagram("172.16.0.9", 4000, dst[0], dst[1], wire)))
        w.clock.run_until(start + seconds(2))
        for rt in net.runtimes:
            for what in ("drop_bad_magic", "drop_malformed"):
                assert rt.counts.get(what, 0) == expected[rt.name][what], (rt.name, what)
        assert sum(sum(c.values()) for c in expected.values()) > 500

    def test_app_socket_packets_never_escape_run_until(self):
        # the same seeded traffic into an echo and a sink app socket, each
        # datagram twice; the SRoU datagrams the reference decoder rejects
        # are the malformed ones
        w = make_world(seed=6)
        for name in ("FZ", "echo", "sink"):
            w.net.add_node(name)
        w.net.add_link("FZ", "echo", millis(1))
        w.net.add_link("FZ", "sink", millis(1))
        w.net.bind("FZ", "172.16.0.9", 4000, lambda pkt: None)
        apps = [AppEndpoint(w, "echo", "203.0.113.30", 7443, echo=True),
                AppEndpoint(w, "sink", "203.0.113.31", 7443)]
        expected = Counter()
        unholdable = Counter()  # SRoU sources that no reply waypoint can hold

        def holds(hdr):
            try:
                srou.encode_header(srou.SRoUHeader(
                    protocol_id=srou.ProtocolId.IPV4, source_address="203.0.113.30",
                    source_port=7443, segments_left=1, segment_list=(
                        srou.Waypoint(hdr.source_address, hdr.source_port),)))
            except srou.CodecError:
                return False
            return True

        for app in apps:
            app.start()
            node = w.net.nodes[app.name]
            key = (app.ip, app.port)

            def spy(pkt, handler=node.bindings[key], name=app.name):
                if pkt.payload[:1] == bytes([srou.MAGIC]):
                    try:
                        msg = srouref.decode_packet(pkt.payload).message
                    except srou.CodecError:
                        expected[name] += 1
                    else:
                        if isinstance(msg, srou.SRoUHeader) and not holds(msg):
                            unholdable[name] += 1
                handler(pkt)
            node.bindings[key] = spy
        rng = random.Random(11)
        for i in range(2_000):
            if rng.random() < 0.5:
                wire = srou.encode_oam(wiregen.random_oam(rng))
            else:
                wire = (srou.encode_header(wiregen.random_header(rng))
                        + rng.randbytes(rng.randrange(40)))
            if i % 2:
                wire = wiregen.mutate(rng, wire)
            app = apps[i // 2 % 2]  # each gets intact and mutated datagrams
            for at in (i * 100_000, i * 100_000 + 50_000):
                w.clock.call_at(at, lambda wire=wire, app=app: w.net.send(
                    "FZ", Datagram("172.16.0.9", 4000, app.ip, app.port, wire)))
        w.clock.run_until(seconds(1))
        for app in apps:
            assert app.counts.get("drop_malformed", 0) == expected[app.name] > 100
        assert apps[0].counts["tx_reply"] > 50 and apps[1].counts["rx_srou"] > 100
        # every other echo goes out, whatever its flow id's type and width
        assert apps[0].counts.get("drop_reply_unencodable", 0) == unholdable["echo"]
        assert apps[0].counts["tx_reply"] + unholdable["echo"] == apps[0].counts["rx_srou"]


    def test_malformed_store_values_never_escape_run_until(self):
        # about 500 seeded malformed values under each prefix the runtimes
        # follow, written while the world runs; forwarding keeps working
        net = SpineLeaf(seed=5)
        w = net.world
        good = [  # (followed prefix, rest of a valid key, valid document)
            ("/service/", "fabric/X", {"slocs": [sloc("10.200.0.1", 17777).to_doc()]}),
            ("/route/2/100:1/", "9:9/0a:00:00:00:01:00/10.0.1.0", {
                "site_id": 9, "system_name": "LC_B", "policy_tag": 0,
                "optional_tlvs": []}),
            ("/stats/linkstate/", "X|inet|10.200.0.1:17777 - Y|inet|10.200.0.2:17777", {
                "src": "X|inet|10.200.0.1:17777", "dst": "Y|inet|10.200.0.2:17777",
                "two_way_delay_us": 1.0, "jitter_us": 0.0, "loss": 0.0,
                "status": "up", "sampled_at": 0}),
            ("/control/group/", "900/*", {"action": "steer",
                                          "slocs": ["X|inet|10.200.0.1:17777"]}),
            ("/identity/", "u9/d9", {"groups": [900]}),
        ]
        rng = random.Random(13)
        w.clock.run_until(seconds(1))
        start = w.clock.now
        writes = 0
        for n in range(500):
            for prefix, rest, doc in good:
                if rng.random() < 0.2:  # a key that is malformed too
                    rest = rest[:rng.randrange(len(rest))] + rng.choice(["/", "x", "//", ""])
                key = prefix + rest
                value = storegen.malformed_value(rng, doc)
                at = start + n * 2_000_000 + writes
                w.clock.call_at(at, lambda key=key, value=value: w.store.put(key, value))
                if rng.random() < 0.1:
                    w.clock.call_at(at + 1, lambda key=key: w.store.delete(key))
                writes += 1
        w.clock.run_until(start + seconds(2))
        w.clock.call_at(w.clock.now + 1, lambda: net.lc_a.inject_host_frame(
            "H1", net.frame_h1_to_h2(b"after")))
        w.clock.run_until(w.clock.now + seconds(1))
        assert writes == 2_500
        assert len(w.trace.select("service_parse_warning")) > 100
        assert [f.payload for f in net.delivered] == [b"after"]

class TestProbeMesh:
    def test_linecard_honours_whitelist(self):
        w = make_world()
        for name in ("LC", "F1", "F2"):
            w.net.add_node(name)
        w.net.add_link("LC", "F1", millis(1))
        w.net.add_link("LC", "F2", millis(1))
        lc = LinecardRuntime(w, "LC", [sloc("10.0.0.10", 5500)],
                             probe=ProbeConfig(whitelist={"F1"}))
        f1 = FabricRuntime(w, "F1", [sloc("10.0.0.1", 17777)])
        f2 = FabricRuntime(w, "F2", [sloc("10.0.0.2", 17777)])
        for rt in (lc, f1, f2):
            rt.start()
        w.clock.run_until(seconds(3))
        assert {s.peer.system_name for s in lc.sessions.values()} == {"F1"}

    def mesh(self, whitelist=None):
        """F1 (two SLoCs), F2 (two SLoCs) and F3 on one switch, plus a
        linecard LC that imports a route of a second linecard LC2."""
        w = make_world()
        for name in ("SW", "F1", "F2", "F3", "LC", "LC2"):
            w.net.add_node(name)
            if name != "SW":
                w.net.add_link(name, "SW", millis(1))
        probe = ProbeConfig(whitelist=whitelist)
        f1 = FabricRuntime(w, "F1", [sloc("10.0.0.1", 17777),
                                     sloc("10.0.1.1", 17777, color="mpls")], probe=probe)
        f2 = FabricRuntime(w, "F2", [sloc("10.0.0.2", 17777),
                                     sloc("10.0.1.2", 17777, color="mpls")])
        f3 = FabricRuntime(w, "F3", [sloc("10.0.0.3", 17777)])
        lc = LinecardRuntime(w, "LC", [sloc("10.0.0.10", 5500)], probe=probe,
                             imports_l2={"100:1": 1234})
        lc2 = LinecardRuntime(w, "LC2", [sloc("10.0.0.20", 5500)],
                              imports_l2={"100:1": 1234}, l2_services={1234: ("100:1", "2:1")})
        lc2.attach_host(HostPort("H2", "0a:00:00:00:00:99", "10.0.0.99", vnid=1234))
        for rt in (f1, f2, f3, lc, lc2):
            rt.start()
        w.clock.run_until(seconds(3))
        return f1, lc

    @staticmethod
    def pairs(rt):
        return {(s.local.short, s.peer.short) for s in rt.sessions.values()}

    def test_fabric_probes_every_sloc_pair_of_every_other_fabric(self):
        f1, _ = self.mesh()
        peers = [ss for name in ("F2", "F3") for ss in f1.service_dir[name]]
        assert len(peers) == 3  # F1 itself is skipped
        assert self.pairs(f1) == {(local.short, peer.short)
                                  for local in f1.slocs for peer in peers}

    def test_whitelist_restricts_only_the_fabric_mesh(self):
        f1, lc = self.mesh(whitelist={"F2"})
        assert {s.peer.system_name for s in f1.sessions.values()} == {"F2"}
        assert len(f1.sessions) == 4  # two local SLoCs x two of F2's
        # a linecard's destinations are probed whatever the whitelist says
        assert {s.peer.system_name for s in lc.sessions.values()} == {"F2", "LC2"}


class TestSessionOpening:
    """A linecard opens a destination's sessions when it knows both a route
    that names the system and the system's announced SLoCs."""

    LOCAL = [sloc("10.0.0.10", 5500), sloc("10.0.1.10", 5500, color="mpls")]
    DEST = [sloc("10.0.0.20", 5500), sloc("10.0.1.20", 5500, color="mpls")]
    ROUTE = schema.ServiceRoute(route_type=2, export_rt="100:1", rd="2:1",
                                mac="0a:00:00:00:00:99", ip="10.0.0.99", site_id=2,
                                system_name="D", policy_tag=0)

    def linecard(self):
        """A started linecard LC whose every open_session call is logged as
        (local short, peer short)."""
        w = make_world()
        w.net.add_node("LC")
        lc = LinecardRuntime(w, "LC", self.LOCAL, imports_l2={"100:1": 1234})
        opened, open_session = [], lc.open_session

        def spy(local, peer):
            opened.append((local.short, peer.short))
            open_session(local, peer)

        lc.open_session = spy
        lc.start()
        w.clock.run_until(millis(10))
        return w, lc, opened

    @staticmethod
    def announce(w, slocs):
        w.store.put(schema.service_key("linecard", "D"),
                    schema.to_json_bytes({"slocs": [s.to_doc() for s in slocs]}))
        w.clock.run_until(w.clock.now + millis(10))

    def put_route(self, w):
        w.store.put(self.ROUTE.key(), schema.to_json_bytes(self.ROUTE.to_doc()))
        w.clock.run_until(w.clock.now + millis(10))

    def pairs(self, dest):
        return [(schema.ServiceSloc("LC", local).short, schema.ServiceSloc("D", peer).short)
                for peer in dest for local in self.LOCAL]

    def test_route_or_service_first_opens_each_session_once_in_one_order(self):
        w, lc, route_first = self.linecard()
        self.put_route(w)
        assert route_first == []  # no SLoC of D is known yet
        self.announce(w, self.DEST)
        w2, _, service_first = self.linecard()
        self.announce(w2, self.DEST)
        assert service_first == []  # no route names D yet
        self.put_route(w2)
        assert route_first == service_first == self.pairs(self.DEST)
        # more store events about D, and time, open nothing again
        self.put_route(w)
        self.announce(w, self.DEST)
        w.clock.run_until(seconds(3))
        assert route_first == self.pairs(self.DEST)
        assert [(s.local.short, s.peer.short) for s in lc.sessions.values()] == route_first

    def test_reannounce_opens_only_the_added_sloc(self):
        w, lc, opened = self.linecard()
        self.put_route(w)
        self.announce(w, self.DEST[:1])
        assert opened == self.pairs(self.DEST[:1])
        self.announce(w, self.DEST)
        assert opened == self.pairs(self.DEST)
        assert len(lc.sessions_to("D")) == 4

    def test_withdrawn_slocs_are_no_longer_probed(self):
        # D drops 10.0.0.20:5500 at 5 s, and its service is deleted at 20 s
        w, lc, _ = self.linecard()
        probes, send = [], w.net.send

        def spy(node, pkt):
            probes.append((w.clock.now, (pkt.dst_ip, pkt.dst_port)))
            send(node, pkt)

        w.net.send = spy
        self.put_route(w)
        self.announce(w, self.DEST)
        dropped, kept = ("10.0.0.20", 5500), ("10.0.1.20", 5500)
        w.clock.run_until(seconds(5))
        self.announce(w, self.DEST[1:])
        withdrawn_at = w.clock.now
        assert {s.peer.public_addr for s in lc.sessions_to("D")} == {kept}
        assert lc._best_direct("D")[1].public_addr == kept
        w.clock.run_until(seconds(20))
        w.store.delete(schema.service_key("linecard", "D"))
        w.clock.run_until(w.clock.now + millis(10))
        deleted_at = w.clock.now
        assert lc.sessions_to("D") == []
        with pytest.raises(NoRoute):
            lc._best_direct("D")
        w.clock.run_until(seconds(40))
        times = {dst: [t for t, to in probes if to == dst] for dst in (dropped, kept)}
        assert times[dropped] and max(times[dropped]) < withdrawn_at
        assert max(times[kept]) > withdrawn_at and max(times[kept]) < deleted_at
        assert not any(key[1] in (dropped, kept) for key in lc._verdicts)

    def test_frames_leave_a_withdrawn_sloc_at_once(self):
        # LC_A's cached direct path goes to LC_B's first SLoC; when LC_B
        # re-announces without it, the next frame takes the other one
        first, second = sloc("192.168.99.78", 5546), sloc("192.168.99.79", 5546)
        net = SpineLeaf(lc_b_slocs=[first, second])
        w = net.world
        w.clock.run_until(seconds(3))

        def outer_dst():  # all at one instant: no probe outcome comes between
            net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2())
            return w.trace.select("encap", "LC_A")[-1]["detail"]["outer_dst"]

        assert outer_dst() == "192.168.99.78:5546"
        w.store.put(schema.service_key("linecard", "LC_B"),
                    schema.to_json_bytes({"slocs": [second.to_doc()]}))
        assert outer_dst() == "192.168.99.79:5546"
        w.clock.run_until(w.clock.now + millis(10))
        assert len(net.delivered) == 2

    def test_a_closed_session_deletes_its_record(self):
        # LC_B re-announces without 192.168.99.78:5546, then with it again.
        # LC_B still probes from that SLoC itself, so the records checked
        # are those of the sessions to it
        first, second = sloc("192.168.99.78", 5546), sloc("192.168.99.79", 5546)
        net = SpineLeaf(lc_b_slocs=[first, second])
        w = net.world
        a, x = net.lc_a.slocs[0].short, schema.ServiceSloc("LC_B", first).short

        def announce(*slocs):
            w.store.put(schema.service_key("linecard", "LC_B"),
                        schema.to_json_bytes({"slocs": [s.to_doc() for s in slocs]}))

        def records_to_x():
            return [e.key for e in w.store.get_prefix(schema.LINKSTATE_PREFIX)
                    if e.key.endswith(" - " + x)]

        w.clock.run_until(seconds(3))
        assert records_to_x() == [schema.linkstate_key(a, x)]
        announce(second)
        w.clock.run_until(w.clock.now + net.lc_a.probe_cfg.report_interval_ns)
        assert records_to_x() == []
        assert (a, x) not in net.lc_a.ls_sync.records
        announce(first, second)  # the reopened session puts its record again
        w.clock.run_until(w.clock.now + seconds(3))
        assert records_to_x() == [schema.linkstate_key(a, x)]
        assert (a, x) in net.lc_a.ls_sync.records


class TestVerdict:
    @staticmethod
    def puts_under(store, prefix=schema.LINKSTATE_PREFIX):
        """Record every put under prefix as (time, key, value)."""
        puts, put = [], store.put

        def spy(key, value, lease_id=None):
            if key.startswith(prefix):
                puts.append((store.clock.now, key, bytes(value)))
            return put(key, value, lease_id)

        store.put = spy
        return puts

    def test_unreachable_second_sloc_keeps_each_session_verdict(self):
        # LC_B announces a second SLoC that no probe reaches: LC_A's session
        # to it fails the SLA while the one to the first SLoC meets it.  Each
        # session keeps its own verdict, so sla_change and the record put
        # follow a change of one session's verdict, not every probe
        dead = Sloc(color="mpls", private_ip="192.168.99.79", private_port=5546,
                    public_ip="198.18.0.1", public_port=5546, rx_bw=1e9, tx_bw=1e9)
        net = SpineLeaf(lc_b_slocs=[sloc("192.168.99.78", 5546), dead])
        w = net.world
        puts = self.puts_under(w.store)
        loads = self.puts_under(w.store, schema.SLOC_LOAD_PREFIX)
        w.clock.run_until(seconds(60))
        sessions = net.lc_a.sessions_to("LC_B")
        assert sorted(s.status for s in sessions) == ["down", "up"]
        changes = [r["detail"] for r in w.trace.select("sla_change", "LC_A")
                   if r["detail"]["system"] == "LC_B"]
        # each session's first verdict, each record naming its session
        assert sorted(c["violated"] for c in changes) == [False, True]
        assert {(c["local"], c["peer"]) for c in changes} == {
            (net.lc_a.slocs[0].short, s.peer.short) for s in sessions}
        to_b = [p for p in puts if p[1].startswith(
            schema.linkstate_key(net.lc_a.slocs[0].short, "LC_B"))]
        # the three verdict changes: each session's first, and the
        # unreachable session going down.  Neither session's figures move
        # after that, so no 10 s report puts its record again; each report
        # puts LC_A's one SLoC load instead
        assert len(to_b) == 3
        assert [t for t, key, _ in loads if "LC_A" in key] == [
            seconds(10) * i for i in range(1, 7)]

    def test_no_linkstate_key_is_put_twice_at_one_instant(self):
        net = SpineLeaf(seed=2)
        w = net.world
        w.net.links[0].set_loss(0.2)  # LC_A -- Spine_A: verdicts flip
        puts = self.puts_under(w.store)
        for i in range(200):
            w.clock.call_at(seconds(1) + i * millis(50), lambda: net.lc_a.inject_host_frame(
                "H1", net.frame_h1_to_h2()))
        w.clock.run_until(seconds(30))
        assert len(puts) > 20
        assert len(puts) == len(set(puts))


class TestSlaPath:
    def test_frame_before_the_first_probe_outcome_tries_a_relay(self):
        # until a session to the destination records an outcome, the direct
        # path counts as failing the SLA, so the first frame searches the
        # link state for a relay path
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(millis(100))  # probes first go out at 1 s
        assert [s.figures() for s in net.lc_a.sessions_to("LC_B")] == [None]
        lc_a, spine_a, lc_b = (rt.slocs[0].short
                               for rt in (net.lc_a, net.spine_a, net.lc_b))
        for src, dst in ((lc_a, spine_a), (spine_a, lc_b)):
            rec = schema.LinkStateRecord(src=src, dst=dst, two_way_delay_us=1_000.0,
                                         jitter_us=0.0, loss=0.0, status="up",
                                         sampled_at=w.clock.now)
            w.store.put(rec.key(), schema.to_json_bytes(rec.to_doc()))
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2())
        [selected] = w.trace.select("path_selected", "LC_A")
        assert selected["detail"]["source"] == "engineered"
        assert selected["detail"]["waypoints"] == (spine_a, lc_b)
        w.clock.run_until(w.clock.now + millis(10))
        assert [f.payload for f in net.delivered] == [b"hello"]

    def test_a_relay_through_a_sloc_no_service_announces_goes_direct(self):
        # the link state leads through "ghost", which no /service/ record
        # announces: no header can name it, so the frame takes the direct path
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(millis(100))
        lc_a, lc_b = net.lc_a.slocs[0].short, net.lc_b.slocs[0].short
        for src, dst in ((lc_a, "ghost"), ("ghost", lc_b)):
            rec = schema.LinkStateRecord(src=src, dst=dst, two_way_delay_us=1_000.0,
                                         jitter_us=0.0, loss=0.0, status="up",
                                         sampled_at=w.clock.now)
            w.store.put(rec.key(), schema.to_json_bytes(rec.to_doc()))
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2())
        [selected] = w.trace.select("path_selected", "LC_A")
        assert (selected["detail"]["source"], selected["detail"]["waypoints"]) == (
            "direct", (lc_b,))
        assert net.lc_a.counts["sla_unmet_direct"] == 1
        w.clock.run_until(w.clock.now + millis(10))
        assert [f.payload for f in net.delivered] == [b"hello"]


class TestEndDt4:
    def build(self):
        net = SpineLeaf()
        w = net.world
        # LC_B owns VRF 77 prefix 10.1.2.0/24 with a /32 host route installed
        net.lc_a.imports_l3["200:1"] = 77
        net.lc_a.route_sync.l3_imports["200:1"] = 77
        net.lc_b.attach_host(HostPort("V1", "0a:00:00:00:01:01", "10.1.2.3",
                                      vrf=77, deliver=net.delivered.append))
        route = schema.ServiceRoute(route_type=5, export_rt="200:1", rd="2:1",
                                    prefix="10.1.2.0", mask=24, site_id=2,
                                    system_name="LC_B", policy_tag=0)
        w.store.put(route.key(), schema.to_json_bytes(route.to_doc()))
        net.lc_a.hosts["H1"].vrf = 77
        # follow only the prefix the new import adds; the others are followed already
        added = schema.route_prefix(5, "200:1")

        def follow_added(prefix, on_event):
            if prefix == added:
                net.lc_a.watch(prefix, on_event)

        net.lc_a.route_sync.start(follow_added)
        followed = [x.prefix for x in w.store.watches if x.client == "LC_A"]
        assert added in followed and len(followed) == len(set(followed))
        return net

    def test_lpm_forward_and_deliver(self):
        net = self.build()
        w = net.world
        frame = HostFrame("0a:00:00:00:00:88", "00:00:00:00:00:00",
                          "10.0.0.88", "10.1.2.3", b"l3")
        w.clock.call_at(millis(10), lambda: net.lc_a.inject_host_frame("H1", frame))
        w.clock.run_until(millis(30))
        assert net.delivered and net.delivered[0].payload == b"l3"

    def test_no_vrf_route(self):
        net = self.build()
        w = net.world
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.77",
            source_port=5547, segment_list=(srou.Function(77, srou.FUNC_END_DT4),),
            segments_left=1)
        miss = HostFrame("0a:00:00:00:00:88", "00:00:00:00:00:00",
                         "10.0.0.88", "172.16.0.1", b"x")
        w.net.send("LC_A", Datagram("192.168.99.77", 5547, "192.168.99.78", 5546,
                                    srou.encode_header(hdr) + encode_frame(miss)))
        w.clock.run_until(millis(5))
        assert net.lc_b.counts["drop_no_vrf_route"] == 1

    def follow_remote_owner(self, net):
        """V2 lives behind LC_A in VRF 77 under a type-5 route, and LC_B
        follows VRF 77's routes; returns the route and V2's deliveries."""
        w = net.world
        got = []
        net.lc_a.attach_host(HostPort("V2", "0a:00:00:00:02:02", "10.3.0.5", vrf=77,
                                      deliver=got.append))
        route = schema.ServiceRoute(route_type=5, export_rt="200:1", rd="1:1",
                                    prefix="10.3.0.0", mask=24, site_id=1,
                                    system_name="LC_A", policy_tag=0)
        w.store.put(route.key(), schema.to_json_bytes(route.to_doc()))
        net.lc_b.imports_l3["200:1"] = 77
        net.lc_b.route_sync.l3_imports["200:1"] = 77
        added = schema.route_prefix(5, "200:1")
        net.lc_b.route_sync.start(
            lambda prefix, on_event: prefix == added and net.lc_b.watch(prefix, on_event))
        return route, got

    def test_dt4_reencaps_toward_remote_owner(self):
        # LC_B receives a frame for V2, which lives behind LC_A in VRF 77
        net = self.build()
        route, got = self.follow_remote_owner(net)
        frame = HostFrame("0a:00:00:00:01:01", "00:00:00:00:00:00",
                          "10.1.2.3", "10.3.0.5", b"l3 bounce")
        records = run_function_at_lc_b(net, srou.FUNC_END_DT4, 77, encode_frame(frame))
        assert [f.payload for f in got] == [b"l3 bounce"]
        assert net.lc_b.counts["encap"] == 1
        encaps = [detail for event, detail in records if event == "encap"]
        assert [(d["dst"], d["function"], d["args"]) for d in encaps] == [
            (route.key(), "End.DT4", 77)]

    def test_a_host_reaches_a_host_its_own_linecard_serves_by_a_type5_route(self):
        # V2 lives behind LC_A under LC_A's own type-5 route, and no session
        # leads to LC_A: the frame goes out to LC_A's own SLoC, and End.DT4
        # there delivers it
        net = self.build()
        w = net.world
        got = []
        net.lc_a.attach_host(HostPort("V2", "0a:00:00:00:02:02", "10.3.0.5", vrf=77,
                                      deliver=got.append))
        route = schema.ServiceRoute(route_type=5, export_rt="200:1", rd="1:1",
                                    prefix="10.3.0.0", mask=24, site_id=1,
                                    system_name="LC_A", policy_tag=0)
        w.store.put(route.key(), schema.to_json_bytes(route.to_doc()))
        frame = HostFrame("0a:00:00:00:00:88", "00:00:00:00:00:00",
                          "10.0.0.88", "10.3.0.5", b"l3 self")
        w.clock.call_at(millis(10), lambda: net.lc_a.inject_host_frame("H1", frame))
        w.clock.run_until(millis(30))
        assert [f.payload for f in got] == [b"l3 self"]
        (encap,) = w.trace.select("encap", "LC_A")
        assert (encap["detail"]["outer_dst"], encap["detail"]["function"]) == (
            "192.168.99.77:5547", "End.DT4")
        assert not any(k.startswith("drop") for k in net.lc_a.counts)

    def test_a_withdrawn_type5_route_leaves_the_vrf(self):
        # once LC_A withdraws V2's prefix, End.DT4 at LC_B finds no route
        net = self.build()
        route, got = self.follow_remote_owner(net)
        inner = encode_frame(HostFrame("0a:00:00:00:01:01", "00:00:00:00:00:00",
                                       "10.1.2.3", "10.3.0.5", b"l3 bounce"))
        run_function_at_lc_b(net, srou.FUNC_END_DT4, 77, inner)
        assert [f.payload for f in got] == [b"l3 bounce"]
        net.world.store.delete(route.key())
        with pytest.raises(NoRoute):
            net.lc_b.route_sync.table.resolve_l3(77, "10.3.0.5")
        records = run_function_at_lc_b(net, srou.FUNC_END_DT4, 77, inner)
        assert net.lc_b.counts["drop_no_vrf_route"] == 1
        assert net.lc_b.counts["encap"] == 1 and len(got) == 1
        assert "encap" not in [event for event, _ in records]


def oam_fields(msg):
    """What a runtime hands its OAM handlers: the checked wire fields."""
    return srou.parse_oam(srou.encode_oam(msg))


class TestStunRole:
    def test_serve_mirrors_observed(self):
        req = oam_fields(srou.OamMessage(srou.OamType.STUN, srou.STUN_REQUEST,
                                         srou.StunRequestData(), flow_id=7))
        resp = stun_serve(req, ("198.51.100.7", 40001))
        assert resp.payload == srou.StunResponseData("198.51.100.7", 40001)
        assert resp.flow_id == 7

    def test_serve_rejects_other(self):
        with pytest.raises(Exception):
            stun_serve(oam_fields(srou.OamMessage(srou.OamType.STUN, srou.STUN_RESPONSE,
                                                  srou.StunResponseData("1.2.3.4", 5))),
                       ("9.9.9.9", 9))

    def test_forged_stun_response_dropped(self):
        # a response observing port 0 arrives while the exchange is pending;
        # the genuine response that follows still sets the public SLoC
        w = make_world()
        w.net.add_node("LC_N")
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        w.net.add_node("STUN1")
        w.net.add_link("LC_N", "NAT1", millis(1))
        w.net.add_link("NAT1", "STUN1", millis(1))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        stun_rt.start()
        lc.start()
        forged = srou.encode_oam(srou.OamMessage(
            srou.OamType.STUN, srou.STUN_RESPONSE,
            srou.StunResponseData("198.51.100.7", 0)))
        w.clock.call_at(millis(1.5), lambda: w.net.send(
            "STUN1", Datagram("203.0.113.9", 3478, "198.51.100.7", 40000, forged)))
        w.clock.run_until(seconds(1))
        assert lc.counts["drop_stun_invalid"] == 1
        assert lc.slocs[0].sloc.public_ip == "198.51.100.7"
        assert lc.slocs[0].sloc.public_port == 40000

    def test_foreign_stun_response_dropped(self):
        # another host on the NAT's outside sends a well-formed response to
        # the linecard's mapping while the exchange is pending
        w = make_world()
        for name in ("LC_N", "STUN1", "EVIL"):
            w.net.add_node(name)
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        w.net.add_link("LC_N", "NAT1", millis(1))
        w.net.add_link("NAT1", "STUN1", millis(1))
        w.net.add_link("EVIL", "NAT1", millis(1))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        stun_rt.start()
        lc.start()
        forged = srou.encode_oam(srou.OamMessage(
            srou.OamType.STUN, srou.STUN_RESPONSE,
            srou.StunResponseData("6.6.6.6", 6666)))
        w.clock.call_at(millis(1.5), lambda: w.net.send(
            "EVIL", Datagram("203.0.113.66", 9, "198.51.100.7", 40000, forged)))
        w.clock.run_until(seconds(1))
        assert lc.counts["drop_stun_foreign"] == 1
        assert lc.slocs[0].sloc.public_ip == "198.51.100.7"
        assert lc.slocs[0].sloc.public_port == 40000

    def test_natted_node_announces_public(self):
        w = make_world()
        w.net.add_node("LC_N")
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        w.net.add_node("STUN1")
        w.net.add_link("LC_N", "NAT1", millis(1))
        w.net.add_link("NAT1", "STUN1", millis(1))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        stun_rt.start()
        lc.start()
        ran = w.clock.run_until(seconds(2))
        assert lc.slocs[0].sloc.public_ip == "198.51.100.7"
        assert lc.slocs[0].sloc.public_port == 40000
        # the answer at 4 ms canceled the retry timer, which was due at 1 s
        assert "stun-retry" not in [label for _, _, label in ran]
        assert stun_rt.counts["stun_served"] == 1
        entry = w.store.get("/service/linecard/LC_N")
        doc = schema.from_json_bytes(entry.value)
        assert doc["slocs"][0]["public_ip"] == "198.51.100.7"

    def test_a_public_node_learns_its_own_address(self):
        w = make_world()
        w.net.add_node("LC_P")
        w.net.add_node("STUN1")
        w.net.add_link("LC_P", "STUN1", millis(5))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        lc = LinecardRuntime(w, "LC_P", [sloc("192.0.2.5", 6000)], use_stun=True)
        stun_rt.start()
        lc.start()
        w.clock.run_until(seconds(1))
        events = [(r["time"], r["event"]) for r in w.trace.records if r["node"] == "LC_P"]
        assert events[:3] == [(0, "registered"), (millis(10), "stun_resolved"),
                              (millis(10), "announced")]
        assert w.trace.select("stun_resolved")[0]["detail"] == {"public": "192.0.2.5:6000"}
        assert lc.slocs[0].sloc == sloc("192.0.2.5", 6000)

    @staticmethod
    def send_to_stun_server(payload):
        """Send payload to a STUN server; returns the server's counts and
        its trace records from then on."""
        w = make_world()
        w.net.add_node("P")
        w.net.add_node("STUN1")
        w.net.add_link("P", "STUN1", millis(1))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        stun_rt.start()
        since = len(w.trace)
        w.net.send("P", Datagram("203.0.113.40", 6000, "203.0.113.9", 3478, payload))
        w.clock.run_until(seconds(1))
        return stun_rt.counts, [r for r in w.trace.records[since:] if r["node"] == "STUN1"]

    def test_a_data_packet_at_a_stun_server_is_dropped(self):
        counts, records = self.send_to_stun_server(TestNativeSocket.DATA + b"inner")
        assert counts == {"drop_unexpected_data": 1}
        assert records == []

    def test_a_stun_response_at_a_stun_server_is_ignored(self):
        counts, records = self.send_to_stun_server(srou.encode_oam(srou.OamMessage(
            srou.OamType.STUN, srou.STUN_RESPONSE, srou.StunResponseData("1.2.3.4", 5))))
        assert counts == {"drop_oam_ignored": 1}
        assert records == []

    def test_no_stun_server_announces_the_private_sloc_at_once(self):
        w = make_world()
        w.net.add_node("LC_N")
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        lc.start()
        events = [(r["time"], r["event"]) for r in w.trace.records if r["node"] == "LC_N"]
        assert events == [(0, "registered"), (0, "announced")]
        doc = schema.from_json_bytes(w.store.get("/service/linecard/LC_N").value)
        assert (doc["slocs"][0]["public_ip"], doc["slocs"][0]["public_port"]) == (
            "10.9.9.2", 5500)
        assert w.net.nodes["LC_N"].tx == 0

    def test_a_response_after_the_exchange_ended_is_counted(self):
        # a 600 ms link: the 1 s retry leaves before the first answer lands
        # at 1.2 s, and the second answer arrives at 2.2 s, after the end
        w = make_world()
        w.net.add_node("LC_P")
        w.net.add_node("STUN1")
        w.net.add_link("LC_P", "STUN1", millis(600))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        lc = LinecardRuntime(w, "LC_P", [sloc("192.0.2.5", 6000)], use_stun=True)
        stun_rt.start()
        lc.start()
        w.clock.run_until(seconds(3))
        assert stun_rt.counts["stun_served"] == 2
        assert [r["time"] for r in w.trace.select("stun_resolved")] == [millis(1200)]
        assert lc.counts == {"drop_stun_late": 1}

    def test_a_stun_server_that_never_answers(self):
        # every request dies on the STUN server's link: after the 1 s, 2 s
        # and 4 s backoff the linecard gives up, announces its private
        # address and probes the fabric through its NAT
        w = make_world()
        for name in ("LC_N", "SW", "STUN1", "F1"):
            w.net.add_node(name)
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        w.net.add_link("LC_N", "NAT1", millis(1))
        w.net.add_link("NAT1", "SW", millis(1))
        w.net.add_link("STUN1", "SW", millis(1), loss=1.0)
        w.net.add_link("F1", "SW", millis(1))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        f1 = FabricRuntime(w, "F1", [sloc("203.0.113.1", 17777)])
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        for rt in (stun_rt, f1, lc):
            rt.start()
        w.clock.run_until(seconds(6.9))
        assert w.store.get("/service/linecard/LC_N") is None
        assert not lc.sessions
        w.clock.run_until(seconds(10))
        events = [(r["time"], r["event"]) for r in w.trace.records if r["node"] == "LC_N"]
        assert events[:3] == [(0, "registered"), (seconds(7), "stun_failed"),
                              (seconds(7), "announced")]
        assert stun_rt.counts.get("stun_served", 0) == 0
        assert w.net.nodes["NAT1"].nat.translated_out >= 3  # every attempt left
        doc = schema.from_json_bytes(w.store.get("/service/linecard/LC_N").value)
        assert (doc["slocs"][0]["public_ip"], doc["slocs"][0]["public_port"]) == (
            "10.9.9.2", 5500)
        assert lc.slocs[0].sloc == sloc("10.9.9.2", 5500)
        (session,) = lc.sessions.values()
        assert session.peer.system_name == "F1"
        assert session.status == "up"  # its probes are answered through the NAT


class TestToken:
    def test_current_bucket_admits(self):
        auth = TokenAuthority("secret")
        now = seconds(65)
        token = auth.mint("198.51.100.7", now)
        assert auth.validate(token, "198.51.100.7", now)

    def test_previous_bucket_admits_current_minus_two_rejects(self):
        auth = TokenAuthority("secret")
        assert (auth.bucket_ns, auth.window) == (seconds(30), 1)
        minted_at = seconds(10)
        token = auth.mint("198.51.100.7", minted_at)
        assert auth.validate(token, "198.51.100.7", seconds(35))   # one bucket later
        assert not auth.validate(token, "198.51.100.7", seconds(65))  # two later

    def test_same_slash24_shares_token(self):
        auth = TokenAuthority("secret")
        token = auth.mint("198.51.100.7", 0)
        assert auth.validate(token, "198.51.100.99", 0)
        assert not auth.validate(token, "198.51.101.7", 0)

    def test_token_matches_reference_formula(self):
        def reference(secret, ip, bucket):
            net = ipaddress.ip_network(f"{ip}/24", strict=False)
            msg = f"{net.network_address}/{bucket}".encode()
            return int.from_bytes(hmac.new(secret, msg, hashlib.sha256).digest()[:4],
                                  "big")

        auth = TokenAuthority("secret")
        rng = random.Random(6)
        for _ in range(1_000):
            ip, bucket = wiregen.random_ipv4(rng), rng.randrange(1 << 20)
            assert auth.mint(ip, bucket * auth.bucket_ns) == reference(b"secret", ip,
                                                                       bucket)
        assert auth.mint("2001:db8::7", 0) == reference(b"secret", "2001:db8::7", 0)
        for bad in ("198.51.100", "198.51.100.256", "not-an-ip", "198.51.100.7/8"):
            with pytest.raises(ValueError):
                auth.mint(bad, 0)

    def test_memo_hits_give_the_verdicts_of_a_miss(self):
        auth = TokenAuthority("secret")
        ip = "198.51.100.7"
        token = auth.mint(ip, seconds(10))
        for _ in range(2):  # the second round is served from the memo
            assert auth.validate(token, ip, seconds(35))  # one bucket later
            assert not auth.validate(token, ip, seconds(65))  # two later
            assert not auth.validate(token ^ 1, ip, seconds(35))  # forged
            with pytest.raises(ValueError):  # raises each time: never cached
                auth.validate(token, "198.51.100", seconds(35))
        assert auth._compute.cache_info().hits >= 4

    def test_memo_keeps_within_its_bound(self):
        auth = TokenAuthority("secret")
        token = auth.mint("198.51.100.7", seconds(35))
        for i in range(3 * dataplane.MEMO_ENTRIES):  # distinct source IPs
            assert not auth.validate(token, f"10.{i >> 16}.{i >> 8 & 255}.{i & 255}",
                                     seconds(35))
        assert auth._compute.cache_info().currsize <= dataplane.MEMO_ENTRIES
        assert auth.validate(token, "198.51.100.7", seconds(35))

    def test_random_flow_ids_rejected(self):
        auth = TokenAuthority("secret")
        rng = random.Random(0)
        admits = sum(
            1 for _ in range(100_000)
            if auth.validate(rng.getrandbits(32), "198.51.100.7", seconds(100))
        )
        assert admits == 0

    def test_edge_fabric_rejects_bad_token(self):
        w = make_world()
        for name in ("client", "edge", "sink"):
            w.net.add_node(name)
        w.net.add_link("client", "edge", millis(1))
        w.net.add_link("edge", "sink", millis(1))
        edge = FabricRuntime(w, "edge", [sloc("203.0.113.10", 17777)],
                             token_edge=TokenEdgeConfig(secret="s3"))
        edge.start()
        w.net.bind("client", "10.0.0.50", 6000, lambda p: None)
        w.net.bind("sink", "203.0.113.30", 7443, lambda p: None)
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="0.0.0.0",
            source_port=0, segment_list=(srou.Waypoint("203.0.113.30", 7443),),
            segments_left=1, flow_id=0xDEADBEEF)
        w.net.send("client", Datagram("10.0.0.50", 6000, "203.0.113.10", 17777,
                                      srou.encode_header(hdr) + b"app"))
        w.clock.run_until(millis(10))
        assert edge.counts["token_reject"] == 1
        good = TokenAuthority("s3").mint("10.0.0.50", w.clock.now)
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="0.0.0.0",
            source_port=0, segment_list=(srou.Waypoint("203.0.113.30", 7443),),
            segments_left=1, flow_id=good)
        w.net.send("client", Datagram("10.0.0.50", 6000, "203.0.113.10", 17777,
                                      srou.encode_header(hdr) + b"app"))
        w.clock.run_until(millis(20))
        assert edge.counts["token_admit"] == 1


def memos(node):
    """A runtime's or app socket's per-node memos, by attribute name."""
    return {name: f for name, f in vars(node).items() if hasattr(f, "cache_info")}


def without_memos(node):
    """Swap each of node's memos for the uncached function it wraps."""
    for name, memo in memos(node).items():
        setattr(node, name, memo.__wrapped__)


class TestNativeSocket:
    DATA = srou.encode_header(srou.SRoUHeader(
        protocol_id=srou.ProtocolId.IPV4, source_address="1.2.3.4",
        source_port=9, segment_list=(srou.Waypoint("5.6.7.8", 1),),
        segments_left=1, flow_id=5))
    DEMUX = {  # datagram -> (the count it adds, the payload on_app sees)
        "data": (DATA + b"inner", "rx_srou", b"inner"),
        "passthrough": (b"\xc3quic-like", "rx_passthrough", b"\xc3quic-like"),
        "empty": (b"", "drop_empty", None),
        "truncated": (DATA[:10], "drop_malformed", None),
        "oam": (srou.encode_oam(srou.OamMessage(srou.OamType.STUN, srou.STUN_REQUEST,
                                                srou.StunRequestData())), "drop_oam", None),
    }

    @pytest.mark.parametrize("case", sorted(DEMUX))
    def test_app_socket_demux(self, case):
        # one port carries SRoU and plain datagrams, told apart by the magic
        # octet; what is neither reaches the app as nothing but a count
        wire, counted, delivered = self.DEMUX[case]
        w = make_world()
        for name in ("peer", "app"):
            w.net.add_node(name)
        w.net.add_link("peer", "app", millis(1))
        got = []
        app = AppEndpoint(w, "app", "203.0.113.30", 7443,
                          on_app=lambda p, ctx: got.append((p, ctx)))
        app.start()
        w.net.send("peer", Datagram("203.0.113.40", 6000, "203.0.113.30", 7443, wire))
        w.clock.run_until(seconds(1))
        assert app.counts == {counted: 1}
        assert [p for p, _ in got] == ([delivered] if delivered is not None else [])
        if case == "data":
            ctx = got[0][1]
            assert (ctx.srou_source, ctx.flow_id, ctx.raw) == (("1.2.3.4", 9), 5, False)
        if case == "truncated":
            assert w.trace.select("malformed", "app")[0]["detail"] == {
                "error": "TruncatedHeader"}

    def build_nat_path(self):
        """client -- NAT -- edge fabric -- transit fabric -- server; the last
        item maps each endpoint's name to the payloads its on_app saw."""
        w = make_world()
        w.net.add_node("client")
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        for name in ("F_EDGE", "F_TRANSIT", "server"):
            w.net.add_node(name)
        w.net.add_link("client", "NAT1", millis(5))
        w.net.add_link("NAT1", "F_EDGE", millis(10))
        w.net.add_link("F_EDGE", "F_TRANSIT", millis(20))
        w.net.add_link("F_TRANSIT", "server", millis(10))
        edge = FabricRuntime(w, "F_EDGE", [sloc("203.0.113.10", 17777)])
        transit = FabricRuntime(w, "F_TRANSIT", [sloc("203.0.113.20", 17777)])
        edge.start()
        transit.start()
        got = {"client": [], "server": []}
        server = AppEndpoint(w, "server", "203.0.113.30", 7443, echo=True,
                             reply_via=[("203.0.113.10", 17777)],
                             on_app=lambda p, ctx: got["server"].append(p))
        client = AppEndpoint(w, "client", "10.9.9.2", 6000,
                             on_app=lambda p, ctx: got["client"].append(p))
        server.start()
        client.start()
        return w, edge, transit, client, server, got

    def test_zero_source_filled_with_nat_mapping(self):
        w, edge, transit, client, server, got = self.build_nat_path()
        client.send_srou(b"hello quic", edge=("203.0.113.10", 17777),
                         server=("203.0.113.30", 7443),
                         transit=("203.0.113.20", 17777), flow_id=42)
        w.clock.run_until(seconds(1))
        nat = w.net.nodes["NAT1"].nat
        mapped = nat.mapping_table()["10.9.9.2:6000"]
        fill = w.trace.select("source_fill", "F_EDGE")[0]["detail"]
        assert fill["filled"] == f"198.51.100.7:{mapped}"
        # server saw the filled source and delivered the inner bytes
        assert got["server"] == [b"hello quic"]
        rx = w.trace.select("app_rx", "server")[0]["detail"]
        assert rx["source"] == f"198.51.100.7:{mapped}"

    def test_reply_reaches_client_via_reversed_segments(self):
        w, edge, transit, client, server, got = self.build_nat_path()
        client.send_srou(b"ping", edge=("203.0.113.10", 17777),
                         server=("203.0.113.30", 7443),
                         transit=("203.0.113.20", 17777))
        w.clock.run_until(seconds(1))
        assert got["client"] == [b"ping"]  # echoed back through the overlay
        # reply relayed by transit then edge
        assert transit.counts.get("relay", 0) >= 2  # forward + reply legs
        assert edge.counts.get("relay", 0) >= 2

    @pytest.mark.parametrize("proto, source", [(srou.ProtocolId.IPV4, "255.1.2.3"),
                                               (srou.ProtocolId.IPV6, "2001:db8::1")],
                             ids=["ipv4_0xff", "ipv6"])
    def test_unencodable_reply_source_is_a_counted_drop(self, proto, source):
        # a reply waypoint can hold neither an address starting 0xFF (the
        # function marker) nor an IPv6 one: the echo is dropped and counted,
        # each time it repeats, and the event loop keeps running
        w, edge, transit, client, server, got = self.build_nat_path()
        hdr = srou.SRoUHeader(protocol_id=proto, source_address=source,
                              source_port=9,
                              segment_list=(srou.Waypoint("203.0.113.30", 7443),),
                              segments_left=0)
        for _ in range(2):
            w.net.send("F_TRANSIT", Datagram("203.0.113.20", 17777, "203.0.113.30", 7443,
                                             srou.encode_header(hdr) + b"echo me"))
        w.clock.run_until(seconds(1))
        assert got["server"] == [b"echo me"] * 2
        assert server.counts["drop_reply_unencodable"] == 2
        assert "tx_reply" not in server.counts

    @pytest.mark.parametrize("ft, flow_id", [(srou.FlowIdType.FT64, 0x1_2345_6789),
                                             (srou.FlowIdType.FT96, 1 << 95)],
                             ids=["ft64", "ft96"])
    def test_reply_echoes_the_flow_id_type_and_value(self, ft, flow_id):
        # a flow id wider than 32 bits comes back in its own type, not
        # dropped as a reply that FT32 cannot encode
        w = make_world()
        for name in ("peer", "app"):
            w.net.add_node(name)
        w.net.add_link("peer", "app", millis(1))
        replies = []
        w.net.bind("peer", "203.0.113.40", 6000, replies.append)
        app = AppEndpoint(w, "app", "203.0.113.30", 7443, echo=True)
        app.start()
        hdr = srou.SRoUHeader(protocol_id=srou.ProtocolId.IPV4,
                              source_address="203.0.113.40", source_port=6000,
                              segment_list=(srou.Waypoint("203.0.113.30", 7443),),
                              segments_left=0, flow_id=flow_id, flow_id_type=ft)
        w.net.send("peer", Datagram("203.0.113.40", 6000, "203.0.113.30", 7443,
                                    srou.encode_header(hdr) + b"echo me"))
        w.clock.run_until(seconds(1))
        assert app.counts == {"rx_srou": 1, "tx_reply": 1}
        reply, consumed, _ = srouref.decode_header(replies[0].payload)
        assert (reply.flow_id_type, reply.flow_id) == (ft, flow_id)
        assert replies[0].payload[consumed:] == b"echo me"

    def test_passthrough_transits_untouched(self):
        w, edge, transit, client, server, got = self.build_nat_path()
        blob = b"\xc3" + bytes(range(64))
        client.send_raw(blob, ("203.0.113.30", 7443))
        w.clock.run_until(seconds(1))
        assert got["server"] == [blob]
        assert server.counts["rx_passthrough"] == 1

    def test_a_memo_that_never_stores_gives_the_same_trace(self):
        # echoes over the NAT path with zero-source fill, relay and reversed
        # segments, once with the memos and once with every memo swapped
        # for the function it wraps
        traces = []
        for memoized in (True, False):
            w, edge, transit, client, server, got = self.build_nat_path()
            nodes = (edge, transit, client, server)
            assert sorted(name for node in nodes for name in memos(node)) == sorted(
                ["_hop"] * 2 + ["_check", "_header"] * 2)
            if not memoized:
                for node in nodes:
                    without_memos(node)
            for i in range(20):
                w.clock.call_at(millis(10 * i), lambda: client.send_srou(
                    b"ping", edge=("203.0.113.10", 17777), server=("203.0.113.30", 7443),
                    transit=("203.0.113.20", 17777), flow_id=7))
            w.clock.run_until(seconds(2))
            assert got["client"] == [b"ping"] * 20
            if memoized:  # every memo served the repeats
                assert all(memo.cache_info().hits > 0
                           for node in nodes for memo in memos(node).values())
            else:
                assert not any(memos(node) for node in nodes)
            traces.append(w.trace.to_jsonl())
        assert traces[0] == traces[1]


class TestHeaderMemo:
    """Runtimes and app sockets check, relay and build each distinct SRoU
    header once; what a packet does must not depend on what is cached."""

    SINK = ("203.0.113.30", 7443)

    def fabric_world(self):
        """A sender P, a fabric F and a sink S that records what reaches it."""
        w = make_world()
        for name in ("P", "F", "S"):
            w.net.add_node(name)
        w.net.add_link("P", "F", millis(1))
        w.net.add_link("F", "S", millis(1))
        fabric = FabricRuntime(w, "F", [sloc("203.0.113.10", 17777)])
        fabric.start()
        got = []
        w.net.bind("S", *self.SINK, got.append)
        return w, fabric, got

    def to_sink(self, source=dataplane.ZERO_SOURCE, flow_id=0):
        return srou.encode_header(srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address=source[0],
            source_port=source[1], segment_list=(srou.Waypoint(*self.SINK),),
            segments_left=1, flow_id=flow_id))

    def test_payload_cut_short_of_a_relayed_header_is_malformed(self):
        # the cut copy's first SRoU Length octets are not all there, so it
        # never matches the stored header and is checked again
        w, fabric, got = self.fabric_world()
        w.net.add_node("app")
        w.net.add_link("P", "app", millis(1))
        app = AppEndpoint(w, "app", "203.0.113.31", 7443)
        app.start()
        wire = self.to_sink(("203.0.113.40", 6000))
        for dst, payload in ((fabric.slocs[0].addr, wire + b"inner"),
                             (fabric.slocs[0].addr, wire[:-2]),
                             ((app.ip, app.port), wire + b"inner"),
                             ((app.ip, app.port), wire[:-2])):
            w.net.send("P", Datagram("203.0.113.40", 6000, *dst, payload))
        w.clock.run_until(seconds(1))
        assert [p.payload[len(wire):] for p in got] == [b"inner"]
        assert (fabric.counts["relay"], fabric.counts["drop_malformed"]) == (1, 1)
        assert app.counts == {"rx_srou": 1, "drop_malformed": 1}
        for node in ("F", "app"):
            assert [r["detail"] for r in w.trace.select("malformed", node)] == [
                {"error": "TruncatedHeader"}]

    def test_zero_source_is_filled_from_each_observed_source(self):
        w, fabric, got = self.fabric_world()
        sources = [("203.0.113.40", 6000), ("203.0.113.41", 6001),
                   ("203.0.113.40", 6000)]
        for src in sources:
            w.net.send("P", Datagram(*src, *fabric.slocs[0].addr, self.to_sink() + b"x"))
        w.clock.run_until(seconds(1))
        filled = [srouref.decode_header(p.payload)[0] for p in got]
        assert [(h.source_address, h.source_port) for h in filled] == sources
        assert [r["detail"]["filled"] for r in w.trace.select("source_fill", "F")] == [
            f"{ip}:{port}" for ip, port in sources]

    @pytest.mark.parametrize("source", [("203.0.113.40", 70000), ("2001:db8::1", 6000)])
    def test_a_zero_source_no_header_can_hold_is_a_counted_drop(self, source):
        # the fill from an observed source that no IPv4 header can hold fails:
        # the packet is malformed, and the event loop goes on to the next one
        w, fabric, got = self.fabric_world()
        for src, inner in ((source, b"x"), (("203.0.113.40", 6000), b"y")):
            w.net.send("P", Datagram(*src, *fabric.slocs[0].addr, self.to_sink() + inner))
        w.clock.run_until(seconds(1))
        assert [p.payload[-1:] for p in got] == [b"y"]
        assert [fabric.counts.get(k) for k in ("drop_malformed", "source_fill", "relay")] == [
            1, 1, 1]
        assert [r["detail"] for r in w.trace.select("malformed", "F")] == [
            {"error": "InvariantViolation"}]

    def test_spray_of_distinct_headers_leaves_each_memo_within_its_bound(self):
        # each flow id makes a distinct header on the way out and back, at
        # the fabric, the echo socket and its reply encoder
        w, fabric, got = self.fabric_world()
        w.net.nodes["S"].bindings.clear()
        echo = AppEndpoint(w, "S", *self.SINK, echo=True)
        echo.start()
        flows = dataplane.MEMO_ENTRIES + 100
        for flow_id in range(flows):
            w.clock.call_at(flow_id * 10_000, lambda flow_id=flow_id: w.net.send(
                "P", Datagram("203.0.113.40", 6000, *fabric.slocs[0].addr,
                              self.to_sink(flow_id=flow_id))))
        w.clock.run_until(seconds(1))
        assert fabric.counts["relay"] == 2 * flows
        assert echo.counts == {"rx_srou": flows, "tx_reply": flows}
        for memo in (fabric._hop, echo._check, echo._header):
            assert 0 < memo.cache_info().currsize <= dataplane.MEMO_ENTRIES

    @staticmethod
    def verdict(parse, payload):
        """What parse returns, or the class of the CodecError it raises."""
        try:
            return parse(payload)
        except srou.CodecError as exc:
            return type(exc)

    @staticmethod
    def reference(payload, *observed):
        """srou.parse on the whole payload, returned as _parse returns it
        through a runtime's _hop, given observed, or an app's _check."""
        lay = srou.parse(payload)
        if type(lay) is not srou.DataLayout:
            return lay, None
        if not observed:
            return lay, srou.data_source(payload, lay)
        buf = bytearray(payload)
        filled, seg = srou.relay_in_place(buf, lay, observed)
        return lay, filled, seg, bytes(buf[:lay.total])

    def test_a_memoized_check_gives_what_parse_gives(self):
        # seeded headers, clean and mutated, plus SRoU Lengths below 4 and
        # payloads cut short of theirs, each received twice at a runtime,
        # relayed from an observed source, and at an app socket
        w, fabric, _ = self.fabric_world()
        app = AppEndpoint(w, "S", *self.SINK)
        rng = random.Random(17)
        payloads = []
        for _ in range(600):
            wire = (srou.encode_header(wiregen.random_header(rng))
                    + rng.randbytes(rng.randrange(40)))
            payloads += [wire, wiregen.mutate(rng, wire), wire[:rng.randrange(4, wire[1])]]
            for length in range(4):  # below the minimum, with and without the magic
                payloads += [bytes([magic, length]) + wire[2:] for magic in (srou.MAGIC, 0x45)]
        observed = ("203.0.113.40", 6000)
        for memo, args in ((fabric._hop, observed), (app._check, ())):
            expected = [self.verdict(lambda p: self.reference(p, *args), p)
                        for p in payloads]
            kinds = Counter(v if isinstance(v, type) else "data" for v in expected)
            for cls in ("data", srou.TruncatedHeader, srou.LengthMismatch, srou.BadMagic):
                assert kinds[cls] > 50, cls
            for payload, want in zip(payloads, expected):
                for _ in range(2):  # the second copy meets the memo
                    got = self.verdict(lambda p: dataplane._parse(memo, p, *args), payload)
                    assert got == want, payload.hex()
            assert memo.cache_info().hits >= kinds["data"]


class TestFlowCache:
    """A linecard decides once per flow and sends each later frame of the
    flow from its flow cache; what a frame does must not depend on what
    that cache holds."""

    H6 = ("0a:00:00:00:00:66", "10.0.0.66")  # a second host behind LC_B
    LC_B = (sloc("192.168.99.78", 5546), sloc("192.168.99.79", 5546))

    def twin(self, seed):
        # two SLoCs at LC_B, so that probe outcomes alone can reorder the
        # sessions to it and move a steered flow's last waypoint
        net = SpineLeaf(seed=seed, lc_b_slocs=list(self.LC_B))
        net.lc_a.hosts["H1"].identity = ("u1", "d1")
        net.lc_b.attach_host(HostPort("H6", *self.H6, vnid=1234,
                                      deliver=net.delivered.append))
        net.lc_b.inject_host_frame("H6", HostFrame(  # delivered at LC_B, announces H6
            self.H6[0], "0a:00:00:00:00:99", self.H6[1], "10.0.0.99", b"hi"))
        return net

    @staticmethod
    def shorts(net):
        return [rt.slocs[0].short for rt in (net.spine_a, net.spine_b, net.lc_b)]

    # relative weights of frame, route, rule, identity, announce, loss and
    # link-state changes.  "steady" keeps every probe figure still and puts
    # no rule, so that at a path refresh only the refresh drops the path
    # cache; "lossy" steers every frame and reorders the sessions to LC_B
    # on probe outcomes alone
    MIXES = {"all": (60, 3, 6, 3, 2, 3, 3), "steady": (60, 3, 0, 3, 0, 0, 0),
             "lossy": (60, 0, 0, 0, 0, 6, 0)}

    def actions(self, rng, net, mix):
        """A seeded sequence of (time, kind, change) over 40 simulated s; a
        change takes the twin it applies to."""
        spine_a, spine_b, lc_b = self.shorts(net)
        dsts = [("0a:00:00:00:00:99", "10.0.0.99"), self.H6]

        def frame(dst, t_bit, n):
            return lambda net: net.lc_a.inject_host_frame(
                "H1", HostFrame("0a:00:00:00:00:88", dst[0], "10.0.0.88", dst[1],
                                b"f%d" % n), t_bit=t_bit)

        def put(key, doc):
            return lambda net: net.world.store.put(key, schema.to_json_bytes(doc))

        def delete(key):
            return lambda net: net.world.store.delete(key)

        def route(dst, tag):
            r = schema.ServiceRoute(route_type=2, export_rt="100:1", rd="2:1", site_id=2,
                                    system_name="LC_B", policy_tag=tag, mac=dst[0], ip=dst[1])
            return put(r.key(), r.to_doc()) if tag is not None else delete(r.key())

        def rule(src, dst, action):
            key = schema.group_rule_key(src, dst)
            if action is None:
                return delete(key)
            steer = {"steer_a": (spine_a,), "steer_b": (spine_b,),
                     "steer_ab": (spine_a, spine_b)}.get(action)
            doc = PolicyRule("steer", steer) if steer else PolicyRule(action)
            return put(key, doc.to_doc())

        def identity(groups):
            key = schema.identity_key("u1", "d1")
            return put(key, {"groups": groups}) if groups is not None else delete(key)

        def announce(name, moved):
            if name == "LC_B":  # withdraws one of its SLoCs, or neither
                slocs = [s for s in self.LC_B if s != moved]
                return put(schema.service_key("linecard", name),
                           {"slocs": [s.to_doc() for s in slocs]})

            def change(net):
                rt = {"Spine_A": net.spine_a, "Spine_B": net.spine_b}[name]
                s = rt.slocs[0].sloc
                s = replace(s, public_port=s.public_port + 1) if moved else s
                net.world.store.put(schema.service_key("fabric", name),
                                    schema.service_value([s]))
            return change

        def loss(index, p):
            return lambda net: net.world.net.links[index].set_loss(p)

        def linkstate(src, delay_us):
            rec = schema.LinkStateRecord(src=src, dst=lc_b, two_way_delay_us=delay_us,
                                         jitter_us=0.0, loss=0.0, status="up",
                                         sampled_at=0)
            return put(rec.key(), rec.to_doc())

        def attach(net):  # H6 moves behind LC_A: its frames are local there
            net.lc_a.attach_host(HostPort("H6", *self.H6, vnid=1234,
                                          deliver=net.delivered.append))

        # at one instant, so that no other change empties the cache between
        moved = seconds(20) + rng.randrange(seconds(10))
        out = [(moved, "frame", frame(self.H6, False, -1)), (moved, "attach", attach),
               (moved, "frame", frame(self.H6, False, -2))]
        if mix == "lossy":
            out.append((millis(400), "rule", rule(0, 0, "steer_a")))
        for k in range(1, 5):  # after each path refresh, before the next probe outcome
            out += [(seconds(10 * k) + 50_000, "frame", frame(dst, False, -2 - k))
                    for dst in dsts]
        for n in range(1200):
            at = millis(500) + rng.randrange(seconds(40))
            kind = rng.choices(("frame", "route", "rule", "identity", "announce",
                                "loss", "linkstate"), self.MIXES[mix])[0]
            change = {
                "frame": lambda: frame((rng.choice(dsts)[0], rng.choice(dsts)[1]),
                                       rng.random() < 0.3, n),
                "route": lambda: route(rng.choice(dsts), rng.choice((0, 10, None))),
                "rule": lambda: rule(rng.choice((0, 10)), rng.choice((0, 10)), rng.choice(
                    ("permit", "deny", "steer_a", "steer_b", "steer_ab", None))),
                "identity": lambda: identity(rng.choice(([10], [0], [], None))),
                "announce": lambda: announce(rng.choice(("Spine_A", "Spine_B", "LC_B")),
                                             rng.choice((False, *self.LC_B))),
                "loss": lambda: loss(rng.randrange(4), rng.choice((0.0, 0.0, 0.05, 0.5, 1.0))),
                "linkstate": lambda: linkstate(rng.choice((spine_a, spine_b)),
                                               rng.uniform(100, 5000)),
            }[kind]()
            out.append((at, kind, change))
        return sorted(out, key=lambda a: a[0])

    @pytest.mark.parametrize("seed,mix", [(0, "all"), (1, "all"), (2, "all"),
                                          (3, "steady"), (4, "steady"), (5, "lossy"),
                                          (6, "lossy")])
    def test_a_cached_decision_is_the_decision_made_afresh(self, seed, mix):
        cached, fresh = self.twin(seed), self.twin(seed)
        frames = served = 0  # served: frames that met a non-empty cache
        for at, kind, change in self.actions(random.Random(seed), cached, mix):
            for net in (cached, fresh):
                net.world.clock.run_until(at)
            if kind == "frame":
                frames += 1
                served += bool(cached.lc_a._flows)
                fresh.lc_a._flows.clear()
            got = [change(net) for net in (cached, fresh)]
            if kind == "frame":
                assert got[0] == got[1], at
        for net in (cached, fresh):
            net.world.clock.run_until(seconds(42))
        assert served > frames // 4
        assert [rt.counts for rt in cached.runtimes] == [rt.counts for rt in fresh.runtimes]
        assert cached.world.net.counters() == fresh.world.net.counters()
        assert cached.delivered == fresh.delivered
        assert cached.world.trace.to_jsonl() == fresh.world.trace.to_jsonl()

    def test_distinct_destinations_keep_the_cache_within_its_bound(self):
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(seconds(2))
        ips = [str(ipaddress.IPv4Address("10.1.0.0") + i)
               for i in range(3 * dataplane.MEMO_ENTRIES)]
        sizes = []

        def send(ip):
            net.lc_a.inject_host_frame("H1", HostFrame(
                "0a:00:00:00:00:88", "0a:00:00:00:00:99", "10.0.0.88", ip, b"x"))
            sizes.append(len(net.lc_a._flows))

        for i, ip in enumerate(ips):
            w.clock.call_at(seconds(2) + i * 50_000, partial(send, ip))
        w.clock.run_until(seconds(3))
        assert max(sizes) == dataplane.MEMO_ENTRIES
        assert net.lc_a.counts["encap"] == len(ips)
        assert [f.dst_ip for f in net.delivered] == ips

    def test_an_identity_set_on_a_host_takes_effect_on_its_next_frame(self):
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(seconds(2))
        for _ in range(3):
            assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()) is not None
        # group 10 may not reach H2's tag 0; H1 is in no group yet
        w.store.put(schema.identity_key("u1", "d1"), schema.to_json_bytes({"groups": [10]}))
        w.store.put(schema.group_rule_key(10, 0),
                    schema.to_json_bytes(PolicyRule("deny").to_doc()))
        assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()) is not None
        net.lc_a.hosts["H1"].identity = ("u1", "d1")
        assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()) is None
        assert net.lc_a.counts["drop_policy_deny"] == 1
        assert net.lc_a.counts["encap"] == 4


class TestLinkStateInvalidation:
    """A link-state delta drops from a linecard's path cache every engineered
    path and every path with the delta's src or dst among its waypoints, and
    empties the flow cache only when it dropped one."""

    @staticmethod
    def kept(cache, src, dst):
        """The paths the rule keeps, written out apart from `_on_ls_delta`."""
        out = {}
        for key, (local, path) in cache.items():
            shorts = {w.short for w in path.waypoints}
            if not (src in shorts or dst in shorts or path.source == PATH_ENGINEERED):
                out[key] = (local, path)
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_deltas_drop_what_the_rule_drops(self, seed):
        rng = random.Random(seed)
        net = SpineLeaf(seed=seed)
        net.world.clock.run_until(seconds(3))
        lc = net.lc_a
        pool = [lc.short_index[s] for s in sorted(lc.short_index)]
        ends = sorted(lc.short_index) + ["X|inet|10.9.9.9:9"]  # and one no path holds
        assert len(pool) == 4  # both linecards and both spines
        writer = net.world.store.client("oracle")
        lease = writer.grant_lease(seconds(600))
        dropped = kept = 0
        for step in range(400):
            if step == 200:
                lc.ls_sync.edges(lc.sla)  # from here on each delta also keeps the edge map
            while len(lc.path_cache) < 5:
                waypoints = tuple(rng.sample(pool, rng.randint(1, 3)))
                source = rng.choice((PATH_DIRECT, PATH_ENGINEERED, PATH_DIRECT))
                lc.path_cache[f"/route/2/x/{step}/{len(lc.path_cache)}"] = (
                    lc.slocs[0], ComputedPath(waypoints, 1.0, source))
            sentinel = ("sentinel", step)
            lc._flows[sentinel] = ()
            src, dst = rng.sample(ends, 2)
            before = dict(lc.path_cache)
            want = self.kept(before, src, dst)
            key = schema.linkstate_key(src, dst)
            roll = rng.random()
            if roll < 0.2 and writer.get(key) is not None:
                writer.delete(key)
            elif roll < 0.3:
                writer.put(key, b'{"loss": "high"}', lease.lease_id)
                want = before  # a malformed record changes nothing
            else:
                schema.put_record(writer, schema.LinkStateRecord(
                    src, dst, rng.uniform(100, 5000), 0.0, rng.choice((0.0, 0.5)),
                    rng.choice(("up", "down")), net.world.clock.now), lease)
            assert lc.path_cache == want
            assert (sentinel in lc._flows) == (want == before)
            dropped += want != before
            kept += want == before
        assert dropped > 50 and kept > 50


class TestHeadlessRuntime:
    def test_forwarding_survives_partition(self):
        from ruta.dataplane import ProbeConfig
        net = SpineLeaf(probe=ProbeConfig(report_interval_ns=seconds(2)))
        w = net.world
        w.clock.run_until(seconds(3))
        w.store.set_partitioned("LC_A", True)
        delivered_before = len(net.delivered)
        w.clock.call_at(seconds(4), lambda: net.lc_a.inject_host_frame(
            "H1", net.frame_h1_to_h2(b"during-partition")))
        w.clock.run_until(seconds(6))
        assert len(net.delivered) == delivered_before + 1
        assert net.lc_a.headless
        w.store.set_partitioned("LC_A", False)
        w.clock.run_until(seconds(40))
        assert not net.lc_a.headless

    @staticmethod
    def natted_linecard(heal_s):
        """A linecard behind a NAT whose store client is partitioned while
        its STUN exchange is pending, then healed at heal_s."""
        w = make_world()
        w.net.add_node("LC_N")
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        w.net.add_node("STUN1")
        w.net.add_link("LC_N", "NAT1", millis(1))
        w.net.add_link("NAT1", "STUN1", millis(1))
        stun_rt = StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)])
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        stun_rt.start()
        lc.start()
        w.clock.call_at(millis(1), lambda: w.store.set_partitioned("LC_N", True))
        w.clock.call_at(seconds(heal_s), lambda: w.store.set_partitioned("LC_N", False))
        return w, lc

    def test_announce_after_stun_waits_out_a_partition(self):
        w, lc = self.natted_linecard(heal_s=20)
        w.clock.run_until(seconds(19))
        assert lc.headless and w.store.get("/service/linecard/LC_N") is None
        w.clock.run_until(seconds(60))
        doc = schema.from_json_bytes(w.store.get("/service/linecard/LC_N").value)
        assert (doc["slocs"][0]["public_ip"], doc["slocs"][0]["public_port"]) == (
            "198.51.100.7", 40000)
        assert not lc.headless  # the first publish after the heal
        assert [r["event"] for r in w.trace.select("headless_enter", "LC_N")
                + w.trace.select("headless_exit", "LC_N")] == [
            "headless_enter", "headless_exit"]

    def test_stun_partition_past_the_lease_registers_again(self):
        # the lease expires at 60 s; after the heal at 90 s a publish finds
        # it lost, replaces it, registers anew and puts the service
        w, lc = self.natted_linecard(heal_s=90)
        w.clock.run_until(seconds(150))
        assert not lc.headless
        assert len(w.trace.select("headless_enter", "LC_N")) == 1
        assert len(w.trace.select("registered", "LC_N")) == 2
        assert w.store.get("/node/linecard/LC_N").lease_id == lc.lease1.lease_id
        held = w.store.get("/service/linecard/LC_N")
        doc = schema.from_json_bytes(held.value)
        assert (doc["slocs"][0]["public_ip"], doc["slocs"][0]["public_port"]) == (
            "198.51.100.7", 40000)
        assert held.lease_id == lc.lease1.lease_id

    def test_partition_past_the_lease_keeps_forwarding(self):
        # Spine_B's lease expires while it is cut off from the store; after
        # the heal it registers and announces again, so a steer through it
        # resolves once more
        net = SpineLeaf()
        w = net.world
        via_b = "Spine_B|inet|192.168.99.76:17777"
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", (via_b,)).to_doc()))
        w.clock.call_at(seconds(5), lambda: w.store.set_partitioned("Spine_B", True))
        w.clock.call_at(seconds(100), lambda: w.store.set_partitioned("Spine_B", False))
        w.clock.run_until(seconds(90))
        assert via_b not in net.lc_a.short_index  # its service went with the lease
        w.clock.run_until(seconds(200))
        assert [r["node"] for r in w.trace.select("headless_enter")] == ["Spine_B"]
        assert not net.spine_b.headless
        assert len(w.trace.select("registered", "Spine_B")) == 2
        for key in (schema.node_key("fabric", "Spine_B"),
                    schema.service_key("fabric", "Spine_B")):
            assert w.store.get(key).lease_id == net.spine_b.lease1.lease_id
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(b"after-heal"))
        w.clock.run_until(seconds(201))
        assert [f.payload for f in net.delivered] == [b"after-heal"]
        encap = w.trace.select("encap", "LC_A")[-1]["detail"]
        assert (encap["path"], encap["outer_dst"]) == ("policy-steer", "192.168.99.76:17777")
        assert net.spine_b.counts["relay"] == 1

    def test_a_frame_before_any_store_session_waits_for_one(self):
        # the route the frame teaches is owned at once and put by the
        # publish that first succeeds
        w = make_world()
        w.net.add_node("LC_A")
        lc = LinecardRuntime(w, "LC_A", [sloc("192.168.99.77", 5547)],
                             l2_services={1234: ("100:1", "1:1")})
        lc.attach_host(HostPort("H1", "0a:00:00:00:00:88", "10.0.0.88", vnid=1234))
        w.store.set_partitioned("LC_A", True)
        lc.start()
        frame = HostFrame("0a:00:00:00:00:88", "0a:00:00:00:00:99", "10.0.0.88",
                          "10.0.0.99", b"early")
        w.clock.call_at(millis(1), lambda: lc.inject_host_frame("H1", frame))
        w.clock.call_at(seconds(8), lambda: w.store.set_partitioned("LC_A", False))
        w.clock.run_until(seconds(7))
        assert lc.counts["drop_no_route"] == 1 and lc.announced == set()
        w.clock.run_until(seconds(11))
        assert not lc.headless and lc.announced == {"H1"}
        held = w.store.get("/route/2/100:1/1:1/0a:00:00:00:00:88/10.0.0.88")
        assert held.lease_id == lc.lease2.lease_id
        assert len(w.trace.select("type2_announced", "LC_A")) == 1

    def test_a_host_learned_without_a_session_is_announced_by_the_sync_that_puts_it(self):
        # LC_A is cut off past its lease, H3 sends its one frame at 95 s,
        # after the lease is lost, and the keepalive at 120 s registers
        # again, puts H3's route and announces H3
        net = SpineLeaf()
        w, lc = net.world, net.lc_a
        h3 = HostPort("H3", "0a:00:00:00:00:33", "10.0.0.33", vnid=1234)
        lc.attach_host(h3)
        w.clock.call_at(seconds(5), lambda: w.store.set_partitioned("LC_A", True))
        w.clock.call_at(seconds(100), lambda: w.store.set_partitioned("LC_A", False))
        w.clock.call_at(seconds(95), lambda: lc.inject_host_frame("H3", HostFrame(
            h3.mac, "0a:00:00:00:00:99", h3.ip, "10.0.0.99", b"late")))
        key = "/route/2/100:1/1:1/0a:00:00:00:00:33/10.0.0.33"
        w.clock.run_until(seconds(119))
        assert w.store.get(schema.node_key("linecard", "LC_A")) is None
        assert lc.headless and lc.announced == {"H1"} and w.store.get(key) is None
        w.clock.run_until(seconds(200))
        assert w.store.get(key).lease_id == lc.lease2.lease_id
        assert lc.announced == {"H1", "H3"}
        assert [(r["time"], r["detail"]["key"]) for r in w.trace.select(
            "type2_announced", "LC_A") if "0a:00:00:00:00:33" in r["detail"]["key"]] == [
            (seconds(120), key)]

    def test_a_linecard_past_its_lease_reaches_its_hosts_again(self):
        net = SpineLeaf()
        w = net.world
        w.clock.call_at(seconds(5), lambda: w.store.set_partitioned("LC_B", True))
        w.clock.call_at(seconds(100), lambda: w.store.set_partitioned("LC_B", False))
        w.clock.run_until(seconds(200))
        assert not net.lc_b.headless
        assert w.store.get(schema.node_key("linecard", "LC_B")) is not None
        assert w.store.get(schema.service_key("linecard", "LC_B")) is not None
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(b"after-heal"))
        w.clock.run_until(seconds(201))
        assert [f.payload for f in net.delivered] == [b"after-heal"]


class TestReconcile:
    KEEPALIVE = seconds(30)

    def test_a_new_session_puts_every_owned_key_again(self):
        # LC_A's node lease expires while it is cut off from the store, and
        # Spine_C takes its label meanwhile.  Its routes and link-state
        # records outlive that under lease 2; the keepalive at 120 s finds
        # lease 1 lost, replaces it, renews lease 2, registers anew and
        # holds every owned key again under the runtime's leases
        net = SpineLeaf()
        w, lc = net.world, net.lc_a
        w.net.add_node("Spine_C")
        w.net.add_link("Spine_C", "LC_A", millis(0.4))
        w.net.add_link("Spine_C", "LC_B", millis(0.4))
        spine_c = FabricRuntime(w, "Spine_C", [sloc("192.168.99.74", 17777)])
        w.clock.call_at(seconds(5), lambda: w.store.set_partitioned("LC_A", True))
        w.clock.call_at(seconds(70), spine_c.start)
        w.clock.call_at(seconds(100), lambda: w.store.set_partitioned("LC_A", False))
        w.clock.run_until(seconds(119))
        old = (lc.record.system_label, lc.lease1.lease_id, lc.lease2.lease_id)
        assert w.store.get(schema.node_key("linecard", "LC_A")) is None
        assert spine_c.record.system_label == old[0]
        kinds = {key.split("/")[1] for key in lc.owned}
        assert kinds == {"service", "route", "stats"}
        w.clock.run_until(seconds(121))
        assert not lc.headless and lc.record.system_label != old[0]
        leases = {1: lc.lease1.lease_id, 2: lc.lease2.lease_id}
        assert leases[1] != old[1] and leases[2] == old[2]
        for key, (value, lease_class, _) in lc.owned.items():
            held = w.store.get(key)
            assert (held.value, held.lease_id) == (value, leases[lease_class]), key

    def test_a_lost_lease_1_keeps_lease_2(self):
        # LC_A is cut off from 5 s to 100 s, past lease 1 (60 s) but within
        # lease 2 (600 s): its routes and link-state records stay under the
        # lease 2 it held before the cut, and no lease is left empty
        net = SpineLeaf()
        w, lc = net.world, net.lc_a
        w.clock.call_at(seconds(5), lambda: w.store.set_partitioned("LC_A", True))
        w.clock.call_at(seconds(100), lambda: w.store.set_partitioned("LC_A", False))
        w.clock.run_until(seconds(4))
        lease1, lease2 = lc.lease1.lease_id, lc.lease2.lease_id
        w.clock.run_until(seconds(200))
        assert not lc.headless
        assert lc.lease1.lease_id != lease1 and lc.lease2.lease_id == lease2
        assert all(lease.keys for lease in w.store.leases.values()), {
            lid: sorted(lease.keys) for lid, lease in w.store.leases.items()}
        held = {key: lease_id for key, (_, lease_id)
                in TestFaultSchedule.published(w.store, lc).items()
                if not key.startswith("/service/")}
        assert {key.split("/")[1] for key in held} == {"route", "stats"}
        assert set(held.values()) == {lease2}

    def test_an_overwritten_service_is_put_back_within_one_keepalive(self):
        # someone else rewrites LC_B's /service/ record without its first
        # SLoC at 3 s: LC_A stops probing that SLoC until LC_B's keepalive
        # at 30 s puts the full record back
        first, second = sloc("192.168.99.78", 5546), sloc("192.168.99.79", 5546)
        net = SpineLeaf(lc_b_slocs=[first, second])
        w = net.world
        key = schema.service_key("linecard", "LC_B")
        a, x = net.lc_a.slocs[0].short, schema.ServiceSloc("LC_B", first).short
        w.clock.run_until(seconds(3))
        full = w.store.get(key)
        w.store.put(key, schema.service_value([second]))
        w.clock.run_until(seconds(14))
        assert x not in net.lc_a.short_index and (a, x) not in net.lc_a.ls_sync.records
        w.clock.run_until(seconds(3) + self.KEEPALIVE)
        held = w.store.get(key)
        assert (held.value, held.lease_id) == (full.value, full.lease_id)
        assert x in net.lc_a.short_index and (a, x) in net.lc_a.ls_sync.records


class TestFaultSchedule:
    """Seeded faults on SpineLeaf, after deterministic simulation testing
    (FoundationDB, Zhou et al., SIGMOD 2021) and Jepsen's nemesis: store
    partitions, the first past the 60 s node lease, link flaps and loss
    changes, one runtime killed and one live runtime's /service/ record
    overwritten, while H1 sends to H2 every 2 s.  Two keepalive periods
    after the last heal, every live runtime has a session again and the
    store holds exactly the keys it owns."""

    KEEPALIVE = seconds(30)

    def run(self, seed):
        rng = random.Random(seed)
        net = SpineLeaf(seed=seed)
        w = net.world
        at = w.clock.call_at
        heals = []
        for i in range(3):
            name = rng.choice(net.runtimes).name
            start = rng.uniform(1, 120)
            end = start + (rng.uniform(61, 120) if i == 0 else rng.uniform(1, 60))
            at(seconds(start), partial(w.store.set_partitioned, name, True))
            at(seconds(end), partial(w.store.set_partitioned, name, False))
            heals.append(end)
        for _ in range(3):
            link, down = rng.choice(w.net.links), rng.uniform(1, 150)
            heals.append(down + rng.uniform(0.5, 20))
            at(seconds(down), partial(setattr, link, "up", False))
            at(seconds(heals[-1]), partial(setattr, link, "up", True))
        for _ in range(2):
            link = rng.choice(w.net.links)
            at(seconds(rng.uniform(1, 150)), partial(link.set_loss, rng.choice((0.1, 0.5, 0.0))))
        victim = rng.choice(net.runtimes)
        at(seconds(rng.uniform(1, 150)), victim.kill)
        target = rng.choice([rt for rt in net.runtimes if rt is not victim])
        moved = replace(target.slocs[0].sloc, public_port=target.slocs[0].sloc.public_port + 1)
        heals.append(rng.uniform(1, 150))  # the next keepalive mends the overwrite
        at(seconds(heals[-1]), lambda: w.store.put(
            schema.service_key(target.role, target.name), schema.service_value([moved])))
        end = seconds(max(heals)) + 2 * self.KEEPALIVE + seconds(1)
        for t in range(seconds(1), end, seconds(2)):
            at(t, lambda: net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()))
        w.clock.run_until(end)
        return net

    @staticmethod
    def published(store, rt):
        """What the store holds of what rt publishes: its /service/ record,
        its routes and its sessions' link-state records."""
        def of_rt(entry):
            if entry.key.startswith("/route/"):
                return schema.parse_route(entry.key, entry.value).system_name == rt.name
            return entry.key == schema.service_key(rt.role, rt.name) or entry.key.startswith(
                schema.LINKSTATE_PREFIX + rt.name + "|")

        return {e.key: (e.value, e.lease_id) for e in store.get_prefix("/") if of_rt(e)}

    @pytest.mark.parametrize("seed", range(20))
    def test_every_live_runtime_holds_what_it_owns(self, seed):
        net = self.run(seed)
        w = net.world
        live = [rt for rt in net.runtimes if rt.alive]
        assert len(live) == 3
        for rt in live:
            assert not rt.headless, rt.name
            node = w.store.get(schema.node_key(rt.role, rt.name))
            assert node.lease_id == rt.lease1.lease_id, rt.name
            leases = {1: rt.lease1.lease_id, 2: rt.lease2.lease_id}
            assert self.published(w.store, rt) == {
                key: (value, leases[lease_class])
                for key, (value, lease_class, _) in rt.owned.items()}, rt.name
        for lc in (net.lc_a, net.lc_b):
            assert not lc.alive or set(lc.service_dir) >= {rt.name for rt in live}
        again = self.run(seed)
        assert (hashlib.sha256(again.world.trace.to_jsonl().encode()).digest()
                == hashlib.sha256(w.trace.to_jsonl().encode()).digest())


class TestStoreHistory:
    def test_runtimes_started_after_compaction_onboard_and_probe(self):
        """The store keeps no history, so runtimes that start late see only
        the live keys, as after a compaction, and still onboard and probe."""
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(seconds(2))
        for name in ("LC_C", "Spine_C"):
            w.net.add_node(name)
        w.net.add_link("LC_C", "Spine_A", millis(0.3))
        w.net.add_link("LC_C", "Spine_B", millis(0.2))
        w.net.add_link("Spine_C", "LC_A", millis(0.4))
        w.net.add_link("Spine_C", "LC_B", millis(0.4))
        got = []
        lc_c = LinecardRuntime(w, "LC_C", [sloc("192.168.99.79", 5548)], site_id=3,
                               imports_l2={"100:1": 1234},
                               l2_services={1234: ("100:1", "3:1")})
        lc_c.attach_host(HostPort("H5", "0a:00:00:00:00:55", "10.0.0.55", vnid=1234,
                                  deliver=got.append))
        spine_c = FabricRuntime(w, "Spine_C", [sloc("192.168.99.74", 17777)])
        lc_c.start()
        spine_c.start()
        w.clock.run_until(seconds(6))
        assert lc_c.record is not None and spine_c.record is not None

        def probed(rt):
            return {s.peer.system_name for s in rt.sessions.values() if s.outcomes}

        assert probed(lc_c) >= {"Spine_A", "Spine_B", "LC_A", "LC_B"}
        assert probed(spine_c) == {"Spine_A", "Spine_B"}
        assert "Spine_C" in probed(net.lc_a)
        net.lc_a.inject_host_frame("H1", HostFrame(
            "0a:00:00:00:00:88", "0a:00:00:00:00:55", "10.0.0.88", "10.0.0.55", b"late"))
        w.clock.run_until(seconds(7))
        assert [f.payload for f in got] == [b"late"]


class TestTraceMemory:
    def test_steady_frames_add_under_32_bytes_per_trace_record(self):
        """Encap, relay and deliver repeat the same bodies frame after frame,
        and so do the postcards of a T-bit frame, so what a frame leaves
        behind is its (time, body id) records."""
        for t_bit in (False, True):
            net = SpineLeaf()
            w = net.world
            w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
                PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
            w.clock.run_until(seconds(3))
            net.delivered = deque(maxlen=1)  # keep no delivered frame
            frame = net.frame_h1_to_h2(bytes(44))

            def send(frames):
                for _ in range(frames):
                    net.lc_a.inject_host_frame("H1", frame, t_bit=t_bit)
                    w.clock.run_until(w.clock.now + 200_000)  # 5,000 frames/s

            tracemalloc.start()
            try:
                send(2_000)
                records0, traced0 = len(w.trace.records), tracemalloc.get_traced_memory()[0]
                send(6_000)
                records1, traced1 = len(w.trace.records), tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            w.clock.run_until(w.clock.now + millis(5))
            assert net.lc_b.counts["deliver_host"] == 8_000
            assert net.spine_a.counts["relay"] == 8_000
            assert records1 - records0 >= (6 if t_bit else 3) * 6_000
            per_record = (traced1 - traced0) / (records1 - records0)
            assert per_record < 32, (t_bit, per_record)

    def test_forwarded_frames_add_under_32_bytes_per_trace_record(self):
        """LC_B re-encapsulates each End.DT2U frame for H1, who lives behind
        LC_A, towards LC_A; all those encaps share one trace body."""
        net = SpineLeaf()
        w = net.world
        net.lc_a.hosts["H1"].deliver = deque(maxlen=1).append  # keep no frame
        w.clock.run_until(seconds(3))
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.76",
            source_port=17777, segment_list=(srou.Function(1234, srou.FUNC_END_DT2U),),
            segments_left=1)
        wire = srou.encode_header(hdr) + encode_frame(HostFrame(
            "0a:00:00:00:00:99", "0a:00:00:00:00:88", "10.0.0.99", "10.0.0.88", bytes(44)))

        def send(frames):
            for _ in range(frames):
                w.net.send("Spine_B", Datagram("192.168.99.76", 17777,
                                               "192.168.99.78", 5546, wire))
                w.clock.run_until(w.clock.now + 200_000)

        tracemalloc.start()
        try:
            send(1_000)
            records0, traced0 = len(w.trace.records), tracemalloc.get_traced_memory()[0]
            send(5_000)
            records1, traced1 = len(w.trace.records), tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        w.clock.run_until(w.clock.now + millis(5))
        assert net.lc_b.counts["encap"] == 6_000
        assert net.lc_a.counts["deliver_host"] == 6_000
        assert records1 - records0 >= 2 * 5_000
        per_record = (traced1 - traced0) / (records1 - records0)
        assert per_record < 32, per_record
        bodies = [n for n, e in zip(w.trace._node, w.trace._event) if e == "encap"]
        assert bodies == ["LC_B"]

    def test_junk_datagrams_add_under_32_bytes_each(self):
        """A malformed datagram from a peer leaves a count and a (time, body
        id) record, not a trace body of its own."""
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(seconds(3))
        hdr = srou.SRoUHeader(
            protocol_id=srou.ProtocolId.IPV4, source_address="192.168.99.77",
            source_port=5547, segment_list=(srou.Function(1234, srou.FUNC_END_DT2U),),
            segments_left=1)
        junk = srou.encode_header(hdr)[:-2]  # its SRoU Length exceeds the packet

        def send(datagrams):
            for _ in range(datagrams):
                w.net.send("LC_A", Datagram("192.168.99.77", 5547,
                                            "192.168.99.75", 17777, junk))
                w.clock.run_until(w.clock.now + 200_000)

        tracemalloc.start()
        try:
            send(1_000)
            traced0 = tracemalloc.get_traced_memory()[0]
            send(5_000)
            traced1 = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        w.clock.run_until(w.clock.now + millis(5))
        assert net.spine_a.counts["drop_malformed"] == 6_000
        assert (traced1 - traced0) / 5_000 <= 32, (traced1 - traced0) / 5_000


class TestTimers:
    def test_fired_timers_are_released(self):
        net = SpineLeaf()
        clock = net.world.clock
        held = []
        for at in (30, 60, 120):
            clock.run_until(seconds(at))
            held.append(clock.pending(net.lc_a))
        assert 0 < held[2] <= held[0], held

    def test_kill_cancels_pending_timers(self):
        net = SpineLeaf()
        clock = net.world.clock
        clock.run_until(seconds(5))
        assert clock.pending(net.lc_a)
        held_b = clock.pending(net.lc_b)
        net.lc_a.kill()
        assert clock.pending(net.lc_a) == 0
        assert clock.pending(net.lc_b) == held_b > 0
        sent = net.world.net.nodes["LC_A"].tx
        clock.run_until(seconds(30))
        assert net.world.net.nodes["LC_A"].tx == sent

class TestKill:
    def test_kill_stops_every_follow(self):
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(seconds(12))
        lc = net.lc_a
        before = dict(lc.ls_sync.records)
        assert len(before) == 8
        others = len(w.store.watches) - sum(x.client == "LC_A" for x in w.store.watches)
        lc.kill()
        assert len(w.store.watches) == others
        assert not any(x.canceled or x.client == "LC_A" for x in w.store.watches)
        w.clock.run_until(seconds(40))
        assert lc.ls_sync.records == before
        assert net.lc_b.ls_sync.records != before  # the others kept reporting

    def test_kill_stops_a_pending_stun_exchange(self):
        # STUN never gets through, and the linecard is killed while its
        # exchange is still retrying: nothing of it may run afterwards
        w = make_world()
        w.net.add_node("LC_N")
        w.net.add_nat("NAT1", "10.9.9.0/24", "198.51.100.7")
        w.net.add_node("STUN1")
        uplink = w.net.add_link("LC_N", "NAT1", millis(1))
        w.net.add_link("NAT1", "STUN1", millis(1))
        StunRuntime(w, "STUN1", [sloc("203.0.113.9", 3478)]).start()
        lc = LinecardRuntime(w, "LC_N", [sloc("10.9.9.2", 5500)], use_stun=True)
        lc.start()
        w.clock.call_at(millis(1), lambda: setattr(uplink, "up", False))
        w.clock.call_at(millis(500), lc.kill)
        w.clock.run_until(seconds(30))
        events = [r["event"] for r in w.trace.records if r["node"] == "LC_N"]
        assert events[events.index("killed"):] == ["killed"]
        assert w.store.get("/service/linecard/LC_N") is None
        assert not any(x.client == "LC_N" for x in w.store.watches)


    def test_a_frame_offered_to_a_dead_linecard_is_counted_once(self):
        net = SpineLeaf()
        w = net.world
        w.clock.run_until(seconds(5))
        net.lc_a.kill()
        delivered = len(net.delivered)

        def counters():
            out = Counter()
            for rt in net.runtimes:
                out.update({(rt.name, k): n for k, n in rt.counts.items()})

            def walk(path, value):
                if isinstance(value, dict):
                    for k, v in value.items():
                        walk(path + (k,), v)
                elif isinstance(value, int):
                    out[path] = value

            walk(("net",), w.net.counters())
            return out

        before = counters()
        for i in range(7):
            assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(bytes([i]))) is None
        after = counters()
        after.subtract(before)
        assert {k: n for k, n in after.items() if n} == {("LC_A", "drop_not_alive"): 7}
        w.clock.run_until(seconds(6))
        assert len(net.delivered) == delivered


class TestLsdbReplica:
    def test_lsdb_mirrors_the_store_and_te_reads_it(self):
        net = SpineLeaf()
        w = net.world
        w.net.add_node("LS")
        w.net.add_link("LS", "Spine_A", millis(1))
        ls = LsdbRuntime(w, "LS", [sloc("10.0.0.31", 6379)])
        ls.start()
        w.net.link_between("LC_B", "Spine_B").set_loss(0.5)
        w.clock.run_until(seconds(30))

        def stored():
            return dict(schema.parse_linkstate(e.key, e.value)
                        for e in w.store.get_prefix(schema.LINKSTATE_PREFIX))

        before = stored()
        assert len(before) == 8  # LC->LC and LC->spine both ways, spine<->spine
        assert ls.ls_sync.records == before == net.lc_a.ls_sync.records
        net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(b"around"))
        w.clock.run_until(seconds(31))
        assert [f.payload for f in net.delivered] == [b"around"]
        assert "sla_unmet_direct" not in net.lc_a.counts
        chosen = w.trace.select("path_selected", "LC_A")[-1]["detail"]
        assert chosen["source"] == "engineered"
        assert chosen["waypoints"][0] == "Spine_A|inet|192.168.99.75:17777"
        mirrored = dict(ls.ls_sync.records)
        ls.kill()
        # a record is put again only when its figures change: make some change
        w.net.link_between("LC_A", "Spine_A").set_loss(0.5)
        w.clock.run_until(seconds(60))
        after = stored()
        a_spine_a = {pair for pair in before
                     if {p.split("|")[0] for p in pair} == {"LC_A", "Spine_A"}}
        assert a_spine_a and all(after[pair] != before[pair] for pair in a_spine_a)
        assert net.lc_a.ls_sync.records == after
        assert ls.ls_sync.records == mirrored  # a killed replica stops mirroring


class TestServiceDirectory:
    def test_reannounce_drops_replaced_shorts(self):
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
        w.clock.run_until(millis(5))
        spine = net.spine_a
        spine.handle.put(schema.service_key("fabric", "Spine_A"),
                         schema.service_value([sloc("192.168.99.75", 17778)]),
                         spine.lease1.lease_id)
        w.clock.run_until(millis(10))
        assert sorted(s for s in net.lc_a.short_index if s.startswith("Spine_A")) == [
            "Spine_A|inet|192.168.99.75:17778"]
        assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()) is None
        assert net.lc_a.counts["drop_steer_unresolved"] == 1

    def test_steer_toward_a_system_with_no_service_is_unresolved(self):
        # the waypoint is announced, but the destination's /service/ record
        # is gone, so no steered path can end at it
        net = SpineLeaf()
        w = net.world
        w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
            PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
        w.clock.run_until(millis(5))
        assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2(b"steered")) is not None
        w.clock.run_until(millis(10))
        assert [f.payload for f in net.delivered] == [b"steered"]
        w.store.delete(schema.service_key("linecard", "LC_B"))
        w.clock.run_until(millis(15))
        assert "LC_B" not in net.lc_a.service_dir
        assert net.lc_a.inject_host_frame("H1", net.frame_h1_to_h2()) is None
        w.clock.run_until(millis(20))
        assert net.lc_a.counts["drop_steer_unresolved"] == 1
        assert [f.payload for f in net.delivered] == [b"steered"]


class TestRegistration:
    def test_junk_node_records_do_not_block_onboarding(self):
        w = make_world()
        w.net.add_node("F1")
        w.store.put("/node/fabric/X", b"garbage")
        w.store.put("/node/bogus/X", schema.to_json_bytes({"system_label": 0}))
        f1 = FabricRuntime(w, "F1", [sloc("10.0.0.1", 17777)])
        f1.start()
        w.clock.run_until(seconds(1))
        assert f1.record is not None and f1.record.system_label == 0
        assert w.store.get(schema.service_key("fabric", "F1")) is not None

    def test_a_name_another_record_holds_waits_for_it_to_go(self):
        # a restarted node finds the record of its previous life, whose
        # lease runs until 12 s; and while Spine_B is cut off past its own
        # lease, another record takes its name until 170 s, past the
        # keepalives at 120 s and 150 s that try to register again
        w = make_world()
        w.net.add_node("F1")
        lease = w.store.grant_lease(seconds(12))
        w.store.put(schema.node_key("fabric", "F1"), b"stale", lease.lease_id)
        f1 = FabricRuntime(w, "F1", [sloc("10.0.0.1", 17777)])
        f1.start()
        w.clock.run_until(seconds(11))
        assert f1.headless and f1.record is None
        w.clock.run_until(seconds(16))
        assert not f1.headless and f1.record.system_label == 0
        net = SpineLeaf()
        w = net.world
        w.clock.call_at(seconds(5), lambda: w.store.set_partitioned("Spine_B", True))
        w.clock.call_at(seconds(70), lambda: w.store.put(
            schema.node_key("fabric", "Spine_B"), b"other",
            w.store.grant_lease(seconds(100)).lease_id))
        w.clock.call_at(seconds(100), lambda: w.store.set_partitioned("Spine_B", False))
        w.clock.run_until(seconds(169))
        assert net.spine_b.headless and net.spine_b.record is None
        w.clock.run_until(seconds(181))
        assert not net.spine_b.headless
        assert w.store.get(schema.service_key("fabric", "Spine_B")) is not None

    def test_a_held_name_costs_no_lease_per_retry(self):
        # a stale record holds F1's name for 300 s; F1 retries every 5 s
        # under the two leases of its first try, which each retry renews
        w = make_world()
        w.net.add_node("F1")
        stale = w.store.grant_lease(seconds(300))
        w.store.put(schema.node_key("fabric", "F1"), b"stale", stale.lease_id)
        f1 = FabricRuntime(w, "F1", [sloc("10.0.0.1", 17777)])
        f1.start()
        w.clock.run_until(seconds(299))
        assert f1.headless and f1.record is None
        assert sorted(w.store.leases) == [stale.lease_id, f1.lease1.lease_id,
                                          f1.lease2.lease_id]
        w.clock.run_until(seconds(306))
        assert not f1.headless and f1.record.system_label == 0
        assert w.store.get(schema.node_key("fabric", "F1")).lease_id == f1.lease1.lease_id
        assert len(w.store.leases) == 2


class TestConservation:
    def test_every_link_direction_conserves_datagrams(self):
        """sent >= delivered + lost + dropped on every link direction while
        traffic is in flight, and sent == delivered + lost + dropped once the
        clock runs dry."""
        seen = Counter()
        for seed in range(20):
            rng = random.Random(seed)
            net = SpineLeaf(seed=seed)
            w = net.world
            for link in w.net.links:
                link.set_loss(rng.uniform(0.0, 0.2))
            cut = w.net.link_between("LC_B", "Spine_A")
            w.clock.call_at(seconds(2) + rng.randrange(seconds(1)),
                            lambda cut=cut: setattr(cut, "up", False))
            h2_to_h1 = HostFrame("0a:00:00:00:00:99", "0a:00:00:00:00:88",
                                 "10.0.0.99", "10.0.0.88", b"back" * 50)
            for _ in range(30):  # bursts of 5 frames, both ways
                at = millis(500) + rng.randrange(seconds(3))
                lc, host, frame = rng.choice([
                    (net.lc_a, "H1", net.frame_h1_to_h2(b"forth" * 40)),
                    (net.lc_b, "H2", h2_to_h1)])
                for _ in range(5):
                    w.clock.call_at(at, lambda lc=lc, host=host, frame=frame:
                                    lc.inject_host_frame(host, frame))

            def check():
                for link in w.net.links:
                    for st in link.dirs.values():
                        accounted = st.delivered + st.lost + st.dropped
                        assert st.sent >= accounted, (seed, link.a, link.b)
                        seen["in_flight"] += st.sent > accounted

            for ms in range(500, 3600):
                w.clock.call_at(millis(ms), check)
            w.clock.run_until(seconds(4))
            for rt in net.runtimes:
                rt.kill()
            w.clock.run_until_quiescent()
            for link in w.net.links:
                for st in link.dirs.values():
                    assert st.sent == st.delivered + st.lost + st.dropped, (
                        seed, link.a, link.b)
                    seen["lost"] += st.lost
                    seen["dropped"] += st.dropped  # sent while the link was down
        assert all(seen[k] > 0 for k in ("in_flight", "lost", "dropped")), seen
