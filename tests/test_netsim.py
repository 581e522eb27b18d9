"""Simulator: clock ordering, link delivery math, NAT translation, determinism."""

import gc
import ipaddress
import json
import random

import pytest

from ruta import netsim
from ruta.netsim import (
    Datagram,
    Network,
    SimError,
    SimNat,
    Trace,
    VirtualClock,
    millis,
    seconds,
)

import wiregen


def star(seed=0, **link_kw):
    """client -- hub -- server topology with addresses bound."""
    clock = VirtualClock()
    net = Network(clock, Trace(), seed=seed)
    for n in ("client", "hub", "server"):
        net.add_node(n)
    net.add_link("client", "hub", millis(10), **link_kw)
    net.add_link("hub", "server", millis(30))
    inbox = []
    net.bind("client", "10.0.0.1", 1000, lambda p: inbox.append(("client", clock.now, p)))
    net.bind("server", "10.0.0.2", 2000, lambda p: inbox.append(("server", clock.now, p)))
    return clock, net, inbox


class TestClock:
    def test_equal_times_run_in_schedule_order(self):
        clock = VirtualClock()
        order = []
        clock.call_at(100, lambda: order.append("a"))
        clock.call_at(100, lambda: order.append("b"))
        clock.call_at(50, lambda: order.append("c"))
        clock.run_until(200)
        assert order == ["c", "a", "b"]

    def test_run_until_quiescent(self):
        clock = VirtualClock()
        times = []

        def outer():
            times.append(clock.now)
            clock.call_at(clock.now + 5, lambda: times.append(clock.now), "nested")

        clock.call_at(10, outer, "outer")
        assert clock.run_until_quiescent() == ["outer", "nested"]
        assert times == [10, 15]
        assert clock.now == 15

    def test_a_run_returns_same_instant_labels_in_scheduling_order(self):
        clock = VirtualClock()
        for label in ("b", "a", "c"):
            clock.call_at(100, lambda: None, label)
        clock.call_at(50, lambda: None, "first")
        clock.call_at(300, lambda: None, "later")
        ran = clock.run_until(200)
        assert ran == ["first", "b", "a", "c"]
        assert len(ran) == 4 and clock.pending() == 1
        assert clock.run_until(200) == [] and clock.now == 200

    def test_cancel(self):
        clock = VirtualClock()
        fired = []
        seq = clock.call_at(10, lambda: fired.append(1))
        kept = clock.call_at(10, lambda: fired.append(2), "kept")
        clock.cancel(seq)
        assert clock.pending() == 1
        ran = clock.run_until(20)
        assert fired == [2]
        assert ran == ["kept"]  # a canceled event is not counted
        clock.cancel(kept)  # ran already: a no-op
        clock.cancel(12345)  # never scheduled: a no-op
        assert clock.pending() == 0

    def test_cancel_owned_cancels_only_that_owners_pending_events(self):
        clock = VirtualClock()
        fired = []
        mine, other = object(), object()
        clock.call_at(10, lambda: fired.append("mine@10"), owner=mine)
        clock.call_at(10, lambda: fired.append("other@10"), owner=other)
        clock.call_at(30, lambda: fired.append("mine@30"), "x", owner=mine)
        clock.call_at(40, lambda: fired.append("nobody@40"))
        clock.run_until(20)
        clock.cancel_owned(mine)
        assert clock.pending() == 1
        clock.run_until(50)
        assert fired == ["mine@10", "other@10", "nobody@40"]

    def test_no_scheduling_in_past(self):
        clock = VirtualClock()
        clock.run_until(100)
        with pytest.raises(Exception):
            clock.call_at(50, lambda: None)

    def test_same_seed_same_trace(self):
        def run():
            clock, net, inbox = star(seed=7, loss=0.3)
            for i in range(100):
                clock.call_at(i * millis(1), lambda i=i: net.send(
                    "client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, bytes([i]))))
            trace = clock.run_until_quiescent()
            return trace, clock.now, [(who, t, p.payload) for who, t, p in inbox]

        assert run() == run()


class DictTrace:
    """The trace that kept one dict per record: the reference for Trace."""

    def __init__(self):
        self.records = []

    def emit(self, time, node, event, **detail):
        self.records.append({"time": time, "node": node, "event": event, "detail": detail})

    def select(self, event, node=None):
        return [r for r in self.records
                if r["event"] == event and (node is None or r["node"] == node)]

    def to_jsonl(self):
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records) + "\n"


class TestArgumentChecks:
    @pytest.mark.parametrize("wire", [
        lambda net: net.add_node("hub"),
        lambda net: net.add_address("hub", "10.0.0.1"),  # client's
        lambda net: net.add_link("hub", "nowhere", millis(1)),
        lambda net: net.add_link("nowhere", "hub", millis(1)),
    ], ids=["duplicate-node", "owned-address", "unknown-b", "unknown-a"])
    def test_wiring_rejects(self, wire):
        clock, net, inbox = star()
        with pytest.raises(SimError):
            wire(net)

    def test_a_link_delay_below_zero_cannot_schedule(self):
        clock, net, inbox = star()
        net.link_between("client", "hub").delay_ab = -1
        with pytest.raises(SimError, match="before now"):
            net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))

    def test_run_until_quiescent_stops_a_runaway(self, monkeypatch):
        monkeypatch.setattr(netsim, "MAX_QUIESCENT_EVENTS", 50)
        clock = VirtualClock()

        def again():
            clock.call_at(clock.now + 1, again)

        clock.call_at(0, again)
        with pytest.raises(SimError, match="exceeded 50 events"):
            clock.run_until_quiescent()
        assert clock.now == 49


class TestTrace:
    def test_columns_read_back_as_the_dict_records(self):
        rng = random.Random(11)
        nodes, events = ["LC_A", "LC_B", "Spine_A"], ["encap", "relay", "path_selected"]
        new, ref = Trace(), DictTrace()
        assert new.records == ref.records and new.to_jsonl() == ref.to_jsonl()
        for t in range(400):
            node, event = rng.choice(nodes), rng.choice(events)
            if event == "path_selected":
                detail = {"dst": f"2/{t}", "waypoints": [rng.choice(nodes) for _ in range(2)],
                          "cost_ms": round(rng.random() * 9, 3)}
            else:
                detail = {"sl": rng.randrange(3), "flow_id": rng.getrandbits(32),
                          "to": None if t % 7 else "10.0.0.1:7"}
            new.emit(t * 1000, node, event, **detail)
            ref.emit(t * 1000, node, event, **detail)
        new.emit(400_000, "LC_A", "killed")
        ref.emit(400_000, "LC_A", "killed")
        assert new.records == ref.records
        for event in events + ["killed", "absent"]:
            assert new.select(event) == ref.select(event)
            for node in nodes + ["absent"]:
                assert new.select(event, node) == ref.select(event, node)
        assert new.to_jsonl() == ref.to_jsonl()

    def test_registered_bodies_read_back_as_the_dict_records(self):
        rng = random.Random(13)
        nodes, events = ["LC_A", "Spine_A"], ["encap", "relay"]
        # equal as keys, different in JSON: a body registry must not merge them
        values = [1, True, 1.0, 0, False, 0.0, -0.0, None, "1"]
        new, ref = Trace(), DictTrace()
        bodies = []
        for t in range(600):
            node, event = rng.choice(nodes), rng.choice(events)
            detail = {"v": rng.choice(values), "sl": rng.randrange(2)}
            if bodies and rng.random() < 0.6:
                body, node, event, detail = rng.choice(bodies)
                new.append(t, body)
            elif rng.random() < 0.5:
                bodies.append((new.body(node, event, **detail), node, event, detail))
                new.append(t, bodies[-1][0])
            else:
                new.emit(t, node, event, **detail)
            ref.emit(t, node, event, **detail)
        assert repr(new.records) == repr(ref.records)
        for event in events + ["absent"]:
            assert repr(new.select(event)) == repr(ref.select(event))
            for node in nodes + ["absent"]:
                assert repr(new.select(event, node)) == repr(ref.select(event, node))
        assert new.to_jsonl() == ref.to_jsonl()

    def test_a_read_detail_is_the_readers_own(self):
        trace = Trace()
        relay = trace.body("Spine_A", "relay", to="10.0.0.1:7", sl=1)
        trace.append(5, relay)
        trace.emit(6, "LC_A", "encap", sl=2)
        trace.append(7, relay)
        want = trace.records
        for rec in trace.select("relay") + trace.select("encap", "LC_A") + trace.records:
            rec["detail"]["sl"] = 99
            rec["detail"]["extra"] = True
        assert trace.records == want
        assert [r["detail"] for r in trace.select("relay")] == [{"to": "10.0.0.1:7", "sl": 1}] * 2

    def test_records_of_atomic_values_are_not_gc_tracked(self):
        trace = Trace()
        gc.collect()
        before = len(gc.get_objects())
        for i in range(10_000):
            trace.emit(i, "LC_A", "encap", dst="2/100:1/aa", sl=i % 3, flow_id=i,
                       cost_ms=i / 7, path="direct", args=None)
        gc.collect()
        assert len(gc.get_objects()) - before < 100
        assert len(trace.records) == 10_000

    def test_len_counts_records_without_building_them(self, monkeypatch):
        trace = Trace()
        relay = trace.body("Spine_A", "relay", sl=1)
        for t in range(5):
            trace.append(t, relay)
            trace.emit(t, "LC_A", "encap", sl=t)
            assert len(trace) == len(trace.records) == 2 * t + 2
        monkeypatch.setattr(Trace, "_records", lambda self, wanted=None: 1 / 0)
        assert len(trace) == 10

    @staticmethod
    def assert_reads_as(new, ref, events=("encap", "relay"), nodes=("LC_A", "Spine_A")):
        assert len(new) == len(ref.records)
        assert new.records == ref.records
        for event in events:
            assert new.select(event) == ref.select(event)
            for node in nodes:
                assert new.select(event, node) == ref.select(event, node)
        assert new.to_jsonl() == ref.to_jsonl()

    def test_body_ids_past_one_and_two_bytes_widen_their_column(self):
        new, ref = Trace(), DictTrace()
        bodies = []
        for i in range(70_000):
            node, event = ("LC_A", "Spine_A")[i % 2], ("encap", "relay")[i % 3 % 2]
            bodies.append((new.body(node, event, sl=i), node, event))
        widths = []
        for t, i in enumerate([0, 255, 256, 1, 65_535, 65_536, 255, 69_999]):
            body, node, event = bodies[i]
            new.append(t * 250_000, body)
            ref.emit(t * 250_000, node, event, sl=i)
            widths.append(new._body.typecode)
        assert widths == ["B", "B", "H", "H", "H", "I", "I", "I"]
        assert new._gap.typecode == "I"
        self.assert_reads_as(new, ref)

    @pytest.mark.parametrize("times, width", [
        ([0, 2**32 - 1, 2**33 - 2, 2**33], "I"),  # gaps of 2**32 - 1 ns
        ([5, 2**32 + 5, 2**32 + 6, 2**32 + 6], "q"),  # a gap of 2**32 ns
        ([2**32, 2**32 + 1], "q"),  # the first gap is the first time
        ([10, 20, 15, 30, 30], "q"),  # a time before the last record's
        ([-1, 0, 1], "q"),
    ])
    def test_gaps_read_back_as_the_times_given(self, times, width):
        new, ref = Trace(), DictTrace()
        relay = new.body("Spine_A", "relay", sl=1)
        for i, t in enumerate(times):
            if i % 2:
                new.append(t, relay)
                ref.emit(t, "Spine_A", "relay", sl=1)
            else:
                new.emit(t, "LC_A", "encap", sl=i)
                ref.emit(t, "LC_A", "encap", sl=i)
        assert (new._gap.typecode, new._body.typecode) == (width, "B")
        self.assert_reads_as(new, ref)

    def test_a_value_past_int64_raises_overflow_error(self):
        with pytest.raises(OverflowError):
            Trace().append(0, 2**63)
        with pytest.raises(OverflowError):
            Trace().append(2**63, 0)

    def test_a_network_keeps_the_empty_trace_it_is_given(self):
        trace = Trace()
        assert len(trace) == 0
        assert Network(VirtualClock(), trace).trace is trace
        assert isinstance(Network(VirtualClock()).trace, Trace)


class TestLinks:
    def test_exact_delay(self):
        clock, net, inbox = star()
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        clock.run_until_quiescent()
        # two hops: 10ms + 30ms
        assert inbox == [("server", millis(40), inbox[0][2])]

    def test_total_loss(self):
        clock, net, inbox = star(loss=1.0)
        for _ in range(20):
            net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        clock.run_until_quiescent()
        assert inbox == []
        link = net.link_between("client", "hub")
        assert link.counters()["client->hub"]["lost"] == 20

    def test_no_link_between_nodes_a_link_does_not_join(self):
        clock, net, inbox = star()
        assert net.link_between("client", "hub") is net.link_between("hub", "client")
        assert net.link_between("client", "server") is None

    def test_seeded_loss_reproducible(self):
        delivered = []
        for _ in range(2):
            clock, net, inbox = star(seed=5, loss=0.05)
            for i in range(10_000):
                clock.call_at(i * 1000, lambda i=i: net.send(
                    "client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"y")))
            clock.run_until_quiescent()
            delivered.append(len(inbox))
        assert delivered[0] == delivered[1]
        assert 9_300 < delivered[0] < 9_700

    def test_link_down_counts_drop(self):
        clock, net, inbox = star()
        net.link_between("client", "hub").up = False
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        clock.run_until_quiescent()
        assert inbox == []
        assert net.link_between("client", "hub").counters()["client->hub"]["dropped"] == 1

    def test_conservation(self):
        clock, net, inbox = star(seed=3, loss=0.2)
        for i in range(500):
            clock.call_at(i * 1000, lambda: net.send(
                "client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"z")))
        clock.run_until_quiescent()
        for link in net.links:
            for c in link.counters().values():
                assert c["sent"] == c["delivered"] + c["lost"] + c["dropped"]

    def test_asymmetric_delay(self):
        clock = VirtualClock()
        net = Network(clock, seed=0)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", millis(10), millis(30))
        got = []
        net.bind("a", "10.0.0.1", 1, lambda p: got.append(("a", clock.now)))
        net.bind("b", "10.0.0.2", 1, lambda p: got.append(("b", clock.now)))
        net.send("a", Datagram("10.0.0.1", 1, "10.0.0.2", 1, b"req"))
        clock.run_until_quiescent()
        net.send("b", Datagram("10.0.0.2", 1, "10.0.0.1", 1, b"resp"))
        clock.run_until_quiescent()
        assert got == [("b", millis(10)), ("a", millis(40))]


class TestUnderlayRouting:
    def test_min_hop_then_delay_then_name(self):
        clock = VirtualClock()
        net = Network(clock, seed=0)
        for n in ("lca", "lcb", "sa", "sb"):
            net.add_node(n)
        net.add_link("lca", "sa", millis(3))
        net.add_link("lca", "sb", millis(2))
        net.add_link("lcb", "sa", millis(3))
        net.add_link("lcb", "sb", millis(2))
        got = []
        net.bind("lcb", "10.0.0.2", 1, lambda p: got.append(clock.now))
        net.bind("lca", "10.0.0.1", 1, lambda p: None)
        net.send("lca", Datagram("10.0.0.1", 1, "10.0.0.2", 1, b"x"))
        clock.run_until_quiescent()
        assert got == [millis(4)]  # via sb (cheaper), not sa

    @pytest.mark.parametrize("delays, arrival, carrier", [
        ((10, 1), 1, 1),   # the faster link carries, though added second
        ((1, 10), 1, 0),
        ((5, 5), 5, 0),    # equal delays: the link added first
    ])
    def test_parallel_links_forward_on_the_chosen_link(self, delays, arrival, carrier):
        clock = VirtualClock()
        net = Network(clock, seed=0)
        net.add_node("a")
        net.add_node("b")
        links = [net.add_link("a", "b", millis(d)) for d in delays]
        got = []
        net.bind("b", "10.0.0.2", 1, lambda p: got.append(clock.now))
        net.add_address("a", "10.0.0.1")
        net.send("a", Datagram("10.0.0.1", 1, "10.0.0.2", 1, b"x"))
        clock.run_until_quiescent()
        assert got == [millis(arrival)]
        assert [link.counters()["a->b"]["sent"] for link in links] == [
            int(i == carrier) for i in range(2)]

    def test_runtime_loss_change_applies_on_the_routed_direction(self):
        clock, net, inbox = star()
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        clock.run_until_quiescent()
        net.link_between("hub", "server").loss_ab = 1.0
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"y"))
        net.send("server", Datagram("10.0.0.2", 2000, "10.0.0.1", 1000, b"z"))
        clock.run_until_quiescent()
        assert [(who, p.payload) for who, _, p in inbox] == [
            ("server", b"x"), ("client", b"z")]
        assert net.link_between("hub", "server").counters()["hub->server"]["lost"] == 1

    def test_an_address_gains_an_owner_after_a_send_to_it(self):
        clock, net, inbox = star()

        def send(ip):
            net.send("client", Datagram("10.0.0.1", 1000, ip, 2000, b"x"))
            clock.run_until_quiescent()

        send("10.0.0.9")
        assert net.nodes["client"].drops == {"no_route": 1}
        net.bind("server", "10.0.0.9", 2000, lambda p: inbox.append(("new", clock.now, p)))
        send("10.0.0.9")
        assert [who for who, _, _ in inbox] == ["new"]
        send("10.0.0.8")
        net.add_address("server", "10.0.0.8")
        send("10.0.0.8")
        assert net.nodes["client"].drops == {"no_route": 2}
        assert net.nodes["server"].drops == {"no_listener": 1}

    def test_a_used_route_moves_to_a_shorter_path_after_add_link(self):
        clock, net, inbox = star()
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        net.send("server", Datagram("10.0.0.2", 2000, "10.0.0.1", 1000, b"y"))
        clock.run_until_quiescent()
        direct = net.add_link("client", "server", millis(5))
        t0 = clock.now
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        net.send("server", Datagram("10.0.0.2", 2000, "10.0.0.1", 1000, b"y"))
        clock.run_until_quiescent()
        assert [(who, t - t0) for who, t, _ in inbox[2:]] == [
            ("server", millis(5)), ("client", millis(5))]
        assert {d: c["delivered"] for d, c in direct.counters().items()} == {
            "client->server": 1, "server->client": 1}

    def test_a_delay_edit_applies_to_the_next_datagram(self):
        clock, net, inbox = star()
        link = net.link_between("client", "hub")
        for delay_ab, delay_ba in ((millis(10), millis(10)), (millis(2), millis(7))):
            link.delay_ab, link.delay_ba = delay_ab, delay_ba
            t0 = clock.now
            net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
            clock.run_until_quiescent()
            net.send("server", Datagram("10.0.0.2", 2000, "10.0.0.1", 1000, b"y"))
            clock.run_until_quiescent()
            assert [t - t0 for _, t, _ in inbox[-2:]] == [
                delay_ab + millis(30), delay_ab + millis(60) + delay_ba]


class TestNat:
    def build(self):
        clock = VirtualClock()
        net = Network(clock, seed=0)
        net.add_node("inside_host")
        net.add_nat("nat", "10.9.9.0/24", "198.51.100.7")
        net.add_node("outside")
        net.add_link("inside_host", "nat", millis(1))
        net.add_link("nat", "outside", millis(1))
        seen = []
        net.bind("outside", "203.0.113.1", 7000, lambda p: seen.append(p))
        net.bind("inside_host", "10.9.9.2", 6000, lambda p: seen.append(p))
        return clock, net, seen

    def test_outbound_mapping_port_allocation(self):
        clock, net, seen = self.build()
        net.send("inside_host", Datagram("10.9.9.2", 6000, "203.0.113.1", 7000, b"x"))
        clock.run_until_quiescent()
        assert seen[0].src_ip == "198.51.100.7"
        assert seen[0].src_port == 40000
        nat = net.nodes["nat"].nat
        assert nat.mapping_table() == {"10.9.9.2:6000": 40000}

    def test_mapping_reused_and_inverse(self):
        clock, net, seen = self.build()
        net.send("inside_host", Datagram("10.9.9.2", 6000, "203.0.113.1", 7000, b"a"))
        net.send("inside_host", Datagram("10.9.9.2", 6000, "203.0.113.1", 7000, b"b"))
        clock.run_until_quiescent()
        assert {p.src_port for p in seen} == {40000}
        seen.clear()
        net.send("outside", Datagram("203.0.113.1", 7000, "198.51.100.7", 40000, b"r"))
        clock.run_until_quiescent()
        assert seen[0].dst_ip == "10.9.9.2" and seen[0].dst_port == 6000

    def test_unmapped_inbound_drops(self):
        clock, net, seen = self.build()
        net.send("outside", Datagram("203.0.113.1", 7000, "198.51.100.7", 49999, b"r"))
        clock.run_until_quiescent()
        assert seen == []
        assert net.nodes["nat"].drops == {"no_mapping": 1}

    def test_an_outside_source_passes_untranslated(self):
        # a datagram not addressed to the public IP whose source lies outside
        # the inside prefix crosses the NAT as it is, and maps nothing
        clock, net, seen = self.build()
        pkt = Datagram("203.0.113.1", 7000, "10.9.9.2", 6000, b"in")
        net.send("outside", pkt)
        clock.run_until_quiescent()
        nat = net.nodes["nat"].nat
        assert seen == [pkt]
        assert (nat.translated_out, nat.translated_in, nat.mapping_table()) == (0, 0, {})
        assert net.nodes["nat"].drops == {}

    def test_second_source_next_port(self):
        clock, net, seen = self.build()
        net.bind("inside_host", "10.9.9.3", 6000, lambda p: None)
        net.send("inside_host", Datagram("10.9.9.2", 6000, "203.0.113.1", 7000, b"x"))
        net.send("inside_host", Datagram("10.9.9.3", 6000, "203.0.113.1", 7000, b"y"))
        clock.run_until_quiescent()
        nat = net.nodes["nat"].nat
        assert nat.mapping_table() == {"10.9.9.2:6000": 40000, "10.9.9.3:6000": 40001}

    def test_inside_check_matches_ipaddress_reference(self):
        rng = random.Random(11)
        nats = [SimNat("n", cidr, "198.51.100.7")
                for cidr in ("10.9.9.0/24", "0.0.0.0/0", "10.9.9.9/32", "fd00::/8", "::/0")]
        for _ in range(1_000):
            kind = rng.randrange(4)
            if kind == 0:
                ip = f"10.9.{rng.choice((9, 8))}.{rng.randrange(256)}"
            elif kind == 1:
                ip = wiregen.random_ipv4(rng)
            elif kind == 2:
                ip = rng.choice(("fd00::1", "::ffff:10.9.9.1")) if rng.random() < 0.3 \
                    else wiregen.random_ipv6(rng)
            else:
                ip = rng.choice(("10.9.9", "10.9.9.256", "010.9.9.1", "10.9.9.1\x00",
                                 "", " 10.9.9.1", "10.9.9.1/32", "x"))
            for nat in nats:
                try:
                    want = ipaddress.ip_address(ip) in nat.inside_net
                except ValueError:
                    with pytest.raises(ValueError):
                        nat._is_inside(ip)
                else:
                    assert nat._is_inside(ip) == want, (ip, nat.inside_net)


class TestNodeLifecycle:
    def test_killed_node_drops(self):
        clock, net, inbox = star()
        net.kill("server")
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 2000, b"x"))
        clock.run_until_quiescent()
        assert inbox == []
        assert net.nodes["server"].drops.get("not_alive") == 1

    def test_no_listener(self):
        clock, net, inbox = star()
        net.send("client", Datagram("10.0.0.1", 1000, "10.0.0.2", 9999, b"x"))
        clock.run_until_quiescent()
        assert net.nodes["server"].drops.get("no_listener") == 1


def drops_counted(net) -> int:
    """The sum of every drop counter `Network.counters()` reports: each
    link direction's lost and dropped, each node's drops by reason, and any
    NAT counter named for a drop."""
    def total(doc, counted=False):
        if isinstance(doc, dict):
            return sum(total(v, counted or k == "lost" or k.startswith("drop"))
                       for k, v in doc.items())
        return doc if counted else 0

    return total(net.counters())


class TestDropCounts:
    def test_each_datagram_is_delivered_or_counted_once(self):
        clock = VirtualClock()
        net = Network(clock, Trace(), seed=0)
        for n in ("inside", "outside", "far", "lossy", "dead", "island"):
            net.add_node(n)
        net.add_nat("nat", "10.9.9.0/24", "198.51.100.7")
        net.add_link("inside", "nat", millis(1))
        net.add_link("nat", "outside", millis(1))
        net.add_link("outside", "far", millis(1)).up = False
        net.add_link("outside", "lossy", millis(1), loss=1.0)
        net.add_link("outside", "dead", millis(1))
        inbox = []
        for node, ip in (("inside", "10.9.9.2"), ("outside", "203.0.113.1"),
                         ("far", "203.0.113.2"), ("lossy", "203.0.113.3"),
                         ("dead", "203.0.113.4"), ("island", "203.0.113.5")):
            net.bind(node, ip, 7000, inbox.append)
        net.kill("dead")

        def to(ip, port=7000, src="203.0.113.1"):
            return Datagram(src, 7000, ip, port, b"x")

        sends = [
            ("inside", to("203.0.113.1", src="10.9.9.2")),  # delivered through the NAT
            ("outside", to("198.51.100.7", 40000)),  # delivered back to the mapping
            ("outside", to("203.0.113.2")),          # link down
            ("outside", to("203.0.113.3")),          # lost on the link
            ("outside", to("198.51.100.7", 49999)),  # no NAT mapping
            ("outside", to("203.0.113.4")),          # arrives at a killed node
            ("dead", to("203.0.113.1", src="203.0.113.4")),  # sent by a killed node
            ("outside", to("203.0.113.1", 9)),       # no listener
            ("outside", to("192.0.2.1")),            # no owner
            ("outside", to("203.0.113.5")),          # owner out of reach
        ]
        for node, pkt in sends:
            drops, delivered = drops_counted(net), len(inbox)
            net.send(node, pkt)
            clock.run_until_quiescent()
            assert (drops_counted(net) - drops) + (len(inbox) - delivered) == 1, pkt
        assert len(inbox) == 2
        counters = net.counters()
        assert counters["links"]["outside--far"]["outside->far"]["dropped"] == 1
        assert counters["links"]["outside--lossy"]["outside->lossy"]["lost"] == 1
        assert {reason for node in counters["nodes"].values() for reason in node["drops"]} == {
            "no_mapping", "not_alive", "no_listener", "no_route"}
