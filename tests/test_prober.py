"""Link prober: TWAMP math, loss/jitter estimators, responder, STUN exchange."""

import gc
import json
import random
from collections import deque
from dataclasses import fields as fields_of

import pytest

from ruta import prober, schema, srou
from ruta.dataplane import (FabricRuntime, LinecardRuntime, ProbeConfig,
                            StunRuntime, World)
from ruta.kvstore import KvStore
from ruta.netsim import Datagram, Network, Trace, VirtualClock, millis, seconds
from ruta.prober import LOST, ProbeResponder, ProbeSession
from ruta.schema import ServiceSloc, Sloc, SlocLoadRecord

import srouref


def service_sloc(name, ip, port, color="inet", bw=1e9):
    return ServiceSloc(name, Sloc(color=color, private_ip=ip, private_port=port,
                                  public_ip=ip, public_port=port, rx_bw=bw, tx_bw=bw))


def fields(msg):
    """What a runtime hands a session or the responder: the checked wire
    fields of an encoded message."""
    return srou.parse_oam(srou.encode_oam(msg))


def request(seq, timestamp):
    return fields(srou.OamMessage(srou.OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
                                  srou.LinkstateData(seq=seq, timestamp=timestamp)))


def response(t2, t3, sender_seq, sender_timestamp, seq=1):
    return fields(srou.OamMessage(srou.OamType.LINKSTATE, srou.LINKSTATE_RESPONSE,
                                  srou.LinkstateData(seq=seq, timestamp=t3,
                                                     received_timestamp=t2,
                                                     sender_seq=sender_seq,
                                                     sender_timestamp=sender_timestamp)))


def sent(wire):
    """The Linkstate payload of a request or response on the wire."""
    return srouref.decode_oam(wire).message.payload


class ProbeHarness:
    """Two endpoints exchanging linkstate OAM over one simulated link; A
    ticks the way a node runtime does: expire, then send a request."""

    def __init__(self, delay_ab=millis(20), delay_ba=millis(20), seed=0,
                 loss_ab=0.0, loss_ba=0.0, window=100,
                 interval=seconds(1), timeout=seconds(2)):
        self.clock = VirtualClock()
        self.net = Network(self.clock, Trace(), seed=seed)
        self.net.add_node("A")
        self.net.add_node("B")
        self.link = self.net.add_link("A", "B", delay_ab, delay_ba,
                                      loss_ab=loss_ab, loss_ba=loss_ba)
        self.a = service_sloc("A", "10.0.0.1", 7001)
        self.b = service_sloc("B", "10.0.0.2", 7002)
        self.interval = interval
        self.session = ProbeSession(self.a, self.b, window=window, timeout_ns=timeout)
        self.responder = ProbeResponder()
        self.net.bind("A", "10.0.0.1", 7001, self._on_a)
        self.net.bind("B", "10.0.0.2", 7002, self._on_b)

    def _on_a(self, pkt):
        self.session.on_response(srou.parse_oam(pkt.payload), self.clock.now)

    def _on_b(self, pkt):
        resp = self.responder.on_probe_request(srou.parse_oam(pkt.payload),
                                               self.clock.now)
        self.net.send("B", Datagram("10.0.0.2", 7002, pkt.src_ip, pkt.src_port, resp))

    def tick(self):
        self.session.expire(self.clock.now)
        req = self.session.make_request(self.clock.now)
        self.net.send("A", Datagram("10.0.0.1", 7001, "10.0.0.2", 7002, req))

    def run_probes(self, n):
        """n ticks, then settle the last probes once their timeout is over."""
        last = self.clock.now + n * self.interval
        for i in range(n):
            self.clock.call_at(self.clock.now + (i + 1) * self.interval,
                               self.tick)
        self.clock.run_until_quiescent()
        self.clock.run_until(last + self.session.timeout_ns)
        self.session.expire(self.clock.now)


class TestResponder:
    def test_echo_fields(self):
        r = ProbeResponder()
        resp, _, _ = srouref.decode_oam(r.on_probe_request(request(7, 12345), now=99999))
        assert resp.payload.sender_seq == 7
        assert resp.payload.sender_timestamp == 12345
        assert resp.payload.received_timestamp == 99999
        assert resp.oam_subtype == srou.LINKSTATE_RESPONSE

    @pytest.mark.parametrize("msg", [
        srou.OamMessage(srou.OamType.STUN, srou.STUN_RESPONSE,
                        srou.StunResponseData("10.0.0.2", 7002)),
        srou.OamMessage(srou.OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
                        srou.LinkstateData(seq=1, timestamp=0)),
    ], ids=["stun", "request"])
    def test_a_session_takes_only_responses(self, msg):
        s = ProbeSession(service_sloc("A", "10.0.0.1", 7001),
                         service_sloc("B", "10.0.0.2", 7002))
        s.make_request(0)
        with pytest.raises(prober.MalformedOam):
            s.on_response(fields(msg), millis(1))
        assert s.pending == {1: 0} and s.outcomes == ()

    def test_responder_seq_increments(self):
        r = ProbeResponder()
        req = request(1, 1)
        assert sent(r.on_probe_request(req, 1)).seq == 1
        assert sent(r.on_probe_request(req, 2)).seq == 2

    def test_malformed(self):
        r = ProbeResponder()
        stun = fields(srou.OamMessage(srou.OamType.STUN, srou.STUN_REQUEST,
                                      srou.StunRequestData()))
        with pytest.raises(prober.MalformedOam):
            r.on_probe_request(stun, 0)

    def test_stateless_under_reorder(self):
        # responses computed purely from each request's own fields
        r = ProbeResponder()
        reqs = [request(s, s * 10) for s in (5, 3, 9)]
        resps = [sent(r.on_probe_request(q, 100 + i)) for i, q in enumerate(reqs)]
        assert [p.sender_seq for p in resps] == [5, 3, 9]
        assert [p.sender_timestamp for p in resps] == [50, 30, 90]

    @pytest.mark.parametrize("ft, flow_id", [(srou.FlowIdType.FT32, 0),
                                             (srou.FlowIdType.FT32, 0xDEADBEEF),
                                             (srou.FlowIdType.FT64, 1 << 63 | 5),
                                             (srou.FlowIdType.FT96, (1 << 96) - 1)])
    def test_response_bytes_are_encode_oam_of_the_echo(self, ft, flow_id):
        # the flow id and its type are echoed; C/F/T and RRR go out clear
        r = ProbeResponder()
        r.seq = 41
        req = fields(srou.OamMessage(srou.OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
                                     srou.LinkstateData(seq=0xFFFFFFFF, timestamp=1 << 62),
                                     flow_id=flow_id, flow_id_type=ft,
                                     c_bit=True, f_bit=True, t_bit=True))
        assert r.on_probe_request(req, 12345) == srou.encode_oam(srou.OamMessage(
            srou.OamType.LINKSTATE, srou.LINKSTATE_RESPONSE,
            srou.LinkstateData(seq=42, timestamp=12345, received_timestamp=12345,
                               sender_seq=0xFFFFFFFF, sender_timestamp=1 << 62),
            flow_id=flow_id, flow_id_type=ft))

    def test_request_bytes_are_encode_oam_of_the_request(self):
        s = ProbeSession(service_sloc("A", "10.0.0.1", 7001),
                         service_sloc("B", "10.0.0.2", 7002))
        for seq, now in enumerate((0, seconds(1), (1 << 64) - 1), start=1):
            assert s.make_request(now) == srou.encode_oam(srou.OamMessage(
                srou.OamType.LINKSTATE, srou.LINKSTATE_REQUEST,
                srou.LinkstateData(seq=seq, timestamp=now)))


class TestMetrics:
    def test_symmetric_two_way_delay_exact(self):
        h = ProbeHarness(delay_ab=millis(20), delay_ba=millis(20))
        h.run_probes(5)
        delay_us, _, loss, status = h.session.figures()
        assert delay_us == 40000.0
        assert loss == 0.0
        assert status == "up"

    def test_asymmetric_invisible(self):
        # round trip measurement cannot see 10/30 asymmetry
        h = ProbeHarness(delay_ab=millis(10), delay_ba=millis(30))
        h.run_probes(5)
        assert h.session.figures()[0] == 40000.0

    def test_loss_estimate_fixed_seed(self):
        h = ProbeHarness(delay_ab=millis(1), delay_ba=millis(1),
                         loss_ab=0.05, seed=1234, window=1000)
        h.run_probes(1000)
        assert abs(h.session.figures()[2] - 0.05) <= 0.015

    def test_loss_estimator_unbiased_across_seeds(self):
        estimates = []
        for seed in range(20):
            h = ProbeHarness(delay_ab=millis(1), delay_ba=millis(1),
                             loss_ab=0.05, seed=seed, window=200)
            h.run_probes(200)
            estimates.append(h.session.loss_rate())
        mean = sum(estimates) / len(estimates)
        # 3 sigma of the mean of 20 binomial(200, 0.05) estimates
        assert abs(mean - 0.05) <= 3 * (0.05 * 0.95 / 200) ** 0.5 / 20 ** 0.5

    def test_down_after_three_consecutive_losses(self):
        h = ProbeHarness(delay_ab=millis(1), delay_ba=millis(1))
        h.run_probes(3)
        assert h.session.status == "up"
        h.link.set_loss(1.0)
        h.run_probes(3)
        assert h.session.status == "down"
        assert h.session.figures()[3] == "down"

    def test_forged_echo_timestamp_ignored(self):
        # the sender keeps its own T1 (TWAMP, RFC 5357): a peer that echoes a
        # later T1 cannot make the link look faster than it is
        session = ProbeSession(service_sloc("A", "10.0.0.1", 7001),
                               service_sloc("B", "10.0.0.2", 7002))
        req = sent(session.make_request(0))
        forged = response(t2=millis(20), t3=millis(20), sender_seq=req.seq,
                          sender_timestamp=millis(30))
        assert session.on_response(forged, millis(40)) is True
        assert session.outcomes == (millis(40),)
        assert session.figures()[0] == 40_000.0
        assert session.t1_mismatches == 1

    @pytest.mark.parametrize("t2, t3", [(0, millis(500)), (millis(500), 0),
                                        (millis(1), millis(42))])
    def test_forged_turnaround_falls_back_to_round_trip(self, t2, t3):
        # a turnaround t3 - t2 outside [0, t4 - t1] cannot be the responder's:
        # the session keeps the round trip instead of a delay it would make
        # negative or larger than the round trip
        session = ProbeSession(service_sloc("A", "10.0.0.1", 7001),
                               service_sloc("B", "10.0.0.2", 7002))
        req = sent(session.make_request(0))
        forged = response(t2, t3, sender_seq=req.seq, sender_timestamp=req.timestamp)
        assert session.on_response(forged, millis(40))
        assert session.figures()[0] == 40_000.0

    def test_honest_echo_counts_no_mismatch(self):
        h = ProbeHarness(delay_ab=millis(20), delay_ba=millis(20))
        h.run_probes(5)
        assert h.session.t1_mismatches == 0

    def test_jitter_converges_after_transient(self):
        h = ProbeHarness(delay_ab=millis(5), delay_ba=millis(5))
        h.run_probes(5)
        h.link.delay_ab = millis(50)  # transient bump
        h.run_probes(2)
        h.link.delay_ab = millis(5)
        jitters = []
        for _ in range(30):
            h.run_probes(1)
            jitters.append(h.session.smoothed_jitter_us)
        # after the last delay change settles, the estimator decays monotonically
        tail = jitters[2:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))
        assert tail[-1] < tail[0]

    def test_window_bounded(self):
        h = ProbeHarness(window=10)
        h.run_probes(25)
        assert len(h.session.outcomes) == 10

    def test_window_entries_are_not_gc_tracked(self):
        h = ProbeHarness(window=100, loss_ab=0.2, seed=3)
        h.run_probes(300)
        gc.collect()
        window = h.session.outcomes
        assert len(window) == 100 and not h.session.pending
        assert all(type(sample) is int for sample in window)
        assert not any(gc.is_tracked(sample) for sample in h.session._window)
        assert 0 < window.count(LOST) < 100
        assert h.session.loss_rate() == window.count(LOST) / 100
        assert set(window) - {LOST} == {millis(40)}

    def test_loss_lands_at_the_first_tick_past_the_timeout(self):
        # a timeout of 1.5 intervals: the probe sent at one tick is still
        # pending at the next and lost at the second
        s = ProbeHarness(interval=seconds(1), timeout=millis(1500)).session
        s.make_request(seconds(1))
        assert s.expire(seconds(2)) is False and list(s.pending) == [1]
        assert s.expire(seconds(3)) is True
        assert (s.pending, s.lost_total, s.outcomes) == ({}, 1, (LOST,))

    def test_a_response_to_an_expired_probe_changes_nothing(self):
        # the probe was already counted lost: its late response is not a
        # second outcome, and the loss stands
        s = ProbeHarness(timeout=seconds(2)).session
        req = sent(s.make_request(0))
        assert s.expire(seconds(2))
        before = (s.outcomes, s.lost_total, s.consecutive_losses, s.smoothed_jitter_us)
        late = response(millis(1200), millis(1200), sender_seq=req.seq,
                        sender_timestamp=req.timestamp)
        assert s.on_response(late, millis(2400)) is False
        assert (s.outcomes, s.lost_total, s.consecutive_losses,
                s.smoothed_jitter_us) == before == ((LOST,), 1, 1, 0.0)
        assert s.pending == {} and s.loss_rate() == 1.0

    @pytest.mark.parametrize("window", [0, 1, 5, 100])
    def test_window_sums_match_window_walk(self, window):
        # the ring reads oldest first, as a bounded deque of the samples does
        rng = random.Random(window)
        h = ProbeHarness(window=window)
        s, now = h.session, 0
        expect = deque(maxlen=window)
        for _ in range(3 * window + 50):
            now += rng.randrange(1, 2_000_000_000)
            req = sent(s.make_request(now))
            if rng.random() < 0.3:
                now += s.timeout_ns
                assert s.expire(now)
                expect.append(LOST)
            else:
                t2 = now + rng.randrange(1, 90_000_000)
                t3 = t2 + rng.randrange(0, 5_000)
                now = t3 + rng.randrange(1, 90_000_000)
                assert s.on_response(response(t2, t3, sender_seq=req.seq,
                                              sender_timestamp=req.timestamp), now)
                expect.append(now - req.timestamp - (t3 - t2))
            window = s.outcomes
            assert window == tuple(expect)
            delivered = [sample / 1000 for sample in window if sample != LOST]
            assert s.loss_rate() == (window.count(LOST) / len(window) if window else 0.0)
            assert s.two_way_delay_us() == pytest.approx(
                sum(delivered) / len(delivered) if delivered else 0.0, rel=1e-12, abs=0)

    def test_utilization_from_counters(self):
        # utilization is the probing SLoC's own load record, not the session's
        f1 = TestFullMesh.fabrics([("F2", [service_sloc("F2", "10.0.0.2", 17777).sloc])])
        (session,) = f1.sessions.values()
        rec = SlocLoadRecord.from_counters(session.local, bytes_rx=12_500_000,
                                           bytes_tx=125_000_000, interval_s=1.0,
                                           sampled_at=f1.clock.now)
        assert rec.sloc == session.local.short
        assert rec.utilization_rx == pytest.approx(0.1)
        assert rec.utilization_tx == pytest.approx(1.0)  # clamped
        key = schema.linkstate_key(session.local.short, session.peer.short)
        put = f1.handle.get(key).value
        assert set(json.loads(put)) == {f.name for f in fields_of(schema.LinkStateRecord)}
        assert not hasattr(schema.parse_linkstate(key, put)[1], "utilization_rx")

    def test_a_sloc_without_a_bandwidth_reads_no_utilization(self):
        ss = service_sloc("A", "10.0.0.1", 7001, bw=0.0)
        rec = SlocLoadRecord.from_counters(ss, bytes_rx=1500, bytes_tx=1500,
                                           interval_s=1.0, sampled_at=0)
        assert (rec.utilization_rx, rec.utilization_tx) == (0.0, 0.0)

    def test_seq_strictly_increases(self):
        # expire walks pending oldest first: seq order is send order
        h = ProbeHarness()
        seqs = [sent(h.session.make_request(seconds(t))).seq for t in range(10)]
        assert seqs == list(range(1, 11)) and list(h.session.pending) == seqs


class TestFullMesh:
    """A fabric's one session opener: every local SLoC to every announced
    SLoC of every other fabric the whitelist admits."""

    @staticmethod
    def fabrics(peers, whitelist=None):
        clock = VirtualClock()
        trace = Trace()
        world = World(clock=clock, net=Network(clock, trace, seed=0),
                      store=KvStore(clock), trace=trace)
        world.net.add_node("SW")
        runtimes = []
        for name, slocs in [("F1", [service_sloc("F1", "10.0.0.1", 17777).sloc])] + peers:
            world.net.add_node(name)
            world.net.add_link(name, "SW", millis(1))
            probe = ProbeConfig(whitelist=whitelist) if name == "F1" else None
            runtimes.append(FabricRuntime(world, name, slocs, probe=probe))
        for rt in runtimes:
            rt.start()
        clock.run_until(seconds(3))
        return runtimes[0]

    def test_whitelist(self):
        f1 = self.fabrics([("F2", [service_sloc("F2", "10.0.0.2", 17777).sloc]),
                           ("F3", [service_sloc("F3", "10.0.0.3", 17777).sloc])],
                          whitelist={"F2"})
        assert [s.peer.system_name for s in f1.sessions.values()] == ["F2"]

    def test_multi_sloc_peer(self):
        two = [service_sloc("F2", "10.0.0.2", 17777).sloc,
               service_sloc("F2", "10.0.1.2", 17777, color="mpls").sloc]
        f1 = self.fabrics([("F2", two)])
        assert sorted(s.peer.short for s in f1.sessions.values()) == \
            sorted(ss.short for ss in f1.service_dir["F2"])
        assert len(f1.sessions) == 2


class TestStunExchange:
    """A use_stun linecard's STUN client transaction, behind a NAT: 5 ms to
    the NAT, 5 ms on to the STUN server."""

    @staticmethod
    def build(server_answers=True):
        clock = VirtualClock()
        trace = Trace()
        world = World(clock=clock, net=Network(clock, trace, seed=0),
                      store=KvStore(clock), trace=trace)
        world.net.add_node("client")
        world.net.add_nat("nat", "10.9.9.0/24", "198.51.100.7")
        world.net.add_node("stun")
        world.net.add_link("client", "nat", millis(5))
        world.net.add_link("nat", "stun", millis(5), loss=0.0 if server_answers else 1.0)
        stun = StunRuntime(world, "stun", [service_sloc("stun", "203.0.113.99", 3478).sloc])
        client = LinecardRuntime(world, "client",
                                 [service_sloc("client", "10.9.9.2", 6000).sloc],
                                 use_stun=True)
        stun.start()
        client.start()
        return world, stun, client

    def test_observes_nat_mapping(self):
        world, stun, client = self.build()
        ran = world.clock.run_until(seconds(8))
        mapped_port = world.net.nodes["nat"].nat.mapping_table()["10.9.9.2:6000"]
        public = client.slocs[0].sloc
        assert (public.public_ip, public.public_port) == ("198.51.100.7", mapped_port)
        assert [r["time"] for r in world.trace.select("stun_resolved")] == [millis(20)]
        assert world.trace.select("stun_failed") == []
        assert stun.counts["stun_served"] == 1
        assert "stun-retry" not in ran  # the answer canceled it

    def test_timeout_after_three_retries(self):
        world, stun, client = self.build(server_answers=False)
        world.clock.run_until(seconds(8))
        assert world.trace.select("stun_resolved") == []
        (failed,) = world.trace.select("stun_failed")
        assert failed["time"] == seconds(7)  # 1s + 2s + 4s backoff
        assert world.net.nodes["nat"].nat.translated_out == 3  # one request per attempt
        assert stun.counts.get("stun_served", 0) == 0
        public = client.slocs[0].sloc
        assert (public.public_ip, public.public_port) == ("10.9.9.2", 6000)
