"""Path engine: SLA checks, constrained search vs brute-force oracle, LPM,
and the segment list a linecard renders a computed path as."""

import ipaddress
import random
from collections import Counter

import pytest

from ruta import pathengine, srou
from ruta.dataplane import HostFrame, LinecardRuntime, World
from ruta.kvstore import PUT, KvStore
from ruta.netsim import Network, Trace, VirtualClock, seconds
from ruta.pathengine import (
    ComputedPath,
    EdgeMap,
    LinkStateSync,
    Lpm,
    RouteSync,
    SlaPolicy,
    build_edges,
    sla_breach,
    shortest_constrained,
)
from ruta.schema import (
    LINKSTATE_PREFIX,
    LinkStateRecord,
    SchemaError,
    ServiceRoute,
    ServiceSloc,
    Sloc,
    parse_linkstate,
    parse_linkstate_key,
    to_json_bytes,
)

import pathoracle
import srouref
import storegen


def make_rec(src, dst, twd_us, loss=0.0, jitter=0.0, status="up"):
    return LinkStateRecord(src=src, dst=dst, two_way_delay_us=twd_us,
                           jitter_us=jitter, loss=loss, status=status, sampled_at=0)


def adjacency(edges):
    """A pair-keyed cost map as the out-adjacency an EdgeMap keeps:
    u -> {v: cost of (u, v)}."""
    out = {}
    for (u, v), cost in edges.items():
        out.setdefault(u, {})[v] = cost
    return out


def make_ssloc(name, ip, port=17777):
    return ServiceSloc(name, Sloc(color="inet", private_ip=ip, private_port=port,
                                  public_ip=ip, public_port=port))


def breach(rec, policy=SlaPolicy()):
    return sla_breach(rec.status, rec.two_way_delay_us, rec.loss, policy)


class TestSla:
    # an unprobed destination counts as failing the SLA: see
    # test_dataplane.py::TestSlaPath::test_frame_before_the_first_probe_outcome_tries_a_relay
    def test_ok_under_limits(self):
        assert breach(make_rec("a", "b", 100_000.0)) is None  # one-way 50ms

    def test_delay_violation(self):
        assert breach(make_rec("a", "b", 770_000.0)) == "delay"  # one-way 385ms

    def test_loss_violation(self):
        assert breach(make_rec("a", "b", 10_000.0, loss=0.05)) == "loss"

    def test_down(self):
        assert breach(make_rec("a", "b", 1.0, status="down")) == "down"

    def test_boundary_is_inclusive(self):
        assert breach(make_rec("a", "b", 400_000.0)) is None  # one-way exactly 200ms


    @pytest.mark.parametrize("max_segments", [0, -1])
    def test_a_path_needs_a_segment(self, max_segments):
        with pytest.raises(ValueError):
            SlaPolicy(max_segments=max_segments)

class TestEdges:
    def test_cost_formula(self):
        rec = make_rec("a", "b", 80_000.0, loss=0.01, jitter=2_000.0)
        policy = SlaPolicy(loss_penalty_ms=1000.0, jitter_weight=0.5)
        assert pathengine.edge_cost_ms(rec.two_way_delay_us, rec.jitter_us, rec.loss,
                                       policy) == pytest.approx(40 + 10 + 1)

    def test_reverse_edges_derived(self):
        edges = build_edges({("a", "b"): make_rec("a", "b", 20_000.0)}, SlaPolicy())
        assert set(edges) == {("a", "b"), ("b", "a")}
        assert edges[("a", "b")] == edges[("b", "a")]

    def test_measured_direction_wins(self):
        recs = {("a", "b"): make_rec("a", "b", 20_000.0),
                ("b", "a"): make_rec("b", "a", 60_000.0)}
        edges = build_edges(recs, SlaPolicy())
        assert edges[("a", "b")] == pytest.approx(10.0)
        assert edges[("b", "a")] == pytest.approx(30.0)

    def test_down_edges_excluded(self):
        recs = {("a", "b"): make_rec("a", "b", 20_000.0, status="down"),
                ("b", "a"): make_rec("b", "a", 20_000.0)}
        edges = build_edges(recs, SlaPolicy())
        assert ("a", "b") not in edges
        assert ("b", "a") in edges


class TestSearch:
    def test_relay_beats_slow_direct(self):
        # one-way: direct 385ms, relay 120 + 120
        edges = {("s", "d"): 385.0, ("s", "f"): 120.0, ("f", "d"): 120.0}
        cost, path = shortest_constrained(edges, {"s"}, {"d"}, 4)
        assert path == ("s", "f", "d")
        assert cost == pytest.approx(240.0)

    def test_direct_when_relays_worse(self):
        edges = {("s", "d"): 10.0, ("s", "f"): 20.0, ("f", "d"): 20.0}
        cost, path = shortest_constrained(edges, {"s"}, {"d"}, 4)
        assert path == ("s", "d")

    def test_hop_budget_enforced(self):
        edges = {("s", "a"): 1.0, ("a", "b"): 1.0, ("b", "d"): 1.0}
        with pytest.raises(pathengine.NoFeasiblePath):
            shortest_constrained(edges, {"s"}, {"d"}, 2)
        cost, path = shortest_constrained(edges, {"s"}, {"d"}, 3)
        assert path == ("s", "a", "b", "d")

    def test_disconnected(self):
        with pytest.raises(pathengine.NoFeasiblePath):
            shortest_constrained({("a", "b"): 1.0}, {"a"}, {"z"}, 4)

    def test_deterministic_tie_break(self):
        edges = {("s", "x"): 1.0, ("x", "d"): 1.0,
                 ("s", "y"): 1.0, ("y", "d"): 1.0}
        _, path = shortest_constrained(edges, {"s"}, {"d"}, 4)
        assert path == ("s", "x", "d")  # lexicographically smallest

    def test_fewer_hops_wins_cost_tie(self):
        edges = {("s", "d"): 2.0, ("s", "a"): 1.0, ("a", "d"): 1.0}
        _, path = shortest_constrained(edges, {"s"}, {"d"}, 4)
        assert path == ("s", "d")

    def test_oracle_equivalence_random_graphs(self):
        # mandatory pre-build check: 200 seeded graphs vs exhaustive search
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randrange(3, 9)
            names = [f"n{i}" for i in range(n)]
            edges = {}
            for u in names:
                for v in names:
                    if u != v and rng.random() < 0.45:
                        edges[(u, v)] = rng.uniform(0.1, 100.0)
            srcs, dsts = {names[0]}, {names[-1]}
            expect = pathoracle.best_path(edges, srcs, dsts, 4)
            if expect is None:
                with pytest.raises(pathengine.NoFeasiblePath):
                    shortest_constrained(edges, srcs, dsts, 4)
                continue
            cost, path = shortest_constrained(edges, srcs, dsts, 4)
            assert cost == pytest.approx(expect[0])
            assert path == expect[1]

    @staticmethod
    def tie_graph(rng):
        """A seeded graph whose costs tie in floating point (0.1 + 0.2 !=
        0.3, 0.1 + 0.2 + 0.1 == 0.3 + 0.1), with disjoint sources and
        destinations."""
        n = rng.randrange(3, 9)
        names = [f"n{i}" for i in range(n)]
        edges = {(u, v): rng.choice((0.1, 0.2, 0.3))
                 for u in names for v in names if u != v and rng.random() < 0.45}
        ends = rng.sample(names, rng.randrange(2, min(n, 5) + 1))
        cut = rng.randrange(1, len(ends))
        return edges, set(ends[:cut]), set(ends[cut:])

    def test_oracle_equivalence_float_ties_many_ends_all_budgets(self):
        for seed in range(300):
            edges, srcs, dsts = self.tie_graph(random.Random(seed))
            for max_hops in range(1, 6):
                expect = pathoracle.best_path(edges, srcs, dsts, max_hops)
                if expect is None:
                    with pytest.raises(pathengine.NoFeasiblePath):
                        shortest_constrained(edges, srcs, dsts, max_hops)
                    continue
                assert shortest_constrained(edges, srcs, dsts, max_hops) == expect

    def test_kept_adjacency_search_equals_the_oracle_on_float_ties(self):
        # the same tie graphs through an EdgeMap that was built and then
        # updated edge by edge: the kept adjacency, the path built only for
        # a candidate no dearer than the best, and the oracle agree, and
        # each update left the map it was made from as it was
        for seed in range(300):
            rng = random.Random(seed)
            edges, srcs, dsts = self.tie_graph(rng)
            pairs = sorted(edges)
            first = kept = EdgeMap({p: edges[p] for p in pairs[::2]})
            for pair in pairs[1::2]:
                kept = kept.updated([(pair, 9.9)])
                kept = kept.updated([(pair, edges[pair])])
            extra = ("n0", "zz")
            kept = kept.updated([(extra, 0.1)]).updated([(extra, None)])
            assert kept.out == adjacency(edges)
            assert first.out == adjacency({p: edges[p] for p in pairs[::2]})
            for max_hops in range(1, 6):
                expect = pathoracle.best_path(edges, srcs, dsts, max_hops)
                if expect is None:
                    with pytest.raises(pathengine.NoFeasiblePath):
                        shortest_constrained(kept, srcs, dsts, max_hops)
                    continue
                assert shortest_constrained(kept, srcs, dsts, max_hops) == expect

    def test_a_round_extends_only_the_walks_of_the_round_before(self):
        # b improves a in round 2; a must still extend its 1-edge walk in that
        # round, or a 3-edge walk slips under a 2-hop budget.  The frontier is
        # a set, so the gadget is repeated under many names to meet both
        # visiting orders
        for i in range(32):
            a, b = f"a{i}", f"b{i}"
            edges = {("s", a): 10.0, ("s", b): 1.0, (b, a): 1.0, (a, "d"): 1.0}
            assert shortest_constrained(edges, {"s"}, {"d"}, 2) == (11.0, ("s", a, "d"))
            assert shortest_constrained(edges, {"s"}, {"d"}, 3) == (3.0, ("s", b, a, "d"))

    def test_insertion_order_does_not_matter(self):
        # the search relaxes no sorted edge list, so the map's order must not
        # reach the result
        for seed in range(40):
            rng = random.Random(seed)
            edges, srcs, dsts = self.tie_graph(rng)
            items = list(edges.items())
            try:
                want = shortest_constrained(edges, srcs, dsts, 4)
            except pathengine.NoFeasiblePath:
                want = None
            for _ in range(20):
                rng.shuffle(items)
                try:
                    got = shortest_constrained(dict(items), set(srcs), set(dsts), 4)
                except pathengine.NoFeasiblePath:
                    got = None
                assert got == want

    def test_monotonicity(self):
        # raising an edge cost never lowers the chosen path cost
        rng = random.Random(77)
        for _ in range(50):
            names = [f"n{i}" for i in range(6)]
            edges = {}
            for u in names:
                for v in names:
                    if u != v and rng.random() < 0.5:
                        edges[(u, v)] = rng.uniform(0.1, 50.0)
            try:
                base, _ = shortest_constrained(edges, {names[0]}, {names[-1]}, 4)
            except pathengine.NoFeasiblePath:
                continue
            victim = rng.choice(sorted(edges))
            edges[victim] += rng.uniform(1.0, 100.0)
            try:
                bumped, _ = shortest_constrained(edges, {names[0]}, {names[-1]}, 4)
            except pathengine.NoFeasiblePath:
                continue
            assert bumped >= base - 1e-9


class TestSegmentList:
    """A linecard renders a computed path as its encap's segment list: the
    function segment sits at index 0 (executed at the final waypoint),
    intermediate waypoints follow in reverse visit order, and the first
    waypoint is only the outer destination."""

    @staticmethod
    def encap(path, route_type=2, args=1234):
        """A linecard encapsulates one frame along path toward a route of
        route_type; returns the linecard and the datagrams it sent."""
        clock, trace = VirtualClock(), Trace()
        world = World(clock=clock, net=Network(clock, trace), store=KvStore(clock),
                      trace=trace)
        lc = LinecardRuntime(world, "LC_A", [make_ssloc("LC_A", "192.168.99.77", 5547).sloc])
        sent = []
        world.net.send = lambda node, pkt: sent.append(pkt)
        route = ServiceRoute(route_type=route_type, export_rt="100:1", rd="2:1", site_id=2,
                             system_name="LC_B", policy_tag=0,
                             **(dict(mac="0a:00:00:00:00:99", ip="10.0.0.99")
                                if route_type == 2 else dict(prefix="10.0.1.0", mask=24)))
        frame = HostFrame("0a:00:00:00:00:88", "0a:00:00:00:00:99", "10.0.0.88",
                          "10.0.0.99", b"x")
        entry = lc._encap(route, (lc.slocs[0], path), args)
        if entry is not None:
            lc._send_encap(entry, frame)
        return lc, sent

    def test_direct(self):
        lc_b = make_ssloc("LC_B", "192.168.99.78", 5546)
        path = ComputedPath(waypoints=(lc_b,), cost_ms=1.0, source="direct")
        _, (pkt,) = self.encap(path)
        hdr, _, _ = srouref.decode_header(pkt.payload)
        assert (pkt.dst_ip, pkt.dst_port) == lc_b.public_addr
        assert hdr.segment_list == (srou.Function(1234, srou.FUNC_END_DT2U),)
        assert hdr.segments_left == 1

    def test_via_relay(self):
        spine = make_ssloc("Spine_A", "192.168.99.75")
        lc_b = make_ssloc("LC_B", "192.168.99.78", 5546)
        path = ComputedPath(waypoints=(spine, lc_b), cost_ms=1.0, source="engineered")
        _, (pkt,) = self.encap(path)
        hdr, _, _ = srouref.decode_header(pkt.payload)
        assert (pkt.dst_ip, pkt.dst_port) == spine.public_addr
        assert hdr.segment_list == (srou.Function(1234, srou.FUNC_END_DT2U),
                                    srou.Waypoint("192.168.99.78", 5546))
        assert hdr.segments_left == 2

    def test_too_many(self):
        # past the SLA's segment budget of 4 the frame is a counted drop
        wps = tuple(make_ssloc(f"F{i}", f"10.0.0.{i+1}") for i in range(5))
        path = ComputedPath(waypoints=wps, cost_ms=1.0, source="engineered")
        lc, sent = self.encap(path)
        assert sent == []
        assert lc.counts == {"drop_unencodable_path": 1}

    def test_advance_inverts_to_visit_order(self):
        # applying advance_segment repeatedly visits waypoints in path order
        wps = tuple(make_ssloc(f"F{i}", f"10.0.0.{i+1}") for i in range(4))
        path = ComputedPath(waypoints=wps, cost_ms=0.0, source="engineered")
        _, (pkt,) = self.encap(path, route_type=5, args=77)
        hdr, _, _ = srouref.decode_header(pkt.payload)
        assert hdr.segment_list[0] == srou.Function(77, srou.FUNC_END_DT4)
        visited = [(pkt.dst_ip, pkt.dst_port)]
        while hdr.segments_left:
            seg, hdr = srouref.advance_segment(hdr)
            if isinstance(seg, srou.Waypoint):
                visited.append((seg.address, seg.port))
            else:
                assert hdr.segments_left == 0  # function sits at index 0
        assert visited == [w.public_addr for w in wps]


class TestLpmAndTable:
    def test_longest_match(self):
        lpm = Lpm()
        wide = ServiceRoute(route_type=5, export_rt="1:1", rd="1:1",
                            prefix="10.1.0.0", mask=16, site_id=1,
                            system_name="A", policy_tag=0)
        narrow = ServiceRoute(route_type=5, export_rt="1:1", rd="1:1",
                              prefix="10.1.2.0", mask=24, site_id=1,
                              system_name="B", policy_tag=0)
        lpm.insert("10.1.0.0", 16, wide)
        lpm.insert("10.1.2.0", 24, narrow)
        assert lpm.lookup("10.1.2.3") is narrow
        assert lpm.lookup("10.1.9.9") is wide
        assert lpm.lookup("10.2.0.1") is None

    @pytest.mark.parametrize("keys", [{}, dict(vnid=1), dict(mac="00:11:22:33:44:55"),
                                      dict(vrf=1), dict(ip="10.0.0.1"),
                                      dict(vnid=1, ip="10.0.0.1")])
    def test_resolve_with_nothing_to_resolve_with(self, keys):
        with pytest.raises(pathengine.NoRoute, match="nothing to resolve with"):
            pathengine.RouteTable().resolve(**keys)

    def test_lpm_random_oracle(self):
        rng = random.Random(5)
        lpm = Lpm()
        routes = []
        for i in range(40):
            mask = rng.randrange(8, 33)
            net = rng.getrandbits(32) & ((0xFFFFFFFF << (32 - mask)) & 0xFFFFFFFF)
            prefix = ".".join(str((net >> s) & 0xFF) for s in (24, 16, 8, 0))
            route = ServiceRoute(route_type=5, export_rt="1:1", rd="1:1",
                                 prefix=prefix, mask=mask, site_id=i,
                                 system_name=f"n{i}", policy_tag=0)
            lpm.insert(prefix, mask, route)
            routes.append((net, mask, route))
        for _ in range(500):
            addr = rng.getrandbits(32)
            best = None
            for net, mask, route in routes:
                m = (0xFFFFFFFF << (32 - mask)) & 0xFFFFFFFF if mask else 0
                if addr & m == net and (best is None or mask > best[0]):
                    best = (mask, route)
            ip = ".".join(str((addr >> s) & 0xFF) for s in (24, 16, 8, 0))
            got = lpm.lookup(ip)
            assert got is (best[1] if best else None)

    def test_lpm_matches_the_sorting_ipaddress_lpm(self):
        class RefLpm:  # the Lpm that sorted its masks and parsed with ipaddress
            def __init__(self):
                self._by_mask = {}

            @staticmethod
            def _net(ip, mask):
                return int(ipaddress.IPv4Address(ip)) & (0xFFFFFFFF << (32 - mask)
                                                         if mask else 0)

            def insert(self, prefix, mask, route):
                self._by_mask.setdefault(mask, {})[self._net(prefix, mask)] = route

            def remove(self, prefix, mask):
                table = self._by_mask.get(mask)
                if table is not None:
                    table.pop(self._net(prefix, mask), None)

            def lookup(self, ip):
                addr = int(ipaddress.IPv4Address(ip))
                for mask in sorted(self._by_mask, reverse=True):
                    route = self._by_mask[mask].get(
                        addr & (0xFFFFFFFF << (32 - mask) if mask else 0))
                    if route is not None:
                        return route
                return None

        malformed = ["", "10.1.2", "10.1.2.3.4", "256.1.1.1", "01.2.3.4", "a.b.c.d",
                     " 10.1.2.3", "10.1.2.3\n", "10.1.2.3\x00", "::1", "\u0661.2.3.4",
                     None, -1, 2 ** 32, 167838211, b"\x0a\x01\x02\x03", b"10.1.2.3", 1.5]

        def outcome(fn, *args):
            try:
                return "ok", fn(*args)
            except Exception as exc:  # the class is what must match
                return "raised", type(exc)

        rng = random.Random(2024)

        def addr():
            if rng.random() < 0.05:
                return rng.choice(malformed)
            return ".".join(str(rng.getrandbits(8) & rng.choice((0x0F, 0xFF))) for _ in range(4))

        new, ref = Lpm(), RefLpm()
        routes = []
        for i in range(2000):
            prefix, mask = addr(), rng.choice((0, 8, 12, 16, 20, 24, 28, 30, 32))
            route = ServiceRoute(route_type=5, export_rt="1:1", rd="1:1",
                                 prefix="0.0.0.0", mask=0, site_id=i,
                                 system_name=f"n{i}", policy_tag=0)
            if rng.random() < 0.15 and routes:
                prefix, mask = rng.choice(routes)
                assert outcome(new.remove, prefix, mask) == outcome(ref.remove, prefix, mask)
            else:
                got = outcome(new.insert, prefix, mask, route)
                assert got == outcome(ref.insert, prefix, mask, route)
                if got[0] == "ok":
                    routes.append((prefix, mask))
            ip = addr()
            assert outcome(new.lookup, ip) == outcome(ref.lookup, ip), ip
        assert len(routes) > 1500
        assert sorted(r.site_id for r in new.routes()) == \
            sorted(r.site_id for t in ref._by_mask.values() for r in t.values())

    def test_resolve_prefers_type2(self):
        table = pathengine.RouteTable()
        t2 = ServiceRoute(route_type=2, export_rt="1:1", rd="1:1",
                          mac="aa:aa:aa:aa:aa:aa", ip="10.0.0.99",
                          site_id=1, system_name="LC_B", policy_tag=0)
        table.type2[(1234, "aa:aa:aa:aa:aa:aa")] = t2
        assert table.resolve(vnid=1234, mac="aa:aa:aa:aa:aa:aa") is t2
        with pytest.raises(pathengine.NoRoute):
            table.resolve(vnid=1234, mac="bb:bb:bb:bb:bb:bb")


class TestRouteSync:
    def build(self):
        clock = VirtualClock()
        store = KvStore(clock)
        handle = store.client("LC_A")
        self.deltas = []  # (kind, mac) in the order on_delta saw them
        sync = RouteSync(l2_imports={"100:1": 1234}, l3_imports={},
                         on_delta=lambda kind, route: self.deltas.append((kind, route.mac)))
        return clock, store, handle, sync

    def put_route(self, store, mac="aa:aa:aa:aa:aa:aa", ip="10.0.0.99"):
        route = ServiceRoute(route_type=2, export_rt="100:1", rd="2:1",
                             mac=mac, ip=ip, site_id=2, system_name="LC_B",
                             policy_tag=0)
        store.put(route.key(), to_json_bytes(route.to_doc()))
        return route

    def test_watch_updates_table(self):
        clock, store, handle, sync = self.build()
        sync.start(handle.follow)
        self.put_route(store)
        assert (1234, "aa:aa:aa:aa:aa:aa") in sync.table.type2

    def test_seed_then_watch_no_gap(self):
        clock, store, handle, sync = self.build()
        self.put_route(store, mac="aa:aa:aa:aa:aa:01")
        sync.start(handle.follow)
        self.put_route(store, mac="aa:aa:aa:aa:aa:02")
        assert len(sync.table.type2) == 2
        assert self.deltas == [(PUT, "aa:aa:aa:aa:aa:01"), (PUT, "aa:aa:aa:aa:aa:02")]

    def test_headless_freeze_and_heal_replay(self):
        clock, store, handle, sync = self.build()
        sync.start(handle.follow)
        route = self.put_route(store, mac="aa:aa:aa:aa:aa:01")
        store.set_partitioned("LC_A", True)
        self.put_route(store, mac="aa:aa:aa:aa:aa:02")
        # frozen cache still answers
        assert sync.table.resolve_l2(1234, "aa:aa:aa:aa:aa:01") == route
        assert (1234, "aa:aa:aa:aa:aa:02") not in sync.table.type2
        store.set_partitioned("LC_A", False)
        assert (1234, "aa:aa:aa:aa:aa:02") in sync.table.type2
        assert self.deltas == [(PUT, "aa:aa:aa:aa:aa:01"), (PUT, "aa:aa:aa:aa:aa:02")]

    def test_withdraw_removes(self):
        clock, store, handle, sync = self.build()
        sync.start(handle.follow)
        route = self.put_route(store)
        store.delete(route.key())
        assert sync.table.type2 == {}


    @pytest.mark.parametrize("seed", range(4))
    def test_system_counts_follow_the_table(self, seed):
        # seeded puts and deletes of type-2 and type-5 routes, some of which
        # share a table slot across RDs or move a slot to another system
        rng = random.Random(seed)
        store = KvStore(VirtualClock())
        sync = RouteSync(l2_imports={"100:1": 1, "200:1": 2}, l3_imports={"300:1": 3})
        sync.start(store.client("LC_A").follow)
        systems = ("LC_B", "LC_C", "LC_D")
        for _ in range(500):
            common = dict(export_rt=rng.choice(("100:1", "200:1", "300:1", "400:1")),
                          rd=rng.choice(("1:1", "2:1")), site_id=1,
                          system_name=rng.choice(systems), policy_tag=0)
            if common["export_rt"] == "300:1":
                route = ServiceRoute(route_type=5, prefix=f"10.{rng.randrange(3)}.0.0",
                                     mask=rng.choice((16, 24)), **common)
            else:
                route = ServiceRoute(route_type=2, mac=f"aa:aa:aa:aa:aa:0{rng.randrange(4)}",
                                     ip="10.0.0.1", **common)
            if rng.random() < 0.3:
                store.delete(route.key())
            elif rng.random() < 0.05:
                store.put(route.key(), b"{}")  # malformed: the table keeps its route
            else:
                store.put(route.key(), to_json_bytes(route.to_doc()))
            held = list(sync.table.type2.values())
            held += [r for lpm in sync.table.type5.values() for r in lpm.routes()]
            assert sync.systems == Counter(r.system_name for r in held)
        assert set(sync.systems) == set(systems)


class TestLinkStateSync:
    @staticmethod
    def bits(out):
        """An adjacency with each cost as its exact bits, so NaN equals NaN."""
        return {u: {v: cost.hex() for v, cost in costs.items()} for u, costs in out.items()}

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_map_follows_every_delta(self, seed):
        rng = random.Random(seed)
        store = KvStore(VirtualClock())
        sync = LinkStateSync()
        sync.start(store.client("LC_A").follow)
        shorts = [f"N{i}|inet|10.0.0.{i}:1" for i in range(5)]
        policies = [SlaPolicy(), SlaPolicy(loss_penalty_ms=10.0, jitter_weight=0.5)]
        policy = policies[0]
        for step in range(400):
            if step % 97 == 5:
                policy = rng.choice(policies)
            src, dst = rng.sample(shorts, 2)
            delay = rng.choice((rng.uniform(1e3, 4e5), float("nan")))
            rec = make_rec(src, dst, 0.0 if delay != delay else delay,
                           loss=rng.choice((0.0, rng.random())),
                           jitter=rng.uniform(0, 900),
                           status="down" if rng.random() < 0.2 else "up")
            doc = dict(rec.to_doc(), two_way_delay_us=delay)  # NaN: a rejected put
            kind = rng.randrange(10)
            if kind < 6:
                store.put(rec.key(), to_json_bytes(doc))
            elif kind < 8:
                store.delete(rec.key())
            elif kind == 8:
                store.put(rec.key(), storegen.malformed_value(rng, rec.to_doc()))
            else:
                store.put(LINKSTATE_PREFIX + src, to_json_bytes(doc))
            if step >= 20:  # the first edges() call builds the map
                assert self.bits(sync.edges(policy).out) == \
                    self.bits(adjacency(build_edges(sync.records, policy)))
        assert {r.status for r in sync.records.values()} == {"up", "down"}

    @staticmethod
    def search(edges, srcs, dsts, max_hops):
        try:
            return shortest_constrained(edges, srcs, dsts, max_hops)
        except pathengine.NoFeasiblePath:
            return None

    @pytest.mark.parametrize("seed", range(6))
    def test_search_over_the_kept_adjacency_follows_every_delta(self, seed):
        # after every delta, the search over the sync's map and its kept
        # adjacency equals a search over a map built afresh from the records
        rng = random.Random(100 + seed)
        store = KvStore(VirtualClock())
        sync = LinkStateSync()
        sync.start(store.client("LC_A").follow)
        shorts = [f"N{i}|inet|10.0.0.{i}:1" for i in range(7)]
        policy = SlaPolicy(jitter_weight=0.5)
        sync.edges(policy)  # from here on the map follows delta by delta
        for _ in range(300):
            src, dst = rng.sample(shorts, 2)
            if rng.random() < 0.75:
                rec = make_rec(src, dst, rng.choice((2e3, 4e3, rng.uniform(1e3, 4e5))),
                               loss=rng.choice((0.0, 0.0, rng.random())),
                               jitter=rng.choice((0.0, 200.0)),
                               status="down" if rng.random() < 0.15 else "up")
                store.put(rec.key(), to_json_bytes(rec.to_doc()))
            else:
                store.delete(make_rec(src, dst, 0.0).key())
            kept = sync.edges(policy)
            fresh = build_edges(sync.records, policy)
            assert self.bits(kept.out) == self.bits(adjacency(fresh))
            ends = rng.sample(shorts, 4)
            for srcs, dsts in (({ends[0]}, {ends[1]}), (set(ends[:2]), set(ends[2:]))):
                for max_hops in (1, 2, 4):
                    assert self.search(kept, srcs, dsts, max_hops) == \
                        self.search(fresh, srcs, dsts, max_hops)


class _PrivateMirror:
    """A private link-state mirror, the reference a follower's shared
    snapshots must equal: a record dict, and one edge map, built by
    build_edges when the policy changes and then kept delta by delta."""

    def __init__(self):
        self.records = {}
        self.deltas = []  # the pairs on_delta would have been called with
        self._policy = None
        self._out = {}

    def apply(self, ev):
        try:
            if ev.kind == PUT:
                pair, rec = ev.entry.decoded[parse_linkstate]
                self.records[pair] = rec
            else:
                pair = parse_linkstate_key(ev.entry.key)
                self.records.pop(pair, None)
        except SchemaError:
            return
        if self._policy is not None:
            self._edge(pair)
            self._edge((pair[1], pair[0]))
        self.deltas.append(pair)

    def _edge(self, pair):
        rec = self.records.get(pair)
        if rec is None:
            rec = self.records.get((pair[1], pair[0]))
        if rec is None or rec.status == "down":
            out = self._out.get(pair[0])
            if out is not None:
                out.pop(pair[1], None)
                if not out:
                    del self._out[pair[0]]
        else:
            self._out.setdefault(pair[0], {})[pair[1]] = pathengine.edge_cost_ms(
                rec.two_way_delay_us, rec.jitter_us, rec.loss, self._policy)

    def edges(self, policy):
        if policy != self._policy:
            self._out = adjacency(build_edges(self.records, policy))
            self._policy = policy
        return self._out


class _Follower:
    """A LinkStateSync and, for each policy, a private mirror, each fed by
    a watch of its own through the follower's store client.  A mirror's
    watch is registered just before the sync's, so that both see every
    event in the same order, nested deliveries included."""

    def __init__(self, store, name, policies, on_delta=None):
        self.handle = store.client(name)
        self.mirrors = {policy: _PrivateMirror() for policy in policies}
        self.deltas = []
        self.watches = []
        self.killed = False
        self.sync = LinkStateSync(on_delta=on_delta or self._on_delta)

    def _on_delta(self, src, dst):
        self.deltas.append((src, dst))

    def start(self):
        def follow(prefix, on_event):
            for mirror in self.mirrors.values():
                self.watches.append(self.handle.follow(prefix, mirror.apply))
            self.watches.append(self.handle.follow(prefix, on_event))
        self.sync.start(follow)

    def kill(self):
        for watch in self.watches:
            watch.cancel()
        self.killed = True

    def check(self, bits):
        held = self.sync.records
        for policy, mirror in self.mirrors.items():
            assert dict(held) == mirror.records and self.deltas == mirror.deltas
            if policy is not None:
                assert bits(self.sync.edges(policy).out) == bits(mirror.edges(policy))
        assert len(held) == len(mirror.records) and sorted(held) == sorted(mirror.records)
        assert all(pair in held for pair in mirror.records)


class TestSharedSnapshots:
    """Followers share link-state snapshots, and each one's view is exactly
    what a private mirror fed its events would hold.  A memo keyed on the
    event alone, on the snapshot alone, or on the event's key or revision
    with the snapshot gives some follower here a wrong view."""

    P1 = SlaPolicy()
    P2 = SlaPolicy(loss_penalty_ms=10.0, jitter_weight=0.5)
    SHORTS = [f"N{i}|inet|10.0.0.{i}:1" for i in range(6)]

    @staticmethod
    def record_doc(rng, src, dst):
        return make_rec(src, dst, rng.choice((2e3, rng.uniform(1e3, 4e5))),
                        loss=rng.choice((0.0, rng.random())), jitter=rng.uniform(0, 900),
                        status="down" if rng.random() < 0.2 else "up").to_doc()

    @pytest.mark.parametrize("seed", range(8))
    def test_every_follower_equals_its_private_mirror(self, seed):
        rng = random.Random(seed)
        store = KvStore(VirtualClock())
        writer = store.client("writer")
        shorts = self.SHORTS
        nesting = []

        def nest(src, dst):  # a put from inside a delivery reaches the later watches first
            nester._on_delta(src, dst)
            if not nesting and rng.random() < 0.3:
                nesting.append(True)
                a, b = rng.sample(shorts, 2)
                store.put(make_rec(a, b, 0.0).key(),
                          to_json_bytes(self.record_doc(rng, a, b)))
                nesting.pop()

        group_a = [_Follower(store, f"A{i}", (None, self.P1)) for i in range(2)]
        nester = _Follower(store, "N", (self.P1,), on_delta=nest)
        group_b = [_Follower(store, f"B{i}", (self.P1, self.P2)) for i in range(2)]
        chaos = _Follower(store, "C", (self.P1, self.P2))
        late = [_Follower(store, f"L{i}", (self.P2,)) for i in range(2)]
        started = group_a + [nester] + group_b + [chaos]
        for follower in started:
            follower.start()
        starts = dict(zip(rng.sample(range(40, 260), len(late)), late))
        partitioned = set()
        shared = 0
        for step in range(300):
            if step in starts:
                starts[step].start()
                started.append(starts[step])
            src, dst = rng.sample(shorts, 2)
            key = make_rec(src, dst, 0.0).key()
            roll = rng.random()
            if roll < 0.45:
                writer.put(key, to_json_bytes(self.record_doc(rng, src, dst)))
            elif roll < 0.6:
                held = writer.get_prefix(LINKSTATE_PREFIX)
                if held:
                    writer.delete(rng.choice(held).key)
            elif roll < 0.66:
                writer.put(key, storegen.malformed_value(rng, self.record_doc(rng, src, dst)))
            elif roll < 0.72:  # a value that names another pair, or a key of no pair
                other = make_rec(dst, src, 0.0).key()
                writer.put(rng.choice((other, LINKSTATE_PREFIX + src)),
                           to_json_bytes(self.record_doc(rng, src, dst)))
            elif roll < 0.9:
                name = rng.choice([f.handle.name for f in [chaos] + started[6:]])
                if name in partitioned:
                    partitioned.discard(name)
                    store.set_partitioned(name, False)
                else:
                    partitioned.add(name)
                    store.set_partitioned(name, True)
            elif roll < 0.92 and not chaos.killed:
                chaos.kill()
            for follower in started:
                follower.check(TestLinkStateSync.bits)
            assert group_a[0].sync.records is group_a[1].sync.records
            assert group_b[0].sync.records is group_b[1].sync.records
            shared += len(group_a[0].sync.records) > 0
        for name in partitioned:
            store.set_partitioned(name, False)
        for follower in started:
            follower.check(TestLinkStateSync.bits)
        assert shared > 200 and len(started) == 8
        assert group_a[0].sync.records is not group_b[0].sync.records  # the nesting split them

    def test_the_followers_of_two_stores_share_no_step(self):
        # equal revisions and keys, other values: a step is taken only for
        # the same event object from the same snapshot
        rng = random.Random(3)
        stores = [KvStore(VirtualClock()), KvStore(VirtualClock())]
        followers = [_Follower(store, "LC", (self.P1,)) for store in stores]
        for follower in followers:
            follower.start()
        for _ in range(50):
            src, dst = rng.sample(self.SHORTS, 2)
            key = make_rec(src, dst, 0.0).key()
            for store in stores:
                if rng.random() < 0.2 and store.get(key) is not None:
                    store.delete(key)
                else:
                    store.put(key, to_json_bytes(self.record_doc(rng, src, dst)))
            for follower in followers:
                follower.check(TestLinkStateSync.bits)
        assert followers[0].sync.records != followers[1].sync.records

    def test_a_delta_copies_only_the_rows_it_touches(self):
        a, b, c = self.SHORTS[:3]
        state = pathengine.EMPTY_LINK_STATE
        for src, dst in ((a, b), (b, c), (c, a)):
            state = state.applied((src, dst), make_rec(src, dst, 2e3))
        before = state.edge_map(self.P1)
        after = state.applied((a, b), None)
        assert after.rows[b] is state.rows[b] and after.rows[c] is state.rows[c]
        assert a not in after.rows and (a, b) in state and (a, b) not in after
        edges = after.edge_map(self.P1)
        assert edges.out[c] is before.out[c]  # a -> b and b -> a changed, c's row did not
        assert edges.out[a] == {c: before.out[a][c]} and edges.out[b] == {c: before.out[b][c]}
        assert pathengine.EMPTY_LINK_STATE.edge_map(self.P1).out == {}
