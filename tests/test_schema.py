"""Control schema: key grammar, registration, hunting, routes, policy."""

import random

import pytest

from ruta import schema
from ruta.dataplane import LinecardRuntime, World
from ruta.pathengine import LinkStateSync, RouteSync
from ruta.kvstore import KvStore
from ruta.netsim import Network, Trace, VirtualClock, seconds
from ruta.schema import (
    LinkStateRecord,
    NodeRecord,
    PolicyRule,
    ServiceRoute,
    Sloc,
    sloc_short,
)

import storegen


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def store(clock):
    return KvStore(clock)


@pytest.fixture
def handle(store):
    return store.client("test")


@pytest.fixture
def linecard(clock, store):
    """A started linecard: it reads /identity/ and /control/group/ records
    only through its follows of those prefixes."""
    trace = Trace()
    world = World(clock=clock, net=Network(clock, trace), store=store, trace=trace)
    world.net.add_node("LC_A")
    lc = LinecardRuntime(world, "LC_A", [make_sloc()])
    lc.start()
    return lc


def make_sloc(ip="10.0.0.1", port=17777, color="inet", bw=1e9):
    return Sloc(color=color, private_ip=ip, private_port=port,
                public_ip=ip, public_port=port, rx_bw=bw, tx_bw=bw)


def register(handle, clock, name, role="fabric", ttl=600):
    lease = handle.grant_lease(seconds(ttl))
    rec = schema.register_node(handle, role, name, site_id=1,
                               location=(0.0, 0.0), lease=lease)
    return rec, lease


def announce(handle, rec, slocs, lease):
    """Put a registered node's service value, as its runtime does."""
    handle.put(schema.service_key(rec.role, rec.system_name), schema.service_value(slocs),
               lease.lease_id)


class TestRegistration:
    def test_first_label_is_zero(self, handle, clock):
        rec, _ = register(handle, clock, "LC_A", role="linecard")
        assert rec.system_label == 0
        assert handle.get("/node/linecard/LC_A") is not None

    def test_smallest_unused(self, handle, clock):
        # oracle: sort the live labels and scan for the first gap
        for name in ["A", "B", "C", "D"]:
            register(handle, clock, name)
        handle.delete("/node/fabric/C")  # frees label 2
        used = sorted(
            schema.from_json_bytes(e.value)["system_label"]
            for e in handle.get_prefix("/node/")
        )
        expect = 0
        while expect in used:
            expect += 1
        rec, _ = register(handle, clock, "E")
        assert rec.system_label == expect == 2

    def test_duplicate_name(self, handle, clock):
        register(handle, clock, "F1")
        with pytest.raises(schema.DuplicateSystemName):
            register(handle, clock, "F1")

    def test_label_space_exhausted(self, handle, clock):
        register(handle, clock, "A")
        register(handle, clock, "B")
        lease = handle.grant_lease(seconds(60))
        with pytest.raises(schema.LabelSpaceExhausted):
            schema.register_node(handle, "fabric", "C", 1, (0, 0), lease,
                                 label_ceiling=2)
        assert handle.get("/node/fabric/C") is None

    def test_concurrent_registrations_unique(self, store, clock):
        # each registration is one store step, so no two choose the same label
        rng = random.Random(42)
        records = []
        for i in range(50):
            h = store.client(f"n{i}")
            lease = h.grant_lease(seconds(600))
            at = rng.randrange(0, seconds(1))
            clock.call_at(at, lambda h=h, i=i, lease=lease: records.append(
                schema.register_node(h, "linecard", f"LC{i:02d}", 1, (0, 0), lease)))
        clock.run_until_quiescent()
        labels = sorted(r.system_label for r in records)
        assert labels == list(range(50))

    def test_junk_node_records(self, handle, clock):
        handle.put("/node/fabric/X", b"garbage")  # holds its name, no label
        handle.put("/node/bogus/Y", schema.to_json_bytes({"system_label": 0}))
        with pytest.raises(schema.DuplicateSystemName):
            register(handle, clock, "X")
        rec, _ = register(handle, clock, "Y")
        assert rec.system_label == 0

    def test_lock_released_on_error(self, handle, clock):
        register(handle, clock, "F1")
        with pytest.raises(schema.DuplicateSystemName):
            register(handle, clock, "F1")
        rec, _ = register(handle, clock, "F2")  # the failure left nothing held
        assert rec.system_label == 1


class TestServiceAnnounce:
    def test_announce_and_hunt(self, handle, clock):
        rec, lease = register(handle, clock, "F1")
        announce(handle, rec, [make_sloc()], lease)
        found, warnings = schema.hunt(handle, "fabric")
        assert warnings == []
        assert [name for name, _ in found] == ["F1"]

    def test_two_uplinks_one_value(self, handle, clock):
        rec, lease = register(handle, clock, "LC_A", role="linecard")
        slocs = [make_sloc(port=5547, color="biz-internet"),
                 make_sloc(port=5548, color="mpls")]
        announce(handle, rec, slocs, lease)
        found, _ = schema.hunt(handle, "linecard")
        assert [s.color for s in found[0][1]] == ["biz-internet", "mpls"]

    def test_lease_lapse_removes_service(self, handle, clock):
        rec, lease = register(handle, clock, "F1")
        announce(handle, rec, [make_sloc()], lease)
        clock.run_until(seconds(601))
        found, _ = schema.hunt(handle, "fabric")
        assert found == []

    def test_hunt_sorted_and_warns_on_garbage(self, handle, clock):
        for name in ["S2", "S1"]:
            rec, lease = register(handle, clock, name, role="stun")
            announce(handle, rec, [make_sloc()], lease)
        handle.put("/service/stun/S3", b"not json")
        found, warnings = schema.hunt(handle, "stun")
        assert [name for name, _ in found] == ["S1", "S2"]
        assert len(warnings) == 1 and "S3" in warnings[0]

    def test_hunt_empty_role(self, handle):
        found, warnings = schema.hunt(handle, "lsdb")
        assert found == [] and warnings == []


class TestRoutes:
    def test_type2_key(self, handle, clock):
        route = ServiceRoute(route_type=2, export_rt="100:1", rd="1:1",
                             mac="00:11:22:33:44:55", ip="10.0.0.88",
                             site_id=1, system_name="LC_A", policy_tag=0)
        assert route.key() == "/route/2/100:1/1:1/00:11:22:33:44:55/10.0.0.88"
        lease = handle.grant_lease(seconds(600))
        schema.put_record(handle, route, lease)
        entry = handle.get(route.key())
        doc = schema.from_json_bytes(entry.value)
        assert doc == {"site_id": 1, "system_name": "LC_A", "policy_tag": 0,
                       "optional_tlvs": []}

    def test_type5_key(self):
        route = ServiceRoute(route_type=5, export_rt="200:1", rd="2:1",
                             prefix="10.1.0.0", mask=24,
                             site_id=1, system_name="LC_B", policy_tag=7)
        assert route.key() == "/route/5/200:1/2:1/10.1.0.0/24"

    def test_bad_mask(self):
        with pytest.raises(schema.MalformedRoute):
            ServiceRoute(route_type=5, export_rt="1:1", rd="1:1",
                         prefix="10.0.0.0", mask=33,
                         site_id=1, system_name="X", policy_tag=0)

    @pytest.mark.parametrize("fields", [
        dict(route_type=2, ip="10.0.0.1"),
        dict(route_type=2, mac="00:11:22:33:44:55"),
        dict(route_type=5, prefix="10.0.0.0"),
        dict(route_type=5, mask=24),
        dict(route_type=5, prefix="10.0.0.1", mask=24),  # host bits set
        dict(route_type=3),
        dict(route_type=5, prefix="10.0.0.0", mask=8, export_rt=""),
        dict(route_type=5, prefix="10.0.0.0", mask=8, rd="1/1"),
    ], ids=["type2-no-mac", "type2-no-ip", "type5-no-mask", "type5-no-prefix",
            "host-bits", "type3", "empty-rt", "slash-in-rd"])
    def test_malformed_route_rejected(self, fields):
        with pytest.raises(schema.MalformedRoute):
            ServiceRoute(**{**dict(export_rt="100:1", rd="1:1", site_id=1,
                                   system_name="X", policy_tag=0), **fields})

    def test_unsupported_route_type_in_a_key(self):
        doc = {"site_id": 1, "system_name": "X", "policy_tag": 0}
        assert schema.parse_route_key("/route/5/1:1/1:1/10.0.0.0/8", doc).mask == 8
        with pytest.raises(schema.MalformedRoute):
            schema.parse_route_key("/route/3/1:1/1:1/10.0.0.0/8", doc)

    def test_key_round_trip_fuzz(self):
        rng = random.Random(9)
        for _ in range(300):
            if rng.random() < 0.5:
                route = ServiceRoute(
                    route_type=2, export_rt=f"{rng.randrange(999)}:1",
                    rd=f"{rng.randrange(99)}:{rng.randrange(99)}",
                    mac=":".join(f"{rng.randrange(256):02x}" for _ in range(6)),
                    ip=f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}",
                    site_id=rng.randrange(1 << 16), system_name=f"n{rng.randrange(99)}",
                    policy_tag=rng.randrange(1 << 32))
            else:
                mask = rng.randrange(0, 33)
                net = rng.getrandbits(32) & (0xFFFFFFFF << (32 - mask)) & 0xFFFFFFFF
                prefix = ".".join(str((net >> s) & 0xFF) for s in (24, 16, 8, 0))
                route = ServiceRoute(
                    route_type=5, export_rt=f"{rng.randrange(999)}:1", rd="1:1",
                    prefix=prefix, mask=mask, site_id=1,
                    system_name=f"n{rng.randrange(99)}", policy_tag=0)
            parsed = schema.parse_route_key(route.key(), route.to_doc())
            assert parsed == route


class TestKeyArguments:
    @pytest.mark.parametrize("make, args", [
        (schema.node_key, ("router", "X")),
        (schema.service_key, ("router", "X")),
        (schema.group_rule_key, (1.5, 2)),
        (schema.group_rule_key, (1, "2")),
        (schema.parse_linkstate_key, ("/stats/sloc/a - b",)),
    ], ids=["node-role", "service-role", "float-tag", "str-tag", "linkstate-prefix"])
    def test_rejected(self, make, args):
        with pytest.raises(schema.ValidationError):
            make(*args)


class TestLinkstate:
    def test_key_shape(self):
        rec = LinkStateRecord(
            src="F1|inet|10.0.0.1:17777", dst="F2|inet|10.0.0.2:17777",
            two_way_delay_us=40000.0, jitter_us=0.0, loss=0.0, status="up", sampled_at=0)
        assert rec.key() == ("/stats/linkstate/F1|inet|10.0.0.1:17777"
                             " - F2|inet|10.0.0.2:17777")
        src, dst = schema.parse_linkstate_key(rec.key())
        assert (src, dst) == (rec.src, rec.dst)

    def test_out_of_range_rejected(self):
        with pytest.raises(schema.ValidationError):
            LinkStateRecord(src="a", dst="b", two_way_delay_us=1.0, jitter_us=0.0,
                            loss=1.01, status="up", sampled_at=0)

    @pytest.mark.parametrize("field", ["two_way_delay_us", "jitter_us"])
    @pytest.mark.parametrize("value", [-1.0, float("nan")])
    def test_negative_or_nan_timing_rejected(self, field, value):
        # a stored record comes from another node: a negative delay would
        # give the path search a negative edge cost
        doc = dict(src="a|c|1.1.1.1:1", dst="b|c|2.2.2.2:2", two_way_delay_us=1.0,
                   jitter_us=0.0, loss=0.0, status="up", sampled_at=0)
        doc[field] = value
        with pytest.raises(schema.ValidationError):
            LinkStateRecord(**doc)
        with pytest.raises(schema.SchemaError):
            schema.parse_linkstate(schema.linkstate_key(doc["src"], doc["dst"]),
                                   schema.to_json_bytes(doc))

    def test_down_record_written_not_deleted(self, handle, clock):
        rec = LinkStateRecord(src="a|c|1.1.1.1:1", dst="b|c|2.2.2.2:2",
                              two_way_delay_us=0.0, jitter_us=0.0, loss=1.0,
                              status="down", sampled_at=5)
        lease = handle.grant_lease(seconds(600))
        schema.put_record(handle, rec, lease)
        stored = LinkStateRecord.from_doc(
            schema.from_json_bytes(handle.get(rec.key()).value))
        assert stored.status == "down"

    def test_sloc_short_round_trip(self):
        sloc = make_sloc(ip="10.0.0.9", port=5547, color="biz-internet")
        short = sloc_short("LC_A", sloc)
        assert short == "LC_A|biz-internet|10.0.0.9:5547"
        key = schema.linkstate_key(short, short.replace("LC_A", "LC_B"))
        src, dst = schema.parse_linkstate_key(key)
        assert src == short


class TestPolicy:
    def test_exact_deny(self):
        rules = {(10, 20): PolicyRule("deny")}
        assert schema.lookup_policy(rules, [10], [20]).action == "deny"

    def test_default_permit(self):
        assert schema.lookup_policy({}, [10], [20]).action == "permit"

    def test_dst_wildcard_steer(self):
        rules = {(10, "*"): PolicyRule("steer", ("F3|c|1.1.1.1:1",))}
        rule = schema.lookup_policy(rules, [10], [99])
        assert rule.action == "steer"
        assert rule.slocs == ("F3|c|1.1.1.1:1",)

    def test_precedence_table(self):
        # exact pair > (*, dst) > (src, *) > default
        exact = PolicyRule("deny")
        src_wild = PolicyRule("steer", ("a|c|1.1.1.1:1",))
        dst_wild = PolicyRule("steer", ("b|c|2.2.2.2:2",))
        rules = {(1, 2): exact, ("*", 2): src_wild, (1, "*"): dst_wild}
        assert schema.lookup_policy(rules, [1], [2]) is exact
        assert schema.lookup_policy(rules, [9], [2]) is src_wild
        assert schema.lookup_policy(rules, [1], [9]) is dst_wild
        assert schema.lookup_policy(rules, [9], [9]).action == "permit"

    def test_smallest_tag_wins(self):
        rules = {(5, 1): PolicyRule("deny"), (3, 1): PolicyRule("permit")}
        assert schema.lookup_policy(rules, [5, 3], [1]).action == "permit"

    def test_steer_requires_slocs(self):
        with pytest.raises(schema.ValidationError):
            PolicyRule("steer", ())
        with pytest.raises(schema.ValidationError):
            PolicyRule("permit", ("x|c|1.1.1.1:1",))

    def test_identity_groups(self, handle, linecard):
        handle.put(schema.identity_key("u1", "d1"),
                   schema.to_json_bytes({"groups": [10, 20]}))
        groups = linecard.identity_cache
        assert groups[schema.identity_key("u1", "d1")] == [10, 20]
        assert groups.get(schema.identity_key("u2", "d1"), [schema.DEFAULT_GROUP]) == [0]

    def test_fetch_group_rules(self, handle, linecard):
        handle.put(schema.group_rule_key(10, 20),
                   schema.to_json_bytes(PolicyRule("deny").to_doc()))
        handle.put(schema.group_rule_key(10, "*"),
                   schema.to_json_bytes(
                       PolicyRule("steer", ("F|c|1.1.1.1:1",)).to_doc()))
        rules = linecard.policy_rules
        assert rules[(10, 20)].action == "deny"
        assert rules[(10, "*")].action == "steer"


class TestLeaseClassing:
    def test_node_service_lease1_route_stats_lease2(self, handle, clock):
        lease1 = handle.grant_lease(seconds(60))
        lease2 = handle.grant_lease(seconds(600))
        rec = schema.register_node(handle, "linecard", "LC_A", 1, (0, 0), lease1)
        announce(handle, rec, [make_sloc()], lease1)
        route = ServiceRoute(route_type=2, export_rt="1:1", rd="1:1",
                             mac="aa:bb:cc:dd:ee:ff", ip="1.2.3.4",
                             site_id=1, system_name="LC_A", policy_tag=0)
        schema.put_record(handle, route, lease2)
        ls = LinkStateRecord(src="a|c|1.1.1.1:1", dst="b|c|2.2.2.2:2",
                             two_way_delay_us=1.0, jitter_us=0.0, loss=0.0,
                             status="up", sampled_at=0)
        schema.put_record(handle, ls, lease2)
        load = schema.SlocLoadRecord("a|c|1.1.1.1:1", 0.5, 0.25, 0)
        schema.put_record(handle, load, lease2)

        for key in ("/node/linecard/LC_A", "/service/linecard/LC_A"):
            assert handle.get(key).lease_id == lease1.lease_id
        assert handle.get(route.key()).lease_id == lease2.lease_id
        assert handle.get(ls.key()).lease_id == lease2.lease_id
        stored = handle.get("/stats/sloc/a|c|1.1.1.1:1")
        assert stored.lease_id == lease2.lease_id
        assert schema.from_json_bytes(stored.value) == load.to_doc()


def _good_records():
    """(parser, valid key, valid document, bad key) for each value format."""
    route = ServiceRoute(route_type=2, export_rt="1:1", rd="1:1",
                         mac="aa:bb:cc:dd:ee:ff", ip="1.2.3.4", site_id=1,
                         system_name="LC_A", policy_tag=7)
    ls = LinkStateRecord(src="a|c|1.1.1.1:1", dst="b|c|2.2.2.2:2",
                         two_way_delay_us=1.0, jitter_us=0.0, loss=0.0, status="up",
                         sampled_at=0)
    node = NodeRecord("fabric", "F1", 1, (1.5, -2.0), 7)
    return [
        (schema.parse_service, schema.service_key("fabric", "F1"),
         {"slocs": [make_sloc().to_doc()]}, "/service/nosuchrole/F1"),
        (schema.parse_route, route.key(), route.to_doc(), "/route/2/1:1/1:1/aa:bb"),
        (schema.parse_linkstate, ls.key(), ls.to_doc(), "/stats/linkstate/a - "),
        (schema.parse_group_rule, schema.group_rule_key(10, "*"),
         PolicyRule("steer", ("F|c|1.1.1.1:1",)).to_doc(), "/control/group/ten/*"),
        (schema.parse_identity, schema.identity_key("u1", "d1"), {"groups": [10, 20]},
         "/identity/u1/d1/extra"),
        (schema.parse_node, node.key(), node.to_doc(), "/node/bogus/F1"),
    ]


WRONG_TYPES = {
    "parse_node": [{"site_id": "x", "location": {"lat": 0, "lon": 0}, "system_label": 1},
                   {"site_id": 1, "location": [0, 0], "system_label": 1},
                   {"site_id": 1, "location": {"lat": 0, "lon": 0}, "system_label": None}],
    "parse_service": [{"slocs": 5}, {"slocs": ["x"]},
                      {"slocs": [dict(make_sloc().to_doc(), private_ip=5)]}],
    "parse_route": [{"site_id": "x", "system_name": "LC_A", "policy_tag": 0},
                    {"site_id": 1, "system_name": ["LC_A"], "policy_tag": 0}],
    "parse_linkstate": [dict(_good_records()[2][2], loss="high"),
                        dict(_good_records()[2][2], sampled_at=[])],
    "parse_group_rule": [{"action": ["deny"]}, {"action": "steer", "slocs": [[1]]}],
    "parse_identity": [{"groups": "12"}, {"groups": [[1]]}, {"groups": 3}],
}

REQUIRED = {"parse_service": "slocs", "parse_route": "system_name",
            "parse_linkstate": "status", "parse_group_rule": "action",
            "parse_node": "system_label"}


class TestParsers:
    @pytest.mark.parametrize("parser, key, doc, bad_key", _good_records(),
                             ids=lambda v: getattr(v, "__name__", ""))
    def test_each_malformation_raises_schema_error(self, parser, key, doc, bad_key):
        parser(key, schema.to_json_bytes(doc))
        bad = [b"\xff\xfe{}", b"not json", b"[1, 2]", b'"text"', b"7", b"1e999",
               b"[" * 100_000 + b"]" * 100_000]
        bad += [schema.to_json_bytes(d) for d in WRONG_TYPES[parser.__name__]]
        if parser.__name__ in REQUIRED:  # a missing "groups" is the default group
            bad += [schema.to_json_bytes({}), schema.to_json_bytes(
                {k: v for k, v in doc.items() if k != REQUIRED[parser.__name__]})]
        for value in bad:
            with pytest.raises(schema.SchemaError):
                parser(key, value)
        with pytest.raises(schema.SchemaError):
            parser(bad_key, schema.to_json_bytes(doc))

    @pytest.mark.parametrize("parser, key, doc, bad_key", _good_records(),
                             ids=lambda v: getattr(v, "__name__", ""))
    def test_mutated_values_parse_or_raise_schema_error(self, parser, key, doc, bad_key):
        rng = random.Random(11)
        rejected = 0
        for _ in range(400):
            try:
                parser(key, storegen.malformed_value(rng, doc))
            except schema.SchemaError:
                rejected += 1
        assert rejected > 200

    @pytest.mark.parametrize("src, dst", [(None, 7), (None, "b|c|2.2.2.2:2"),
                                          ("a|c|1.1.1.1:1", ["b|c|2.2.2.2:2"])])
    def test_a_linkstate_value_naming_a_non_string_is_rejected(self, src, dst):
        _, key, doc, _ = _good_records()[2]
        with pytest.raises(schema.ValidationError):
            schema.parse_linkstate(key, schema.to_json_bytes(dict(doc, src=src, dst=dst)))

    @pytest.mark.parametrize("src, dst", [("X", "Y"), ("a|c|1.1.1.1:1", "Y"),
                                          ("X", "b|c|2.2.2.2:2"),
                                          ("b|c|2.2.2.2:2", "a|c|1.1.1.1:1")])
    def test_a_linkstate_value_naming_another_pair_than_its_key_is_rejected(self, src, dst):
        _, key, doc, _ = _good_records()[2]
        assert schema.parse_linkstate_key(key) == (doc["src"], doc["dst"])
        with pytest.raises(schema.ValidationError, match="names"):
            schema.parse_linkstate(key, schema.to_json_bytes(dict(doc, src=src, dst=dst)))

    def test_linkstate_memo_follows_key_and_value(self, store):
        _, key, doc, _ = _good_records()[2]
        first = schema.to_json_bytes(doc)
        other = schema.to_json_bytes(dict(doc, loss=0.5))
        got = schema.parse_linkstate(key, first)
        assert schema.parse_linkstate(key, other)[1] == LinkStateRecord.from_doc(
            dict(doc, loss=0.5)) != got[1]
        assert schema.parse_linkstate(key, first) == got
        rejected = []

        def follower(ev):
            try:
                schema.parse_linkstate(ev.entry.key, ev.entry.value)
            except schema.SchemaError:
                rejected.append(ev.entry.value)

        for name in ("LC_A", "LC_B", "LC_C"):
            store.client(name).follow(schema.LINKSTATE_PREFIX, follower)
        store.put(key, first)
        store.put(key, b'{"loss": "high"}')
        assert rejected == [b'{"loss": "high"}'] * 3

    def test_identity_without_groups_is_default(self):
        key = schema.identity_key("u1", "d1")
        for doc in ({}, {"groups": []}):
            assert schema.parse_identity(key, schema.to_json_bytes(doc)) == [0]

    def test_readers_skip_malformed_values(self, handle, linecard):
        handle.put(schema.identity_key("u1", "d1"), b"[1]")
        handle.put(schema.group_rule_key(1, 2), b'{"action": 5}')
        handle.put("/control/group/x/2", schema.to_json_bytes({"action": "deny"}))
        assert linecard.identity_cache.get(schema.identity_key("u1", "d1"),
                                           [schema.DEFAULT_GROUP]) == [0]
        assert linecard.policy_rules == {}


class TestDecodeOncePerEntry:
    """A store entry is decoded once for all its readers: every follower of
    its put, every listing that replays it, every hunt and every
    registration that scans it.  The memo is the entry's, so a second world
    decodes afresh."""

    FOLLOWERS = 4

    @staticmethod
    def records():
        """(key, value) of 2 node, 2 service, 3 route and 6 link-state records."""
        out = [(schema.node_key("fabric", f"F{i}"),
                schema.to_json_bytes(NodeRecord("fabric", f"F{i}", 1, (0.0, 0.0), i).to_doc()))
               for i in range(2)]
        out += [(schema.service_key("fabric", f"F{i}"),
                 schema.service_value([make_sloc(ip=f"10.0.0.{i + 1}")])) for i in range(2)]
        for i in range(3):
            route = ServiceRoute(route_type=2, export_rt="100:1", rd="1:1",
                                 mac=f"aa:aa:aa:aa:aa:0{i}", ip=f"10.1.0.{i}", site_id=1,
                                 system_name="LC_B", policy_tag=0)
            out.append((route.key(), schema.to_json_bytes(route.to_doc())))
        for i in range(6):
            rec = LinkStateRecord(f"a|c|10.0.0.{i}:1", f"b|c|10.0.1.{i}:1", 1.0 + i, 0.0,
                                  0.0, "up", 0)
            out.append((rec.key(), schema.to_json_bytes(rec.to_doc())))
        return out

    def world(self):
        """Put the records, then list them to each follower, which also hunts
        and registers; returns what the last follower mirrors."""
        clock = VirtualClock()
        store = KvStore(clock)
        for key, value in self.records():
            store.put(key, value)
        for i in range(self.FOLLOWERS):
            h = store.client(f"LC{i}")
            routes = RouteSync({"100:1": 1}, {})
            routes.start(h.follow)
            links = LinkStateSync()
            links.start(h.follow)
            found, warnings = schema.hunt(h, "fabric")
            assert warnings == [] and [n for n, _ in found] == ["F0", "F1"]
            rec, _ = register(h, clock, f"LC{i}", role="linecard")
            assert rec.system_label == 2 + i
        rec = LinkStateRecord("a|c|10.0.0.9:1", "b|c|10.0.1.9:1", 1.0, 0.0, 0.0, "up", 0)
        store.put(rec.key(), schema.to_json_bytes(rec.to_doc()))
        return routes, links

    def test_a_listing_to_many_followers_decodes_each_record_once(self, monkeypatch):
        decodes = []
        real = schema.from_json_bytes
        monkeypatch.setattr(schema, "from_json_bytes",
                            lambda raw: decodes.append(raw) or real(raw))
        routes, links = self.world()
        assert len(routes.table.type2) == 3 and len(links.records) == 7
        # every record once, each follower's own /node record once for the
        # followers that register after it, and the put made after the listings
        once = len(self.records()) + (self.FOLLOWERS - 1) + 1
        assert len(decodes) == once
        self.world()  # a second world shares no memo with the first
        assert len(decodes) == 2 * once
