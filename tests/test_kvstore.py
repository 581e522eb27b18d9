"""KV store: leases, watches, partitions, and linearizability replay."""

import random
import tracemalloc

import pytest

from ruta import kvstore
from ruta.kvstore import DELETE, PUT, KvStore, StoreUnavailable
from ruta.netsim import VirtualClock, seconds


@pytest.fixture
def clock():
    return VirtualClock()


@pytest.fixture
def store(clock):
    return KvStore(clock)


class TestBasicOps:
    def test_read_your_write(self, store):
        store.put("/node/fabric/F1", b"v")
        assert store.get("/node/fabric/F1").value == b"v"

    def test_get_absent(self, store):
        assert store.get("/absent") is None

    def test_delete_returns_existence(self, store):
        store.put("/k", b"v")
        assert store.delete("/k") is True
        assert store.delete("/k") is False
        assert store.get("/k") is None

    def test_revisions_strictly_increase(self, store):
        r1 = store.put("/a", b"1")
        r2 = store.put("/a", b"2")
        store.put("/b", b"3")
        assert r1 < r2 < store.revision

    def test_empty_key_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("", b"v")

    def test_lease_expiry_hides_key(self, clock, store):
        lease = store.grant_lease(seconds(60))
        store.put("/node/linecard/LC1", b"v", lease.lease_id)
        clock.run_until(seconds(59))
        assert store.get("/node/linecard/LC1") is not None
        clock.run_until(seconds(61))
        assert store.get("/node/linecard/LC1") is None


class TestPrefix:
    def test_role_prefix(self, store):
        store.put("/service/STUN/a", b"1")
        store.put("/service/STUN/b", b"2")
        store.put("/service/fabric/c", b"3")
        entries = store.get_prefix("/service/STUN")
        assert [e.key for e in entries] == ["/service/STUN/a", "/service/STUN/b"]

    def test_universal_prefix(self, store):
        store.put("/a", b"1")
        store.put("/b", b"2")
        assert len(store.get_prefix("")) == 2

    def test_no_match(self, store):
        store.put("/a", b"1")
        assert store.get_prefix("/zzz") == []

    def test_sorted_output(self, store):
        for k in ["/r/c", "/r/a", "/r/b"]:
            store.put(k, b"x")
        assert [e.key for e in store.get_prefix("/r/")] == ["/r/a", "/r/b", "/r/c"]


class TestWatch:
    def test_put_event(self, store):
        events = []
        store.watch_prefix("/route/2/100:1/", on_event=events.append)
        store.put("/route/2/100:1/1:1/aa/1.2.3.4", b"v")
        assert len(events) == 1
        assert events[0].kind == PUT

    def test_lease_expiry_delivers_delete(self, clock, store):
        lease = store.grant_lease(seconds(60))
        store.put("/service/fabric/F1", b"v", lease.lease_id)
        events = []
        store.watch_prefix("/service/", on_event=events.append)
        clock.run_until(seconds(61))
        assert [e.kind for e in events] == [DELETE]
        assert events[0].entry.key == "/service/fabric/F1"

    def test_two_puts_two_events(self, store):
        events = []
        store.watch_prefix("/k", on_event=events.append)
        store.put("/k", b"1")
        store.put("/k", b"2")
        assert len(events) == 2
        assert events[0].revision < events[1].revision

    def test_callback_delivery(self, store):
        got = []
        store.watch_prefix("/x", on_event=got.append)
        store.put("/x/1", b"v")
        assert len(got) == 1

    def test_cancel_inside_a_callback(self, store):
        got = []
        victim = None

        def once(ev):
            got.append("once")
            w_once.cancel()
            victim.cancel()

        w_once = store.watch_prefix("/x", on_event=once)
        w_all = store.watch_prefix("/x", on_event=lambda ev: got.append("all"))
        victim = store.watch_prefix("/x", on_event=lambda ev: got.append("victim"))
        store.put("/x/1", b"v")
        store.put("/x/2", b"v")
        assert got == ["once", "all", "all"]
        assert store.watches == [w_all]
        w_all.cancel()
        w_all.cancel()
        assert store.watches == []

    def test_cancel_during_heal_replay(self, store):
        got = []
        h = store.client("c")

        def once(ev):
            got.append("once")
            w_once.cancel()

        w_once = h.follow("/x", once)
        later = h.follow("/x", lambda ev: got.append("later"))
        store.set_partitioned("c", True)
        store.put("/x/1", b"v")
        store.put("/x/2", b"v")
        store.set_partitioned("c", False)
        assert got == ["once", "later", "later"]
        assert store.watches == [later]

    def test_watch_completeness(self, store):
        # events under a prefix equal the mutation subsequence, in revision order
        rng = random.Random(5)
        events = []
        store.watch_prefix("/p/", on_event=events.append)
        expected = []
        for i in range(200):
            key = f"/{'pq'[rng.randrange(2)]}/{rng.randrange(5)}"
            if rng.random() < 0.7:
                rev = store.put(key, bytes([i % 256]))
                if key.startswith("/p/"):
                    expected.append((PUT, key, rev))
            else:
                existed = key in store.entries
                store.delete(key)
                if existed and key.startswith("/p/"):
                    expected.append((DELETE, key, store.revision))
        got = [(e.kind, e.entry.key, e.revision) for e in events]
        assert got == expected


class TestPrefixDispatch:
    """Watches are found through the key's `/`-ancestors, or the short list of
    prefixes that do not end in `/`, and each change goes out in watch_id
    order whichever group found the watch."""

    @staticmethod
    def recorder(got, name):
        return lambda ev: got.append((name, ev.entry.key))

    def test_nested_prefixes_each_get_their_keys(self, store):
        got = []
        store.watch_prefix("/a/", on_event=self.recorder(got, "a"))
        store.watch_prefix("/a/b/", on_event=self.recorder(got, "ab"))
        store.put("/a/b/k", b"v")
        store.put("/a/x", b"v")
        store.put("/a/b", b"v")  # no "/" after b: under /a/ only
        store.put("/b/a/k", b"v")
        assert got == [("a", "/a/b/k"), ("ab", "/a/b/k"), ("a", "/a/x"), ("a", "/a/b")]

    def test_a_prefix_not_ending_in_a_slash_matches_as_a_string_prefix(self, store):
        got = []
        store.watch_prefix("/a/b", on_event=self.recorder(got, "ab"))
        store.watch_prefix("", on_event=self.recorder(got, "all"))
        for key in ("/a/b", "/a/bc", "/a/b/k", "/a/c", "b"):
            store.put(key, b"v")
        assert got == [("ab", "/a/b"), ("all", "/a/b"), ("ab", "/a/bc"), ("all", "/a/bc"),
                       ("ab", "/a/b/k"), ("all", "/a/b/k"), ("all", "/a/c"), ("all", "b")]

    def test_delivery_is_in_watch_id_order_across_groups(self, store):
        got = []
        for name, prefix in (("1", "/a/b/"), ("2", "/a"), ("3", "/a/"), ("4", "/"),
                             ("5", "/a/b/"), ("6", "/a/b/k")):
            store.watch_prefix(prefix, on_event=self.recorder(got, name))
        store.put("/a/b/k", b"v")
        assert [name for name, _ in got] == ["1", "2", "3", "4", "5", "6"]
        got.clear()
        store.delete("/a/b/k")
        assert [name for name, _ in got] == ["1", "2", "3", "4", "5", "6"]

    def test_a_watch_canceled_by_a_callback_gets_nothing(self, store):
        got = []
        victims = []

        def first(ev):
            got.append(("first", ev.entry.key))
            for w in victims:
                w.cancel()

        store.watch_prefix("/a/b/", on_event=first)
        victims.append(store.watch_prefix("/a/", on_event=self.recorder(got, "a")))
        victims.append(store.watch_prefix("/a/b/", on_event=self.recorder(got, "ab")))
        victims.append(store.watch_prefix("/a", on_event=self.recorder(got, "slow")))
        store.put("/a/b/k", b"v")
        store.put("/a/b/k", b"w")
        assert got == [("first", "/a/b/k"), ("first", "/a/b/k")]
        assert [w.prefix for w in store.watches] == ["/a/b/"]

    def test_a_watch_added_during_delivery_gets_the_next_change_only(self, store):
        got = []
        added = []

        def adder(ev):
            got.append(("adder", ev.revision))
            if not added:
                for prefix in ("/a/", "/a/b/", "/a"):
                    added.append(store.watch_prefix(
                        prefix, on_event=lambda ev, p=prefix: got.append((p, ev.revision))))

        store.watch_prefix("/a/", on_event=adder)
        first = store.put("/a/b/k", b"v")
        second = store.put("/a/b/k", b"w")
        assert got == [("adder", first), ("adder", second), ("/a/", second),
                       ("/a/b/", second), ("/a", second)]

    def test_partition_backlog_replays_through_every_group(self, store):
        h = store.client("c")
        got = []
        for prefix in ("/a/", "/a/b/", "/a"):
            h.follow(prefix, lambda ev, p=prefix: got.append((p, ev.kind, ev.revision)))
        store.set_partitioned("c", True)
        r1 = store.put("/a/b/k", b"1")
        r2 = store.put("/a/x", b"2")
        store.delete("/a/b/k")
        r3 = store.revision
        assert got == []
        store.set_partitioned("c", False)
        # each watch replays its own backlog in revision order, watch by watch
        assert got == [("/a/", PUT, r1), ("/a/", PUT, r2), ("/a/", DELETE, r3),
                       ("/a/b/", PUT, r1), ("/a/b/", DELETE, r3),
                       ("/a", PUT, r1), ("/a", PUT, r2), ("/a", DELETE, r3)]

    def test_dispatch_equals_a_scan_of_every_watch(self, store):
        # seeded prefixes, cancels and mutations: each change reaches the
        # watches a startswith scan in watch_id order would pick
        rng = random.Random(23)
        parts = ("a", "b", "ab")
        got, watches = [], []
        for step in range(600):
            if rng.random() < 0.1 or not watches:
                depth = rng.randrange(4)
                prefix = "/" + "/".join(rng.choice(parts) for _ in range(depth))
                prefix = prefix if depth == 0 else prefix + rng.choice(("", "/"))
                w = store.watch_prefix(prefix, on_event=lambda ev, i=len(watches): got.append(
                    (i, ev.revision)))
                watches.append(w)
            elif rng.random() < 0.05:
                rng.choice(watches).cancel()
            key = "/" + "/".join(rng.choice(parts) for _ in range(rng.randrange(1, 5)))
            live = [i for i, w in enumerate(watches)
                    if not w.canceled and key.startswith(w.prefix)]
            got.clear()
            if rng.random() < 0.8:
                rev = store.put(key, b"v")
            elif not store.delete(key):
                continue
            else:
                rev = store.revision
            assert got == [(i, rev) for i in live]


class TestInlineDelivery:
    """The store hands a change straight to a live, unheld watch of a healthy
    client with no backlog; every other watch buffers it or drops it."""

    def test_one_put_reaches_four_kinds_of_watch_in_one_group(self, store):
        store.put("/g/0", b"0")
        got = {name: [] for name in ("direct", "held", "partitioned", "canceled")}
        watches = {}

        def record(name):
            return lambda ev: got[name].append((ev.kind, ev.entry.key, ev.revision))

        def direct(ev):
            record("direct")(ev)
            if ev.entry.key == "/g/1":
                watches["canceled"].cancel()

        watches["direct"] = store.client("A").follow("/g/", direct)
        watches["partitioned"] = store.client("C").follow("/g/", record("partitioned"))
        watches["canceled"] = store.client("D").follow("/g/", record("canceled"))
        store.set_partitioned("C", True)
        revs = []

        def held(ev):  # the put made during the listing waits for the listing to end
            if not revs:
                revs.append(store.put("/g/1", b"1"))
            record("held")(ev)

        watches["held"] = store.client("B").follow("/g/", held)
        ids = [watches[n].watch_id for n in ("direct", "partitioned", "canceled", "held")]
        assert ids == sorted(ids)  # one group, and the put meets them in this order
        listed, put = (PUT, "/g/0", 1), (PUT, "/g/1", revs[0])
        assert got == {"direct": [listed, put], "held": [listed, put],
                       "partitioned": [listed], "canceled": [listed]}
        assert watches["partitioned"].backlog and not watches["held"].backlog
        store.put("/g/2", b"2")
        assert got["partitioned"] == [listed]
        store.set_partitioned("C", False)
        assert got["partitioned"] == [listed, put, (PUT, "/g/2", revs[0] + 1)]
        assert got["canceled"] == [listed]
        assert got["direct"] == got["held"] == got["partitioned"]


class TestDecodeMemo:
    """Each entry decodes once per parser, for every reader of it."""

    def test_a_parser_runs_once_per_entry_for_followers_and_listings(self, store):
        calls = []

        def parse(key, value):
            calls.append((key, value))
            return (key, int(value))

        store.put("/d/a", b"1")
        decoded = []
        for name in ("A", "B"):
            store.client(name).follow("/d/", lambda ev: decoded.append(
                ev.entry.decoded[parse]))
        store.put("/d/b", b"2")
        store.client("C").follow("/d/", lambda ev: decoded.append(ev.entry.decoded[parse]))
        assert calls == [("/d/a", b"1"), ("/d/b", b"2")]
        assert decoded == [("/d/a", 1)] * 2 + [("/d/b", 2)] * 2 + [("/d/a", 1), ("/d/b", 2)]
        store.put("/d/a", b"3")  # a new value is a new entry, with a memo of its own
        assert calls[-1] == ("/d/a", b"3") and decoded[-1] == ("/d/a", 3)

    def test_a_parse_that_raises_is_not_remembered(self, store):
        calls = []

        def parse(key, value):
            calls.append(value)
            raise ValueError(value)

        store.put("/d/a", b"x")
        entry = store.get("/d/a")
        for _ in range(2):
            with pytest.raises(ValueError):
                entry.decoded[parse]
        assert calls == [b"x", b"x"] and parse not in entry.decoded

    def test_a_delete_hands_the_memo_to_its_tombstone(self, store):
        calls = []

        def parse(key, value):
            calls.append(value)
            return value.decode()

        store.put("/d/a", b"x")
        assert store.get("/d/a").decoded[parse] == "x"
        tombstones = []
        store.watch_prefix("/d/", on_event=tombstones.append)
        store.delete("/d/a")
        assert tombstones[0].kind == DELETE and tombstones[0].entry.decoded[parse] == "x"
        assert calls == [b"x"]

    def test_entries_compare_without_their_memo(self, store):
        store.put("/d/a", b"x")
        entry = store.get("/d/a")
        fresh = kvstore.KvEntry(entry.key, entry.value, entry.lease_id, entry.mod_revision,
                                kvstore.Decoded(entry.key, entry.value))
        assert entry.decoded[lambda key, value: value.decode()] == "x"
        assert entry == fresh and hash(entry) == hash(fresh)


class TestFollow:
    def test_seeds_in_key_order_then_streams(self, store):
        store.put("/f/b", b"2")
        store.put("/f/a", b"1")
        store.put("/g/x", b"x")
        got = []
        store.client("c").follow("/f/", got.append)
        assert [(e.kind, e.entry.key, e.revision) for e in got] == [
            (PUT, "/f/a", 2), (PUT, "/f/b", 1)]
        store.put("/f/c", b"3")
        store.delete("/f/a")
        store.put("/g/y", b"y")
        assert [(e.kind, e.entry.key, e.revision) for e in got[2:]] == [
            (PUT, "/f/c", 4), (DELETE, "/f/a", 5)]

    def test_put_made_while_seeding_is_streamed(self, store):
        store.put("/f/a", b"1")
        got = []

        def on_event(ev):
            got.append(ev.entry.key)
            if ev.entry.key == "/f/a":
                store.put("/f/b", b"2")

        store.client("c").follow("/f/", on_event)
        assert got == ["/f/a", "/f/b"]

    def test_put_made_while_replaying_is_delivered_once(self, store):
        store.put("/f/a", b"1")
        got = []

        def on_event(ev):
            got.append(ev.entry.key)
            if ev.entry.key == "/f/a":
                store.put("/f/b", b"2")
            elif ev.entry.key == "/f/b":
                store.put("/f/c", b"3")

        store.client("c").follow("/f/", on_event)
        assert got == ["/f/a", "/f/b", "/f/c"]

    def test_partition_during_listing_defers_its_changes_to_heal(self, store):
        store.put("/f/a", b"1")
        store.put("/f/b", b"2")
        got = []

        def on_event(ev):
            got.append((ev.kind, ev.entry.key, ev.revision))
            if ev.revision == 1:
                store.set_partitioned("c", True)
                store.put("/f/c", b"3")
                store.delete("/f/a")

        store.client("c").follow("/f/", on_event)
        store.put("/f/d", b"4")
        assert got == [(PUT, "/f/a", 1), (PUT, "/f/b", 2)]
        store.set_partitioned("c", False)
        assert got[2:] == [(PUT, "/f/c", 3), (DELETE, "/f/a", 4), (PUT, "/f/d", 5)]

    def test_a_followed_store_retains_under_8_bytes_per_put(self, store):
        seen = [0]

        def on_event(ev):
            seen[0] += 1

        store.client("c").follow("/k/", on_event)
        for i in range(100):
            store.put(f"/k/{i % 4}", bytes([i % 256]))
        puts = 20_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(puts):
                store.put(f"/k/{i % 4}", bytes([i % 256]))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert seen[0] == 100 + puts
        assert grown / puts < 8, grown / puts

    def test_a_listing_that_raises_leaves_no_watch(self, store):
        store.put("/f/a", b"1")

        def on_event(ev):
            raise RuntimeError("bad record")

        with pytest.raises(RuntimeError):
            store.client("c").follow("/f/", on_event)
        assert store.watches == []

    def test_partitioned_client_cannot_follow(self, store):
        store.put("/f/a", b"1")
        store.set_partitioned("c", True)
        got = []
        with pytest.raises(StoreUnavailable):
            store.client("c").follow("/f/", got.append)
        assert got == [] and store.watches == []

    def test_follow_after_compaction(self, store):
        # the store keeps no history, so a follower lists only live keys
        for i in range(5):
            store.put(f"/f/{i % 2}", bytes([i]))
        store.delete("/f/1")
        got = []
        store.client("c").follow("/f/", got.append)
        store.put("/f/2", b"x")
        assert [(e.entry.key, e.entry.value) for e in got] == [
            ("/f/0", bytes([4])), ("/f/2", b"x")]


class TestLease:
    def test_keepalive_extends(self, clock, store):
        lease = store.grant_lease(seconds(60))
        store.put("/k", b"v", lease.lease_id)
        clock.call_at(seconds(50), lambda: store.keepalive(lease.lease_id))
        clock.run_until(seconds(100))
        assert store.get("/k") is not None
        clock.run_until(seconds(111))
        assert store.get("/k") is None

    def test_expiry_is_exact(self, clock, store):
        lease = store.grant_lease(seconds(60))
        store.put("/k", b"v", lease.lease_id)
        seen = {}
        clock.call_at(seconds(60) - 1, lambda: seen.update(before=store.get("/k")))
        clock.run_until(seconds(60))
        assert seen["before"] is not None
        assert store.get("/k") is None

    def test_keepalive_after_expiry(self, clock, store):
        lease = store.grant_lease(seconds(60))
        clock.run_until(seconds(61))
        with pytest.raises(kvstore.LeaseNotFound):
            store.keepalive(lease.lease_id)

    def test_put_under_expired_lease(self, clock, store):
        lease = store.grant_lease(seconds(1))
        clock.run_until(seconds(2))
        with pytest.raises(kvstore.LeaseExpired):
            store.put("/k", b"v", lease.lease_id)

    @pytest.mark.parametrize("ttl", [0, -1])
    def test_ttl_must_be_positive(self, store, ttl):
        with pytest.raises(ValueError):
            store.grant_lease(ttl)
        assert store.leases == {}

    def test_put_at_the_expiry_instant(self, clock, store):
        # a put that runs at expires_at, ahead of the lease's expiry check,
        # finds the lease still held but expired
        raised = []

        def put():
            with pytest.raises(kvstore.LeaseExpired) as exc:
                store.put("/k", b"v", lease.lease_id)
            raised.append((clock.now, lease.lease_id in store.leases, str(exc.value)))

        clock.call_at(seconds(1), put)
        lease = store.grant_lease(seconds(1))
        clock.run_until(seconds(1))
        assert raised == [(seconds(1), True, f"lease {lease.lease_id} expired")]
        assert store.get("/k") is None and lease.lease_id not in store.leases

    def test_atomic_multi_key_expiry(self, clock, store):
        lease = store.grant_lease(seconds(10))
        for i in range(5):
            store.put(f"/s/{i}", b"v", lease.lease_id)
        clock.run_until(seconds(11))
        assert store.get_prefix("/s/") == []


class TestPartition:
    def test_ops_fail_while_partitioned(self, store):
        h = store.client("LC_A")
        h.put("/k", b"v")
        store.set_partitioned("LC_A", True)
        with pytest.raises(StoreUnavailable):
            h.get("/k")
        with pytest.raises(StoreUnavailable):
            h.put("/k", b"w")

    def test_heal_replays_backlog_in_order(self, store):
        h = store.client("LC_A")
        got = []
        h.follow("/r/", got.append)
        store.set_partitioned("LC_A", True)
        store.put("/r/a", b"1")
        store.put("/r/b", b"2")
        store.delete("/r/a")
        assert got == []
        store.set_partitioned("LC_A", False)
        assert [(e.kind, e.entry.key) for e in got] == [
            (PUT, "/r/a"), (PUT, "/r/b"), (DELETE, "/r/a")]
        revs = [e.revision for e in got]
        assert revs == sorted(revs)

    def test_heal_replay_stays_in_revision_order_when_a_callback_puts(self, store):
        got = []

        def on_event(ev):
            got.append(ev.revision)
            if ev.entry.key == "/r/a":
                store.put("/r/c", b"3")

        store.client("LC_A").follow("/r/", on_event)
        store.set_partitioned("LC_A", True)
        store.put("/r/a", b"1")
        store.put("/r/b", b"2")
        store.set_partitioned("LC_A", False)
        assert got == [1, 2, 3]

    def test_leases_expire_during_partition(self, clock, store):
        h = store.client("LC_A")
        lease = h.grant_lease(seconds(60))
        h.put("/k", b"v", lease.lease_id)
        store.set_partitioned("LC_A", True)
        clock.run_until(seconds(61))  # expiry is store-local
        store.set_partitioned("LC_A", False)
        assert h.get("/k") is None


class TestLinearizability:
    def test_model_replay_random_interleavings(self, clock, store):
        """Replaying the op log against a dict model reproduces every result."""
        rng = random.Random(17)
        handles = [store.client(f"c{i}") for i in range(4)]
        log = []

        def do_op(h):
            key = f"/k/{rng.randrange(6)}"
            choice = rng.random()
            if choice < 0.5:
                rev = h.put(key, bytes([rng.randrange(256)]))
                log.append(("put", key, store.entries[key].value, rev))
            elif choice < 0.8:
                e = h.get(key)
                log.append(("get", key, None if e is None else e.value, None))
            else:
                existed = h.delete(key)
                log.append(("delete", key, existed, None))

        for i in range(400):
            h = handles[rng.randrange(len(handles))]
            clock.call_at(rng.randrange(0, 10_000), lambda h=h: do_op(h))
        clock.run_until_quiescent()

        model = {}
        last_rev = 0
        for op, key, val, rev in log:
            if op == "put":
                model[key] = val
                assert rev > last_rev
                last_rev = rev
            elif op == "get":
                assert model.get(key) == val
            else:
                assert (key in model) == val
                model.pop(key, None)
