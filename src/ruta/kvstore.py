"""In-process deterministic K-V store: the control-plane contract.

Provides get/put/delete, prefix fetch, prefix watch and leases, all
serialized through the virtual clock's event queue.  The surface is
deliberately etcd-shaped so an adapter to a real external store could be
attached later without touching callers; within the simulator this
implementation is authoritative.

Clients subscribe with StoreHandle.follow, the etcd idiom of list then watch:
the watch is registered before the listing and holds what changes meanwhile,
so no follower needs older history and the store keeps none.

The store has no lock.  A client acts within one event of the virtual clock,
and no other client acts until that event returns, so a read and a write
made in one event, as schema.register_node makes them, are atomic without one.

Partitions are per client name: while a client is partitioned its operations
raise StoreUnavailable and its watches buffer events, which replay in
revision order on heal.

Watches are indexed by prefix, as etcd's watcher_group does it: a change
looks up the watches on each `/`-ancestor of its key (a prefix that ends in
`/`), plus a short list of watches whose prefix ends otherwise, so a put costs
the watches it reaches and the depth of its key, not the number of watches.
The hits are collected before any is delivered and go out in watch_id
order: a watch added during delivery does not see the change, and one that
a callback cancels gets nothing more.  The store hands a change straight to
the on_event of a watch that is live, not held, has no backlog and whose
client is healthy, and appends it to the backlog of every other live watch.

Every entry carries a decode memo, `KvEntry.decoded`: `decoded[parse]` is
parse(key, value), called on the first lookup only, so all the followers of
a put and every listing that replays the entry share one decode.  A lookup
that hits is a dict read and runs no Python code.  The memo lives and dies
with its entry; a delete hands it to the tombstone, which holds the same
value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from .netsim import VirtualClock

PUT = "put"
DELETE = "delete"


class StoreError(Exception):
    pass


class StoreUnavailable(StoreError):
    pass


class LeaseExpired(StoreError):
    pass


class LeaseNotFound(StoreError):
    pass


class Decoded(dict):
    """One entry's decode memo: parse -> parse(key, value).  A parse runs on
    its first lookup; one that raises stores nothing and raises again on
    the next lookup."""

    __slots__ = ("key", "value")

    def __init__(self, key: str, value: bytes):
        self.key = key
        self.value = value

    def __missing__(self, parse: Callable[[str, bytes], object]):
        got = self[parse] = parse(self.key, self.value)
        return got


@dataclass(frozen=True)
class KvEntry:
    key: str
    value: bytes
    lease_id: Optional[int]
    mod_revision: int
    decoded: Decoded = field(compare=False, repr=False)


@dataclass(frozen=True)
class WatchEvent:
    kind: str  # PUT | DELETE
    entry: KvEntry
    revision: int


class Lease:
    def __init__(self, lease_id: int, ttl_ns: int, expires_at: int):
        self.lease_id = lease_id
        self.ttl_ns = ttl_ns
        self.expires_at = expires_at
        self.keys: set[str] = set()


class Watch:
    """Single-consumer event stream over one key prefix.

    Events go to on_event as they happen while the owning client is healthy.
    They wait in the backlog, in revision order, while the client is
    partitioned (replayed on heal) or while the watch is held (replayed on
    release, as follow does after its listing).
    """

    def __init__(self, store: "KvStore", watch_id: int, prefix: str,
                 client: Optional[str], on_event: Callable[[WatchEvent], None]):
        self.store = store
        self.watch_id = watch_id
        self.prefix = prefix
        self.client = client
        self.on_event = on_event
        self.backlog: deque[WatchEvent] = deque()
        self.held = False
        self.canceled = False

    def _client_healthy(self) -> bool:
        return self.client is None or self.client not in self.store.partitioned

    def _flush(self) -> None:
        while self.backlog and not (self.held or self.canceled):
            self.on_event(self.backlog.popleft())

    def release(self) -> None:
        """Stop holding; the backlog replays now, or on heal if partitioned."""
        self.held = False
        if self._client_healthy():
            self._flush()

    def cancel(self) -> None:
        if not self.canceled:
            self.canceled = True
            self.store._unwatch(self)


_WATCH_ID = attrgetter("watch_id")


class KvStore:
    """Deterministic single-process store bound to a virtual clock."""

    history = ()  # the store keeps no history: watchers follow from now on

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self.revision = 0
        self.entries: dict[str, KvEntry] = {}
        self.leases: dict[int, Lease] = {}
        self.watches: list[Watch] = []  # every live watch, in watch_id order
        self._by_prefix: dict[str, list[Watch]] = {}  # prefixes ending in "/"
        self._unindexed: list[Watch] = []  # every other prefix
        self.partitioned: set[str] = set()
        self._next_lease_id = 1
        self._next_watch_id = 1

    def client(self, name: str) -> "StoreHandle":
        return StoreHandle(self, name)

    # -- core K-V ----------------------------------------------------------

    def _emit(self, kind: str, entry: KvEntry) -> None:
        key = entry.key
        groups = []
        cut = key.find("/")
        while cut >= 0:
            group = self._by_prefix.get(key[:cut + 1])
            if group:
                groups.append(group)
            cut = key.find("/", cut + 1)
        if self._unindexed:
            slow = [w for w in self._unindexed if key.startswith(w.prefix)]
            if slow:
                groups.append(slow)
        if not groups:
            return
        # a copy: a callback may add or cancel a watch
        hits = (tuple(groups[0]) if len(groups) == 1
                else sorted((w for g in groups for w in g), key=_WATCH_ID))
        ev = WatchEvent(kind, entry, entry.mod_revision)
        partitioned = self.partitioned
        for watch in hits:
            if watch.canceled:
                continue
            if watch.held or watch.backlog or watch.client in partitioned:
                watch.backlog.append(ev)  # a backlog being replayed goes first
            else:
                watch.on_event(ev)

    def _live_lease(self, lease_id: Optional[int]) -> Optional[Lease]:
        if lease_id is None:
            return None
        lease = self.leases.get(lease_id)
        if lease is None:
            raise LeaseExpired(f"lease {lease_id} is gone")
        if self.clock.now >= lease.expires_at:
            raise LeaseExpired(f"lease {lease_id} expired")
        return lease

    def put(self, key: str, value: bytes, lease_id: Optional[int] = None) -> int:
        if not key:
            raise ValueError("key must be non-empty")
        lease = self._live_lease(lease_id)
        old = self.entries.get(key)
        if old is not None and old.lease_id is not None and old.lease_id != lease_id:
            old_lease = self.leases.get(old.lease_id)
            if old_lease is not None:
                old_lease.keys.discard(key)
        self.revision += 1
        value = bytes(value)
        entry = KvEntry(key, value, lease_id, self.revision, Decoded(key, value))
        self.entries[key] = entry
        if lease is not None:
            lease.keys.add(key)
        self._emit(PUT, entry)
        return self.revision

    def get(self, key: str) -> Optional[KvEntry]:
        return self.entries.get(key)

    def delete(self, key: str) -> bool:
        old = self.entries.pop(key, None)
        if old is None:
            return False
        if old.lease_id is not None:
            lease = self.leases.get(old.lease_id)
            if lease is not None:
                lease.keys.discard(key)
        self.revision += 1
        self._emit(DELETE, KvEntry(key, old.value, old.lease_id, self.revision, old.decoded))
        return True

    def get_prefix(self, prefix: str) -> list[KvEntry]:
        entries = self.entries
        return [entries[k] for k in sorted([k for k in entries if k.startswith(prefix)])]

    # -- watches ------------------------------------------------------------

    def watch_prefix(self, prefix: str, client: Optional[str] = None, *,
                     on_event: Callable[[WatchEvent], None]) -> Watch:
        """Watch changes from the next revision on."""
        watch = Watch(self, self._next_watch_id, prefix, client, on_event)
        self._next_watch_id += 1
        self.watches.append(watch)
        self._group(prefix).append(watch)
        return watch

    def _group(self, prefix: str) -> list[Watch]:
        if prefix.endswith("/"):
            return self._by_prefix.setdefault(prefix, [])
        return self._unindexed

    def _unwatch(self, watch: Watch) -> None:
        self.watches.remove(watch)
        group = self._group(watch.prefix)
        group.remove(watch)
        if not group and watch.prefix in self._by_prefix:
            del self._by_prefix[watch.prefix]

    # -- leases ---------------------------------------------------------------

    def grant_lease(self, ttl_ns: int) -> Lease:
        if ttl_ns <= 0:
            raise ValueError("ttl must be positive")
        lease = Lease(self._next_lease_id, ttl_ns, self.clock.now + ttl_ns)
        self._next_lease_id += 1
        self.leases[lease.lease_id] = lease
        self.clock.call_at(lease.expires_at, lambda: self._expiry_check(lease.lease_id),
                           label=f"lease:{lease.lease_id}")
        return lease

    def keepalive(self, lease_id: int) -> int:
        lease = self.leases.get(lease_id)
        if lease is None or self.clock.now >= lease.expires_at:
            raise LeaseNotFound(f"lease {lease_id} not alive")
        lease.expires_at = self.clock.now + lease.ttl_ns
        return lease.expires_at

    def _expiry_check(self, lease_id: int) -> None:
        lease = self.leases[lease_id]  # only this check deletes a lease; one is pending
        if self.clock.now < lease.expires_at:
            self.clock.call_at(lease.expires_at, lambda: self._expiry_check(lease_id),
                               label=f"lease:{lease_id}")
            return
        del self.leases[lease_id]
        for key in sorted(lease.keys):
            entry = self.entries.get(key)
            if entry is not None and entry.lease_id == lease_id:
                self.delete(key)

    # -- partitions ----------------------------------------------------------------

    def set_partitioned(self, client: str, on: bool) -> None:
        if on:
            self.partitioned.add(client)
            return
        self.partitioned.discard(client)
        for watch in tuple(self.watches):
            if watch.client == client:
                watch._flush()


class StoreHandle:
    """Per-client view of the store: every operation raises StoreUnavailable
    while the client is partitioned."""

    def __init__(self, store: KvStore, name: str):
        self.store = store
        self.name = name

    def _check(self) -> None:
        if self.name in self.store.partitioned:
            raise StoreUnavailable(f"client {self.name} is partitioned")

    def put(self, key: str, value: bytes, lease_id: Optional[int] = None) -> int:
        self._check()
        return self.store.put(key, value, lease_id)

    def get(self, key: str) -> Optional[KvEntry]:
        self._check()
        return self.store.get(key)

    def delete(self, key: str) -> bool:
        self._check()
        return self.store.delete(key)

    def get_prefix(self, prefix: str) -> list[KvEntry]:
        self._check()
        return self.store.get_prefix(prefix)

    def follow(self, prefix: str, on_event: Callable[[WatchEvent], None]) -> Watch:
        """List then watch: on_event gets a PUT for every live key under the
        prefix, in key order, then every later change."""
        self._check()
        watch = self.store.watch_prefix(prefix, self.name, on_event=on_event)
        watch.held = True  # changes made by on_event during the listing wait
        try:
            for entry in self.store.get_prefix(prefix):
                on_event(WatchEvent(PUT, entry, entry.mod_revision))
        except BaseException:
            watch.cancel()  # a failed follow leaves no held watch behind
            raise
        watch.release()
        return watch

    def grant_lease(self, ttl_ns: int) -> Lease:
        self._check()
        return self.store.grant_lease(ttl_ns)

    def keepalive(self, lease_id: int) -> int:
        self._check()
        return self.store.keepalive(lease_id)
