"""Node runtimes and the forwarding state machine.

Linecards encapsulate host frames after policy lookup and path selection
and execute End.DT2U / End.DT4 on arrival: deliver to the local host, or
re-encapsulate toward the owner the destination's route names.  A route
that names the executing linecard itself, or whose path's outer address is
one of the linecard's own SLoC addresses, private or public (another
system's record may announce them), counts as no route (`drop_no_l2_entry`,
`drop_no_vrf_route`): the frame is never sent to the linecard's own SLoC,
where it would arrive again.  Nor is a host frame on a route that names
its own linecard: the linecard delivers or drops it at once, as End.DT2U
or End.DT4 there would.  Fabrics relay segments,
filling a zeroed SRoU source from the observed outer source on the first
hop (NAT traversal) and optionally admitting packets by a time-bucketed
token carried in the 32-bit flow id.  STUN nodes answer address-discovery OAM; LSDB nodes
mirror the store's link state as regional read replicas.

Every runtime is a single-threaded event handler on the shared virtual
clock: packet arrivals, timers, and watch callbacks.  Runtimes share no
mutable state, only immutable link-state snapshots (see `pathengine`);
they interact only through simulated packets and the store.

Each runtime owns its store session: every subscription goes through
`NodeRuntime.watch`, and a failed store call from the event loop makes the
node headless: it keeps forwarding from cached state, and its watches buffer
until heal and replay.  It publishes one owned map, key -> (value, lease
class): its service record, type-2 routes and sessions' link-state records.
Reconciling puts each owned key the store lacks or holds with another value
or lease: a key when it is owned, and every key on a sync, which a publish
(at start, when STUN ends, every 5 s while that fails) and each keepalive
make.  A sync renews each of the runtime's two leases on its own, or
grants one in place of a lease the store no longer holds; it registers when
it holds no record, or lease 1 was replaced, then reconciles, which puts
the keys of a replaced lease under the new one.  Success ends headless
mode.  A failed registration keeps its leases, which the next sync renews
before it tries again.  A linecard announces a host learned while no
session was live on the sync that puts its route.

A runtime made with `use_stun` learns its first SLoC's public address by
one STUN client transaction before it announces the SLoC.  After its first
sync, it sends a request to the first STUN server the store announces, and
a `stun-retry` timer re-sends it after each timeout of `STUN_BACKOFF_NS`
(1 s, 2 s, 4 s).  The first response from the server's address that
observes a valid public address cancels the timer and becomes the SLoC's
public address (`stun_resolved`).  After the last timeout, the runtime keeps
its private address (`stun_failed`).  Either way it then publishes.  With
no server announced it publishes at once and sends nothing.  A response
from another address counts as `drop_stun_foreign`, an invalid one as
`drop_stun_invalid`, and one after the transaction ended as
`drop_stun_late`.

Probing has one opener, `NodeRuntime._probe(system)`: a session from every
local SLoC to every announced SLoC of another system, opened on the store
event that names it.  Fabrics and linecards open one to each fabric the
whitelist admits when it announces; linecards also open one to each
destination system of their routes, whitelisted or not, on the route put or
the service announce, whichever comes second.  A re-announce without a
SLoC, or the deletion of the service, closes the sessions to the SLoCs no
longer announced: their ticks stop, and at a linecard the paths cached to
the system are dropped.  Each session has one verdict: its status at a
fabric, and (status, SLA violated) at a linecard, judged on the session's
running sums.  The first outcome and every change of the verdict put the
session's record once.  The report timer puts each local SLoC's utilization
under /stats/sloc, which no runtime follows, and the record of each session
whose figures (delay, jitter, loss, status) differ from the ones owned for
its key; a record is built only for a put.  At a linecard, a change of
the SLA part also drops the paths cached to the peer's system and writes an
`sla_change` record that names the session by its local and peer SLoCs.

Header work on received packets is memoized by value, once per node, in one
idiom: a node wraps each pure function of it in a `functools.lru_cache` of
its own, of at most `MEMO_ENTRIES` entries, since keys come from peer bytes.
A runtime's `_hop` checks a data header's octets, `payload[:max(4, SRoU
Length)]` (OAM is parsed every time, see `_parse`), and relays them from the
observed source, which fills a zero source; an app socket's `_check` checks
them and reads their source.  A hit equals a miss: `srou.parse_data` reads
nothing past SRoU Length, a payload cut short of it is its own key, at least
four octets are keyed, and a call that raises is not cached.  So a packet
whose zero source would be filled with a source that no header can hold is
malformed.  The token check, function execution, counters and trace records
stay per packet.  `_header` builds every data header a node sends: at a
linecard's encap, and at app sockets, which keep a memo of it.  A path that
no header can carry is a counted drop, `drop_unencodable_path`.  Each
per-frame trace record, and a linecard's `path_selected`, goes through the
node's `FrameTrace`, which builds one body per event and raw values, so
equal encaps, relays, deliveries and path choices share it, and bumps the
event's counter in the node's `counts` in the same call.

A linecard decides once per flow.  Its flow cache maps (host vnid, vrf,
identity, destination MAC, destination IP, T bit), read from the host on
every frame, to the encap an announced host's frame got: local SLoC, outer
address, header, SL, trace body and flow id.  A hit only sends and traces,
since its host is announced already.  A miss learns the host and decides
afresh: it ranks the sessions to the destination system, encodes the header,
and owns the host's route again if the host's groups changed its policy tag.
The cache holds at most `MEMO_ENTRIES` flows and is emptied when full,
wherever a cached path is dropped (route and /service/ events, a link-state
delta that drops one, the path refresh), on each probe outcome, which the
ranking reads, and on the other inputs of a decision: policy and identity
events and `attach_host`.  A link-state delta drops every engineered path
and every path with the delta's src or dst among its waypoints; on a
linecard that caches no path it returns at once.

Host frames are the minimal tuple (src_mac, dst_mac, src_ip, dst_ip,
payload), serialized as 6+6+4+4 octets plus payload; each distinct 20-octet
header is packed, and parsed, once.
"""

from __future__ import annotations

import functools
import hmac
import ipaddress
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

from . import schema, srou
from .kvstore import DELETE, PUT, KvStore, Lease, LeaseNotFound, StoreError
from .netsim import Datagram, Network, Trace, VirtualClock, seconds
from .pathengine import (
    PATH_DIRECT,
    PATH_ENGINEERED,
    PATH_POLICY_STEER,
    ComputedPath,
    LinkStateSync,
    NoFeasiblePath,
    NoRoute,
    RouteSync,
    SlaPolicy,
    edge_cost_ms,
    shortest_constrained,
    sla_breach,
)
from .prober import (
    PROBE_INTERVAL_NS,
    MalformedOam,
    ProbeResponder,
    ProbeSession,
)
from .schema import (  # noqa: F401  bench/layers.py rebinds from_json_bytes here
    LinkStateRecord,
    NodeRecord,
    PolicyRule,
    SchemaError,
    ServiceRoute,
    ServiceSloc,
    Sloc,
    from_json_bytes,
)

ZERO_SOURCE = ("0.0.0.0", 0)

DEFAULT_LEASE1_S = 60
DEFAULT_LEASE2_S = 600

MEMO_ENTRIES = 1024  # the bound of each per-node memo of header work
_memo = functools.lru_cache(maxsize=MEMO_ENTRIES)  # a new cache per function wrapped
_OAM = srou.ProtocolId.OAM  # read per packet: an enum attribute read costs ~0.1 us
STUN_BACKOFF_NS = (seconds(1), seconds(2), seconds(4))  # each STUN request's timeout
UDP_OVERHEAD_BYTES = 28  # IPv4 + UDP header octets, counted with each payload's bytes


class DataplaneError(Exception):
    pass


def _check(octets: bytes) -> tuple[srou.DataLayout, tuple[str, int]]:
    """The layout and SRoU source of a data header's octets."""
    lay = srou.parse_data(octets)
    return lay, srou.data_source(octets, lay)


def _hop(octets: bytes, ip: str, port: int) -> tuple:
    """(layout, source filled, active segment, patched header) of a data
    header's octets relayed from the observed source (ip, port)."""
    lay = srou.parse_data(octets)
    buf = bytearray(octets)
    filled, seg = srou.relay_in_place(buf, lay, (ip, port))
    return lay, filled, seg, bytes(buf)


def _parse(memo, payload: bytes, *observed):
    """srou.parse(payload) as a tuple led by the layout: what memo, a node's
    memo of _check or _hop, gives on a data header's octets and observed,
    or (layout, None) for OAM."""
    if len(payload) > 3 and payload[3] != _OAM:
        return memo(payload[:max(4, payload[1])], *observed)
    return srou.parse_oam(payload), None  # under 4 octets: TruncatedHeader


def _header(source: tuple[str, int], visit: tuple, flow_id: int,
            flow_id_type: srou.FlowIdType = srou.FlowIdType.FT32, t_bit: bool = False,
            function: Optional[srou.Function] = None) -> bytes:
    """The IPv4 SRoU header of every data packet a node sends: from source,
    through the waypoints at the addresses of visit in visit order, then to
    function at the last of them, if given; every segment is left to visit.
    A header that does not encode raises its CodecError."""
    segments = tuple(srou.Waypoint(*addr) for addr in reversed(visit))
    if function is not None:
        segments = (function,) + segments
    return srou.encode_header(srou.SRoUHeader(
        protocol_id=srou.ProtocolId.IPV4, source_address=source[0],
        source_port=source[1], segment_list=segments, segments_left=len(segments),
        flow_id=flow_id, flow_id_type=flow_id_type, t_bit=t_bit))


# ---------------------------------------------------------------------------
# host frames


class HostFrame(NamedTuple):
    src_mac: str
    dst_mac: str
    src_ip: str
    dst_ip: str
    payload: bytes


@_memo
def _frame_header(fields: tuple[str, str, str, str]) -> bytes:
    """The 20 octets of (src_mac, dst_mac, src_ip, dst_ip); a rejected
    field is not cached."""
    macs = b"".join(bytes(int(p, 16) for p in mac.split(":")) for mac in fields[:2])
    return macs + srou.pack_ipv4(fields[2]) + srou.pack_ipv4(fields[3])


@_memo
def _frame_fields(octets: bytes) -> tuple[str, str, str, str]:
    return (octets[0:6].hex(":"), octets[6:12].hex(":"),
            "%d.%d.%d.%d" % tuple(octets[12:16]), "%d.%d.%d.%d" % tuple(octets[16:20]))


def encode_frame(frame: HostFrame) -> bytes:
    return _frame_header(frame[:4]) + frame.payload


def decode_frame(data: bytes) -> HostFrame:
    if len(data) < 20:
        raise DataplaneError(f"frame too short: {len(data)}")
    return tuple.__new__(HostFrame, (*_frame_fields(bytes(data[:20])), bytes(data[20:])))


# ---------------------------------------------------------------------------
# token admission


class TokenAuthority:
    """Stateless time-bucketed admission tokens sized for the 32-bit flow id.

    token = first 4 octets of HMAC-SHA256(secret, client /24 bucket || time
    bucket); validation accepts the current bucket plus `window` previous
    ones.  Each authority memoizes the token per (client IP, bucket), in at
    most `MEMO_ENTRIES` entries, since client addresses come from peers.
    """

    bucket_ns = seconds(30)
    window = 1

    def __init__(self, secret: str):
        self.secret = secret.encode()
        self._compute = _memo(self._compute)

    def _bucket(self, now_ns: int) -> int:
        return now_ns // self.bucket_ns

    def _compute(self, client_ip: str, bucket: int) -> int:
        # IPv6 works, malformed raises
        prefix = ipaddress.ip_network(f"{client_ip}/24", strict=False).network_address
        digest = hmac.digest(self.secret, f"{prefix}/{bucket}".encode(), "sha256")
        return int.from_bytes(digest[:4], "big")

    def mint(self, client_public_ip: str, now_ns: int) -> int:
        return self._compute(client_public_ip, self._bucket(now_ns))

    def validate(self, flow_id: int, observed_ip: str, now_ns: int) -> bool:
        bucket = self._bucket(now_ns)
        for back in range(self.window + 1):
            if bucket - back < 0:
                break
            if flow_id == self._compute(observed_ip, bucket - back):
                return True
        return False


# ---------------------------------------------------------------------------
# STUN


def stun_serve(req: srou.OamLayout, observed_src: tuple[str, int]) -> srou.OamMessage:
    """Answer a checked STUN request with the source address as this node
    saw it."""
    if req.oam_type != srou.OamType.STUN or req.subtype != srou.STUN_REQUEST:
        raise MalformedOam("not a STUN request")
    return srou.OamMessage(
        oam_type=srou.OamType.STUN,
        oam_subtype=srou.STUN_RESPONSE,
        payload=srou.StunResponseData(observed_src[0], observed_src[1]),
        flow_id=req.flow_id,
        flow_id_type=req.flow_id_type,
    )


# ---------------------------------------------------------------------------
# shared runtime plumbing


@dataclass
class World:
    """Shared simulation context handed to every runtime."""

    clock: VirtualClock
    net: Network
    store: KvStore
    trace: Trace


# The records a FrameTrace writes, each rendered from the raw values that key its body.
_FRAME_DETAIL = {
    "relay": lambda ip, port, sl, flow_id: {"to": f"{ip}:{port}", "sl": sl,
                                            "flow_id": flow_id},
    "source_fill": lambda ip, port, flow_id: {"filled": f"{ip}:{port}",
                                              "flow_id": flow_id},
    "deliver": lambda host, dst_ip: {"host": host, "dst_ip": dst_ip},
    "app_rx": lambda ip, port, nbytes: {"source": f"{ip}:{port}", "nbytes": nbytes},
    "postcard": lambda action, flow_id, sl: {"flow_id": flow_id, "sl": sl,
                                             "action": action},
    "malformed": lambda error: {"error": error},
    "unknown_function": lambda code: {"code": code},
    "policy_deny": lambda dst: {"dst": dst},
    "passthrough": lambda nbytes: {"nbytes": nbytes},
    # the cost is keyed by its repr, so that 0.0 and -0.0 stay apart
    "path_selected": lambda dst, source, waypoints, cost: {
        "dst": dst, "source": source, "waypoints": waypoints, "cost_ms": float(cost)},
    "encap": lambda dst, ip, port, outer_ip, outer_port, sl, flow_id, path, function, args: {
        "dst": dst, "outer_src": f"{ip}:{port}", "outer_dst": f"{outer_ip}:{outer_port}",
        "sl": sl, "flow_id": flow_id, "path": path, "args": args,
        "function": srou.FUNCTION_NAMES.get(function, hex(function))},
}

_FRAME_COUNTER = {  # the counter each per-frame record bumps; a postcard bumps none
    "relay": "relay", "source_fill": "source_fill", "encap": "encap",
    "deliver": "deliver_host", "app_rx": "rx_srou", "passthrough": "rx_passthrough",
    "malformed": "drop_malformed", "policy_deny": "drop_policy_deny",
    "unknown_function": "drop_unknown_function"}


class FrameTrace:
    """A node's per-frame trace records.  Each appends (time, body id) and
    bumps its event's counter in the node's counts; the body is built and
    registered only on the first frame of its key, the event and its raw
    values.  Those are ints, strs and tuples of strs (a float goes as its
    repr), so keys that compare equal render alike."""

    def __init__(self, clock: VirtualClock, trace: Trace, node: str,
                 counts: dict[str, int]):
        self.clock = clock
        self.trace = trace
        self.node = node
        self.counts = counts
        self._ids: dict[tuple, int] = {}

    def body(self, event: str, *raw) -> int:
        """The id of the body of event with these raw values, for records
        appended later, as a linecard's flow cache appends its encaps."""
        body = self._ids.get((event, raw))
        if body is None:
            body = self._ids[event, raw] = self.trace.body(
                self.node, event, **_FRAME_DETAIL[event](*raw))
        return body

    def emit(self, event: str, *raw) -> None:
        body = self._ids.get((event, raw))  # inline, so a frame costs no extra call
        if body is None:
            body = self.body(event, *raw)
        self.trace.append(self.clock.now, body)
        counter = _FRAME_COUNTER.get(event)
        if counter is not None:
            self.counts[counter] = self.counts.get(counter, 0) + 1

    def append(self, event: str, body: int) -> None:
        """Record event, one with a counter, by the id body() gave for its body."""
        self.trace.append(self.clock.now, body)
        counter = _FRAME_COUNTER[event]
        self.counts[counter] = self.counts.get(counter, 0) + 1


@dataclass
class ProbeConfig:
    report_interval_ns: int = seconds(10)
    whitelist: Optional[set[str]] = None


@dataclass
class TokenEdgeConfig:
    secret: str


class _ProbeTimer:
    """One probe session's clock callback: each call runs its runtime's
    `_probe_tick`, which schedules the same timer again.  It is a slotted
    object of this module, not a closure, so it costs three references and
    is timed as this module's layer; the session holds no reference to it."""

    __slots__ = ("runtime", "session", "label")

    def __init__(self, runtime: "NodeRuntime", session: ProbeSession, label: str):
        self.runtime = runtime
        self.session = session
        self.label = label

    def __call__(self) -> None:
        self.runtime._probe_tick(self)


class NodeRuntime:
    """Common onboarding, leases, OAM handling, and probe reporting."""

    role = "node"

    def __init__(self, world: World, name: str, slocs: list[Sloc], site_id: int = 0,
                 location: tuple[float, float] = (0.0, 0.0),
                 probe: Optional[ProbeConfig] = None, use_stun: bool = False):
        self.clock = world.clock
        self.net = world.net
        self.trace = world.trace
        self.name = name
        self.site_id = site_id
        self.location = location
        self.slocs = [ServiceSloc(name, s) for s in slocs]
        self.handle = world.store.client(name)
        self.probe_cfg = probe or ProbeConfig()
        self.stun_pending = use_stun  # a STUN discovery is still to run
        self.record: Optional[NodeRecord] = None
        self.lease1 = None
        self.lease2 = None
        self.alive = True
        self.headless = False
        self.counts: dict[str, int] = {}
        self.frame_trace = FrameTrace(world.clock, world.trace, name, self.counts)
        self.responder = ProbeResponder()
        self.sessions: dict[tuple[str, tuple[str, int]], ProbeSession] = {}
        self.service_dir: dict[str, tuple[ServiceSloc, ...]] = {}
        self.short_index: dict[str, ServiceSloc] = {}
        self._watches = []
        self._stun_server = None  # the address STUN requests go to, once discovery runs
        self._stun_timer: Optional[int] = None  # the pending stun-retry's seq
        self._stun_attempts = 0
        # (local short, peer address) -> the verdict last reported for the session
        self._verdicts: dict[tuple[str, tuple[str, int]], object] = {}
        # key -> (value, lease class, figures of a session's record or None):
        # every key the runtime publishes, put by _reconcile
        self.owned: dict[str, tuple[bytes, int, Optional[tuple]]] = {}
        self._bytes_tx: dict[str, int] = {}
        self._bytes_rx: dict[str, int] = {}
        self._sockets: dict[tuple[str, int], ServiceSloc] = {}  # bound address -> SLoC
        self._hop = _memo(_hop)

    # -- bookkeeping --------------------------------------------------------

    def count(self, what: str) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1

    def emit(self, event: str, **detail) -> None:
        self.trace.emit(self.clock.now, self.name, event, **detail)

    def _later(self, delay_ns: int, fn: Callable[[], None], label: str) -> int:
        """Run fn after delay_ns unless the runtime is killed first; returns
        the event's seq."""
        return self.clock.call_at(self.clock.now + delay_ns, fn, label, self)

    def every(self, interval_ns: int, fn: Callable[[], None], label: str) -> None:
        def tick():
            if self.alive:
                fn()
                self._later(interval_ns, tick, label)

        self._later(interval_ns, tick, label)

    def kill(self) -> None:
        self.alive = False
        self.clock.cancel_owned(self)
        for w in self._watches:
            w.cancel()
        self.net.kill(self.name)
        self.emit("killed")

    # -- store session ------------------------------------------------------

    def watch(self, prefix: str, on_event) -> None:
        self._watches.append(self.handle.follow(prefix, on_event))

    def _store_call(self, call: Callable, *args) -> bool:
        """Make one store call; a failure, or a name another /node record
        holds, makes the node headless instead of raising out of the event
        loop.  A call under a lost lease fails too; the next sync replaces
        that lease."""
        try:
            call(*args)
        except (StoreError, SchemaError):
            if not self.headless:
                self.headless = True
                self.emit("headless_enter")
            return False
        return True

    def _renew(self, lease: Optional[Lease], ttl_s: int) -> Lease:
        """Keep lease alive, or grant one in its place when there is none
        or the store no longer holds it."""
        if lease is not None:
            try:
                self.handle.keepalive(lease.lease_id)
                return lease
            except LeaseNotFound:
                pass
        return self.handle.grant_lease(seconds(ttl_s))

    def _sync(self) -> bool:
        """Renew each lease or replace it; register under lease 1 if no
        record is held or lease 1 was replaced; then reconcile.  Success
        ends headless mode."""
        def sync():
            lease1 = self._renew(self.lease1, DEFAULT_LEASE1_S)
            if lease1 is not self.lease1:
                self.lease1, self.record = lease1, None  # the record went with it
            self.lease2 = self._renew(self.lease2, DEFAULT_LEASE2_S)
            if self.record is None:
                self.record = schema.register_node(self.handle, self.role, self.name,
                                                   self.site_id, self.location, self.lease1)
                self.emit("registered", system_label=self.record.system_label)
            self._reconcile()

        ok = self._store_call(sync)
        if ok and self.headless:
            self.headless = False
            self.emit("headless_exit")
        return ok

    def _reconcile(self, keys=None) -> None:
        """Put each owned key, every one unless keys are given, that the
        store lacks or holds with another value or lease."""
        for key in keys or list(self.owned):
            value, lease_class, _ = self.owned[key]
            lease_id = (self.lease1 if lease_class == 1 else self.lease2).lease_id
            held = self.handle.get(key)
            if held is None or (held.value, held.lease_id) != (value, lease_id):
                self.handle.put(key, value, lease_id)

    def _own(self, key: str, value: bytes, lease_class: int, figures=None) -> bool:
        """Own value at key under lease class 1 or 2 and, while a session is
        live, reconcile the key; returns whether the store holds it now."""
        self.owned[key] = (value, lease_class, figures)
        return self.record is not None and self._store_call(self._reconcile, (key,))

    # -- onboarding ---------------------------------------------------------

    def start(self) -> None:
        for ss in self.slocs:
            self._sockets[ss.addr] = ss
            self.net.bind(self.name, *ss.addr, self._on_datagram)
        self._publish()

    def _publish(self) -> None:
        """Own the service record unless a STUN discovery is still to run,
        then sync; while that fails, again in 5 s.  The first success runs
        that discovery, which publishes again when it ends, or else starts
        the timers and role_start."""
        if not self.stun_pending:
            self.owned[schema.service_key(self.role, self.name)] = (
                schema.service_value([ss.sloc for ss in self.slocs]), 1, None)
        if not self._sync():
            self._later(seconds(5), self._publish, "publish-retry")
        elif self.stun_pending:
            self.stun_pending = False
            self._discover_public()
        else:
            self.emit("announced")
            keepalive_ns = seconds(min(DEFAULT_LEASE1_S, DEFAULT_LEASE2_S)) // 2
            self.every(keepalive_ns, self._sync, "keepalive")
            self.every(self.probe_cfg.report_interval_ns, self._report_linkstate, "report")
            self.role_start()

    def _discover_public(self) -> None:
        servers, _ = schema.hunt(self.handle, "stun")
        if not servers:
            self._publish()
            return
        _, slocs = servers[0]
        self._stun_server = (slocs[0].public_ip, slocs[0].public_port)
        self._stun_retry()

    def _stun_retry(self) -> None:
        """Send the next STUN request and time it out; after the last
        timeout, give up and publish the private SLoC."""
        attempt = self._stun_attempts
        if attempt == len(STUN_BACKOFF_NS):
            self._stun_timer = None
            self.emit("stun_failed", error=f"no STUN response after {attempt} attempts")
            self._publish()
            return
        self._stun_attempts += 1
        msg = srou.OamMessage(srou.OamType.STUN, srou.STUN_REQUEST, srou.StunRequestData())
        self.send_from(self.slocs[0], self._stun_server, srou.encode_oam(msg))
        self._stun_timer = self._later(STUN_BACKOFF_NS[attempt], self._stun_retry,
                                       "stun-retry")

    def role_start(self) -> None:
        pass

    # -- sending ------------------------------------------------------------

    def send_from(self, ss: ServiceSloc, dst: tuple[str, int], payload: bytes) -> None:
        self._bytes_tx[ss.short] = (self._bytes_tx.get(ss.short, 0)
                                    + UDP_OVERHEAD_BYTES + len(payload))
        self.net.send(self.name, tuple.__new__(Datagram, (
            ss.sloc.private_ip, ss.sloc.private_port, dst[0], dst[1], payload)))

    # -- datagram dispatch ----------------------------------------------------

    def _on_datagram(self, pkt: Datagram) -> None:
        """Every SLoC's socket handler: check a message, then hand it on."""
        ss = self._sockets[pkt.dst_ip, pkt.dst_port]
        payload = pkt.payload
        self._bytes_rx[ss.short] = (self._bytes_rx.get(ss.short, 0)
                                    + UDP_OVERHEAD_BYTES + len(payload))
        try:
            hop = _parse(self._hop, payload, pkt.src_ip, pkt.src_port)
        except srou.BadMagic:
            self.count("drop_bad_magic")
            return
        except srou.CodecError as exc:
            self.frame_trace.emit("malformed", type(exc).__name__)
            return
        lay = hop[0]
        if type(lay) is srou.DataLayout:
            self.on_data(ss, pkt, hop)
        elif lay.oam_type == srou.OamType.LINKSTATE:
            self.on_linkstate(ss, pkt, lay)
        else:
            self.on_oam(ss, pkt, lay)

    def on_linkstate(self, ss: ServiceSloc, pkt: Datagram, lay: srou.OamLayout) -> None:
        """Answer a probe request, or hand a response to its session."""
        if lay.subtype == srou.LINKSTATE_REQUEST:
            self.send_from(ss, (pkt.src_ip, pkt.src_port),
                           self.responder.on_probe_request(lay, self.clock.now))
            return
        session = self.sessions.get((ss.short, (pkt.src_ip, pkt.src_port)))
        if session is None:
            self.count("probe_unmatched")
            return
        if session.on_response(lay, self.clock.now):
            self.on_probe_outcome(session)

    def on_oam(self, ss: ServiceSloc, pkt: Datagram, lay: srou.OamLayout) -> None:
        """Any OAM message but Linkstate: a STUN response from the server
        that observes a valid public address ends a pending discovery."""
        if lay.subtype != srou.STUN_RESPONSE or self._stun_server is None:
            self.count("drop_oam_ignored")
        elif (pkt.src_ip, pkt.src_port) != self._stun_server:
            self.count("drop_stun_foreign")
        elif self._stun_timer is None:
            self.count("drop_stun_late")  # the discovery has ended
        else:
            ip, port = lay.payload
            try:
                updated = replace(self.slocs[0].sloc, public_ip=ip, public_port=port)
            except schema.ValidationError:
                self.count("drop_stun_invalid")  # keep waiting for a real one
                return
            self.clock.cancel(self._stun_timer)
            self._stun_timer = None
            self.slocs[0] = ServiceSloc(self.name, updated)
            self.emit("stun_resolved", public=f"{ip}:{port}")
            self._publish()

    def on_data(self, ss: ServiceSloc, pkt: Datagram, hop: tuple) -> None:
        """A data packet; hop is what _hop gave for its header."""
        self.count("drop_unexpected_data")

    # -- probing --------------------------------------------------------------

    def open_session(self, local: ServiceSloc, peer: ServiceSloc) -> None:
        session = self.sessions[local.short, peer.public_addr] = ProbeSession(local, peer)
        timer = _ProbeTimer(self, session, f"probe:{peer.short}")
        self._later(PROBE_INTERVAL_NS, timer, timer.label)

    def _close_sessions(self, system: str, withdrawn: set) -> bool:
        """Close the sessions to the SLoCs of system at the withdrawn public
        addresses: each one's tick stops, its verdict is forgotten and its
        link-state record is deleted.  Returns whether any was closed."""
        if not withdrawn:
            return False
        closed = [key for key, session in self.sessions.items()
                  if key[1] in withdrawn and session.peer.system_name == system]
        for key in closed:
            session = self.sessions.pop(key)
            self._verdicts.pop(key, None)
            ls_key = schema.linkstate_key(session.local.short, session.peer.short)
            self.owned.pop(ls_key, None)  # a reopened session owns it again
            self._store_call(self.handle.delete, ls_key)
        return bool(closed)

    def _probe(self, system: str) -> None:
        """Open the sessions not yet open from every local SLoC to every
        announced SLoC of another system."""
        if system == self.name:
            return
        for peer in self.service_dir.get(system, ()):
            for local in self.slocs:
                if (local.short, peer.public_addr) not in self.sessions:
                    self.open_session(local, peer)

    def _on_service(self, ev) -> Optional[str]:
        """Mirror /service/ into service_dir and short_index, close the
        sessions to SLoCs no longer announced and probe every announced
        fabric the whitelist admits; returns the system whose service was
        added or replaced, if any."""
        if ev.kind == DELETE:
            try:
                _, name = schema.parse_service_key(ev.entry.key)
            except SchemaError:
                return None
            old = self.service_dir.pop(name, ())
            for ss in old:
                self.short_index.pop(ss.short, None)
            self._close_sessions(name, {ss.public_addr for ss in old})
            return None
        try:
            role, name, slocs = ev.entry.decoded[schema.parse_service]
        except SchemaError:
            self.emit("service_parse_warning", key=ev.entry.key)
            return None
        old = self.service_dir.get(name, ())
        for ss in old:  # a re-announce replaces them
            self.short_index.pop(ss.short, None)
        self.service_dir[name] = slocs
        for ss in slocs:
            self.short_index[ss.short] = ss
        self._close_sessions(name, {ss.public_addr for ss in old}
                             - {ss.public_addr for ss in slocs})
        whitelist = self.probe_cfg.whitelist
        if role == "fabric" and (whitelist is None or name in whitelist):
            self._probe(name)
        return name

    def _probe_tick(self, timer: _ProbeTimer) -> None:
        """Probe the timer's session once and schedule the timer again, until
        the runtime is killed or the session closed."""
        session = timer.session
        if not self.alive or self.sessions.get(
                (session.local.short, session.peer.public_addr)) is not session:
            return
        if session.pending and session.expire(self.clock.now):
            self.on_probe_outcome(session)
        self.send_from(session.local, session.peer.public_addr,
                       session.make_request(self.clock.now))
        self._later(PROBE_INTERVAL_NS, timer, timer.label)

    def sessions_to(self, system_name: str) -> list[ProbeSession]:
        return [s for s in self.sessions.values()
                if s.peer.system_name == system_name]

    def on_probe_outcome(self, session: ProbeSession) -> None:
        """A fabric's verdict on a session is its status: the first outcome
        and every flip put the session's record."""
        key = (session.local.short, session.peer.public_addr)
        if self._verdicts.get(key) != session.status:
            self._verdicts[key] = session.status
            self._report_session(session, session.figures())

    def _report_session(self, session: ProbeSession, figures: tuple) -> None:
        """Own the record a session's figures (see ProbeSession.figures) make,
        unless those figures are owned already."""
        key = schema.linkstate_key(session.local.short, session.peer.short)
        if self.owned.get(key, (0, 0, None))[2] != figures:
            delay_us, jitter_us, loss, status = figures
            record = LinkStateRecord(src=session.local.short, dst=session.peer.short,
                                     two_way_delay_us=delay_us, jitter_us=jitter_us,
                                     loss=loss, status=status, sampled_at=self.clock.now)
            self._own(key, schema.to_json_bytes(record.to_doc()), 2, figures)

    def _report_linkstate(self) -> None:
        """Put each local SLoC's load, then each session's record that
        changed.  The load put is the tick's guarded store call, so a
        partitioned node turns headless here even when no record changed."""
        interval_s = self.probe_cfg.report_interval_ns / 1e9
        for ss in self.slocs:
            rx = self._bytes_rx.pop(ss.short, 0)
            tx = self._bytes_tx.pop(ss.short, 0)
            load = schema.SlocLoadRecord.from_counters(ss, rx, tx, interval_s, self.clock.now)
            self._store_call(schema.put_record, self.handle, load, self.lease2)
        for key in sorted(self.sessions):
            session = self.sessions[key]
            figures = session.figures()
            if figures is not None:  # a session with an empty window has no record
                self._report_session(session, figures)

    # -- segment relay (shared by fabric and linecard) -------------------------

    def relay(self, ss: ServiceSloc, pkt: Datagram, hop: tuple) -> None:
        """Send a data packet on to its active segment with the header _hop
        patched (a zero source filled, Segments Left advanced), or execute
        the segment."""
        lay, filled, seg, header = hop
        if filled:
            self.frame_trace.emit("source_fill", pkt.src_ip, pkt.src_port, lay.flow_id)
        if seg is None:
            self.count("drop_no_segments_left")
            return
        if isinstance(seg, srou.Waypoint):
            sl = lay.segments_left - 1
            if lay.t_bit:
                self.frame_trace.emit("postcard", "relay", lay.flow_id, sl)
            self.send_from(ss, (seg.address, seg.port), header + pkt.payload[lay.total:])
            self.frame_trace.emit("relay", seg.address, seg.port, sl, lay.flow_id)
        else:
            self.execute_function(ss, pkt, lay, seg, pkt.payload[lay.total:])

    def execute_function(self, ss: ServiceSloc, pkt: Datagram, lay: srou.DataLayout,
                         seg: srou.Function, inner: bytes) -> None:
        """Run the active function segment; lay is the layout before relay
        advanced Segments Left."""
        self.frame_trace.emit("unknown_function", seg.function)


# ---------------------------------------------------------------------------
# fabric


class FabricRuntime(NodeRuntime):
    role = "fabric"

    def __init__(self, *args, token_edge: Optional[TokenEdgeConfig] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.token = TokenAuthority(token_edge.secret) if token_edge is not None else None

    def role_start(self) -> None:
        # service watch keeps the fabric mesh current as peers onboard
        self.watch("/service/", self._on_service)

    def on_data(self, ss, pkt, hop) -> None:
        if self.token is not None:
            if not self.token.validate(hop[0].flow_id, pkt.src_ip, self.clock.now):
                self.count("token_reject")
                return
            self.count("token_admit")
        self.relay(ss, pkt, hop)


# ---------------------------------------------------------------------------
# linecard


@dataclass
class HostPort:
    """Access-port attachment: one host behind this linecard."""

    name: str
    mac: str
    ip: str
    vnid: Optional[int] = None
    vrf: Optional[int] = None
    identity: Optional[tuple[str, str]] = None  # (userid, device-id)
    deliver: Optional[Callable[[HostFrame], None]] = None


class LinecardRuntime(NodeRuntime):
    role = "linecard"

    def __init__(self, *args, imports_l2: Optional[dict[str, int]] = None,
                 imports_l3: Optional[dict[str, int]] = None,
                 l2_services: Optional[dict[int, tuple[str, str]]] = None,
                 sla: Optional[SlaPolicy] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.imports_l2 = imports_l2 or {}
        self.imports_l3 = imports_l3 or {}
        self.l2_services = l2_services or {}   # vnid -> (rt, rd)
        self.sla = sla or SlaPolicy()
        self.hosts: dict[str, HostPort] = {}
        self.l2_local: dict[tuple[int, str], HostPort] = {}
        self.l3_local: dict[tuple[int, str], HostPort] = {}
        self.announced: set[str] = set()
        self._unannounced: set[str] = set()  # hosts whose route a sync is still to put
        self._route_tags: dict[str, int] = {}  # host -> the policy tag of its owned route
        self.route_sync = RouteSync(self.imports_l2, self.imports_l3,
                                    on_delta=self._on_route_delta)
        self.ls_sync = LinkStateSync(on_delta=self._on_ls_delta)
        self.policy_rules: dict = {}
        self.identity_cache: dict[str, list[int]] = {}
        self.path_cache: dict[str, tuple[ServiceSloc, ComputedPath]] = {}
        # (vnid, vrf, identity, dst MAC, dst IP, T bit) -> an encap of _encap
        self._flows: dict[tuple, tuple] = {}

    # -- wiring -----------------------------------------------------------

    def attach_host(self, host: HostPort) -> None:
        self._flows.clear()
        self.hosts[host.name] = host
        if host.vnid is not None:
            self.l2_local[(host.vnid, host.mac)] = host
        if host.vrf is not None:
            self.l3_local[(host.vrf, host.ip)] = host

    def role_start(self) -> None:
        self.route_sync.start(self.watch)
        self.ls_sync.start(self.watch)
        self.watch("/service/", self._on_service)
        self.watch("/control/group/", self._on_policy)
        self.watch("/identity/", self._on_identity)
        for host in sorted(self.hosts.values(), key=lambda h: h.name):
            self._learn(host)
        self.every(seconds(10), self._refresh, "path-refresh")

    def _sync(self) -> bool:
        """Also announce each host learned while no session was live, whose
        route the sync put."""
        ok = super()._sync()
        if ok:
            for name in sorted(self._unannounced):
                self._learn(self.hosts[name])
        return ok

    def _learn(self, host: HostPort) -> None:
        """Own a type-2 route for a locally seen (mac, ip), tagged with the
        host's first group; it is announced once the store holds it: at once,
        or on the sync that puts it."""
        if host.name in self.announced or host.vnid is None:
            return
        service = self.l2_services.get(host.vnid)
        if service is None:
            return
        rt, rd = service
        tag = self._route_tags[host.name] = self._host_groups(host)[0]
        route = ServiceRoute(route_type=2, export_rt=rt, rd=rd, mac=host.mac,
                             ip=host.ip, site_id=self.site_id,
                             system_name=self.name, policy_tag=tag)
        if self._own(route.key(), schema.to_json_bytes(route.to_doc()), 2):
            self._unannounced.discard(host.name)
            self.announced.add(host.name)
            self.emit("type2_announced", key=route.key())
        else:
            self._unannounced.add(host.name)

    def _host_groups(self, host: HostPort) -> list[int]:
        if host.identity is None:
            return [schema.DEFAULT_GROUP]
        key = schema.identity_key(*host.identity)
        return self.identity_cache.get(key, [schema.DEFAULT_GROUP])

    # -- watch handlers ------------------------------------------------------

    def _on_service(self, ev) -> None:
        self._flows.clear()
        name = super()._on_service(ev)
        if name in self.route_sync.systems:
            self._probe(name)

    def _on_policy(self, ev) -> None:
        self._flows.clear()
        try:
            if ev.kind == PUT:
                pair, rule = ev.entry.decoded[schema.parse_group_rule]
                self.policy_rules[pair] = rule
            else:
                self.policy_rules.pop(schema.parse_group_rule_key(ev.entry.key), None)
        except SchemaError:
            pass  # a malformed rule leaves the rules as they were

    def _on_identity(self, ev) -> None:
        self._flows.clear()
        if ev.kind == DELETE:
            self.identity_cache.pop(ev.entry.key, None)
            return
        try:
            # the memo's list, shared by every follower: readers index it and sort a copy
            self.identity_cache[ev.entry.key] = ev.entry.decoded[schema.parse_identity]
        except SchemaError:
            pass  # a malformed record leaves the cached groups as they were

    def _on_route_delta(self, kind: str, route: ServiceRoute) -> None:
        self._flows.clear()
        self.path_cache.pop(route.key(), None)
        if kind == PUT:
            self._probe(route.system_name)

    def _on_ls_delta(self, src: str, dst: str) -> None:
        if not self.path_cache:
            return
        for key, (_, path) in list(self.path_cache.items()):
            if path.source != PATH_ENGINEERED:
                for w in path.waypoints:
                    if w.short == src or w.short == dst:
                        break
                else:
                    continue  # no waypoint is an end of the delta: keep the path
            self.path_cache.pop(key, None)
            self._flows.clear()

    def _refresh(self) -> None:
        self.path_cache.clear()
        self._flows.clear()

    # -- SLA / path selection ---------------------------------------------

    def _close_sessions(self, system: str, withdrawn: set) -> bool:
        """Also drop the paths cached to the system."""
        if not super()._close_sessions(system, withdrawn):
            return False
        self._drop_paths_to(system)
        return True

    def _drop_paths_to(self, system: str) -> None:
        for dst, (_, path) in list(self.path_cache.items()):
            if path.waypoints and path.waypoints[-1].system_name == system:
                self.path_cache.pop(dst, None)

    def on_probe_outcome(self, session: ProbeSession) -> None:
        """A linecard's verdict on a session is (status, SLA violated), judged
        on the session's running sums by sla_breach; a change puts
        the session's record, and a change of the SLA part also drops the
        paths cached to the system."""
        system = session.peer.system_name
        self._flows.clear()
        figures = session.figures()  # every caller pushed an outcome first
        delay_us, _, loss, status = figures
        violated = sla_breach(status, delay_us, loss, self.sla) is not None
        key = (session.local.short, session.peer.public_addr)
        last = self._verdicts.get(key)
        if last == (status, violated):
            return
        self._verdicts[key] = (status, violated)
        self._report_session(session, figures)
        if last is not None and last[1] == violated:
            return
        self._drop_paths_to(system)
        self.emit("sla_change", system=system, violated=violated,
                  local=session.local.short, peer=session.peer.short)

    def _best_direct(self, system: str):
        """Lowest-cost (local, peer, figures) of the sessions to a destination
        system, with the session's figures (see ProbeSession.figures); with no
        session, the first local and first announced SLoC with figures None."""
        best = None
        for session in self.sessions_to(system):
            figures = session.figures()
            cost = float("inf") if figures is None else edge_cost_ms(*figures[:3], self.sla)
            key = (cost, session.local.short, session.peer.short)
            if best is None or key < best[0]:
                best = (key, session.local, session.peer, figures)
        if best is not None:
            return best[1:]
        slocs = self.service_dir.get(system)
        if not slocs:
            raise NoRoute(f"no announced service for {system}")
        return self.slocs[0], slocs[0], None

    def _path_for(self, route: ServiceRoute):
        key = route.key()
        cached = self.path_cache.get(key)
        if cached is not None:
            return cached
        system = route.system_name
        local, peer, figures = self._best_direct(system)
        chosen = None
        if figures is None:  # unprobed counts as violated: try a relay path
            cost, met = 0.0, False
        else:
            delay_us, jitter_us, loss, status = figures
            cost = edge_cost_ms(delay_us, jitter_us, loss, self.sla)
            met = sla_breach(status, delay_us, loss, self.sla) is None
        if not met:
            chosen = self._engineer(system)
            if chosen is None:
                self.count("sla_unmet_direct")
        if chosen is None:
            chosen = (local, ComputedPath(waypoints=(peer,), cost_ms=cost,
                                          source=PATH_DIRECT))
        self.path_cache[key] = chosen
        self.frame_trace.emit("path_selected", key, chosen[1].source,
                              tuple(w.short for w in chosen[1].waypoints),
                              repr(round(chosen[1].cost_ms, 3)))
        return chosen

    def _engineer(self, system: str):
        dst_shorts = {ss.short for ss in self.service_dir.get(system, ())}
        src_shorts = {ss.short for ss in self.slocs}
        edges = self.ls_sync.edges(self.sla)
        try:
            cost, node_path = shortest_constrained(edges, src_shorts, dst_shorts,
                                                   self.sla.max_segments)
        except NoFeasiblePath:
            return None
        waypoints = []
        for short in node_path[1:]:
            ss = self.short_index.get(short)
            if ss is None:
                return None
            waypoints.append(ss)
        local = next((ss for ss in self.slocs if ss.short == node_path[0]),
                     self.slocs[0])
        return (local, ComputedPath(waypoints=tuple(waypoints), cost_ms=cost,
                                    source=PATH_ENGINEERED))

    # -- encap / decap -------------------------------------------------------

    def inject_host_frame(self, host_name: str, frame: HostFrame,
                          t_bit: bool = False) -> Optional[bytes]:
        """Host frame entering the access port; returns the wire bytes sent
        (None when dropped or delivered locally)."""
        if not self.alive:
            self.count("drop_not_alive")
            return None
        host = self.hosts.get(host_name)
        if host is None:
            raise DataplaneError(f"unknown host {host_name}")
        key = (host.vnid, host.vrf, host.identity, frame.dst_mac, frame.dst_ip, t_bit)
        entry = self._flows.get(key)
        if entry is None:  # a cached flow's host is announced: _learn would return
            self._learn(host)
            entry = self._decide(host, frame, t_bit)
            if entry is None:
                return None
            if host.name in self.announced:
                if len(self._flows) >= MEMO_ENTRIES:
                    self._flows.clear()
                self._flows[key] = entry
        return self._send_encap(entry, frame, t_bit)

    def _decide(self, host: HostPort, frame: HostFrame, t_bit: bool) -> Optional[tuple]:
        """The encap of a host's frame; None when counted as dropped or
        delivered.  A route that names this linecard is never encapsulated:
        the frame is delivered or dropped here, as End.DT2U or End.DT4 at
        its own SLoC would.  A host whose groups no longer give its route's
        policy tag owns the route again; a change of groups always misses
        the flow cache."""
        groups = self._host_groups(host)
        if self._route_tags.get(host.name, groups[0]) != groups[0]:
            self.announced.discard(host.name)
            self._learn(host)

        # same-segment delivery without encapsulation
        if host.vnid is not None:
            local = self.l2_local.get((host.vnid, frame.dst_mac))
            if local is not None:
                self._deliver_local(local, frame)
                return None

        try:
            route = self.route_sync.table.resolve(
                vnid=host.vnid, mac=frame.dst_mac, vrf=host.vrf, ip=frame.dst_ip)
        except NoRoute:
            self.count("drop_no_route")
            return None

        rule = schema.lookup_policy(self.policy_rules, groups, [route.policy_tag])
        if rule.action == schema.ACTION_DENY:
            self.frame_trace.emit("policy_deny", route.key())
            return None

        if route.system_name == self.name:  # End.DT2U or End.DT4 here, unsent
            if route.route_type == 5:
                local = self.l3_local.get((host.vrf, frame.dst_ip))
                if local is not None:
                    self._deliver_local(local, frame)
                    return None
            self.count("drop_no_l2_entry" if route.route_type == 2 else "drop_no_vrf_route")
            return None

        if rule.action == schema.ACTION_STEER:
            path_pair = self._steer_path(route, rule)
            if path_pair is None:
                self.count("drop_steer_unresolved")
                return None
        else:
            try:
                path_pair = self._path_for(route)
            except NoRoute:
                self.count("drop_no_service")
                return None
        args = host.vnid if route.route_type == 2 else host.vrf
        return self._encap(route, path_pair, args, t_bit)

    def _encap(self, route: ServiceRoute, path_pair, args: int,
               t_bit: bool = False) -> Optional[tuple]:
        """The encap along a selected path to End.DT2U (type-2 route) or
        End.DT4 (type-5 route): (local SLoC, outer address, header, SL, trace
        body, flow id), or None, counted, when no header can carry the path:
        it has more waypoints than the SLA's segment budget, or a waypoint
        does not encode.  The first waypoint is the outer destination, and
        the function runs at the last."""
        local, path = path_pair
        function = srou.FUNC_END_DT2U if route.route_type == 2 else srou.FUNC_END_DT4
        flow_id = route.policy_tag & 0xFFFFFFFF
        visit = tuple(w.public_addr for w in path.waypoints)
        header = None
        if len(visit) <= self.sla.max_segments:
            try:
                header = _header(local.addr, visit[1:], flow_id, t_bit=t_bit,
                                 function=srou.Function(args, function))
            except srou.CodecError:
                pass  # counted below
        if header is None:
            self.count("drop_unencodable_path")
            return None
        outer, sl = visit[0], len(visit)
        body = self.frame_trace.body("encap", route.key(), *local.addr, *outer, sl,
                                     flow_id, path.source, function, args)
        return local, outer, header, sl, body, flow_id

    def _send_encap(self, entry: tuple, frame: HostFrame, t_bit: bool = False) -> bytes:
        """Send a host frame by an encap of _encap; returns the wire bytes."""
        local, outer, header, sl, body, flow_id = entry
        wire = header + encode_frame(frame)
        self.send_from(local, outer, wire)
        if t_bit:
            self.frame_trace.emit("postcard", "encap", flow_id, sl)
        self.frame_trace.append("encap", body)
        return wire

    def _steer_path(self, route: ServiceRoute, rule: PolicyRule):
        waypoints = []
        for short in rule.slocs:
            ss = self.short_index.get(short)
            if ss is None:
                return None
            waypoints.append(ss)
        try:
            _, peer, _ = self._best_direct(route.system_name)
        except NoRoute:
            return None
        waypoints.append(peer)
        path = ComputedPath(waypoints=tuple(waypoints), cost_ms=0.0,
                            source=PATH_POLICY_STEER)
        return (self.slocs[0], path)

    def _deliver_local(self, host: HostPort, frame: HostFrame) -> None:
        self.frame_trace.emit("deliver", host.name, frame.dst_ip)
        if host.deliver is not None:
            host.deliver(frame)

    def on_data(self, ss, pkt, hop) -> None:
        self.relay(ss, pkt, hop)

    def execute_function(self, ss, pkt, lay, seg: srou.Function, inner) -> None:
        """End.DT2U and End.DT4: deliver the inner frame to the local host at
        its destination MAC in VNID args, or at its destination IP in VRF
        args, or else re-encapsulate it toward the destination's owner; a
        route that names this node itself, or a path whose outer address is
        one of this node's own SLoC addresses, counts as no route."""
        if lay.t_bit:
            self.frame_trace.emit("postcard", "function", lay.flow_id,
                                  lay.segments_left - 1)
        table = self.route_sync.table
        if seg.function == srou.FUNC_END_DT2U:
            local, resolve, unrouted = self.l2_local, table.resolve_l2, "drop_no_l2_entry"
        elif seg.function == srou.FUNC_END_DT4:
            local, resolve, unrouted = self.l3_local, table.resolve_l3, "drop_no_vrf_route"
        else:
            super().execute_function(ss, pkt, lay, seg, inner)
            return
        try:
            frame = decode_frame(inner)
        except DataplaneError:
            self.count("drop_malformed_frame")
            return
        dst = frame.dst_mac if seg.function == srou.FUNC_END_DT2U else frame.dst_ip
        host = local.get((seg.args, dst))
        if host is not None:
            self._deliver_local(host, frame)
            return
        try:
            route = resolve(seg.args, dst)
        except NoRoute:
            route = None
        if route is None or route.system_name == self.name:
            self.count(unrouted)
            return
        try:
            path_pair = self._path_for(route)
        except NoRoute:
            self.count("drop_no_service")
            return
        outer = path_pair[1].waypoints[0].public_addr
        if any(outer in (ss.addr, ss.public_addr) for ss in self.slocs):
            self.count(unrouted)  # the frame would arrive here again
            return
        entry = self._encap(route, path_pair, seg.args)
        if entry is not None:
            self._send_encap(entry, frame)


# ---------------------------------------------------------------------------
# other roles


class StunRuntime(NodeRuntime):
    role = "stun"

    def on_oam(self, ss, pkt, lay) -> None:
        if lay.subtype == srou.STUN_REQUEST:  # every OAM message here is STUN
            resp = stun_serve(lay, (pkt.src_ip, pkt.src_port))
            self.count("stun_served")
            self.send_from(ss, (pkt.src_ip, pkt.src_port), srou.encode_oam(resp))
        else:
            super().on_oam(ss, pkt, lay)


class LsdbRuntime(NodeRuntime):
    """Regional read replica: follows the store's link state like every
    other reader."""

    role = "lsdb"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ls_sync = LinkStateSync()

    def role_start(self) -> None:
        self.ls_sync.start(self.watch)


# ---------------------------------------------------------------------------
# native-socket application endpoints


@dataclass
class ReplyContext:
    outer: tuple[str, int]
    srou_source: tuple[str, int]
    flow_id: int
    raw: bool = False
    flow_id_type: srou.FlowIdType = srou.FlowIdType.FT32


class AppEndpoint:
    """Native-socket shim for an application: one UDP port carrying both
    SRoU-encapsulated and plain datagrams, demultiplexed by the magic byte.

    Servers record each SRoU packet's embedded source as the flow's reply
    address and answer with reversed segments; clients send Table-style
    packets with a zeroed source, relying on the first-hop fabric fill.
    """

    def __init__(self, world: World, name: str, ip: str, port: int,
                 on_app: Optional[Callable[[bytes, ReplyContext], None]] = None,
                 echo: bool = False,
                 reply_via: Optional[list[tuple[str, int]]] = None):
        self.net = world.net
        self.name = name
        self.ip = ip
        self.port = port
        self.on_app = on_app
        self.echo = echo
        self.reply_via = reply_via or []
        self.counts: dict[str, int] = {}
        self.frame_trace = FrameTrace(world.clock, world.trace, name, self.counts)
        self._check = _memo(_check)
        self._header = _memo(_header)

    def count(self, what: str) -> None:
        self.counts[what] = self.counts.get(what, 0) + 1

    def start(self) -> None:
        self.net.bind(self.name, self.ip, self.port, self._on_datagram)

    def send_srou(self, payload: bytes, edge: tuple[str, int],
                  server: tuple[str, int], transit: tuple[str, int],
                  flow_id: int = 0) -> None:
        """Client-mode send: zeroed source, segment list [server, transit],
        outer destination the edge fabric."""
        wire = self._header(ZERO_SOURCE, (transit, server), flow_id)
        self.net.send(self.name, tuple.__new__(Datagram, (
            self.ip, self.port, edge[0], edge[1], wire + payload)))
        self.count("tx_srou")

    def send_raw(self, payload: bytes, dst: tuple[str, int]) -> None:
        self.net.send(self.name, tuple.__new__(Datagram, (
            self.ip, self.port, dst[0], dst[1], payload)))
        self.count("tx_raw")

    def reply(self, ctx: ReplyContext, payload: bytes) -> None:
        if ctx.raw:
            self.send_raw(payload, ctx.outer)
            return
        visit = tuple(self.reply_via) + (ctx.srou_source,)
        try:
            wire = self._header((self.ip, self.port), visit, ctx.flow_id, ctx.flow_id_type)
        except srou.CodecError:  # a source no waypoint can hold
            self.count("drop_reply_unencodable")
            return
        self.net.send(self.name, tuple.__new__(Datagram, (
            self.ip, self.port, ctx.outer[0], ctx.outer[1], wire + payload)))
        self.count("tx_reply")

    def _on_datagram(self, pkt: Datagram) -> None:
        payload = pkt.payload
        if not payload:
            self.count("drop_empty")
            return
        if payload[0] != srou.MAGIC:
            ctx = ReplyContext(outer=(pkt.src_ip, pkt.src_port),
                               srou_source=(pkt.src_ip, pkt.src_port),
                               flow_id=0, raw=True)
            self.frame_trace.emit("passthrough", len(payload))
            self._deliver(payload, ctx)
            return
        try:
            lay, source = _parse(self._check, payload)
        except srou.CodecError as exc:
            self.frame_trace.emit("malformed", type(exc).__name__)
            return
        if source is None:
            self.count("drop_oam")
            return
        ctx = ReplyContext(outer=(pkt.src_ip, pkt.src_port), srou_source=source,
                           flow_id=lay.flow_id, flow_id_type=lay.flow_id_type)
        self.frame_trace.emit("app_rx", *source, len(payload) - lay.total)
        self._deliver(payload[lay.total:], ctx)

    def _deliver(self, payload: bytes, ctx: ReplyContext) -> None:
        if self.on_app is not None:
            self.on_app(payload, ctx)
        if self.echo:
            self.reply(ctx, payload)
