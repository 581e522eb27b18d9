"""Deterministic discrete-event network: virtual clock, lossy links, NAT boxes.

Everything runs on a single event loop ordered by (time, sequence).  A link
is its delay and loss in each direction; all randomness (loss) comes from
per-link PRNGs derived from the run seed, so a (topology, seed) pair fully
determines every packet's fate.

Underlay forwarding between attachment points is hop-count shortest path
(ties broken by total configured delay, then by node-name sequence), frozen
when the topology is built.  Each node keeps a next-hop table keyed by
destination IP: the node itself when it owns the address, the out-direction
of the first link on the chosen path towards the owner, or None when no
path reaches it.  A hop is one lookup there; the direction holds its
counters, its link and its far-end node, so of parallel links the one the
search chose carries the datagram, and the link's current loss and delay
are read per send.  A table is filled on a miss and emptied by `add_link`.
It keeps owned addresses only, since peers choose destination addresses,
so an address that gains an owner is in no table.  Datagrams crossing a NAT
node are translated; nodes only see datagrams addressed to one of their
bound (ip, port) sockets.
Each datagram that does not reach a socket is counted once, where it died:
in its link direction's `lost` or `dropped` (link down), or in the node's
`drops` by reason.

The trace keeps each record as (gap since the previous record, body id) in
the narrowest arrays that hold them, 5 bytes a record on the reference
worlds, where a body (node, event, detail) is shared by every record that
repeats it, and builds the record dicts only when they are read.
"""

from __future__ import annotations

import heapq
import ipaddress
import json
import random
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, NamedTuple, Optional

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

MAX_QUIESCENT_EVENTS = 10_000_000  # run_until_quiescent's runaway guard

NAT_PORT_BASE = 40000


def seconds(x: float) -> int:
    """Seconds to integer nanoseconds."""
    return int(round(x * NS_PER_SEC))


def millis(x: float) -> int:
    return int(round(x * NS_PER_MS))


class SimError(Exception):
    pass


class VirtualClock:
    """Event queue with 64-bit nanosecond timestamps.

    An event is the heap entry (time, seq, fn, args, label, owner) and runs
    fn(*args), as a `sched.scheduler` event does.  Events at equal times run
    in scheduling order; time never decreases.  Canceling removes entries
    from the heap, as `sched.scheduler.cancel` does, so the loop never meets
    a canceled event.
    """

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable[..., None], tuple, str, object]] = []

    def call_at(self, at: int, fn: Callable[[], None], label: str = "",
                owner: object = None) -> int:
        if at < self.now:
            raise SimError(f"cannot schedule at {at} before now {self.now}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (at, seq, fn, (), label, owner))
        return seq

    def cancel(self, seq: int) -> None:
        """Cancel the pending event `seq`; a seq that is not pending is a no-op."""
        self._remove(lambda entry: entry[1] == seq)

    def cancel_owned(self, owner: object) -> None:
        """Cancel every pending event scheduled with this owner."""
        self._remove(lambda entry: entry[5] is owner)

    def _remove(self, match: Callable[[tuple], bool]) -> None:
        heap = self._heap  # changed in place: a running loop holds this list
        heap[:] = [entry for entry in heap if not match(entry)]
        heapq.heapify(heap)

    def pending(self, owner: object = None) -> int:
        """Events still to run: all of them, or those of one owner."""
        if owner is None:
            return len(self._heap)
        return sum(1 for entry in self._heap if entry[5] is owner)

    def run_until(self, until: int) -> list[str]:
        """Execute every event with time <= until, then set the clock to
        until if it is later; returns the labels of the events run, in run
        order."""
        executed = self._run(until, None)
        if until > self.now:
            self.now = until
        return executed

    def run_until_quiescent(self) -> list[str]:
        """Execute events until none is pending; returns their labels as
        run_until does.  Raises SimError past MAX_QUIESCENT_EVENTS."""
        return self._run(None, MAX_QUIESCENT_EVENTS)

    def _run(self, until: Optional[int], limit: Optional[int]) -> list[str]:
        """The event loop: pop events in (time, seq) order while one is due
        by `until` (None: any), at most `limit` (None: no bound) of them.
        Only each event's label is kept, so its heap entry, with the entry's
        time and seq ints, is freed when the event returns."""
        executed = []
        heap, pop = self._heap, heapq.heappop
        while heap and (until is None or heap[0][0] <= until):
            if limit is not None and len(executed) >= limit:
                raise SimError(f"exceeded {limit} events; runaway simulation?")
            at, _, fn, args, label, _ = pop(heap)
            self.now = at  # the heap never holds a time before now
            executed.append(label)
            fn(*args)
        return executed


class Trace:
    """Append-only event log; rendered as line-delimited JSON records.

    A record is (gap, body id): the ns since the previous record's time (or
    since 0), summed back into times on read, and the body it repeats.  Gaps
    start as unsigned 4-byte ints and body ids as unsigned bytes; a value
    that does not fit, such as a gap of 2**32 ns or a time before the last
    record's, widens its column by copy (`_widened`).  A body (node, event
    and the `**detail` dict) is held in three columns; `body` registers one
    for any number of `append`s, and `emit` registers a fresh one per call.
    The {"time", "node", "event", "detail"} dicts are built on read, each
    with its own copy of the detail, so no reader can change a shared body.
    CPython never tracks a dict of atomic values, so nothing a record adds
    is walked by the cyclic garbage collector.
    """

    def __init__(self):
        self._gap = array("I")  # ns since the previous record, per record
        self._body = array("B")  # body id per record
        self._last = 0  # the time of the last record
        self._node: list[str] = []  # body columns, indexed by body id
        self._event: list[str] = []
        self._detail: list[dict] = []

    def body(self, node: str, event: str, **detail) -> int:
        """Register a record body; returns its id for `append`."""
        self._node.append(node)
        self._event.append(event)
        self._detail.append(detail)
        return len(self._detail) - 1

    def __len__(self) -> int:
        """The number of records, counted without building them."""
        return len(self._body)

    def append(self, time: int, body: int) -> None:
        gap = time - self._last
        try:  # no range test: a value that does not fit raises OverflowError
            self._gap.append(gap)
        except OverflowError:
            self._gap = _widened(self._gap, gap)
        self._last = time
        try:
            self._body.append(body)
        except OverflowError:
            self._body = _widened(self._body, body)

    def emit(self, time: int, node: str, event: str, **detail) -> None:
        self.append(time, self.body(node, event, **detail))

    def _records(self, wanted: Optional[set[int]] = None) -> list[dict]:
        node, event, detail = self._node, self._event, self._detail
        return [{"time": t, "node": node[b], "event": event[b], "detail": dict(detail[b])}
                for t, b in zip(accumulate(self._gap), self._body)
                if wanted is None or b in wanted]

    @property
    def records(self) -> list[dict]:
        return self._records()

    def select(self, event: str, node: Optional[str] = None) -> list[dict]:
        return self._records({
            b for b, (n, e) in enumerate(zip(self._node, self._event))
            if e == event and (node is None or n == node)
        })

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records) + "\n"


# A trace column's array types, narrowest first: unsigned 1, 2 and 4 bytes, then int64.
_WIDTHS = "BHIq"


def _widened(column: array, value: int) -> array:
    """column copied into the narrowest wider type that also holds value,
    with value appended.  A value int64 cannot hold raises OverflowError."""
    for code in _WIDTHS[_WIDTHS.index(column.typecode) + 1:]:
        try:
            tail = array(code, (value,))
        except OverflowError:
            continue
        return array(code, column) + tail
    raise OverflowError(f"{value} does not fit in int64")


class Datagram(NamedTuple):
    """One UDP datagram.  Per-packet code builds it with
    `tuple.__new__(Datagram, (...))`, which skips the Python `__new__` that
    NamedTuple generates: one Python call less per datagram."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    payload: bytes


class _DirState:
    """One direction of a link: its link, whether it runs a -> b, its far-end
    node, its event label and its counters.

    Loss and delay are the link's, read per send, so a change made to the
    link at run time applies to the next datagram.
    """

    __slots__ = ("link", "forward", "to", "label", "sent", "delivered", "lost", "dropped")

    def __init__(self, link: SimLink, forward: bool, to: SimNode):
        self.link = link
        self.forward = forward
        self.to = to
        self.label = f"link:{link.a if forward else link.b}->{to.name}"
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped = 0  # sent while the link was down


class SimLink:
    """Point-to-point link: a fixed delay and a loss probability per direction.

    A datagram sent on an up link is lost with the direction's probability,
    one draw from the link's seeded rng, or else arrives exactly the
    direction's delay later; one sent while the link is down is dropped.
    Links have no bandwidth, queue or jitter.
    """

    def __init__(self, a: SimNode, b: SimNode, delay_ab: int, delay_ba: int,
                 loss: float, loss_ab: Optional[float], loss_ba: Optional[float],
                 rng: random.Random):
        self.a = a.name
        self.b = b.name
        self.delay_ab = delay_ab
        self.delay_ba = delay_ba
        self.loss_ab = loss_ab if loss_ab is not None else loss
        self.loss_ba = loss_ba if loss_ba is not None else loss
        self.up = True
        self.rng = rng
        self.dirs = {(a.name, b.name): _DirState(self, True, b),
                     (b.name, a.name): _DirState(self, False, a)}

    def other(self, name: str) -> str:
        return self.b if name == self.a else self.a

    def delay(self, src: str) -> int:
        return self.delay_ab if src == self.a else self.delay_ba

    def set_loss(self, value: float) -> None:
        self.loss_ab = value
        self.loss_ba = value

    def counters(self) -> dict:
        out = {}
        for (s, d), st in self.dirs.items():
            out[f"{s}->{d}"] = {
                "sent": st.sent, "delivered": st.delivered,
                "lost": st.lost, "dropped": st.dropped,
            }
        return out


@dataclass
class _PortMapping:
    inside_ip: str
    inside_port: int
    public_port: int


class SimNat:
    """Endpoint-independent (full cone) NAT.

    Outbound packets from the inside prefix get (public_ip, mapped port);
    the same inside source always reuses its mapping.  Inbound packets to an
    unmapped public port are dropped.  Public ports are allocated lowest-free
    from NAT_PORT_BASE upward.
    """

    def __init__(self, name: str, inside_cidr: str, public_ip: str):
        self.name = name
        self.inside_net = ipaddress.ip_network(inside_cidr)
        self.public_ip = public_ip
        self.by_inside: dict[tuple[str, int], _PortMapping] = {}
        self.by_port: dict[int, _PortMapping] = {}
        self.translated_out = 0
        self.translated_in = 0

    def _is_inside(self, ip: str) -> bool:
        return ipaddress.ip_address(ip) in self.inside_net

    def _allocate(self, inside_ip: str, inside_port: int) -> _PortMapping:
        port = NAT_PORT_BASE
        while port in self.by_port:
            port += 1
        m = _PortMapping(inside_ip, inside_port, port)
        self.by_inside[(inside_ip, inside_port)] = m
        self.by_port[port] = m
        return m

    def translate_out(self, pkt: Datagram) -> Datagram:
        """pkt from its mapping if it comes from inside, else pkt itself."""
        m = self.by_inside.get((pkt.src_ip, pkt.src_port))
        if m is None:  # only an inside source is mapped
            if not self._is_inside(pkt.src_ip):
                return pkt
            m = self._allocate(pkt.src_ip, pkt.src_port)
        self.translated_out += 1
        return tuple.__new__(Datagram, (self.public_ip, m.public_port, pkt.dst_ip,
                                        pkt.dst_port, pkt.payload))

    def translate_in(self, pkt: Datagram) -> Optional[Datagram]:
        m = self.by_port.get(pkt.dst_port)
        if m is None:
            return None
        self.translated_in += 1
        return tuple.__new__(Datagram, (pkt.src_ip, pkt.src_port, m.inside_ip,
                                        m.inside_port, pkt.payload))

    def mapping_table(self) -> dict:
        return {
            f"{m.inside_ip}:{m.inside_port}": m.public_port
            for m in sorted(self.by_inside.values(), key=lambda m: m.public_port)
        }


class SimNode:
    """Attachment point: owns addresses, UDP bindings, a next-hop table and
    counters."""

    def __init__(self, name: str):
        self.name = name
        self.bindings: dict[tuple[str, int], Callable[[Datagram], None]] = {}
        # destination IP -> this node, the out-direction towards its owner,
        # or None (no path); owned addresses only
        self.next_hop: dict[str, object] = {}
        self.alive = True
        self.nat: Optional[SimNat] = None
        self.tx = 0
        self.rx = 0
        self.drops: dict[str, int] = {}

    def drop(self, reason: str) -> None:
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def counters(self) -> dict:
        return {"tx": self.tx, "rx": self.rx, "drops": dict(sorted(self.drops.items()))}


class Network:
    """Topology of nodes and links; routes and delivers datagrams."""

    def __init__(self, clock: VirtualClock, trace: Optional[Trace] = None, seed: int = 0):
        self.clock = clock
        self.trace = Trace() if trace is None else trace
        self.seed = seed
        self.nodes: dict[str, SimNode] = {}
        self.links: list[SimLink] = []
        self._adj: dict[str, list[SimLink]] = {}
        self._owner: dict[str, str] = {}
        self._routes: dict[str, dict[str, _DirState]] = {}

    def add_node(self, name: str) -> SimNode:
        if name in self.nodes:
            raise SimError(f"duplicate node {name}")
        node = SimNode(name)
        self.nodes[name] = node
        self._adj[name] = []
        return node

    def add_nat(self, name: str, inside_cidr: str, public_ip: str) -> SimNode:
        node = self.add_node(name)
        node.nat = SimNat(name, inside_cidr, public_ip)
        self.add_address(name, public_ip)
        return node

    def add_address(self, name: str, ip: str) -> None:
        if ip in self._owner and self._owner[ip] != name:
            raise SimError(f"address {ip} already owned by {self._owner[ip]}")
        self._owner[ip] = name

    def add_link(self, a: str, b: str, delay_ab: int, delay_ba: Optional[int] = None,
                 loss: float = 0.0, loss_ab: Optional[float] = None,
                 loss_ba: Optional[float] = None) -> SimLink:
        if a not in self.nodes or b not in self.nodes:
            raise SimError(f"link endpoints must exist: {a}, {b}")
        rng = random.Random(f"{self.seed}/link/{a}|{b}")
        link = SimLink(self.nodes[a], self.nodes[b], delay_ab,
                       delay_ba if delay_ba is not None else delay_ab,
                       loss, loss_ab, loss_ba, rng)
        self.links.append(link)
        self._adj[a].append(link)
        self._adj[b].append(link)
        self._routes.clear()
        for node in self.nodes.values():
            node.next_hop.clear()
        return link

    def link_between(self, a: str, b: str) -> Optional[SimLink]:
        for link in self._adj.get(a, []):
            if link.other(a) == b:
                return link
        return None

    def bind(self, name: str, ip: str, port: int, handler: Callable[[Datagram], None]) -> None:
        self.add_address(name, ip)
        self.nodes[name].bindings[(ip, port)] = handler

    # -- underlay routing -------------------------------------------------

    def _routes_from(self, src: str) -> dict[str, _DirState]:
        """Destination -> the out-direction of the first link on the min
        (hop count, path delay, node-name path) route.  Of parallel links
        with equal delays, the one added first carries the route."""
        best: dict[str, tuple[int, int, tuple[str, ...]]] = {src: (0, 0, (src,))}
        first: dict[str, _DirState] = {}
        frontier = [(0, 0, (src,), src)]
        while frontier:
            hops, delay, path, at = heapq.heappop(frontier)
            if best[at] != (hops, delay, path):
                continue
            for link in self._adj[at]:
                nxt = link.other(at)
                cand = (hops + 1, delay + link.delay(at), path + (nxt,))
                if nxt not in best or cand < best[nxt]:
                    best[nxt] = cand
                    first[nxt] = link.dirs[(at, nxt)] if at == src else first[at]
                    heapq.heappush(frontier, cand + (nxt,))
        self._routes[src] = first
        return first

    # -- datagram movement ------------------------------------------------

    def send(self, from_node: str, pkt: Datagram) -> None:
        node = self.nodes[from_node]
        if not node.alive:
            node.drop("not_alive")
            return
        node.tx += 1
        self._route(node, pkt, None)

    def _route(self, node: SimNode, pkt: Datagram, arrived: Optional[_DirState]) -> None:
        """Hand pkt to node's socket for its destination, or send it on the
        first link towards the destination's owner.  A send on an up link
        that is not lost is one heap entry that runs `_route` again at the
        far end, with the direction it arrived by, where it is counted as
        delivered, dropped if that node is dead, and NAT-translated."""
        if arrived is not None:
            arrived.delivered += 1
            if not node.alive:
                node.drop("not_alive")
                return
            nat = node.nat
            if nat is not None:
                if pkt.dst_ip == nat.public_ip:
                    pkt = nat.translate_in(pkt)
                    if pkt is None:
                        node.drop("no_mapping")
                        return
                else:
                    pkt = nat.translate_out(pkt)
        try:
            hop = node.next_hop[pkt.dst_ip]
        except KeyError:
            hop = self._next_hop(node, pkt.dst_ip)
        if hop is node:
            handler = node.bindings.get((pkt.dst_ip, pkt.dst_port))
            if handler is None:
                node.drop("no_listener")
                return
            node.rx += 1
            handler(pkt)
        elif hop is None:
            node.drop("no_route")
        else:
            hop.sent += 1
            link = hop.link
            if not link.up:
                hop.dropped += 1
            elif link.rng.random() < (link.loss_ab if hop.forward else link.loss_ba):
                hop.lost += 1
            else:  # call_at inlined: one Python call less per hop
                clock = self.clock
                at = clock.now + (link.delay_ab if hop.forward else link.delay_ba)
                if at < clock.now:
                    raise SimError(f"cannot schedule at {at} before now {clock.now}")
                seq = clock._seq
                clock._seq = seq + 1
                heapq.heappush(clock._heap, (at, seq, self._route, (hop.to, pkt, hop),
                                             hop.label, None))

    def _next_hop(self, node: SimNode, ip: str) -> object:
        """Fill node's next-hop table for ip; an address nobody owns is
        not kept."""
        owner = self._owner.get(ip)
        if owner is None:
            return None
        if owner == node.name:
            hop = node
        else:
            routes = self._routes.get(node.name)
            if routes is None:
                routes = self._routes_from(node.name)
            hop = routes.get(owner)
        node.next_hop[ip] = hop
        return hop

    def kill(self, name: str) -> None:
        self.nodes[name].alive = False

    def counters(self) -> dict:
        out = {
            "nodes": {n: node.counters() for n, node in sorted(self.nodes.items())},
            "links": {f"{l.a}--{l.b}": l.counters() for l in self.links},
            "nats": {
                n.name: {
                    "mappings": n.nat.mapping_table(),
                    "translated_out": n.nat.translated_out,
                    "translated_in": n.nat.translated_in,
                }
                for n in self.nodes.values()
                if n.nat is not None
            },
        }
        return out
