"""The benchmark's three reference worlds, built only through ruta's public API.

Each builder returns a `Workload`: a started world, a convergence predicate,
open-loop traffic generators and a ledger that records every offered and
delivered frame.  Frames are scheduled on the virtual clock at a fixed
simulated rate, so host speed never changes what is offered.  All randomness
(link loss, payload bytes) comes from the seed; the same (workload, seed,
simulated duration) always gives the same simulated outcome.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from ruta import schema
from ruta.dataplane import (
    AppEndpoint,
    FabricRuntime,
    HostFrame,
    HostPort,
    LinecardRuntime,
    StunRuntime,
    TokenAuthority,
    TokenEdgeConfig,
    World,
)
from ruta.kvstore import KvStore
from ruta.netsim import Network, Trace, VirtualClock, millis, seconds
from ruta.schema import PolicyRule, Sloc

PID_OCTETS = 8
FRAME_HEADER_OCTETS = 20  # src/dst MAC + src/dst IPv4, see dataplane.encode_frame
CONVERGE_STEP_NS = millis(10)
CONVERGE_LIMIT_NS = seconds(60)
DRAIN_NS = seconds(1)


def make_world(seed: int) -> World:
    clock = VirtualClock()
    trace = Trace()
    return World(clock=clock, net=Network(clock, trace, seed=seed),
                 store=KvStore(clock), trace=trace)


def sloc(ip: str, port: int) -> Sloc:
    return Sloc(color="inet", private_ip=ip, private_port=port, public_ip=ip,
                public_port=port, rx_bw=1e9, tx_bw=1e9)


class Ledger:
    """Offered and delivered frames, keyed by a payload id (pid).

    A payload is its pid in 8 octets followed by seeded filler owned by the
    flow, so the receiver can rebuild the exact bytes it must have received.
    """

    def __init__(self, seed: int, payload_octets: int):
        self.rng = random.Random(f"{seed}/payload")
        self.payload_octets = payload_octets
        self.fill: list[bytes] = []
        self.flows: list[str] = []
        self.offered = 0
        self.delivered: list[tuple[int, int, int]] = []  # (sim time, flow, pid)
        self.seen: set[int] = set()
        self.corrupt = 0
        self.duplicate = 0

    def add_flow(self, name: str) -> int:
        self.flows.append(name)
        self.fill.append(self.rng.randbytes(self.payload_octets - PID_OCTETS))
        return len(self.flows) - 1

    def payload(self, flow: int, seq: int) -> bytes:
        pid = flow << 32 | seq
        return pid.to_bytes(PID_OCTETS, "big") + self.fill[flow]

    def receive(self, now: int, payload: bytes) -> None:
        pid = int.from_bytes(payload[:PID_OCTETS], "big")
        flow, seq = pid >> 32, pid & 0xFFFFFFFF
        if flow >= len(self.fill) or payload != self.payload(flow, seq):
            self.corrupt += 1
            return
        if pid in self.seen:
            self.duplicate += 1
            return
        self.seen.add(pid)
        self.delivered.append((now, flow, pid))


def open_loop(clock: VirtualClock, start: int, stop: int, interval: int,
              send: Callable[[int], None], label: str) -> None:
    """Schedule send(seq) at start + seq * interval for every slot before stop.

    Each flow gets its own timer closure from this factory; the next slot is
    computed from the sequence number, so the rate never drifts.
    """

    def fire(seq: int) -> Callable[[], None]:
        def tick() -> None:
            send(seq)
            at = start + (seq + 1) * interval
            if at < stop:
                clock.call_at(at, fire(seq + 1), label)
        return tick

    if start < stop:
        clock.call_at(start, fire(0), label)


@dataclass
class Workload:
    name: str
    world: World
    ledger: Ledger
    runtimes: list
    apps: list = field(default_factory=list)
    senders: list = field(default_factory=list)  # per-flow schedule callbacks
    converged_fn: Callable[[], bool] = lambda: True
    events: int = 0

    # -- phases -------------------------------------------------------------

    def run_until(self, at: int) -> None:
        self.events += len(self.world.clock.run_until(at))

    def converge(self) -> int:
        """Step the clock until the convergence predicate holds."""
        clock = self.world.clock
        while not self.converged_fn():
            if clock.now >= CONVERGE_LIMIT_NS:
                raise RuntimeError(f"{self.name} did not converge in "
                                   f"{CONVERGE_LIMIT_NS / 1e9:.0f} simulated s")
            self.run_until(clock.now + CONVERGE_STEP_NS)
        return clock.now

    def schedule(self, duration_ns: int) -> tuple[int, int]:
        """Schedule every flow's frames over [now, now + duration)."""
        start = self.world.clock.now
        stop = start + duration_ns
        for send in self.senders:
            send(start, stop)
        return start, stop

    def drain_and_stop(self) -> None:
        """Let frames in flight land, then stop every runtime and run the
        clock dry, so each datagram ever sent has a final fate."""
        self.run_until(self.world.clock.now + DRAIN_NS)
        for rt in self.runtimes:
            rt.kill()
        self.events += len(self.world.clock.run_until_quiescent())

    # -- accounting ---------------------------------------------------------

    def drop_counts(self) -> dict[str, int]:
        """Every drop the program counted, by the place that counted it."""
        net = self.world.net
        out = {
            "link_lost": sum(st.lost for link in net.links for st in link.dirs.values()),
            "link_dropped": sum(st.dropped for link in net.links
                                for st in link.dirs.values()),
            "node": sum(sum(node.drops.values()) for node in net.nodes.values()),
            "runtime": sum(n for rt in self.runtimes for k, n in rt.counts.items()
                           if k.startswith("drop_") or k in ("token_reject",
                                                             "probe_unmatched")),
            "app": sum(n for app in self.apps for k, n in app.counts.items()
                       if k.startswith("drop_")),
        }
        return out

    def probe_drops(self) -> int:
        """Probe datagrams that died (request or response): probes that timed
        out plus those still unanswered when the runtimes stopped.  Exact
        once the world has been run dry.  Probes are the only control
        datagrams that cross lossy links in these worlds."""
        return sum(s.lost_total + len(s.pending)
                   for rt in self.runtimes for s in rt.sessions.values())

    def digest(self) -> str:
        """Hash of the simulated outcome: deliveries, path choices, events."""
        h = hashlib.sha256()
        for rec in self.ledger.delivered:
            h.update(b"%d/%d/%d;" % rec)
        for rec in self.world.trace.select("path_selected"):
            h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"events=%d" % self.events)
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# steer_2x2


STEER_RATE = 5000          # frames per simulated second, H1 -> H2
STEER_FRAME_OCTETS = 64    # smallest frame: per-packet cost dominates
STEER_LOSS = 0.03          # LC_A -- Spine_A, the steered uplink


def steer_2x2(seed: int, rate: int = STEER_RATE) -> Workload:
    """The 2x2 spine-leaf of the data-plane tests with a steer rule via
    Spine_A; H1 on LC_A sends 64-octet frames to H2 on LC_B.  Unlike the
    tests' copy, the steered uplink loses a few frames, so frame loss is
    measured on a path the rule forces."""
    w = make_world(seed)
    for name in ("LC_A", "LC_B", "Spine_A", "Spine_B"):
        w.net.add_node(name)
    w.net.add_link("LC_A", "Spine_A", millis(0.3), loss=STEER_LOSS)
    w.net.add_link("LC_A", "Spine_B", millis(0.2))
    w.net.add_link("LC_B", "Spine_A", millis(0.3))
    w.net.add_link("LC_B", "Spine_B", millis(0.2))
    ledger = Ledger(seed, STEER_FRAME_OCTETS - FRAME_HEADER_OCTETS)
    lc_kw = dict(imports_l2={"100:1": 1234})
    lc_a = LinecardRuntime(w, "LC_A", [sloc("192.168.99.77", 5547)], site_id=1,
                           l2_services={1234: ("100:1", "1:1")}, **lc_kw)
    lc_b = LinecardRuntime(w, "LC_B", [sloc("192.168.99.78", 5546)], site_id=2,
                           l2_services={1234: ("100:1", "2:1")}, **lc_kw)
    spine_a = FabricRuntime(w, "Spine_A", [sloc("192.168.99.75", 17777)])
    spine_b = FabricRuntime(w, "Spine_B", [sloc("192.168.99.76", 17777)])
    h1 = HostPort("H1", "0a:00:00:00:00:88", "10.0.0.88", vnid=1234)
    h2 = HostPort("H2", "0a:00:00:00:00:99", "10.0.0.99", vnid=1234,
                  deliver=host_receiver(w.clock, ledger))
    lc_a.attach_host(h1)
    lc_b.attach_host(h2)
    runtimes = [lc_a, lc_b, spine_a, spine_b]
    for rt in runtimes:
        rt.start()
    w.store.put(schema.group_rule_key(0, 0), schema.to_json_bytes(
        PolicyRule("steer", ("Spine_A|inet|192.168.99.75:17777",)).to_doc()))
    wl = Workload("steer_2x2", w, ledger, runtimes)
    flow = ledger.add_flow("H1->H2")
    wl.senders.append(host_sender(wl, lc_a, h1, h2, flow, rate))
    wl.converged_fn = lambda: linecard_ready(lc_a, h1, [(h2, "LC_B")])
    return wl


# ---------------------------------------------------------------------------
# mesh_4x32


MESH_SPINES = 4
MESH_LEAVES = 32
MESH_RATE = 40             # frames per simulated second per leaf
MESH_FRAME_OCTETS = 128
MESH_LOSSY = (3, 11, 19, 27)   # leaves whose uplink to Spine_0 is bad
MESH_LOSSY_LOSS = 0.9
MESH_REMOTE = (7, 15, 23, 31)  # leaves whose every uplink is lossy
MESH_REMOTE_LOSS = 0.15


def mesh_4x32(seed: int, spines: int = MESH_SPINES, leaves: int = MESH_LEAVES,
              rate: int = MESH_RATE) -> Workload:
    """4 spines x 32 leaves, all cold.  Each leaf's host sends to the next
    leaf's host.  Underlay routes between leaves all cross Spine_0.  A few
    leaves' Spine_0 uplinks are bad, so their direct paths fail the SLA and
    traffic engineering picks relays through the other spines.  A few remote
    leaves lose frames on every uplink, which no path avoids."""
    w = make_world(seed)
    spine_names = [f"Spine_{i}" for i in range(spines)]
    leaf_names = [f"Leaf_{j:02d}" for j in range(leaves)]
    for name in spine_names + leaf_names:
        w.net.add_node(name)
    for j, leaf in enumerate(leaf_names):
        for i, spine in enumerate(spine_names):
            loss = (MESH_REMOTE_LOSS if j in MESH_REMOTE
                    else MESH_LOSSY_LOSS if i == 0 and j in MESH_LOSSY else 0.0)
            w.net.add_link(leaf, spine, millis(0.25), loss=loss)
    ledger = Ledger(seed, MESH_FRAME_OCTETS - FRAME_HEADER_OCTETS)
    fabrics = [FabricRuntime(w, name, [sloc(f"10.0.0.{i + 1}", 17777)])
               for i, name in enumerate(spine_names)]
    cards, hosts = [], []
    for j, name in enumerate(leaf_names):
        lc = LinecardRuntime(w, name, [sloc(f"10.1.{j}.1", 5500)], site_id=j + 1,
                             imports_l2={"100:1": 1234},
                             l2_services={1234: ("100:1", f"{j + 1}:1")})
        cards.append(lc)
    runtimes = fabrics + cards
    wl = Workload("mesh_4x32", w, ledger, runtimes)
    for j, lc in enumerate(cards):
        host = HostPort(f"H{j:02d}", f"0a:00:00:00:01:{j:02x}", f"10.100.{j}.10",
                        vnid=1234, deliver=host_receiver(w.clock, ledger))
        lc.attach_host(host)
        hosts.append(host)
    for rt in runtimes:
        rt.start()
    pairs = []
    for j, lc in enumerate(cards):
        k = (j + 1) % leaves
        flow = ledger.add_flow(f"{hosts[j].name}->{hosts[k].name}")
        wl.senders.append(host_sender(wl, lc, hosts[j], hosts[k], flow, rate,
                                      offset=j * seconds(1) // (rate * leaves)))
        pairs.append((lc, hosts[j], [(hosts[k], leaf_names[k])]))
    wl.converged_fn = lambda: all(linecard_ready(*p) for p in pairs)
    return wl


# ---------------------------------------------------------------------------
# nat_echo


NAT_BOXES = 3
NAT_CLIENTS = 4            # per NAT box; even ones echo, odd ones send one-way
NAT_RATE = 100             # frames per simulated second per client
NAT_PAYLOAD_OCTETS = 1200
NAT_ACCESS_LOSS = 0.03     # client access links carry data only
TOKEN_SECRET = "bench-edge-secret"

EDGE = ("203.0.113.10", 17777)
TOKEN_EDGE = ("203.0.113.11", 17777)
TRANSIT = ("203.0.113.20", 17777)
SERVER = ("203.0.113.30", 7443)
SINK = ("203.0.113.31", 7443)
STUN = ("203.0.113.40", 3478)


def nat_echo(seed: int, boxes: int = NAT_BOXES, clients: int = NAT_CLIENTS,
             rate: int = NAT_RATE) -> Workload:
    """Clients behind NAT boxes.  Echo clients go client -> NAT -> edge ->
    transit -> server and back on reversed segments; one-way clients go
    through a token-admitting edge to a sink.  A STUN-discovering linecard
    sits behind each NAT and keeps probing the fabrics through it."""
    w = make_world(seed)
    for name in ("F_EDGE", "F_TOKEN", "F_TRANSIT", "server", "sink", "STUN1"):
        w.net.add_node(name)
    w.net.add_link("F_EDGE", "F_TRANSIT", millis(5))
    w.net.add_link("F_TOKEN", "F_TRANSIT", millis(5))
    w.net.add_link("F_TRANSIT", "server", millis(2))
    w.net.add_link("F_TRANSIT", "sink", millis(2))
    w.net.add_link("F_TRANSIT", "STUN1", millis(2))
    ledger = Ledger(seed, NAT_PAYLOAD_OCTETS)
    edge = FabricRuntime(w, "F_EDGE", [sloc(*EDGE)])
    token_edge = FabricRuntime(w, "F_TOKEN", [sloc(*TOKEN_EDGE)],
                               token_edge=TokenEdgeConfig(secret=TOKEN_SECRET))
    transit = FabricRuntime(w, "F_TRANSIT", [sloc(*TRANSIT)])
    stun = StunRuntime(w, "STUN1", [sloc(*STUN)])
    server = AppEndpoint(w, "server", *SERVER, echo=True, reply_via=[EDGE])
    sink = AppEndpoint(w, "sink", *SINK, on_app=app_receiver(w.clock, ledger))
    runtimes = [edge, token_edge, transit, stun]
    cards, apps = [], [server, sink]
    endpoints = []
    for n in range(boxes):
        nat, public_ip = f"NAT_{n}", f"198.51.100.{n + 1}"
        w.net.add_nat(nat, f"10.9.{n}.0/24", public_ip)
        w.net.add_link(nat, "F_EDGE", millis(10))
        w.net.add_link(nat, "F_TOKEN", millis(10))
        lc_name = f"LC_N{n}"
        w.net.add_node(lc_name)
        w.net.add_link(lc_name, nat, millis(1))
        cards.append(LinecardRuntime(w, lc_name, [sloc(f"10.9.{n}.2", 5500)],
                                     site_id=n + 1, use_stun=True))
        for i in range(clients):
            name = f"client_{n}_{i}"
            w.net.add_node(name)
            w.net.add_link(name, nat, millis(1), loss=NAT_ACCESS_LOSS)
            echo = i % 2 == 0
            app = AppEndpoint(w, name, f"10.9.{n}.{10 + i}", 6000,
                              on_app=app_receiver(w.clock, ledger) if echo else None)
            apps.append(app)
            endpoints.append((app, echo, public_ip))
    runtimes += cards
    # the STUN server starts before the linecards, which hunt for it on onboarding
    for rt in runtimes:
        rt.start()
    for app in apps:
        app.start()
    wl = Workload("nat_echo", w, ledger, runtimes, apps=apps)
    tokens = TokenAuthority(TOKEN_SECRET)
    for idx, (app, echo, public_ip) in enumerate(endpoints):
        flow = ledger.add_flow(f"{app.name}->{'server' if echo else 'sink'}")
        wl.senders.append(app_sender(wl, app, echo, public_ip, tokens, flow, rate,
                                     offset=idx * seconds(1) // (rate * len(endpoints))))

    def converged() -> bool:
        for lc in cards:
            entry = w.store.get(f"/service/linecard/{lc.name}")
            if entry is None:
                return False
            doc = schema.from_json_bytes(entry.value)
            if doc["slocs"][0]["public_ip"] == lc.slocs[0].sloc.private_ip:
                return False
        fabric_names = {"F_EDGE", "F_TOKEN", "F_TRANSIT"}
        for rt in runtimes:
            if rt is stun:
                continue
            peers = fabric_names - {rt.name}
            if not all(any(s.outcomes for s in rt.sessions_to(p)) for p in peers):
                return False
        return True

    wl.converged_fn = converged
    return wl


# ---------------------------------------------------------------------------
# generators and receivers (each a closure made by a factory)


def linecard_ready(lc: LinecardRuntime, src: HostPort,
                   dsts: list[tuple[HostPort, str]]) -> bool:
    """Announced its host route, holds a route to every destination host,
    and has a first probe outcome towards every destination system."""
    if src.name not in lc.announced:
        return False
    for host, system in dsts:
        if (host.vnid, host.mac) not in lc.route_sync.table.type2:
            return False
        if not any(s.outcomes for s in lc.sessions_to(system)):
            return False
    return True


def host_receiver(clock: VirtualClock, ledger: Ledger) -> Callable[[HostFrame], None]:
    def deliver(frame: HostFrame) -> None:
        ledger.receive(clock.now, frame.payload)
    return deliver


def app_receiver(clock: VirtualClock, ledger: Ledger):
    def on_app(payload: bytes, ctx) -> None:
        ledger.receive(clock.now, payload)
    return on_app


def host_sender(wl: Workload, lc: LinecardRuntime, src: HostPort, dst: HostPort,
                flow: int, rate: int, offset: int = 0):
    ledger = wl.ledger
    interval = seconds(1) // rate

    def send(seq: int) -> None:
        ledger.offered += 1
        lc.inject_host_frame(src.name, HostFrame(src.mac, dst.mac, src.ip, dst.ip,
                                                 ledger.payload(flow, seq)))

    def schedule(start: int, stop: int) -> None:
        open_loop(wl.world.clock, start + offset, stop, interval, send,
                  f"bench:{ledger.flows[flow]}")
    return schedule


def app_sender(wl: Workload, app: AppEndpoint, echo: bool, public_ip: str,
               tokens: TokenAuthority, flow: int, rate: int, offset: int = 0):
    ledger = wl.ledger
    clock = wl.world.clock
    interval = seconds(1) // rate
    minted: dict[int, int] = {}

    def send(seq: int) -> None:
        ledger.offered += 1
        payload = ledger.payload(flow, seq)
        if echo:
            app.send_srou(payload, edge=EDGE, server=SERVER, transit=TRANSIT)
            return
        bucket = clock.now // tokens.bucket_ns
        if bucket not in minted:
            minted.clear()
            minted[bucket] = tokens.mint(public_ip, clock.now)
        app.send_srou(payload, edge=TOKEN_EDGE, server=SINK, transit=TRANSIT,
                      flow_id=minted[bucket])

    def schedule(start: int, stop: int) -> None:
        open_loop(clock, start + offset, stop, interval, send,
                  f"bench:{ledger.flows[flow]}")
    return schedule


WORKLOADS = {"steer_2x2": steer_2x2, "mesh_4x32": mesh_4x32, "nat_echo": nat_echo}
