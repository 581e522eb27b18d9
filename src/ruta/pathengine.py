"""Per-linecard route resolution and constrained relay-path computation.

The engine mirrors the watched /route prefixes into a local table (type-2
exact match, type-5 longest prefix match), evaluates destination SLAs against
direct probe results, and, on violation, runs a hop-constrained shortest-path
search over the link-state snapshot.  Edge cost is

    one_way_delay_ms + loss_penalty * loss + jitter_weight * jitter_ms

with one-way delay approximated as half the measured round trip (symmetric
assumption; simulation clocks are synchronized).  The search is hop-layered
relaxation: k rounds of edge relaxation bound the waypoint count to the
segment budget, with ties broken by (cost, hop count, lexicographic SLoC-short
sequence) so results are fully deterministic.

Each round relaxes only the frontier: the nodes whose best walk improved in
the round before (the sources, in the first).  That gives what relaxing
every edge gives.  Candidates compare as whole (cost, hops, path) tuples,
and two candidates for one node differ in their path, so the winner does not
depend on the order edges or nodes are visited in.  A node that did not
improve offers the same candidates it offered a round earlier, and each of
those already lost to, or is, the best walk of its target.  So the frontier
can be an unordered set, and no sort is needed.

Each linecard's edge map follows the link state delta by delta: a put or a
delete recomputes only the two directions of the changed pair, and
build_edges, the reference, runs again only when the SLA policy changes.
The map is an EdgeMap, which keeps the out-adjacency the search walks
beside the edges and updates both together, so a search builds none.

The syncs are pure mirrors: each subscribes through the `follow` its owner
hands to `start` and holds no store session of its own.  Each reads a
record through its store entry's decode memo, so a put is decoded once for
every sync that follows it.  RouteSync counts its table's routes per system,
so whether a system is a route's destination is one dict read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from . import srou
from .kvstore import PUT, WatchEvent
from .schema import (  # noqa: F401  bench/layers.py rebinds from_json_bytes here
    LINKSTATE_PREFIX,
    STATUS_DOWN,
    LinkStateRecord,
    SchemaError,
    ServiceRoute,
    ServiceSloc,
    from_json_bytes,
    parse_linkstate,
    parse_linkstate_key,
    parse_route,
    route_prefix,
)

PATH_DIRECT = "direct"
PATH_ENGINEERED = "engineered"
PATH_POLICY_STEER = "policy-steer"


class PathError(Exception):
    pass


class NoRoute(PathError):
    pass


class NoFeasiblePath(PathError):
    pass


# follow(prefix, on_event): list the prefix, then watch it
Follow = Callable[[str, Callable[[WatchEvent], None]], None]


@dataclass(frozen=True)
class SlaPolicy:
    max_delay_ms: float = 200.0
    max_loss: float = 0.02
    max_segments: int = 4
    loss_penalty_ms: float = 1000.0
    jitter_weight: float = 0.0

    def __post_init__(self):
        if self.max_segments < 1:
            raise ValueError("max_segments must be >= 1")


def sla_breach(status: str, two_way_delay_us: float, loss: float,
               policy: SlaPolicy) -> Optional[str]:
    """The first bound a link breaks, in the order down, delay, loss, or
    None; takes the figures a record would hold."""
    if status == STATUS_DOWN:
        return "down"
    if two_way_delay_us / 2.0 / 1000.0 > policy.max_delay_ms:
        return "delay"
    if loss > policy.max_loss:
        return "loss"
    return None


def edge_cost_ms(two_way_delay_us: float, jitter_us: float, loss: float,
                 policy: SlaPolicy) -> float:
    """A link's edge cost (see the module docstring); takes the figures a
    record would hold, as sla_breach does."""
    return (two_way_delay_us / 2.0 / 1000.0
            + policy.loss_penalty_ms * loss
            + policy.jitter_weight * jitter_us / 1000.0)


def build_edges(records: dict[tuple[str, str], LinkStateRecord],
                policy: SlaPolicy) -> dict[tuple[str, str], float]:
    """Directed cost map from probe records.

    Round-trip measurements are direction-free, so each up record also
    supplies the reverse edge unless that direction was measured itself or
    explicitly reported down.
    """
    down = {pair for pair, rec in records.items() if rec.status == STATUS_DOWN}
    edges: dict[tuple[str, str], float] = {}
    for pair in sorted(records):
        rec = records[pair]
        if rec.status == STATUS_DOWN:
            continue
        edges[pair] = edge_cost_ms(rec.two_way_delay_us, rec.jitter_us, rec.loss, policy)
    for pair in sorted(records):
        rec = records[pair]
        if rec.status == STATUS_DOWN:
            continue
        rev = (pair[1], pair[0])
        if rev not in edges and rev not in down:
            edges[rev] = edge_cost_ms(rec.two_way_delay_us, rec.jitter_us, rec.loss,
                                      policy)
    return edges


def _adjacency(edges: dict[tuple[str, str], float]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for (u, v), w in edges.items():
        out.setdefault(u, {})[v] = w
    return out


class EdgeMap(dict):
    """A directed cost map that keeps its out-adjacency beside it, so that
    `out[u][v] == self[(u, v)]`.  Change it only through `set` and `drop`."""

    def __init__(self, edges: dict[tuple[str, str], float]):
        super().__init__(edges)
        self.out = _adjacency(edges)

    def set(self, pair: tuple[str, str], cost: float) -> None:
        self[pair] = cost
        self.out.setdefault(pair[0], {})[pair[1]] = cost

    def drop(self, pair: tuple[str, str]) -> None:
        if pair in self:
            del self[pair]
            out = self.out[pair[0]]
            del out[pair[1]]
            if not out:
                del self.out[pair[0]]


def shortest_constrained(edges: dict[tuple[str, str], float],
                         srcs: set[str], dsts: set[str],
                         max_hops: int) -> tuple[float, tuple[str, ...]]:
    """Hop-layered relaxation; returns (cost, node path including the source).

    Each round extends best-known walks by one edge, so after k rounds the
    table holds minima over walks of at most k edges; with positive costs the
    winner is a simple path.  Ties break on (cost, hops, lexicographic path).
    Only the frontier, the nodes that improved in the last round, is relaxed:
    see the module docstring for why that equals relaxing every edge.  An
    EdgeMap lends its kept adjacency; any other map has one built per call.
    A candidate's path is built only when its cost does not exceed the best
    one's, since a dearer candidate loses on cost alone.
    """
    adj = edges.out if isinstance(edges, EdgeMap) else _adjacency(edges)
    best: dict[str, tuple[float, int, tuple[str, ...]]] = {
        s: (0.0, 0, (s,)) for s in srcs}
    frontier = set(srcs)
    for _ in range(max_hops):
        if not frontier:
            break
        # the walks of the last round: a node updated below extends next round
        layer = [(best[u], adj[u]) for u in frontier if u in adj]
        frontier = set()
        for (cost, hops, path), out in layer:
            for v, w in out.items():
                c = cost + w
                cur = best.get(v)
                if cur is not None and c > cur[0]:
                    continue
                cand = (c, hops + 1, path + (v,))
                if cur is None or cand < cur:
                    best[v] = cand
                    frontier.add(v)
    found = [best[d] for d in dsts if d in best and best[d][1]]
    if not found:
        raise NoFeasiblePath(f"no path within {max_hops} hops")
    cost, _, path = min(found)
    return cost, path


@dataclass(frozen=True)
class ComputedPath:
    """Selected waypoint sequence: first is the outer destination, last is the
    destination service node where the function executes."""

    waypoints: tuple[ServiceSloc, ...]
    cost_ms: float
    source: str  # direct | engineered | policy-steer


# ---------------------------------------------------------------------------
# route table


class Lpm:
    """Longest-prefix-match over IPv4: mask-indexed exact-match maps."""

    def __init__(self):
        self._by_mask: dict[int, dict[int, ServiceRoute]] = {}  # longest mask first

    @staticmethod
    def _net(ip: str, mask: int) -> int:
        addr = int.from_bytes(srou.pack_ipv4(ip), "big")
        return addr & (0xFFFFFFFF << (32 - mask) if mask else 0)

    def insert(self, prefix: str, mask: int, route: ServiceRoute) -> None:
        net = self._net(prefix, mask)
        if mask not in self._by_mask:
            self._by_mask[mask] = {}
            self._by_mask = dict(sorted(self._by_mask.items(), reverse=True))
        self._by_mask[mask][net] = route

    def remove(self, prefix: str, mask: int) -> None:
        table = self._by_mask.get(mask)
        if table is not None:
            table.pop(self._net(prefix, mask), None)
            if not table:
                del self._by_mask[mask]

    def exact(self, prefix: str, mask: int) -> Optional[ServiceRoute]:
        """The route of exactly prefix/mask, if any."""
        table = self._by_mask.get(mask)
        return None if table is None else table.get(self._net(prefix, mask))

    def lookup(self, ip: str) -> Optional[ServiceRoute]:
        addr = self._net(ip, 32)
        for mask, table in self._by_mask.items():
            route = table.get(addr & (0xFFFFFFFF << (32 - mask) if mask else 0))
            if route is not None:
                return route
        return None

    def routes(self) -> Iterator[ServiceRoute]:
        for table in self._by_mask.values():
            yield from table.values()


@dataclass
class RouteTable:
    type2: dict[tuple[int, str], ServiceRoute] = field(default_factory=dict)
    type5: dict[int, Lpm] = field(default_factory=dict)

    def resolve_l2(self, vnid: int, mac: str) -> ServiceRoute:
        route = self.type2.get((vnid, mac))
        if route is None:
            raise NoRoute(f"no type-2 route for vnid {vnid} mac {mac}")
        return route

    def resolve_l3(self, vrf: int, ip: str) -> ServiceRoute:
        lpm = self.type5.get(vrf)
        route = lpm.lookup(ip) if lpm is not None else None
        if route is None:
            raise NoRoute(f"no type-5 route for vrf {vrf} ip {ip}")
        return route

    def resolve(self, *, vnid: Optional[int] = None, mac: Optional[str] = None,
                vrf: Optional[int] = None, ip: Optional[str] = None) -> ServiceRoute:
        """Type-2 exact match preferred; type-5 LPM as the L3 fallback."""
        if vnid is not None and mac is not None:
            try:
                return self.resolve_l2(vnid, mac)
            except NoRoute:
                if vrf is None or ip is None:
                    raise
        if vrf is not None and ip is not None:
            return self.resolve_l3(vrf, ip)
        raise NoRoute("nothing to resolve with")


class RouteSync:
    """Mirror of the watched /route prefixes, one follow per imported RT.
    `systems` maps each system name to the number of the table's routes
    that lead to it."""

    def __init__(self, l2_imports: dict[str, int], l3_imports: dict[str, int],
                 on_delta: Optional[Callable[[str, ServiceRoute], None]] = None):
        self.l2_imports = dict(l2_imports)
        self.l3_imports = dict(l3_imports)
        self.on_delta = on_delta
        self.table = RouteTable()
        self.systems: dict[str, int] = {}

    def start(self, follow: Follow) -> None:
        """Follow each imported RT prefix."""
        for prefix in ([route_prefix(2, rt) for rt in sorted(self.l2_imports)]
                       + [route_prefix(5, rt) for rt in sorted(self.l3_imports)]):
            follow(prefix, self._apply)

    def _apply(self, ev: WatchEvent) -> None:
        """Mirror one route event.  The follow of /route/<t>/<rt>/ delivers
        only routes of type t under RT rt, since an RT holds no '/', so the
        route's RT is imported."""
        try:
            route = ev.entry.decoded[parse_route]
        except SchemaError:
            return
        if route.route_type == 2:
            tkey = (self.l2_imports[route.export_rt], route.mac)
            old = self.table.type2.get(tkey)
            if ev.kind == PUT:
                self.table.type2[tkey] = route
            else:
                self.table.type2.pop(tkey, None)
        else:
            lpm = self.table.type5.setdefault(self.l3_imports[route.export_rt], Lpm())
            old = lpm.exact(route.prefix, route.mask)
            if ev.kind == PUT:
                lpm.insert(route.prefix, route.mask, route)
            else:
                lpm.remove(route.prefix, route.mask)
        systems = self.systems
        if old is not None:
            left = systems.pop(old.system_name) - 1
            if left:
                systems[old.system_name] = left
        if ev.kind == PUT:
            systems[route.system_name] = systems.get(route.system_name, 0) + 1
        if self.on_delta is not None:
            self.on_delta(ev.kind, route)


class LinkStateSync:
    """Mirror of /stats/linkstate into an in-memory record map."""

    def __init__(self, on_delta: Optional[Callable[[str, str], None]] = None):
        self.records: dict[tuple[str, str], LinkStateRecord] = {}
        self.on_delta = on_delta
        self._policy: Optional[SlaPolicy] = None
        self._edges = EdgeMap({})  # build_edges(records, _policy)

    def start(self, follow: Follow) -> None:
        follow(LINKSTATE_PREFIX, self._apply)

    def _apply(self, ev: WatchEvent) -> None:
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
        if self.on_delta is not None:
            self.on_delta(*pair)

    def _edge(self, pair: tuple[str, str]) -> None:
        """Set the edge of one direction as build_edges would: its own up
        record, or else the reverse record when that direction is unmeasured."""
        rec = self.records.get(pair)
        if rec is None:
            rec = self.records.get((pair[1], pair[0]))
        if rec is None or rec.status == STATUS_DOWN:
            self._edges.drop(pair)
        else:
            self._edges.set(pair, edge_cost_ms(rec.two_way_delay_us, rec.jitter_us,
                                               rec.loss, self._policy))

    def edges(self, policy: SlaPolicy) -> EdgeMap:
        """The current edge map, its adjacency kept; callers must not change it."""
        if policy != self._policy:
            self._edges = EdgeMap(build_edges(self.records, policy))
            self._policy = policy
        return self._edges
