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

The link state a sync follows is a LinkState: an immutable snapshot, kept
as a two-level map, source SLoC short -> {destination short -> record},
with an EdgeMap of the same shape for each SLA policy asked of it.  An
EdgeMap keeps the edges only as the out-adjacency the search walks, one
entry per edge, so a search builds none.  A put or a delete makes a new
snapshot by path copying (Driscoll et al., "Making data structures
persistent", JCSS 1989): it copies the outer map and the row the pair
touches, and in each edge map the two rows of the pair's two directions.
Every other row is shared with the snapshot before, so a delta costs
O(nodes), not O(records).  build_edges, the reference, runs only when a
snapshot is first asked for a policy.

The syncs are pure mirrors: each subscribes through the `follow` its owner
hands to `start` and holds no store session of its own.  Each reads a
record through its store entry's decode memo, so a put is decoded once for
every sync that follows it.  Followers in step share their snapshots, too.
Every sync starts from one empty snapshot, and the store hands each
follower of a put the same WatchEvent object.  One transition memo,
(snapshot, event) -> (next snapshot, pair), remembers the last step any
sync made, keyed by the identity of both.  A follower that meets the same
event object from the same snapshot takes the snapshot the first one
computed, and so holds exactly what it would have computed itself.  A
follower whose history differs (partitioned, held in its listing, killed,
late to follow, or handed events in another order by a nested delivery)
misses the memo and computes its own snapshots, so its view is exactly its
own history too.  The memo keeps only the last step, so no chain of old
snapshots stays alive.  RouteSync counts its table's routes per system,
so whether a system is a route's destination is one dict read.
"""

from __future__ import annotations

from collections.abc import Mapping
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


def build_edges(records: Mapping[tuple[str, str], LinkStateRecord],
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


def _assigned(rows: dict[str, dict], changes) -> dict[str, dict]:
    """A copy of the two-level map rows with rows[u][v] = value for each
    ((u, v), value) in changes, or the entry dropped where value is None (a
    row left empty goes too).  Only the changed rows are copied; the copy
    shares every other row with rows."""
    rows = dict(rows)
    for (u, v), value in changes:
        row = dict(rows.get(u, ()))
        if value is None:
            row.pop(v, None)
        else:
            row[v] = value
        if row:
            rows[u] = row
        else:
            rows.pop(u, None)
    return rows


class EdgeMap:
    """A directed cost map kept only as its out-adjacency: `out[u][v]` is
    the cost of the edge (u, v).  It is never changed: `updated` makes a
    copy that shares the rows it does not change."""

    __slots__ = ("out",)

    def __init__(self, edges: dict[tuple[str, str], float]):
        self.out = _adjacency(edges)

    def updated(self, changes) -> "EdgeMap":
        """A copy with each (pair, cost) of changes set, or the edge dropped
        where cost is None."""
        edges = EdgeMap({})
        edges.out = _assigned(self.out, changes)
        return edges


def shortest_constrained(edges: dict[tuple[str, str], float] | EdgeMap,
                         srcs: set[str], dsts: set[str],
                         max_hops: int) -> tuple[float, tuple[str, ...]]:
    """Hop-layered relaxation; returns (cost, node path including the source).

    Each round extends best-known walks by one edge, so after k rounds the
    table holds minima over walks of at most k edges; with positive costs the
    winner is a simple path.  Ties break on (cost, hops, lexicographic path).
    Only the frontier, the nodes that improved in the last round, is relaxed:
    see the module docstring for why that equals relaxing every edge.  An
    EdgeMap lends its adjacency; a pair-keyed map has one built per call.
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


_NO_ROW: dict = {}


class LinkState(Mapping):
    """An immutable link-state snapshot: a read-only map (src, dst) ->
    LinkStateRecord, kept as `rows[src][dst]`.  `applied` makes the next
    snapshot by path copying (see the module docstring).  The edge map of
    each policy is built on a snapshot's first `edge_map` call for it, and
    carried delta by delta into the snapshots made from this one; it is a
    function of the records, so a shared snapshot may gain one.  The empty
    snapshot keeps none, so that what one world asks for does not follow
    every later world of the process."""

    __slots__ = ("rows", "_edges")

    def __init__(self, rows: dict[str, dict[str, LinkStateRecord]]):
        self.rows = rows
        self._edges: dict[SlaPolicy, EdgeMap] = {}

    def __getitem__(self, pair: tuple[str, str]) -> LinkStateRecord:
        return self.rows[pair[0]][pair[1]]

    def __iter__(self) -> Iterator[tuple[str, str]]:
        for src, row in self.rows.items():
            for dst in row:
                yield src, dst

    def __len__(self) -> int:
        return sum(map(len, self.rows.values()))

    def applied(self, pair: tuple[str, str], rec: Optional[LinkStateRecord]) -> "LinkState":
        """The snapshot after a put of rec at pair, or its delete if rec is
        None: each edge map recomputes only the two directions of the pair."""
        state = LinkState(_assigned(self.rows, ((pair, rec),)))
        for policy, edges in self._edges.items():
            state._edges[policy] = edges.updated(
                [(p, state._cost(p, policy)) for p in (pair, (pair[1], pair[0]))])
        return state

    def _cost(self, pair: tuple[str, str], policy: SlaPolicy) -> Optional[float]:
        """The cost of the edge pair as build_edges gives it: from its own
        up record, or else from the reverse record when the direction is
        unmeasured; None where there is no edge."""
        rec = self.rows.get(pair[0], _NO_ROW).get(pair[1])
        if rec is None:
            rec = self.rows.get(pair[1], _NO_ROW).get(pair[0])
        if rec is None or rec.status == STATUS_DOWN:
            return None
        return edge_cost_ms(rec.two_way_delay_us, rec.jitter_us, rec.loss, policy)

    def edge_map(self, policy: SlaPolicy) -> EdgeMap:
        """build_edges(self, policy) as an EdgeMap; callers must not change it."""
        edges = self._edges.get(policy)
        if edges is None:
            edges = EdgeMap(build_edges(self, policy))
            if self.rows:  # the empty snapshot every sync starts from keeps none
                self._edges[policy] = edges
        return edges


EMPTY_LINK_STATE = LinkState({})

# (snapshot, event, next snapshot, pair or None): the last step any
# LinkStateSync made, its transition memo
_last_step: tuple = (None, None, EMPTY_LINK_STATE, None)


class LinkStateSync:
    """Mirror of /stats/linkstate: `records` is the current LinkState
    snapshot, replaced on each delta and never changed.

    Followers in step share their snapshots through the transition memo
    `_last_step`, keyed by the identity of the snapshot and of the WatchEvent.
    The sharing is exact: a step's result depends only on the snapshot it
    starts from and on the event, and a hit holds the very objects the
    step was computed from, so it takes what it would compute itself.  Any
    other follower misses and computes its step.  On a hit a delta costs
    no decode, copy or edge cost, and `on_delta(src, dst)` runs once per
    follower per delta all the same."""

    def __init__(self, on_delta: Optional[Callable[[str, str], None]] = None):
        self.records = EMPTY_LINK_STATE
        self.on_delta = on_delta

    def start(self, follow: Follow) -> None:
        follow(LINKSTATE_PREFIX, self._apply)

    def _apply(self, ev: WatchEvent) -> None:
        global _last_step
        was, seen, state, pair = _last_step
        if seen is not ev or was is not self.records:
            try:
                if ev.kind == PUT:
                    pair, rec = ev.entry.decoded[parse_linkstate]
                else:
                    pair, rec = parse_linkstate_key(ev.entry.key), None
            except SchemaError:
                pair = None  # a rejected event leaves the snapshot as it was
            state = self.records if pair is None else self.records.applied(pair, rec)
            _last_step = (self.records, ev, state, pair)
        self.records = state
        if pair is not None and self.on_delta is not None:
            self.on_delta(*pair)

    def edges(self, policy: SlaPolicy) -> EdgeMap:
        """The current edge map; callers must not change it."""
        return self.records.edge_map(policy)
