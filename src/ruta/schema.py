"""Control-plane schema: every key path and value document, plus the
procedures over them: register_node (one synchronous store step),
service_value (the one writer of a /service value), put_record
(one put of a route, a link-state record or a SLoC's load at its own key),
hunt and lookup_policy.

Key grammar:

    /node/<role>/<systemName>                  node registration
    /service/<role>/<systemName>               service locator announcement
    /route/2/<RT>/<RD>/<MAC>/<IP>              EVPN type-2 host route
    /route/5/<RT>/<RD>/<IPPrefix>/<Mask>       EVPN type-5 prefix route
    /stats/linkstate/<SLoC_src - SLoC_dst>     probe results
    /stats/sloc/<SLoC>                         a local SLoC's utilization
    /identity/<userid>/<device-id>             endpoint group tags
    /control/group/<srcGroup>/<dstGroup>       group policy rule

Values are canonical JSON documents (UTF-8, sorted keys).  /node and /service
keys are written under the node-keepalive lease (class 1), /route and /stats
under the slower route lease (class 2).  A flat record's document is its
fields by name, `dict(vars(record))` or, for a slotted record, a dict of its
fields: what `dataclasses.asdict` gives, without a deep copy of each field
that costs 25 times as much.

Node, service, route, link-state, group-rule and identity values are read
only through parse_node, parse_service, parse_route, parse_linkstate,
parse_group_rule and parse_identity, which raise only SchemaError.  Each
takes (key, value) and decodes afresh.  A reader of a store entry looks
each value up in the entry's decode memo instead, `entry.decoded[parse_route]`
(see kvstore), so a record is decoded once for every follower of its put,
every listing that replays it, every hunt and every registration that scans
it.  The parsers return frozen records and tuples of them, so readers share
what the memo holds; parse_identity's list of tags is read, never changed.  A
link-state record is slotted, and the SLoC-shorts and status decoded from
its key and value are interned, so the records that every linecard mirrors
share one string per SLoC.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import re
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from .kvstore import Lease, StoreHandle

ROLES = ("fabric", "linecard", "stun", "lsdb")

LABEL_BITS = 24

ACTION_PERMIT = "permit"
ACTION_DENY = "deny"
ACTION_STEER = "steer"
ACTIONS = (ACTION_PERMIT, ACTION_DENY, ACTION_STEER)

STATUS_UP = "up"
STATUS_DOWN = "down"

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")


class SchemaError(Exception):
    pass


class ValidationError(SchemaError):
    pass


class MalformedRoute(SchemaError):
    pass


class DuplicateSystemName(SchemaError):
    pass


class LabelSpaceExhausted(SchemaError):
    pass


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # what json.dumps builds


def to_json_bytes(doc) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


def from_json_bytes(raw: bytes):
    return json.loads(raw.decode("utf-8"))


def _decode(key: str, value: bytes, build: Callable):
    """build(decoded value); any malformed value raises ValidationError."""
    try:
        return build(from_json_bytes(value))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise ValidationError(f"{key}: unparseable value ({exc!r})") from None


def _check_name(name: str, what: str) -> None:
    if not name or not _NAME_RE.match(name):
        raise ValidationError(f"{what} {name!r} must match {_NAME_RE.pattern}")


def _check_ipv4(ip: str, what: str) -> None:
    try:
        ipaddress.IPv4Address(str(ip))  # an int would pass as an address
    except ValueError as exc:
        raise ValidationError(f"{what} {ip!r}: {exc}") from None


def normalize_mac(mac: str) -> str:
    mac = mac.lower()
    if not _MAC_RE.match(mac):
        raise ValidationError(f"bad MAC {mac!r}")
    return mac


# ---------------------------------------------------------------------------
# node records


@dataclass(frozen=True)
class NodeRecord:
    role: str
    system_name: str
    site_id: int
    location: tuple[float, float]  # (lat, lon) degrees
    system_label: int

    def key(self) -> str:
        return node_key(self.role, self.system_name)

    def to_doc(self) -> dict:
        return {
            "site_id": self.site_id,
            "location": {"lat": self.location[0], "lon": self.location[1]},
            "system_label": self.system_label,
        }

    @classmethod
    def from_doc(cls, role: str, system_name: str, doc: dict) -> "NodeRecord":
        return cls(role, system_name, int(doc["site_id"]),
                   (float(doc["location"]["lat"]), float(doc["location"]["lon"])),
                   int(doc["system_label"]))


def node_key(role: str, system_name: str) -> str:
    if role not in ROLES:
        raise ValidationError(f"unknown role {role!r}")
    _check_name(system_name, "system name")
    return f"/node/{role}/{system_name}"


def parse_node_key(key: str) -> tuple[str, str]:
    parts = key.split("/")
    if len(parts) != 4 or parts[0] or parts[1] != "node" or parts[2] not in ROLES:
        raise ValidationError(f"bad node key {key!r}")
    return parts[2], parts[3]


def parse_node(key: str, value: bytes) -> NodeRecord:
    """The registration of a /node record."""
    role, name = parse_node_key(key)
    return _decode(key, value, lambda doc: NodeRecord.from_doc(role, name, doc))


# ---------------------------------------------------------------------------
# service locators


@dataclass(frozen=True)
class Sloc:
    """One service interface: color tag, private/public endpoint, bandwidths."""

    color: str
    private_ip: str
    private_port: int
    public_ip: str
    public_port: int
    interface_name: Optional[str] = None
    rx_bw: float = 0.0
    tx_bw: float = 0.0

    def __post_init__(self):
        _check_name(self.color, "color")
        _check_ipv4(self.private_ip, "private ip")
        _check_ipv4(self.public_ip, "public ip")
        for port, what in ((self.private_port, "private"), (self.public_port, "public")):
            if not 1 <= port <= 65535:
                raise ValidationError(f"{what} port {port} out of 1..65535")

    def to_doc(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_doc(cls, doc: dict) -> "Sloc":
        return cls(
            color=doc["color"],
            private_ip=doc["private_ip"],
            private_port=int(doc["private_port"]),
            public_ip=doc["public_ip"],
            public_port=int(doc["public_port"]),
            interface_name=doc.get("interface_name"),
            rx_bw=float(doc.get("rx_bw", 0.0)),
            tx_bw=float(doc.get("tx_bw", 0.0)),
        )


def sloc_short(system_name: str, sloc: Sloc) -> str:
    """Canonical shortened form: <systemName>|<color>|<privateIP:port>."""
    return f"{system_name}|{sloc.color}|{sloc.private_ip}:{sloc.private_port}"


@dataclass(frozen=True)
class ServiceSloc:
    """A SLoC together with the system name that announced it."""

    system_name: str
    sloc: Sloc

    @functools.cached_property
    def short(self) -> str:
        return sloc_short(self.system_name, self.sloc)

    @property
    def addr(self) -> tuple[str, int]:
        return self.sloc.private_ip, self.sloc.private_port

    @functools.cached_property
    def public_addr(self) -> tuple[str, int]:
        return self.sloc.public_ip, self.sloc.public_port


def service_key(role: str, system_name: str) -> str:
    if role not in ROLES:
        raise ValidationError(f"unknown role {role!r}")
    _check_name(system_name, "system name")
    return f"/service/{role}/{system_name}"


def parse_service_key(key: str) -> tuple[str, str]:
    parts = key.split("/")
    if len(parts) != 4 or parts[0] or parts[1] != "service" or parts[2] not in ROLES:
        raise ValidationError(f"bad service key {key!r}")
    return parts[2], parts[3]


def service_value(slocs: list[Sloc]) -> bytes:
    """The /service value announcing slocs."""
    return to_json_bytes({"slocs": [s.to_doc() for s in slocs]})


def parse_service(key: str, value: bytes) -> tuple[str, str, tuple[ServiceSloc, ...]]:
    """(role, system name, the system's ServiceSlocs) of a /service record;
    the ServiceSlocs are a tuple of frozen records."""
    role, name = parse_service_key(key)
    return role, name, _decode(key, value, lambda doc: tuple(
        ServiceSloc(name, Sloc.from_doc(d)) for d in doc["slocs"]))


# ---------------------------------------------------------------------------
# EVPN service routes


@dataclass(frozen=True)
class ServiceRoute:
    """Type-2 (MAC+IP) or type-5 (prefix) route keyed by RT and RD.

    The value carries the three mandatory fields plus an opaque extension
    list for future TLV-style additions.
    """

    route_type: int  # 2 | 5
    export_rt: str
    rd: str
    site_id: int
    system_name: str
    policy_tag: int
    mac: Optional[str] = None
    ip: Optional[str] = None
    prefix: Optional[str] = None
    mask: Optional[int] = None
    optional_tlvs: tuple = ()

    def __post_init__(self):
        if self.route_type == 2:
            if self.mac is None or self.ip is None:
                raise MalformedRoute("type-2 route needs mac and ip")
            object.__setattr__(self, "mac", normalize_mac(self.mac))
            _check_ipv4(self.ip, "route ip")
        elif self.route_type == 5:
            if self.prefix is None or self.mask is None:
                raise MalformedRoute("type-5 route needs prefix and mask")
            if not 0 <= self.mask <= 32:
                raise MalformedRoute(f"mask {self.mask} out of 0..32")
            _check_ipv4(self.prefix, "route prefix")
            try:
                ipaddress.ip_network(f"{self.prefix}/{self.mask}")
            except ValueError as exc:
                raise MalformedRoute(str(exc)) from None
        else:
            raise MalformedRoute(f"route type {self.route_type} unsupported")
        for part in (self.export_rt, self.rd):
            if not part or "/" in part:
                raise MalformedRoute(f"bad RT/RD component {part!r}")
        _check_name(self.system_name, "system name")

    def key(self) -> str:
        if self.route_type == 2:
            return f"/route/2/{self.export_rt}/{self.rd}/{self.mac}/{self.ip}"
        return f"/route/5/{self.export_rt}/{self.rd}/{self.prefix}/{self.mask}"

    def to_doc(self) -> dict:
        return {
            "site_id": self.site_id,
            "system_name": self.system_name,
            "policy_tag": self.policy_tag,
            "optional_tlvs": list(self.optional_tlvs),
        }


def route_prefix(route_type: int, export_rt: str) -> str:
    """Watch/fetch prefix implementing RT import."""
    return f"/route/{route_type}/{export_rt}/"


def parse_route_key(key: str, doc: dict) -> ServiceRoute:
    parts = key.split("/")
    if len(parts) != 7 or parts[0] or parts[1] != "route":
        raise MalformedRoute(f"bad route key {key!r}")
    rtype = parts[2]
    common = dict(
        export_rt=parts[3],
        rd=parts[4],
        site_id=int(doc["site_id"]),
        system_name=doc["system_name"],
        policy_tag=int(doc["policy_tag"]),
        optional_tlvs=tuple(doc.get("optional_tlvs", ())),
    )
    if rtype == "2":
        return ServiceRoute(route_type=2, mac=parts[5], ip=parts[6], **common)
    if rtype == "5":
        return ServiceRoute(route_type=5, prefix=parts[5], mask=int(parts[6]), **common)
    raise MalformedRoute(f"route type {rtype!r} unsupported")


def parse_route(key: str, value: bytes) -> ServiceRoute:
    """The route of a /route record; the route is frozen."""
    return _decode(key, value, lambda doc: parse_route_key(key, doc))


# ---------------------------------------------------------------------------
# link state


def _interned(value):
    """A decoded str as the one interned copy of its text; any other value
    as it is, for the record's checks to judge."""
    return sys.intern(value) if type(value) is str else value


@dataclass(frozen=True, slots=True)
class LinkStateRecord:
    src: str  # SLoC-short
    dst: str
    two_way_delay_us: float
    jitter_us: float
    loss: float
    status: str
    sampled_at: int

    def __post_init__(self):
        if not 0.0 <= self.loss <= 1.0:
            raise ValidationError(f"loss={self.loss} outside [0,1]")
        for name, us in (("two_way_delay_us", self.two_way_delay_us),
                         ("jitter_us", self.jitter_us)):
            if not us >= 0.0:  # NaN fails too
                raise ValidationError(f"{name}={us} is negative or NaN")
        if self.status not in (STATUS_UP, STATUS_DOWN):
            raise ValidationError(f"bad status {self.status!r}")

    def key(self) -> str:
        return linkstate_key(self.src, self.dst)

    def to_doc(self) -> dict:
        return {"src": self.src, "dst": self.dst,
                "two_way_delay_us": self.two_way_delay_us, "jitter_us": self.jitter_us,
                "loss": self.loss, "status": self.status, "sampled_at": self.sampled_at}

    @classmethod
    def from_doc(cls, doc: dict) -> "LinkStateRecord":
        return cls(
            src=_interned(doc["src"]), dst=_interned(doc["dst"]),
            two_way_delay_us=float(doc["two_way_delay_us"]),
            jitter_us=float(doc["jitter_us"]),
            loss=float(doc["loss"]),
            status=_interned(doc["status"]),
            sampled_at=int(doc["sampled_at"]),
        )


LINKSTATE_PREFIX = "/stats/linkstate/"


def linkstate_key(src_short: str, dst_short: str) -> str:
    # spaces around the dash are part of the canonical key
    return f"{LINKSTATE_PREFIX}{src_short} - {dst_short}"


def parse_linkstate_key(key: str) -> tuple[str, str]:
    if not key.startswith(LINKSTATE_PREFIX):
        raise ValidationError(f"bad linkstate key {key!r}")
    rest = key[len(LINKSTATE_PREFIX):]
    src, sep, dst = rest.partition(" - ")
    if not sep or not src or not dst:
        raise ValidationError(f"bad linkstate key {key!r}")
    return sys.intern(src), sys.intern(dst)


def parse_linkstate(key: str, value: bytes) -> tuple[tuple[str, str], LinkStateRecord]:
    """((src, dst) from the key, record) of a /stats/linkstate record; the
    record is frozen, and its src and dst are the key's."""
    pair = parse_linkstate_key(key)
    rec = _decode(key, value, LinkStateRecord.from_doc)
    if (rec.src, rec.dst) != pair:  # a str equals only a str
        raise ValidationError(f"{key}: value names {rec.src!r} - {rec.dst!r}")
    return pair, rec


@dataclass(frozen=True)
class SlocLoadRecord:
    """One local SLoC's utilization over a report interval: the bytes it
    received and sent against its bandwidths, each in [0, 1]."""

    sloc: str  # SLoC-short
    utilization_rx: float
    utilization_tx: float
    sampled_at: int

    @classmethod
    def from_counters(cls, ss: ServiceSloc, bytes_rx: int, bytes_tx: int,
                      interval_s: float, sampled_at: int) -> "SlocLoadRecord":
        """Utilization of the bytes counted over interval_s, clamped to 1; a
        SLoC without a bandwidth reads 0."""

        def util(nbytes: int, bw: float) -> float:
            if bw <= 0 or interval_s <= 0:
                return 0.0
            return min(1.0, nbytes * 8 / interval_s / bw)

        return cls(ss.short, util(bytes_rx, ss.sloc.rx_bw), util(bytes_tx, ss.sloc.tx_bw),
                   sampled_at)

    def key(self) -> str:
        return f"{SLOC_LOAD_PREFIX}{self.sloc}"

    def to_doc(self) -> dict:
        return dict(vars(self))


SLOC_LOAD_PREFIX = "/stats/sloc/"


# ---------------------------------------------------------------------------
# identity and policy


GroupTag = Union[int, str]  # int or "*" wildcard


def identity_key(userid: str, device_id: str) -> str:
    _check_name(userid, "userid")
    _check_name(device_id, "device id")
    return f"/identity/{userid}/{device_id}"


def group_rule_key(src_group: GroupTag, dst_group: GroupTag) -> str:
    for g in (src_group, dst_group):
        if g != "*" and not isinstance(g, int):
            raise ValidationError(f"group tag {g!r} must be int or '*'")
    return f"/control/group/{src_group}/{dst_group}"


def parse_group_rule_key(key: str) -> tuple[GroupTag, GroupTag]:
    parts = key.split("/")
    if len(parts) != 5 or parts[1] != "control" or parts[2] != "group":
        raise ValidationError(f"bad group rule key {key!r}")
    try:
        return tuple("*" if s == "*" else int(s) for s in parts[3:])
    except ValueError:
        raise ValidationError(f"bad group rule key {key!r}") from None


@dataclass(frozen=True)
class PolicyRule:
    """Group rule value: an action plus (for steer) relay SLoC-shorts."""

    action: str
    slocs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValidationError(f"bad action {self.action!r}")
        if self.action == ACTION_STEER and not self.slocs:
            raise ValidationError("steer requires a non-empty SLoC list")
        if self.action != ACTION_STEER and self.slocs:
            raise ValidationError(f"{self.action} forbids a SLoC list")
        if not all(isinstance(s, str) for s in self.slocs):
            raise ValidationError(f"SLoC list {self.slocs!r} holds a non-string")

    def to_doc(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_doc(cls, doc: dict) -> "PolicyRule":
        return cls(doc["action"], tuple(doc.get("slocs", ())))


DEFAULT_GROUP = 0


def parse_group_rule(key: str, value: bytes) -> tuple[tuple, PolicyRule]:
    return parse_group_rule_key(key), _decode(key, value, PolicyRule.from_doc)


def parse_identity(key: str, value: bytes) -> list[int]:
    """Group tags of an /identity record; none given means [DEFAULT_GROUP]."""
    if key.count("/") != 3 or identity_key(*key.split("/")[2:]) != key:
        raise ValidationError(f"bad identity key {key!r}")

    def groups(doc: dict) -> list[int]:
        tags = doc.get("groups", [])
        if not isinstance(tags, list):
            raise TypeError(f"groups {tags!r} is not a list")
        return [int(g) for g in tags] or [DEFAULT_GROUP]

    return _decode(key, value, groups)


def lookup_policy(rules: dict[tuple[GroupTag, GroupTag], PolicyRule],
                  src_groups: list[int], dst_groups: list[int]) -> PolicyRule:
    """Most-specific match wins: exact pair, then src-wildcard (*, dst), then
    dst-wildcard (src, *); numerically smallest tags break ties; default permit.
    """
    src_groups = sorted(src_groups) or [DEFAULT_GROUP]
    dst_groups = sorted(dst_groups) or [DEFAULT_GROUP]
    for s in src_groups:
        for d in dst_groups:
            rule = rules.get((s, d))
            if rule is not None:
                return rule
    for d in dst_groups:
        rule = rules.get(("*", d))
        if rule is not None:
            return rule
    for s in src_groups:
        rule = rules.get((s, "*"))
        if rule is not None:
            return rule
    return PolicyRule(ACTION_PERMIT)


# ---------------------------------------------------------------------------
# procedures


def register_node(handle: StoreHandle, role: str, system_name: str, site_id: int,
                  location: tuple[float, float], lease: Lease, *,
                  label_ceiling: int = 1 << LABEL_BITS) -> NodeRecord:
    """Register with the smallest unused 24-bit SystemLabel in one
    synchronous store step: scan /node/, each record read through its decode
    memo, choose the label and put the record under lease.  No other client
    acts between the scan and the put, so two registrations never choose the
    same label and none needs a lock.

    A name any /node/ record holds raises DuplicateSystemName; no label
    below label_ceiling raises LabelSpaceExhausted.
    """
    used = set()
    for entry in handle.get_prefix("/node/"):
        try:
            record = entry.decoded[parse_node]
        except SchemaError:
            try:
                r, name = parse_node_key(entry.key)
            except SchemaError:
                continue  # not a node record: holds neither name nor label
            record = None  # a malformed value still holds its name, but no label
        else:
            r, name = record.role, record.system_name
        if name == system_name:
            raise DuplicateSystemName(f"{system_name} already registered as {r}")
        if record is not None:
            used.add(record.system_label)
    label = 0
    while label in used:
        label += 1
    if label >= label_ceiling:
        raise LabelSpaceExhausted(f"no label below {label_ceiling}")
    record = NodeRecord(role, system_name, site_id, location, label)
    handle.put(node_key(role, system_name), to_json_bytes(record.to_doc()), lease.lease_id)
    return record


def hunt(handle: StoreHandle, role: str) -> tuple[list[tuple[str, tuple[Sloc, ...]]], list[str]]:
    """Prefix-fetch /service/<role>, each record read through its decode
    memo; unparseable values become warnings."""
    results = []
    warnings = []
    for entry in handle.get_prefix(f"/service/{role}/"):
        try:
            _, system_name, service_slocs = entry.decoded[parse_service]
        except SchemaError as exc:
            warnings.append(f"{entry.key}: unparseable service record ({exc})")
            continue
        results.append((system_name, tuple(ss.sloc for ss in service_slocs)))
    return results, warnings


def put_record(handle: StoreHandle, rec: Union[ServiceRoute, LinkStateRecord, SlocLoadRecord],
               lease: Lease) -> int:
    """Upsert a route, a link-state record or a SLoC's load at its key."""
    return handle.put(rec.key(), to_json_bytes(rec.to_doc()), lease.lease_id)
