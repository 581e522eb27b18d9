"""Two-way link measurement over Linkstate OAM, plus the STUN exchange.

Each probe carries four timestamps (t1 requester send, t2 responder receive,
t3 responder send, t4 requester receive); two-way delay is
(t4 - t1) - (t3 - t2), which cancels responder processing time.  Jitter uses
the classic 1/16 smoothed estimator over consecutive delay differences; a
link is declared down after a run of consecutive losses.  All constants are
per-session configuration.

Loss rate and mean delay over the window are running sums (a lost count and
an integer-nanosecond delay sum), updated as an outcome enters the window
and as one leaves it, so reading them costs the same at any window size.
The window holds each outcome as a plain tuple of `ProbeOutcome`'s seven
fields, which the cyclic garbage collector stops tracking once it has seen
it; `ProbeSession.outcomes` builds the `ProbeOutcome` objects on read.

Sessions hold no timers themselves: the owning node runtime feeds them
(request generation, responses, timeouts) from its event loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from . import srou
from .netsim import NS_PER_US, VirtualClock, seconds
from .schema import STATUS_DOWN, STATUS_UP, LinkStateRecord, ServiceSloc

DEFAULT_INTERVAL_NS = seconds(1)
DEFAULT_WINDOW = 100
DEFAULT_TIMEOUT_NS = seconds(2)
DEFAULT_DOWN_AFTER = 3
JITTER_GAIN = 16


class ProberError(Exception):
    pass


class MalformedOam(ProberError):
    pass


class EmptyWindow(ProberError):
    pass


class StunTimeout(ProberError):
    pass


def _twd_ns(t1: int, t2: int, t3: int, t4: int) -> int:
    """Two-way delay: the round trip less the responder's turnaround."""
    return (t4 - t1) - (t3 - t2)


@dataclass
class ProbeOutcome:
    seq: int
    sent_at: int
    lost: bool
    t1: int = 0
    t2: int = 0
    t3: int = 0
    t4: int = 0

    def _row(self) -> tuple:
        """The fields in declaration order, as `ProbeOutcome(*row)` takes them."""
        return (self.seq, self.sent_at, self.lost, self.t1, self.t2, self.t3, self.t4)

    @property
    def two_way_delay_ns(self) -> int:
        return _twd_ns(self.t1, self.t2, self.t3, self.t4)

    @property
    def two_way_delay_us(self) -> float:
        return self.two_way_delay_ns / NS_PER_US


class ProbeSession:
    """Measurement state for one ordered (local SLoC, peer SLoC) pair."""

    def __init__(self, local: ServiceSloc, peer: ServiceSloc,
                 interval_ns: int = DEFAULT_INTERVAL_NS,
                 window: int = DEFAULT_WINDOW,
                 timeout_ns: int = DEFAULT_TIMEOUT_NS,
                 down_after: int = DEFAULT_DOWN_AFTER):
        self.local = local
        self.peer = peer
        self.interval_ns = interval_ns
        self.window = window
        self.timeout_ns = timeout_ns
        self.down_after = down_after
        self.seq = 0
        self.pending: dict[int, int] = {}  # seq -> t1
        self._window: deque[tuple] = deque(maxlen=window)  # ProbeOutcome fields
        self._lost = 0      # lost outcomes in the window
        self._delay_ns = 0  # sum of the window's delivered two-way delays
        self.smoothed_jitter_us = 0.0
        self.consecutive_losses = 0
        self.lost_total = 0
        self.t1_mismatches = 0  # responses echoing a T1 other than the one sent
        self._last_twd_us: Optional[float] = None

    def make_request(self, now: int) -> srou.OamMessage:
        self.seq += 1
        self.pending[self.seq] = now
        return srou.OamMessage(
            oam_type=srou.OamType.LINKSTATE,
            oam_subtype=srou.LINKSTATE_REQUEST,
            payload=srou.LinkstateData(seq=self.seq, timestamp=now),
        )

    def on_response(self, msg: srou.OamMessage, now: int) -> Optional[ProbeOutcome]:
        """Record a response; returns the outcome, or None for late/unknown."""
        if msg.oam_type != srou.OamType.LINKSTATE or \
                msg.oam_subtype != srou.LINKSTATE_RESPONSE:
            raise MalformedOam(f"unexpected {msg.oam_type}/{msg.oam_subtype}")
        p = msg.payload
        t1 = self.pending.pop(p.sender_seq, None)
        if t1 is None:
            return None
        if p.sender_timestamp != t1:
            self.t1_mismatches += 1  # the sender's own T1 counts, as in TWAMP
        out = ProbeOutcome(seq=p.sender_seq, sent_at=t1, lost=False,
                           t1=t1, t2=p.received_timestamp,
                           t3=p.timestamp, t4=now)
        self._push(out)
        self.consecutive_losses = 0
        twd = out.two_way_delay_us
        if self._last_twd_us is not None:
            diff = abs(twd - self._last_twd_us)
            self.smoothed_jitter_us += (diff - self.smoothed_jitter_us) / JITTER_GAIN
        self._last_twd_us = twd
        return out

    def on_timeout(self, seq: int) -> bool:
        """Declare a probe lost if it is still outstanding."""
        t1 = self.pending.pop(seq, None)
        if t1 is None:
            return False
        self._push(ProbeOutcome(seq=seq, sent_at=t1, lost=True))
        self.lost_total += 1
        self.consecutive_losses += 1
        return True

    @property
    def outcomes(self) -> list[ProbeOutcome]:
        """The window, oldest first."""
        return [ProbeOutcome(*row) for row in self._window]

    def _push(self, out: ProbeOutcome) -> None:
        """Append to the window; the sums follow the outcome that enters it
        and the one the deque evicts."""
        if len(self._window) == self.window:
            if not self.window:
                return  # a zero window keeps nothing
            self._count(self._window[0], -1)
        row = out._row()
        self._count(row, 1)
        self._window.append(row)

    def _count(self, row: tuple, sign: int) -> None:
        _, _, lost, t1, t2, t3, t4 = row
        if lost:
            self._lost += sign
        else:
            self._delay_ns += sign * _twd_ns(t1, t2, t3, t4)

    @property
    def status(self) -> str:
        return STATUS_DOWN if self.consecutive_losses >= self.down_after else STATUS_UP

    def loss_rate(self) -> float:
        if not self._window:
            return 0.0
        return self._lost / len(self._window)

    def two_way_delay_us(self) -> float:
        delivered = len(self._window) - self._lost
        if not delivered:
            return 0.0
        return self._delay_ns / NS_PER_US / delivered

    def metrics(self, now: int, bytes_rx: int = 0, bytes_tx: int = 0,
                interval_s: float = 10.0) -> LinkStateRecord:
        """Fold the window into a LinkStateRecord; utilization compares the
        observed byte counters against the local SLoC bandwidths."""
        if not self._window:
            raise EmptyWindow(f"no probe outcomes for {self.peer.short}")

        def util(nbytes: int, bw: float) -> float:
            if bw <= 0 or interval_s <= 0:
                return 0.0
            return min(1.0, nbytes * 8 / interval_s / bw)

        return LinkStateRecord(
            src=self.local.short,
            dst=self.peer.short,
            two_way_delay_us=self.two_way_delay_us(),
            jitter_us=self.smoothed_jitter_us,
            loss=self.loss_rate(),
            utilization_rx=util(bytes_rx, self.local.sloc.rx_bw),
            utilization_tx=util(bytes_tx, self.local.sloc.tx_bw),
            status=self.status,
            sampled_at=now,
        )


class ProbeResponder:
    """Stateless with respect to requesters; keeps only its own send counter."""

    def __init__(self):
        self.seq = 0

    def on_probe_request(self, req: srou.OamMessage, now: int) -> srou.OamMessage:
        if req.oam_type != srou.OamType.LINKSTATE or \
                req.oam_subtype != srou.LINKSTATE_REQUEST or \
                not isinstance(req.payload, srou.LinkstateData):
            raise MalformedOam("not a linkstate request")
        self.seq += 1
        return srou.OamMessage(
            oam_type=srou.OamType.LINKSTATE,
            oam_subtype=srou.LINKSTATE_RESPONSE,
            payload=srou.LinkstateData(
                seq=self.seq,
                timestamp=now,                       # t3: sent immediately
                received_timestamp=now,              # t2 == t3 with zero processing
                sender_seq=req.payload.seq,
                sender_timestamp=req.payload.timestamp,
            ),
            flow_id=req.flow_id,
            flow_id_type=req.flow_id_type,
        )


def full_mesh_targets(local_slocs: list[ServiceSloc],
                      peers: list[tuple[str, list]],
                      whitelist: Optional[set[str]] = None,
                      self_name: Optional[str] = None
                      ) -> list[tuple[ServiceSloc, ServiceSloc]]:
    """Ordered (local, peer) SLoC pairs for the probe mesh.

    One session per local SLoC x peer SLoC; the whitelist (when given)
    restricts peers by system name.
    """
    pairs = []
    for name, slocs in sorted(peers):
        if name == self_name:
            continue
        if whitelist is not None and name not in whitelist:
            continue
        for sloc in slocs:
            peer = ServiceSloc(name, sloc)
            for local in local_slocs:
                pairs.append((local, peer))
    return pairs


class StunExchange:
    """Public-address discovery: send, await, retry with 1s/2s/4s backoff.

    The runtime supplies send_request() and routes STUN responses back via
    on_response(); on_result / on_error fire exactly once.
    """

    BACKOFF_NS = (seconds(1), seconds(2), seconds(4))

    def __init__(self, clock: VirtualClock, send_request: Callable[[], None],
                 on_result: Callable[[str, int], None],
                 on_error: Callable[[Exception], None]):
        self.clock = clock
        self.send_request = send_request
        self.on_result = on_result
        self.on_error = on_error
        self.attempt = 0
        self.done = False
        self._timer = None

    def start(self) -> None:
        self._try()

    def _try(self) -> None:
        if self.done:
            return
        if self.attempt >= len(self.BACKOFF_NS):
            self.done = True
            self.on_error(StunTimeout(f"no STUN response after {self.attempt} attempts"))
            return
        backoff = self.BACKOFF_NS[self.attempt]
        self.attempt += 1
        self.send_request()
        self._timer = self.clock.call_later(backoff, self._try, label="stun-retry")

    def on_response(self, msg: srou.OamMessage) -> None:
        if self.done:
            return
        if msg.oam_type != srou.OamType.STUN or msg.oam_subtype != srou.STUN_RESPONSE:
            raise MalformedOam("not a STUN response")
        self.done = True
        if self._timer is not None:
            self._timer.cancel()
        self.on_result(msg.payload.observed_address, msg.payload.observed_port)
