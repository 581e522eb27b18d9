"""Two-way link measurement over Linkstate OAM.

Each probe carries four timestamps (t1 requester send, t2 responder receive,
t3 responder send, t4 requester receive); two-way delay is
(t4 - t1) - (t3 - t2), which cancels responder processing time.  A
turnaround t3 - t2 outside [0, t4 - t1] is not the responder's, so the delay
falls back to the round trip t4 - t1 and is never negative.  Jitter uses
the classic 1/16 smoothed estimator over consecutive delay differences; a
link is declared down after a run of DOWN_AFTER consecutive losses.
Window and timeout are session parameters, which node runtimes leave at
their defaults; the run length and the probe interval, PROBE_INTERVAL_NS,
are constants.

The window holds one int per probe: its two-way delay in ns, or LOST.  Loss
rate and mean delay over the window are running sums (a lost count and an
integer-nanosecond delay sum), updated as a sample enters the window and as
one leaves it, so reading them costs the same at any window size.
`figures` reads what a session's link-state record carries, and the node
runtime builds the record from those figures.  A record holds link figures
only: a SLoC's utilization is the node runtime's own per-SLoC record, not a
session's.

The node runtime opens the sessions, one per (local SLoC, peer SLoC) pair
of each system it probes, and decides when a session's record goes to the
store.  Sessions hold no timers: on each tick the runtime calls `expire`
and then `make_request`, and it hands every response to `on_response`.  A
probe is lost when the first tick at least `timeout_ns` after it finds it
unanswered; with a timeout that is a multiple of the interval (the default
is two), that tick comes exactly `timeout_ns` after the probe.

Sessions and the responder speak wire bytes: `make_request` and
`ProbeResponder.on_probe_request` return the message as `srou.encode_linkstate`
packs it, and `on_response` and `on_probe_request` take the fields of
`srou.parse_oam`, so a probe round trip builds no message objects.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from . import srou
from .netsim import NS_PER_US, seconds
from .schema import STATUS_DOWN, STATUS_UP, ServiceSloc

PROBE_INTERVAL_NS = seconds(1)
DEFAULT_WINDOW = 100
DEFAULT_TIMEOUT_NS = seconds(2)
DOWN_AFTER = 3  # consecutive losses that make a session's status down
JITTER_GAIN = 16
LOST = -1  # the window sample of a lost probe


class ProberError(Exception):
    pass


class MalformedOam(ProberError):
    pass


def _twd_ns(t1: int, t2: int, t3: int, t4: int) -> int:
    """Two-way delay: the round trip less the responder's turnaround, or the
    round trip alone when the peer reports a turnaround it cannot have had."""
    rtt = t4 - t1
    turnaround = t3 - t2
    return rtt - turnaround if 0 <= turnaround <= rtt else rtt


class ProbeSession:
    """Measurement state for one ordered (local SLoC, peer SLoC) pair."""

    def __init__(self, local: ServiceSloc, peer: ServiceSloc,
                 window: int = DEFAULT_WINDOW,
                 timeout_ns: int = DEFAULT_TIMEOUT_NS):
        self.local = local
        self.peer = peer
        self.window = window
        self.timeout_ns = timeout_ns
        self.seq = 0
        self.pending: dict[int, int] = {}  # seq -> t1, oldest first
        self._window: deque[int] = deque(maxlen=window)  # two-way delay ns or LOST
        self._lost = 0      # lost probes in the window
        self._delay_ns = 0  # sum of the window's delivered two-way delays
        self.smoothed_jitter_us = 0.0
        self.consecutive_losses = 0
        self.lost_total = 0
        self.t1_mismatches = 0  # responses echoing a T1 other than the one sent
        self._last_twd_us: Optional[float] = None

    def make_request(self, now: int) -> bytes:
        """Start a probe; returns the request's wire bytes."""
        self.seq += 1
        self.pending[self.seq] = now
        return srou.encode_linkstate(srou.LINKSTATE_REQUEST, 0, srou.FlowIdType.FT32,
                                     self.seq, now)

    def on_response(self, msg: srou.OamLayout, now: int) -> bool:
        """Record a checked response; False for a late or unknown one."""
        if msg.oam_type != srou.OamType.LINKSTATE or \
                msg.subtype != srou.LINKSTATE_RESPONSE:
            raise MalformedOam(f"unexpected {msg.oam_type}/{msg.subtype}")
        _, t3, t2, sender_seq, sender_t1 = msg.payload
        t1 = self.pending.pop(sender_seq, None)
        if t1 is None:
            return False
        if sender_t1 != t1:
            self.t1_mismatches += 1  # the sender's own T1 counts, as in TWAMP
        twd_ns = _twd_ns(t1, t2, t3, now)
        self._push(twd_ns)
        self.consecutive_losses = 0
        twd = twd_ns / NS_PER_US
        if self._last_twd_us is not None:
            diff = abs(twd - self._last_twd_us)
            self.smoothed_jitter_us += (diff - self.smoothed_jitter_us) / JITTER_GAIN
        self._last_twd_us = twd
        return True

    def expire(self, now: int) -> bool:
        """Declare lost every probe unanswered for at least timeout_ns;
        True when any was."""
        lost = [seq for seq, t1 in self.pending.items() if now - t1 >= self.timeout_ns]
        for seq in lost:  # oldest first
            del self.pending[seq]
            self._push(LOST)
        self.lost_total += len(lost)
        self.consecutive_losses += len(lost)
        return bool(lost)

    @property
    def outcomes(self) -> tuple[int, ...]:
        """The window, oldest first: each probe's two-way delay in ns, or LOST."""
        return tuple(self._window)

    def _push(self, sample: int) -> None:
        """Append to the window; the sums follow the sample that enters it
        and the one the deque evicts."""
        if len(self._window) == self.window:
            if not self.window:
                return  # a zero window keeps nothing
            self._count(self._window[0], -1)
        self._count(sample, 1)
        self._window.append(sample)

    def _count(self, sample: int, sign: int) -> None:
        if sample == LOST:
            self._lost += sign
        else:
            self._delay_ns += sign * sample

    @property
    def status(self) -> str:
        return STATUS_DOWN if self.consecutive_losses >= DOWN_AFTER else STATUS_UP

    def loss_rate(self) -> float:
        if not self._window:
            return 0.0
        return self._lost / len(self._window)

    def two_way_delay_us(self) -> float:
        delivered = len(self._window) - self._lost
        if not delivered:
            return 0.0
        return self._delay_ns / NS_PER_US / delivered

    def figures(self) -> Optional[tuple[float, float, float, str]]:
        """What a record of the window carries, read from the running sums:
        (two-way delay us, jitter us, loss, status); None for an empty window."""
        if not self._window:
            return None
        return (self.two_way_delay_us(), self.smoothed_jitter_us, self.loss_rate(),
                self.status)


class ProbeResponder:
    """Stateless with respect to requesters; keeps only its own send counter."""

    def __init__(self):
        self.seq = 0

    def on_probe_request(self, req: srou.OamLayout, now: int) -> bytes:
        """The wire bytes of the response to a checked request: its flow id
        echoed, C/F/T clear."""
        if req.oam_type != srou.OamType.LINKSTATE or \
                req.subtype != srou.LINKSTATE_REQUEST:
            raise MalformedOam("not a linkstate request")
        self.seq += 1
        seq, t1 = req.payload[0], req.payload[1]
        return srou.encode_linkstate(srou.LINKSTATE_RESPONSE, req.flow_id,
                                     req.flow_id_type, self.seq,
                                     now,   # t3: sent immediately
                                     now,   # t2 == t3 with zero processing
                                     seq, t1)

