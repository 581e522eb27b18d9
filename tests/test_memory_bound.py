"""Memory bound: the bytes `ruta` itself keeps for a probe session, a mesh,
the link state of a mesh, a trace and a clock run's result.

tracemalloc counts every live block whose innermost allocating frame is a
line of `src/ruta` (a block made inside a library `ruta` calls, such as
`json`, counts against that library).  Five cases are measured, each after
a full garbage collection:

- one `ProbeSession` whose 100-sample window is full (150 answered probes);
- the 4-spine x 8-leaf mesh of the benchmark, converged and then run for
  3 simulated s of traffic;
- the blocks `pathengine.py` allocated in the 4-spine x 16-leaf mesh,
  converged and then run for 3 simulated s of traffic;
- a `Trace` of 100,000 per-frame records over 3 bodies, 200 to 300 us apart;
- the result of a `VirtualClock.run_until` over 100,000 events that share
  one label, kept alive after the run.

The bounds sit above the bytes kept by sessions whose window is one
machine-integer ring and linecards whose edge map is one out-adjacency: on
Python 3.11 to 3.13, 1,200 B per session and 841,322 to 847,858 B for the
mesh.  Before that, with a deque of int objects per window, a pair-keyed
edge dict beside the adjacency, unslotted store entries and link-state
records, and one closure per probe timer, they were 5,320 B and 1,015,016
to 1,025,408 B.  Since the linecards share their link-state snapshots and
`path_selected` bodies, the mesh keeps 762,014 B on Python 3.11, where it
kept 822,023 B before.

The 4x16 mesh's link state, 316 records, is one snapshot that its 16
linecards share: 72,872 B on Python 3.11, under a bound of 100,000 B.  With
a private mirror of the records per linecard, and an edge map per linecard
that engineered a path, it took 277,736 B.

The trace's bound, 6 B per record, sits above a record kept as a 4-byte
gap and a 1-byte body id: 5.1 B with the arrays' over-allocation, on
Python 3.10 to 3.13.  Kept as two int64, it took 16.3 B.
The run result's bound, 12 B per event, sits above a list of the labels of
the events run: 8.0 B, one list slot per event, on Python 3.10 to 3.13.  A
(time, seq, label) tuple per event, which kept each event's seq int alive,
took 99.9 to 103.9 B.
"""

import gc
import random
import sys
import tracemalloc
from pathlib import Path

import ruta
from ruta import srou
from ruta.netsim import Trace, VirtualClock, seconds
from ruta.prober import DEFAULT_WINDOW, ProbeResponder, ProbeSession
from ruta.schema import ServiceSloc, Sloc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worlds  # noqa: E402  (bench/ is not a package)

RUTA = Path(ruta.__file__).resolve().parent

SESSION_BOUND = 2_000
MESH_BOUND = 900_000
LINK_STATE_BOUND = 100_000
TRACE_RECORDS = 100_000
TRACE_BYTES_PER_RECORD = 6
RUN_EVENTS = 100_000
RUN_BYTES_PER_EVENT = 12


def kept_by_ruta(build, module=None):
    """(bytes in live blocks allocated by a line of src/ruta, or of its
    module of that name if one is given, what build returned), counted
    while build's result is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    files = [Path(st.traceback[0].filename).resolve() for st in stats]
    size = sum(st.size for st, path in zip(stats, files) if path.parent == RUTA
               and (module is None or path.name == module + ".py"))
    return size, kept


def service_sloc(name: str, ip: str) -> ServiceSloc:
    return ServiceSloc(name, Sloc(color="inet", private_ip=ip, private_port=5500,
                                  public_ip=ip, public_port=5500))


def full_session() -> ProbeSession:
    session = ProbeSession(service_sloc("A", "10.0.0.1"), service_sloc("B", "10.0.0.2"))
    responder = ProbeResponder()
    now = seconds(1)
    for i in range(DEFAULT_WINDOW + 50):  # distinct delays, none a cached small int
        request = srou.parse_oam(session.make_request(now))
        answer = srou.parse_oam(responder.on_probe_request(request, now + 250_000 + i))
        assert session.on_response(answer, now + 500_000 + 3 * i)
        now += seconds(1)
    return session


def mesh_with_traffic(leaves=8):
    wl = worlds.mesh_4x32(1, leaves=leaves)
    wl.converge()
    _, stop = wl.schedule(seconds(3))
    wl.run_until(stop)
    return wl


def per_frame_trace() -> Trace:
    trace = Trace()
    bodies = [trace.body("LC_A", "encap", sl=0, flow_id=7, path="direct"),
              trace.body("Spine_A", "relay", to="192.168.99.78:5546", sl=1),
              trace.body("LC_B", "deliver", host="H2")]
    rng = random.Random(5)
    now = seconds(1)
    for i in range(TRACE_RECORDS):
        now += rng.randrange(200_000, 300_001)
        trace.append(now, bodies[i % 3])
    return trace


def run_result() -> list:
    clock = VirtualClock()
    for i in range(RUN_EVENTS):  # distinct times, none a cached small int
        clock.call_at(1_000 + 7 * i, lambda: None, "tick")
    ran = clock.run_until(seconds(1))
    assert clock.pending() == 0
    return ran


def test_a_probe_session_with_a_full_window_stays_under_its_bound():
    size, session = kept_by_ruta(full_session)
    assert len(session.outcomes) == DEFAULT_WINDOW and not session.pending
    assert 0 < size <= SESSION_BOUND, size


def test_a_mesh_after_traffic_stays_under_its_bound():
    size, wl = kept_by_ruta(mesh_with_traffic)
    assert len(wl.ledger.delivered) > 0
    assert 0 < size <= MESH_BOUND, size


def test_the_link_state_of_a_mesh_is_kept_once():
    size, wl = kept_by_ruta(lambda: mesh_with_traffic(leaves=16), "pathengine")
    cards = [rt for rt in wl.runtimes if rt.role == "linecard"]
    assert 0 < size <= LINK_STATE_BOUND, size
    assert len(cards) == 16 and len(cards[0].ls_sync.records) > 300
    assert len({id(lc.ls_sync.records) for lc in cards}) == 1


def test_a_trace_of_per_frame_records_stays_under_its_bytes_per_record():
    size, trace = kept_by_ruta(per_frame_trace)
    assert len(trace) == TRACE_RECORDS
    assert 0 < size / TRACE_RECORDS <= TRACE_BYTES_PER_RECORD, size


def test_a_run_result_stays_under_its_bytes_per_event():
    size, ran = kept_by_ruta(run_result)
    assert len(ran) == RUN_EVENTS
    assert 0 < size / RUN_EVENTS <= RUN_BYTES_PER_EVENT, size
