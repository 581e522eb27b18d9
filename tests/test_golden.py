"""Determinism golden: the benchmark's tiny worlds give pinned outcomes.

The same (world, seed, simulated duration) must give the same simulated
outcome, a byte-identical trace and the same event count on every run,
whatever PYTHONHASHSEED is.  The three are pinned apart, so a change that
only moves the event count (the bookkeeping events a run executes) shows
that the outcome and the trace held.  A change that alters a pin on
purpose updates it and says why.
"""

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worlds  # noqa: E402  (bench/ is not a package)

SEED = 3
SIM_NS = 2_000_000_000

# the smoke-test sizes of bench/test_bench.py ->
# (outcome hash, sha256 of to_jsonl(), events executed)
GOLDEN = {
    "steer_2x2": (partial(worlds.steer_2x2, rate=200), "a2cad4354f310f41",
                  "c13bc81a0c4a8fa382391d7858f180284408dc328039ec1ca729a1e6c9e9547f",
                  1274),
    "mesh_4x32": (partial(worlds.mesh_4x32, spines=2, leaves=8, rate=10), "2f6ceff6568c502d",
                  "2a6fefc5c42f49c260fdc35adbf588903bc5e90a3dd86ab289f3fb8e0fdc1672",
                  1654),
    "nat_echo": (partial(worlds.nat_echo, boxes=2, clients=2, rate=20), "dd86e42de75c1d64",
                 "dda6fae44fece2d37209b2898f74352bba0513b8acf4cb4b9c641c7246f98aa1",
                 1256),
}


def outcome_hash(wl) -> str:
    """`Workload.digest()` without the event count: deliveries and path choices."""
    h = hashlib.sha256()
    for rec in wl.ledger.delivered:
        h.update(b"%d/%d/%d;" % rec)
    for rec in wl.world.trace.select("path_selected"):
        h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tiny_world_digest_and_trace_are_pinned(name):
    build, outcome, trace_sha, events = GOLDEN[name]
    wl = build(SEED)
    wl.converge()
    _, stop = wl.schedule(SIM_NS)
    wl.run_until(stop)
    assert outcome_hash(wl) == outcome
    assert hashlib.sha256(wl.world.trace.to_jsonl().encode()).hexdigest() == trace_sha
    assert wl.events == events
