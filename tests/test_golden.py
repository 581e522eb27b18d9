"""Determinism golden: the benchmark's worlds give pinned outcomes.

The same (world, seed, simulated duration) must give the same simulated
outcome, a byte-identical trace and the same event count on every run,
whatever PYTHONHASHSEED is.  The three are pinned apart, so a change that
only moves the event count (the bookkeeping events a run executes) shows
that the outcome and the trace held.  A change that alters a pin on
purpose updates it and says why.

The tiny worlds of bench/test_bench.py are pinned at seed 3.  The worlds
bench/run.py measures are pinned at its held-out seed, 1 simulated second
each, by the digest the bench prints and the store revision as well; they
give the same pins with every per-node memo of header work turned off.
"""

import hashlib
import json
import sys
from functools import partial
from pathlib import Path

import pytest

from ruta.netsim import VirtualClock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import layers  # noqa: E402  (bench/ is not a package)
import worlds  # noqa: E402

SEED = 3
SIM_NS = 2_000_000_000
HELD_OUT_SEED = 7919  # bench/run.py's HELD_OUT_SEED
BENCH_SIM_NS = 1_000_000_000

# the smoke-test sizes of bench/test_bench.py ->
# (outcome hash, sha256 of to_jsonl(), events executed)
GOLDEN = {
    "steer_2x2": (partial(worlds.steer_2x2, rate=200), "a2cad4354f310f41",
                  "99ecf6a286eaf3d09b3729e342e5dd93af2d433832b88aa7b84cbd9620d2e95a",
                  1274),
    "mesh_4x32": (partial(worlds.mesh_4x32, spines=2, leaves=8, rate=10), "2f6ceff6568c502d",
                  "5ca947db6aaa3759b487995d43121f098ba36f2f037b8f548c479ca5f1479e4b",
                  1654),
    "nat_echo": (partial(worlds.nat_echo, boxes=2, clients=2, rate=20), "dd86e42de75c1d64",
                 "5899cae8c454686c147480281719224c952605021c409613b1a26c95ba7bf805",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_runtime_callbacks_are_timed_as_their_layer(name, monkeypatch):
    # bench/layers.py times a socket handler or a clock callback as the layer
    # whose module defined it: a functools.partial would count as `bench`
    handed, call_at = [], VirtualClock.call_at

    def spy(clock, at, fn, label="", owner=None):
        handed.append((label, fn))
        return call_at(clock, at, fn, label, owner)

    monkeypatch.setattr(VirtualClock, "call_at", spy)
    wl = GOLDEN[name][0](SEED)
    wl.converge()
    net = wl.world.net
    handlers = [(node.name, handler) for node in wl.runtimes + wl.apps
                for handler in net.nodes[node.name].bindings.values()]
    assert handlers
    assert [(n, h) for n, h in handlers if layers.layer_of(h) == layers.OUTSIDE] == []
    _, stop = wl.schedule(BENCH_SIM_NS)
    wl.run_until(stop)
    from_src = [(label, fn) for label, fn in handed if not label.startswith("bench:")]
    assert from_src
    assert [(label, fn) for label, fn in from_src
            if layers.layer_of(fn) == layers.OUTSIDE] == []


# bench/run.py's full-size worlds ->
# (Workload.digest(), sha256 of to_jsonl(), events executed, store revision)
BENCH_GOLDEN = {
    "steer_2x2": ("196f785e1ad9146a",
                  "f8cf0f9f60aa18312a3cbe59dea2dcff01cdca7c0df16a0840ec31596c26bd49",
                  14793, 19),
    "mesh_4x32": ("f730e7604b6dfb3c",
                  "1f889eab7eced72d88b1dbd89c37a43fb3c014be5a791b01f9c181b2c8de9935",
                  18217, 1332),
    "nat_echo": ("c369700518844394",
                 "242b68dfa8839b877edd0ffcc052e02b223ceb1a4acecc140a85265651212bba",
                 8282, 29),
}


def check_bench_world(name, memoized=True):
    digest, trace_sha, events, revision = BENCH_GOLDEN[name]
    wl = worlds.WORKLOADS[name](HELD_OUT_SEED)
    if not memoized:  # swap each per-node memo for the function it wraps
        memos = [(node, attr, f) for node in wl.runtimes + wl.apps
                 for attr, f in vars(node).items() if hasattr(f, "cache_info")]
        assert memos
        for node, attr, f in memos:
            setattr(node, attr, f.__wrapped__)
    wl.converge()
    _, stop = wl.schedule(BENCH_SIM_NS)
    wl.run_until(stop)
    assert wl.digest() == digest
    assert hashlib.sha256(wl.world.trace.to_jsonl().encode()).hexdigest() == trace_sha
    assert wl.events == events
    assert wl.world.store.revision == revision


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_bench_world_at_the_held_out_seed_is_pinned(name):
    check_bench_world(name)


@pytest.mark.parametrize("name", sorted(BENCH_GOLDEN))
def test_bench_world_without_its_memos_gives_the_same_pins(name):
    # a memo hit must give what a miss gives, in every runtime and app socket
    check_bench_world(name, memoized=False)
