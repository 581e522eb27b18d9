"""Determinism golden: the benchmark's tiny worlds give pinned outcomes.

The same (world, seed, simulated duration) must give the same simulated
digest and a byte-identical trace on every run, whatever PYTHONHASHSEED is.
A change that alters either on purpose updates the pins and says why.
"""

import hashlib
import sys
from functools import partial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import worlds  # noqa: E402  (bench/ is not a package)

SEED = 3
SIM_NS = 2_000_000_000

# the smoke-test sizes of bench/test_bench.py -> (digest, sha256 of to_jsonl())
GOLDEN = {
    "steer_2x2": (partial(worlds.steer_2x2, rate=200), "369ee78f69c6870c",
                  "c13bc81a0c4a8fa382391d7858f180284408dc328039ec1ca729a1e6c9e9547f"),
    "mesh_4x32": (partial(worlds.mesh_4x32, spines=2, leaves=8, rate=10), "c28af53aa0ec8497",
                  "2a6fefc5c42f49c260fdc35adbf588903bc5e90a3dd86ab289f3fb8e0fdc1672"),
    "nat_echo": (partial(worlds.nat_echo, boxes=2, clients=2, rate=20), "12349d12218df12e",
                 "dda6fae44fece2d37209b2898f74352bba0513b8acf4cb4b9c641c7246f98aa1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_tiny_world_digest_and_trace_are_pinned(name):
    build, digest, trace_sha = GOLDEN[name]
    wl = build(SEED)
    wl.converge()
    _, stop = wl.schedule(SIM_NS)
    wl.run_until(stop)
    assert wl.digest() == digest
    assert hashlib.sha256(wl.world.trace.to_jsonl().encode()).hexdigest() == trace_sha
