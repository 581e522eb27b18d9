"""Smoke tests: every workload at a tiny size, through every check and the
traced run."""

import json
import shutil
import subprocess
import sys
from functools import partial

import pytest

import run

worlds = run.import_program()
from layers import Tracer  # noqa: E402  (needs ruta on the path first)

from ruta import dataplane, pathengine, schema  # noqa: E402

TINY = {
    "steer_2x2": partial(worlds.steer_2x2, rate=200),
    "mesh_4x32": partial(worlds.mesh_4x32, spines=2, leaves=8, rate=10),
    "nat_echo": partial(worlds.nat_echo, boxes=2, clients=2, rate=20),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_checks_and_traced_digest(name):
    build = TINY[name]
    metrics, attempted, failed, digest = run.run_plain(build, seed=3, sim_s=1, setups=2)
    assert failed == 0 and attempted > 0
    assert set(metrics) == set(run.END_TO_END)
    assert all(v > 0 for v in metrics.values()), metrics
    layer_metrics, _, traced_failed, traced_digest = run.run_traced(build, seed=3, sim_s=1)
    assert traced_failed == 0
    assert traced_digest == digest
    assert set(layer_metrics) == set(run.PER_LAYER)
    for layer in ("srou", "dataplane", "netsim"):
        assert layer_metrics[f"{layer}.self_ms"] > 0


def test_seed_changes_outcome():
    build = TINY["steer_2x2"]
    digests = {run.run_plain(build, seed=s, sim_s=1, setups=1)[3] for s in (1, 2)}
    assert len(digests) == 2


def test_every_client_sends_its_own_flow():
    wl = TINY["nat_echo"](0)
    wl.converge()
    wl.schedule(1_000_000_000)
    wl.run_until(wl.world.clock.now + 2_000_000_000)
    clients = [a for a in wl.apps if a.name.startswith("client_")]
    assert len({a.counts["tx_srou"] for a in clients}) == 1
    flows = {flow for _, flow, _ in wl.ledger.delivered}
    assert flows == set(range(len(clients)))


def test_ledger_rejects_wrong_and_repeated_payloads():
    ledger = worlds.Ledger(seed=0, payload_octets=32)
    flow = ledger.add_flow("a->b")
    good = ledger.payload(flow, 5)
    ledger.receive(0, good)
    ledger.receive(1, good)
    ledger.receive(2, good[:-1] + bytes([good[-1] ^ 1]))
    assert (len(ledger.delivered), ledger.duplicate, ledger.corrupt) == (1, 1, 1)


def test_tracer_patches_names_where_they_are_looked_up():
    originals = (dataplane.shortest_constrained, dataplane.from_json_bytes,
                 pathengine.from_json_bytes, schema.from_json_bytes)
    tracer = Tracer()
    tracer.install()
    try:
        assert dataplane.shortest_constrained.__wrapped__ is originals[0]
        assert dataplane.from_json_bytes.__wrapped__ is originals[1]
        dataplane.shortest_constrained({("a", "b"): 1.0}, {"a"}, {"b"}, 2)
        dataplane.from_json_bytes(b"{}")
        pathengine.from_json_bytes(b"{}")
        assert tracer.calls["pathengine.shortest_constrained"] == 1
        assert tracer.calls["schema.from_json_bytes"] == 2
        assert tracer.self_ns["pathengine"] > 0
    finally:
        tracer.uninstall()
    assert (dataplane.shortest_constrained, dataplane.from_json_bytes,
            pathengine.from_json_bytes, schema.from_json_bytes) == originals


def test_cli_prints_one_result_line(capsys):
    assert run.main(["--workload", "steer_2x2", "--seed", "1", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "steer_2x2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
