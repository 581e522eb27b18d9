"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload steer_2x2 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
A run builds the workload's world (timed as set-up), sends frames open-loop
in simulated time for a simulated span scaled from --seconds, lets the world
drain, and checks the outcome:

- every delivered frame carries the payload injected for it, once;
- offered frames = delivered + counted data drops;
- the simulated outcome repeats exactly: repeated set-ups agree, and the
  traced run matches an untraced run of the same seed.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` runs the workload once untraced and once with a span around
every call into a `ruta` module (see layers.py) and prints the per-layer
metrics.  Each metric goes to stdout as `name value unit`; the last line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  A failed
check sets "correct" to false and counts in "failed".
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seeds 1-10 were used while the benchmark was tuned; the held-out seed was
# never run then, so a later speed-up claim can be confirmed on it.
TUNING_SEEDS = tuple(range(1, 11))
HELD_OUT_SEED = 7919

# Simulated seconds of traffic per --seconds.  Calibrated so the timed
# phase takes about --seconds on a 2-vCPU Xeon with Python 3.11; mesh_4x32
# runs about twice that, so its memory growth shows in peak_rss_mb.
SIM_PER_SECOND = {"steer_2x2": 1.0, "mesh_4x32": 3.0, "nat_echo": 2.5}
# Set-ups per untraced run; setup_s is their median.
SETUPS = {"steer_2x2": 21, "mesh_4x32": 3, "nat_echo": 21}

END_TO_END = {
    "setup_s": "s",
    "wall_per_sim_s": "s/s",
    "frames_per_s": "frames/s",
    "frame_loss_ratio": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "srou.calls": "count",
    "srou.calls_per_frame": "calls/frame",
    "srou.ns_per_call": "ns/call",
    "srou.self_ms": "ms",
    "dataplane.encaps": "count",
    "dataplane.relays": "count",
    "dataplane.delivers": "count",
    "dataplane.drops": "count",
    "dataplane.trace_records_per_frame": "records/frame",
    "dataplane.self_ms": "ms",
    "dataplane.us_per_frame": "us/frame",
    "netsim.events": "count",
    "netsim.events_per_s": "events/s",
    "netsim.self_ms": "ms",
    "netsim.drops": "count",
    "netsim.link_lost": "count",
    "netsim.nat_translations": "count",
    "kvstore.puts": "count",
    "kvstore.watch_events": "count",
    "kvstore.fanout": "events/put",
    "kvstore.history_len": "count",
    "kvstore.self_ms": "ms",
    "schema.json_decodes": "count",
    "schema.decodes_per_put": "decodes/put",
    "schema.hunts": "count",
    "schema.self_ms": "ms",
    "prober.sessions": "count",
    "prober.probes_sent": "count",
    "prober.metrics_calls": "count",
    "prober.metrics_calls_per_frame": "calls/frame",
    "prober.self_ms": "ms",
    "pathengine.resolves": "count",
    "pathengine.shortest_calls": "count",
    "pathengine.path_cache_hit_ratio": "ratio",
    "pathengine.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms": "ms",
}


def import_program():
    """Import ruta from this checkout's src/ and the benchmark's worlds."""
    if not (SRC / "ruta" / "__init__.py").is_file():
        raise SystemExit(f"no program to benchmark: {SRC / 'ruta'} is missing")
    sys.path.insert(0, str(SRC))
    import ruta
    if Path(ruta.__file__).resolve().parent != (SRC / "ruta").resolve():
        raise SystemExit(f"imported ruta from {ruta.__file__}, not from {SRC}")
    return importlib.import_module("worlds")


# ---------------------------------------------------------------------------
# phases


@dataclass
class Phase:
    wall_s: float
    sim_s: float
    offered: int
    delivered: int
    events: int


def set_up(build: Callable, seed: int):
    gc.collect()
    t0 = perf_counter()
    wl = build(seed)
    wl.converge()
    return wl, perf_counter() - t0


def fingerprint(wl) -> tuple:
    w = wl.world
    return (w.clock.now, wl.events, w.store.revision, len(w.trace.records))


def timed_phase(wl, sim_s: int) -> Phase:
    """Run the scheduled traffic, timed over the whole phase."""
    clock = wl.world.clock
    events0 = wl.events
    _, stop = wl.schedule(sim_s * 1_000_000_000)
    gc.collect()
    t0 = perf_counter()
    while clock.now < stop:  # in steps: run_until returns every event it ran
        wl.run_until(min(stop, clock.now + 1_000_000_000))
    return Phase(perf_counter() - t0, sim_s, wl.ledger.offered,
                 len(wl.ledger.delivered), wl.events - events0)


def check(wl) -> int:
    """Drain the world and count frames that break a check."""
    wl.drain_and_stop()
    ledger = wl.ledger
    data_drops = sum(wl.drop_counts().values()) - wl.probe_drops()
    gap = ledger.offered - len(ledger.delivered) - data_drops
    return ledger.corrupt + ledger.duplicate + abs(gap)


# ---------------------------------------------------------------------------
# runs


def run_plain(build: Callable, seed: int, sim_s: int, setups: int):
    samples, prints = [], []
    for _ in range(setups):
        wl = None  # free the previous world before building the next
        wl, took = set_up(build, seed)
        samples.append(took)
        prints.append(fingerprint(wl))
    phase = timed_phase(wl, sim_s)
    failed = check(wl)
    if len(set(prints)) != 1:
        failed = max(failed, wl.ledger.offered)
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_per_sim_s": phase.wall_s / phase.sim_s,
        "frames_per_s": phase.delivered / phase.wall_s,
        "frame_loss_ratio": 1 - len(wl.ledger.delivered) / wl.ledger.offered,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, wl.ledger.offered, failed, wl.digest()


def counters(wl) -> dict:
    w = wl.world
    rts, apps = wl.runtimes, wl.apps

    def rt_sum(*keys):
        return sum(rt.counts.get(k, 0) for rt in rts for k in keys)

    drops = wl.drop_counts()
    encaps = w.trace.select("encap")
    return {
        "encaps": rt_sum("encap", "reencap"),
        "relays": rt_sum("relay"),
        "delivers": rt_sum("deliver_host") + sum(
            a.counts.get("rx_srou", 0) + a.counts.get("rx_passthrough", 0) for a in apps),
        "drops": drops["runtime"] + drops["app"],
        "trace_records": len(w.trace.records),
        "node_drops": drops["node"],
        "link_lost": drops["link_lost"],
        "nat": sum(n.nat.translated_in + n.nat.translated_out
                   for n in w.net.nodes.values() if n.nat is not None),
        "encaps_cached": sum(1 for r in encaps
                             if r["detail"]["path"] in ("direct", "engineered")),
        "path_selected": len(w.trace.select("path_selected")),
    }


def run_traced(build: Callable, seed: int, sim_s: int):
    from layers import Tracer

    wl, _ = set_up(build, seed)
    plain = timed_phase(wl, sim_s)
    failed = check(wl)
    digest = wl.digest()
    wl = None
    tracer = Tracer()
    tracer.install()
    try:
        wl, _ = set_up(build, seed)
        before = counters(wl)
        tracer.reset()
        traced = timed_phase(wl, sim_s)
        calls, self_ns = dict(tracer.calls), dict(tracer.self_ns)
        watch_events = tracer.watch_events
        after = counters(wl)
        sessions = sum(len(rt.sessions) for rt in wl.runtimes)
        history = len(wl.world.store.history)
    finally:
        tracer.uninstall()
    failed += check(wl)
    if wl.digest() != digest:
        failed = max(failed, wl.ledger.offered)

    def delta(key):
        return after[key] - before[key]

    def ms(layer):
        return self_ns.get(layer, 0) / 1e6

    def n(key):
        return calls.get(key, 0)

    frames = max(traced.offered, 1)
    srou_calls = sum(v for k, v in calls.items() if k.startswith("srou."))
    puts = n("kvstore.KvStore.put")
    decodes = n("schema.from_json_bytes")
    metrics_calls = n("prober.ProbeSession.metrics")
    cached = delta("encaps_cached")
    attributed_ms = sum(ms(layer) for layer in tracer.modules)
    metrics = {
        "srou.calls": srou_calls,
        "srou.calls_per_frame": srou_calls / frames,
        "srou.ns_per_call": self_ns.get("srou", 0) / max(srou_calls, 1),
        "srou.self_ms": ms("srou"),
        "dataplane.encaps": delta("encaps"),
        "dataplane.relays": delta("relays"),
        "dataplane.delivers": delta("delivers"),
        "dataplane.drops": delta("drops"),
        "dataplane.trace_records_per_frame": delta("trace_records") / frames,
        "dataplane.self_ms": ms("dataplane"),
        "dataplane.us_per_frame": ms("dataplane") * 1e3 / frames,
        "netsim.events": traced.events,
        "netsim.events_per_s": plain.events / plain.wall_s,
        "netsim.self_ms": ms("netsim"),
        "netsim.drops": delta("node_drops"),
        "netsim.link_lost": delta("link_lost"),
        "netsim.nat_translations": delta("nat"),
        "kvstore.puts": puts,
        "kvstore.watch_events": watch_events,
        "kvstore.fanout": watch_events / puts if puts else 0.0,
        "kvstore.history_len": history,
        "kvstore.self_ms": ms("kvstore"),
        "schema.json_decodes": decodes,
        "schema.decodes_per_put": decodes / puts if puts else 0.0,
        "schema.hunts": n("schema.hunt"),
        "schema.self_ms": ms("schema"),
        "prober.sessions": sessions,
        "prober.probes_sent": n("prober.ProbeSession.make_request"),
        "prober.metrics_calls": metrics_calls,
        "prober.metrics_calls_per_frame": metrics_calls / frames,
        "prober.self_ms": ms("prober"),
        "pathengine.resolves": n("pathengine.RouteTable.resolve"),
        "pathengine.shortest_calls": n("pathengine.shortest_constrained"),
        "pathengine.path_cache_hit_ratio":
            1 - delta("path_selected") / cached if cached else 0.0,
        "pathengine.self_ms": ms("pathengine"),
        "trace.overhead_ratio": traced.wall_s / plain.wall_s,
        "trace.unattributed_ms": traced.wall_s * 1e3 - attributed_ms,
    }
    attempted = plain.offered + traced.offered
    return metrics, attempted, failed, digest


# ---------------------------------------------------------------------------
# context and output


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIM_PER_SECOND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    worlds = import_program()
    sim_s = max(1, round(args.seconds * SIM_PER_SECOND[args.workload]))
    build = worlds.WORKLOADS[args.workload]
    if args.trace:
        result = run_traced(build, args.seed, sim_s)
    else:
        result = run_plain(build, args.seed, sim_s, SETUPS[args.workload])
    metrics, attempted, failed, digest = result
    units = PER_LAYER if args.trace else END_TO_END
    context = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "simulated_s": sim_s, "digest": digest, "commit": commit(),
        "src_lines": src_lines(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
    }
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
