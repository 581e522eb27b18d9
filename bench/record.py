"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/record.py [--seeds 1-10] [--seconds 15] [--workloads steer_2x2 ...]
                            [--trace 0|1] [--out bench/baseline.json]

Each (workload, seed) runs in its own fresh interpreter, one at a time,
exactly as a single `bench/run.py` call.  For every metric the summary gives
the median, the first and third quartiles (`statistics.quantiles(n=4)`) and
the spread (IQR / median), plus the run context: machine, Python, commit,
seeds and the src/ line count.  --seconds defaults to BENCHMARK.json's
run_seconds.  It also checks that every seed's simulated digest is the same
in every run of that seed.  With --out the summary is
written as JSON; the checked-in baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                         timeout=180, check=True).stdout.splitlines()
    context = json.loads(next(l for l in out if l.startswith("context "))[8:])
    return json.loads(out[-1]), context


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(run.SIM_PER_SECOND))
    parser.add_argument("--seeds", default=f"{run.TUNING_SEEDS[0]}-{run.TUNING_SEEDS[-1]}")
    run_seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    report = {
        "context": {
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "commit": run.commit(),
            "src_lines": run.src_lines(), "seeds": seeds,
            "held_out_seed": run.HELD_OUT_SEED, "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        digests: dict[int, set] = {}
        for seed in seeds:
            t0 = time.monotonic()
            result, context = run_once(workload, seed, args.seconds, args.trace)
            took = time.monotonic() - t0
            digests.setdefault(seed, set()).add(context["digest"])
            ok &= result["correct"] and len(digests[seed]) == 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, f"{took:.1f}s", result["correct"], context["digest"],
                  " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {name: summarise(v) for name, v in values.items()}
        summary["digests"] = {str(s): sorted(d) for s, d in digests.items()}
        report["workloads"][workload] = summary
        for name, s in summary.items():
            if name != "digests":
                print(f"  {workload} {name}: median {s['median']:.4g} "
                      f"spread {s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
