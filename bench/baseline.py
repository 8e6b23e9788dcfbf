"""Measure a baseline: bench/run.py on every workload at ten seeds, untraced,
plus one traced run per workload at the first seed.  Writes BASELINE.json
next to this file with, per end-to-end metric, the median and quartiles of
the ten runs and their spread (q3 - q1) / median, as the benchmark's
acceptance rule computes it.

    python3 bench/baseline.py [--seeds 0-9] [--seconds 20]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
# Printed in run.py's table, with no bound; item_p90_ms only where one pass
# has at least 100 items.
LATENCY_NAMES = ("item_p50_ms", "item_p90_ms")


def bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "cpu": cpu_model()},
        "seeds": seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in workloads.WORKLOADS:
        runs, tables = [], []
        for seed in seeds:
            lines, result = bench(workload, seed, args.seconds, 0)
            runs.append(result)
            rows = [line.split() for line in lines]
            tables.append({r[0]: float(r[1]) for r in rows
                           if r[:1] and r[0] in LATENCY_NAMES and r[2:3] == ["ms"]})
            print(workload, seed, json.dumps(result), flush=True)
        lines, traced = bench(workload, seeds[0], args.seconds, 1)
        top = next(line for line in lines if "largest self time:" in line)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {m: summarize([r["metrics"][m]["value"] for r in runs])
                           for m in runs[0]["metrics"]},
            "item_latency": {m: summarize([t[m] for t in tables]) for m in LATENCY_NAMES
                             if m in tables[0]},
            "largest_self_time": top.split("largest self time:")[1].strip(),
            "per_layer_at_first_seed": {m: v["value"] for m, v in traced["metrics"].items()},
            "traced_correct": traced["correct"],
        }
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
