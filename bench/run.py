"""charp benchmark: end-to-end metrics per workload, per-layer metrics from a
separate traced run.  Run from the root of a checkout:

    python3 bench/run.py --workload suites --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

Each workload is a single-process closed loop (the next item starts when the
previous one returns) in its own fresh interpreter.  --trace 0 prints the
end-to-end metrics; --trace 1 runs the same untraced measurement, then one
traced pass with the same seed, and prints the per-layer metrics.  Both
print a table of every metric first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import per_layer_metrics  # noqa: E402

# Set-up probes per run, half before and half after the measured run, so
# that their median spans the run's time rather than one moment of it.
SETUP_RUNS = 21
DEADLINE_S = 170  # per workload, children included
SPANS_DIR = os.path.join(ROOT, ".bench_out")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("pass_ratio", "ratio"))
# The median item latency comes from the untraced run, like END_TO_END, but
# is listed with the per-layer metrics, which carry no bound: the median of
# the 13 or 8 items of a `suites` or `frobenius-hk` pass rests on one or two
# items, and on a shared machine its spread over ten seeds exceeded 0.25.
LATENCY = (("item_p50_ms", "ms"),)
PER_LAYER = LATENCY + tuple(per_layer_metrics())
# item_p90_ms is printed only where one pass has this many items (session);
# with 13 or 8 items it would interpolate between the slowest two.
P90_MIN_ITEMS = 100


class BenchError(Exception):
    pass


def _child(args, deadline):
    """Run bench/worker.py in a fresh interpreter; its last stdout line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                              cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[:2]} exceeded the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def measure(workload, seed, seconds, trace, deadline):
    out = {"log": [], "unexpected": []}
    log = out["log"].append

    inputs = workloads.generate(workload, seed)
    digest = workloads.digest(inputs)
    again = workloads.digest(workloads.generate(workload, seed))
    other = workloads.digest(workloads.generate(workload, seed + 1))
    if digest != again or digest == other:
        out["unexpected"].append(f"inputs not a function of the seed: {digest} {again} {other}")

    specs = json.dumps(workloads.ring_specs(workload, inputs))

    def probe():
        return float(_child(["setup", specs], deadline))

    probe()  # writes the bytecode caches
    setups = [probe() for _ in range(SETUP_RUNS // 2)]

    spans = os.path.join(SPANS_DIR, f"{workload}.spans")
    plain = json.loads(_child(["run", workload, seed, seconds, 0, spans], deadline))
    setups += [probe() for _ in range(SETUP_RUNS - len(setups))]
    runs = [plain]
    items = plain["item_ms"]
    for k, (wall, report) in enumerate(zip(plain["passes_s"], plain["report_digests"])):
        log(f"pass {k}: inputs {digest}, reports {report}, wall {wall:.3f} s, {len(inputs)} inputs")
    if len(set(plain["report_digests"])) != 1:
        out["unexpected"].append("reports differ between passes")
    wall = statistics.median(plain["passes_s"])
    attempted = len(items)
    out["values"] = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": plain["peak_rss_mb"],
        "pass_ratio": 1 - plain["failed"] / attempted,
        "item_p50_ms": statistics.median(items),
    }
    log(f"{attempted} items over {len(plain['passes_s'])} passes; "
        f"fail_ratio {plain['failed'] / attempted:.4f}")
    per_pass = attempted // len(plain["passes_s"])
    if per_pass >= P90_MIN_ITEMS:
        out["p90"] = (statistics.quantiles(items, n=10, method="inclusive")[8], attempted)
    else:
        log(f"item_p90_ms not reported: {per_pass} items per pass, fewer than {P90_MIN_ITEMS}")
    if "oracle_checked" in plain:
        log(f"oracle cross-check: {plain['oracle_checked']} membership verdicts")

    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        traced = json.loads(_child(["run", workload, seed, seconds, 1, spans], deadline))
        runs.append(traced)
        if traced["unwrapped"]:
            out["unexpected"].append(f"unwrapped originals: {traced['unwrapped']}")
        if traced["report_digests"][0] != plain["report_digests"][0]:
            out["unexpected"].append("traced reports differ from untraced reports")
        out["values"].update(traced["layers"])
        out["values"]["trace.overhead_ratio"] = traced["passes_s"][0] / wall
        top = sorted(traced["self_s_by_module"].items(), key=lambda kv: -kv[1])[:3]
        log("largest self time: " + ", ".join(f"{m} {s:.3f} s" for m, s in top))
        if workload == "session":
            reads, writes = traced["script_s"]["read"], traced["script_s"]["write"]
            log(f"script statements: reads {reads:.3f} s, writes {writes:.3f} s "
                f"({reads / (reads + writes):.0%} reads)")
        log(f"spans written to {os.path.relpath(spans, ROOT)}")

    for run in runs:
        for k, name, reason, known in run["fails"]:
            log(f"FAIL {name} (pass {k}): {reason}"
                + (" [known defect, ROADMAP item 4]" if known else ""))
            if not known:
                out["unexpected"].append(f"{name}: {reason}")
    out["attempted"] = sum(len(r["item_ms"]) for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/charp/__init__.py", "tests/oracle.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a charp checkout, missing {missing}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, res in results.items():
        print(f"== {name} (seed {args.seed})")
        for line in res["log"]:
            print("  " + line)
        shown = END_TO_END + (PER_LAYER if args.trace else LATENCY)
        for metric, unit in shown:
            print(f"  {metric:40s} {res['values'][metric]:14.6g} {unit}")
        if "p90" in res:
            value, samples = res["p90"]
            print(f"  {'item_p90_ms':40s} {value:14.6g} ms ({samples} samples)")
        for problem in res["unexpected"]:
            print(f"  UNEXPECTED {problem}")
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in (PER_LAYER if args.trace else END_TO_END):
            metrics[prefix + metric] = {"value": res["values"][metric], "unit": unit}
    print(json.dumps({
        "correct": not any(r["unexpected"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
