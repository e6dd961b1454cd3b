"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (perfbench/worker.py), one at a time, so nothing overlaps.

--trace 0 prints the end-to-end metrics.  Set-up is timed SETUP_SAMPLES times
(SETUP_SAMPLES - 1 set-up-only processes plus the measuring one) and the
median is reported; the measuring process then runs whole rounds closed-loop
until its requests have been busy for --seconds.

--trace 1 prints the per-layer metrics.  The workload's fixed number of rounds
runs twice, untraced and then traced, each in its own process; the traced
process writes its spans under perfbench/out/.

Human-readable lines come first; the last line is the JSON result.  The exit
code is 1 when any output was wrong and 2 when the package is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("census", "invariants", "classify", "cli_verify")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170          # the whole run, all processes included


class ChildFailed(Exception):
    pass


def _child(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {args} exceeded the time limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(res, setup_samples):
    lat = sorted(res["latencies"])
    ops = len(lat)
    q = res["tail_percentile"]
    beyond = ops - int(-(-ops * q // 100))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (ops / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (_percentile(lat, q) * 1e3, "ms"),
        "cpu_ms_per_op": (res["cpu_s"] / ops * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "error_ratio": f"{res['failed'] / ops:.4f} ({res['failed']} of {ops} ops)",
        "latency_tail_ms": f"p{q:g}, {ops} samples, {beyond} beyond it",
        "setup_s": f"median of {len(setup_samples)}",
        "reference_ms": f"{res['reference_s'] * 1e3:.3f} (median; raw busy "
                        f"{res['raw_busy_s']:.2f} s, raw rate {ops / res['raw_busy_s']:.4g}/s)",
        "rounds": str(res["rounds"]),
    }
    return metrics, notes


def per_layer(untraced, traced):
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    traced_rate = len(traced["latencies"]) / sum(traced["latencies"])
    untraced_rate = len(untraced["latencies"]) / sum(untraced["latencies"])
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate, "ratio")
    notes = {"spans_file": traced["spans_file"], "rounds": str(traced["rounds"])}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "billiard_monodromy" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            untraced = _child(common + ["--mode", "pass"], deadline)
            traced = _child(common + ["--mode", "pass", "--traced", "1"], deadline)
            metrics, notes = per_layer(untraced, traced)
            results = (untraced, traced)
        else:
            setups = [_child(common + ["--mode", "setup"], deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _child(common + ["--mode", "timed", "--seconds", str(args.seconds)],
                         deadline)
            metrics, notes = end_to_end(res, [s["setup_s"] for s in setups]
                                        + [res["setup_s"]])
            results = (*setups, res)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    main_result = results[-1]
    failed = sum(r["failed"] for r in results)
    for r in results:
        for reason in r["failures"]:
            print(f"WRONG: {reason}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:45s} {value:14.6g} {unit}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"{name:45s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(main_result["latencies"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
