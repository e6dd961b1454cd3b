"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced passes with one seed give identical work counts (every
   per-layer metric that is not a time) on every workload.
2. The traced counts confirm the workload split: the action check carries
   most of group_of's time on census and never runs on invariants, and
   integer SNF never runs on census or classify.
3. run.py refuses, with a nonzero exit and no result line, to run in a
   directory that holds only BENCHMARK.json and perfbench/.

Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
ROUNDS = {"census": 2, "invariants": 20, "classify": 1, "cli_verify": 3}
TIMED = {"monodromy.action_check.share"}


def traced_pass(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--mode", "pass", "--traced", "1", "--rounds", str(ROUNDS[workload])],
        cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["failed"]:
        raise SystemExit(f"{workload}: wrong outputs: {out['failures']}")
    return {name: value for name, (value, unit) in out["layers"].items()}


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        raise SystemExit(1)


def main() -> int:
    layers = {}
    for workload in ROUNDS:
        first, second = traced_pass(workload, 7), traced_pass(workload, 7)
        counts = {name for name in first
                  if not name.endswith(("_s", ".s")) and name not in TIMED}
        differing = sorted(n for n in counts if first[n] != second[n])
        check(not differing, f"{workload}: {len(counts)} counts repeat exactly {differing}")
        layers[workload] = first

    census, invariants = layers["census"], layers["invariants"]
    check(census["monodromy.action_check.share"] > 0.5,
          "census: span_shift_is_trivial is most of group_of's time")
    check(invariants["oracle.span_shift_is_trivial.calls"] == 0
          and invariants["monodromy.group_of.calls"] > 0,
          "invariants: group_of never reaches the action check")
    for workload in ("census", "classify"):
        check(layers[workload]["exactla.smith_normal_form.calls"] == 0,
              f"{workload}: no integer SNF")

    bare = ROOT / "perfbench" / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
        timeout=180)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "run.py exits nonzero without a result when the package is missing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
