"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by run.py in a fresh interpreter for every measurement, so that the
package import, its functools caches and the peak RSS all start cold.  One
client, no threads: each request is issued only after the previous one has
returned and been checked.  Prints one JSON object on its last line.

    python3 perfbench/worker.py --workload census --seed 1 --mode timed --seconds 20
    python3 perfbench/worker.py --workload census --seed 1 --mode pass --traced 1

Modes: ``setup`` only times set-up; ``timed`` runs whole rounds until the
requests have been busy for ``--seconds``; ``pass`` runs the workload's fixed
number of rounds (so that traced counts repeat exactly for a seed).
"""

import argparse
import json
import resource
import sys
import time
from array import array
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5
REFERENCE_EVERY_S = 0.2     # busy time between two reference measurements


def _sets_block():
    # tuple arithmetic mod n with set membership, big-integer products and
    # string-keyed dictionaries, like the oracle's closures and the cli
    seen = {(0, 0, 0)}
    frontier = [(0, 0, 0)]
    gens = ((1, 2, 4), (4, 1, 2), (2, 4, 1))
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((x + y) % 9 for x, y in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    x = 3 ** 700
    for i in range(20):
        x = x * x % (5 ** 900 + i)
    names = {f"k{i}": i for i in range(150)}
    return len(seen) + len(names)


def _arith_block():
    # small-integer products, remainders and gcds in nested loops, like
    # modular elimination and the classification searches
    acc = 0
    n = 997
    for a in range(1, 300):
        for b in range(1, 12):
            c = n - a - b
            if gcd(a, b, c, n) == 1:
                acc += gcd(n, a * c - b * b) % 7
    table = {}
    for i in range(600):
        table[i * 7 % 101] = i
    return acc + len(table)


# workload -> (reference block, its time in seconds at a typical host speed)
REFERENCES = {
    "census": (_sets_block, 0.002),
    "cli_verify": (_sets_block, 0.002),
    "invariants": (_arith_block, 0.001),
    "classify": (_arith_block, 0.001),
}


def speed_reference(block):
    """Seconds the reference block takes now (best of two).

    The host's speed swings by up to 2x over seconds on a shared machine, for
    CPU time as much as for wall time.  Every measured interval is therefore
    scaled by (the block's typical time) / (this figure taken right around
    it), which reports it at a typical speed and cancels the swings.  Each
    workload uses the block whose mix of operations is closest to its own.
    """
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        block()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _run_op(op, wl, latencies, cpu, failures):
    """Time one request, then check its outcome outside the timed region."""
    error = result = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:      # a failed request is counted, not fatal
        error = exc
    t1 = time.perf_counter()
    c1 = time.process_time()
    latencies.append(t1 - t0)
    cpu.append(c1 - c0)
    with wl.checking():
        try:
            reason = op.check(result, error)
        except Exception as exc:
            reason = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        failures.append(reason)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "pass"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=0,
                        help="rounds in pass mode (default: the workload's own)")
    args = parser.parse_args(argv)

    block, reference_s = REFERENCES[args.workload]
    reference_before = speed_reference(block)
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import billiard_monodromy  # noqa: F401  (import time belongs to set-up)

    tracer = None
    if args.traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    wl = workloads.WORKLOADS[args.workload](args.seed, tracer)
    failures = []
    with wl.checking():
        warmup = wl.warmup()
    if tracer:
        tracer.op = tracing.WARMUP_OP
    for op in warmup:
        _run_op(op, wl, [], [], failures)
    # expected answers and request building are the benchmark's, not set-up
    setup_raw = time.perf_counter() - start - wl.checking_s
    reference = speed_reference(block)
    setup_s = setup_raw * reference_s / ((reference_before + reference) / 2)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw,
                          "failed": len(failures),
                          "failures": failures[:MAX_REPORTED_FAILURES]}))
        return 0

    # A segment is REFERENCE_EVERY_S of busy time; its requests are scaled by
    # the mean of the reference measurements taken just before and after it.
    # Per request only the scaled latency is kept (8 bytes), so the harness
    # adds little to the peak RSS however fast the requests run.
    latencies = array("d")
    seg_lat, seg_cpu = [], []
    references = [reference]
    cpu_s = 0.0

    def close_segment():
        nonlocal cpu_s
        now = speed_reference(block)
        scale = reference_s / ((references[-1] + now) / 2)
        latencies.extend(x * scale for x in seg_lat)
        cpu_s += sum(seg_cpu) * scale
        seg_lat.clear()
        seg_cpu.clear()
        references.append(now)

    rounds = 0
    busy = segment = 0.0
    limit = args.rounds or wl.trace_rounds
    while (args.mode == "timed" and (rounds == 0 or busy < args.seconds)
           or args.mode == "pass" and rounds < limit):
        with wl.checking():           # drawing the next round is not a request
            ops = wl.next_round()
        for op in ops:
            if segment >= REFERENCE_EVERY_S:
                close_segment()
                segment = 0.0
            if tracer:
                tracer.op = len(latencies) + len(seg_lat)
            _run_op(op, wl, seg_lat, seg_cpu, failures)
            busy += seg_lat[-1]
            segment += seg_lat[-1]
        rounds += 1
    close_segment()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "rounds": rounds,
        "raw_busy_s": busy,
        "reference_s": sorted(references)[len(references) // 2],
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "tail_percentile": wl.tail_percentile,
    }
    if tracer:
        tracer.uninstall()
        out["layers"] = tracer.metrics()
        out["spans_file"] = str(Path("perfbench", "out",
                                     f"spans-{args.workload}-seed{args.seed}.jsonl"))
        tracer.write_spans(ROOT / out["spans_file"])
    out["latencies"] = latencies.tolist()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
