"""One workload in one fresh process: set up, wait for a command, run.

Protocol on stdin/stdout, driven by run.py:
  1. the worker imports chebring, builds its inputs from the seed, warms up
     on inputs outside the timed set, times the set-up calibration loop,
     then prints ``ready`` and the loop's time in ns;
  2. it reads one line: ``stop`` ends it there; ``run`` times whole rounds of
     ops for the given seconds; ``trace`` times half the seconds untraced and
     half traced;
  3. after timing it checks every result and prints one JSON line.

sympy and the checks are imported only after timing, so that set-up time
covers the library and nothing of the benchmark's oracles.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports chebring from this checkout)

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_OPS = 100  # op_p90 needs at least ten ops beyond the 90th percentile
SETUP_CALIBRATIONS = 5


def calibration_ns(loop) -> int:
    """Time of one calibration loop.

    On a shared machine the speed of a core drifts by tens of percent, for
    seconds to minutes at a time.  So the worker times its workload's loop
    before and after each op, and reports the op's wall time in reference
    ms: ms on a core where the loop takes exactly 1 ms, at the mean of the
    two timings.
    """
    t0 = time.perf_counter_ns()
    loop()
    return time.perf_counter_ns() - t0


def run_rounds(wl, inputs, seconds: float, first: dict) -> dict:
    """Repeat whole rounds over the inputs until both seconds and MIN_OPS are reached.

    Only the first result of each input is kept, in ``first``; a later op on
    the same input must return an equal result.  Keeping every result would
    grow the peak resident size with the number of ops.
    """
    ref_ms, wall_ms, cal_ms = [], [], []
    ops, items, changed, failed, cache_hits = 0, 0, [], 0, 0
    start = time.perf_counter()
    cal_before = calibration_ns(wl.calibrate)
    while True:
        for x in inputs:
            workloads.clear_caches()
            t0 = time.perf_counter_ns()
            try:
                result = wl.op(x)
            except Exception as exc:  # a failing op is counted, not fatal
                result = exc
            dt = time.perf_counter_ns() - t0
            cal_after = calibration_ns(wl.calibrate)
            cal, cal_before = (cal_before + cal_after) / 2, cal_after
            ops += 1
            cache_hits += workloads.PRIME_FACTORS.cache_info().hits
            if isinstance(result, Exception):
                failed += 1
                print(f"{wl.name} op on {x!r} failed: {result!r}", file=sys.stderr)
                continue
            ref_ms.append(dt / cal)
            wall_ms.append(dt / 1e6)
            cal_ms.append(cal / 1e6)
            items += wl.items(x)
            key = repr(x)
            if key not in first:
                first[key] = (x, result)
            elif result != first[key][1]:
                changed.append(f"{wl.name}: a repeated op on {key} returned a different result")
        if time.perf_counter() - start >= seconds and ops >= MIN_OPS:
            return {
                "ops": ops,
                "items": items,
                "ref_ms": ref_ms,
                "wall_ms": wall_ms,
                "cal_ms": cal_ms,
                "changed": changed,
                "failed": failed,
                "cache_hits": cache_hits,
            }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    inputs, warm = wl.inputs(random.Random(args.seed))
    for x in warm:
        workloads.clear_caches()
        wl.op(x)
    # The speed of the core at the end of set-up, for run.py to report
    # set-up time in reference seconds.
    setup_cal_ns = statistics.median(calibration_ns(workloads.SETUP_CALIBRATE) for _ in range(SETUP_CALIBRATIONS))
    print("ready", setup_cal_ns, flush=True)

    command = sys.stdin.readline().strip()
    if command == "stop":
        return 0
    out: dict = {}
    first: dict = {}  # repr(input) -> (input, first result)
    if command == "run":
        phase = run_rounds(wl, inputs, args.seconds, first)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ref_ms = phase["ref_ms"]
        out["items_per_ref_s"] = phase["items"] / (sum(ref_ms) / 1e3)
        out["op_p50_ref_ms"] = statistics.median(ref_ms)
        out["op_p90_ref_ms"] = statistics.quantiles(ref_ms, n=10)[8]
        out["wall_op_p50_ms"] = statistics.median(phase["wall_ms"])
        out["calibration_ms"] = statistics.median(phase["cal_ms"])
        phases = [phase]
    elif command == "trace":
        from tracer import Tracer

        plain = run_rounds(wl, inputs, args.seconds / 2, first)
        tracer = Tracer()
        tracer.install(workloads.cb)
        try:
            traced = run_rounds(wl, inputs, args.seconds / 2, first)
        finally:
            tracer.uninstall()
        out["layers"] = layer_metrics(tracer, traced)
        out["layers"]["op_p50_ref_ms.untraced"] = statistics.median(plain["ref_ms"])
        out["layers"]["op_p50_ref_ms.traced"] = statistics.median(traced["ref_ms"])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "ops": traced["ops"], "edges": tracer.edge_rows()}, indent=1))
        phases = [plain, traced]
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2

    problems = [line for ph in phases for line in ph["changed"]]
    for x, result in first.values():
        problems += wl.check(x, result)
    for line in problems[:20]:
        print(line, file=sys.stderr)
    out["attempted"] = sum(ph["ops"] for ph in phases)
    out["failed"] = sum(ph["failed"] for ph in phases)
    out["correct"] = not problems
    print(json.dumps(out), flush=True)
    return 0


def layer_metrics(tracer, phase) -> dict:
    ops = phase["ops"]
    out = {}
    for name, (calls, self_ns) in tracer.totals().items():
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_ms"] = self_ns / 1e6 / ops
    out["primes.prime_factors.hits"] = phase["cache_hits"] / ops
    return out


if __name__ == "__main__":
    sys.exit(main())
