"""Run the benchmark several times and summarise each metric per workload.

    python3 perfbench/repeat.py --runs 10 --seed 1
    python3 perfbench/repeat.py --runs 5 --workload sweep --trace 1

Run i uses seed ``--seed + i``; within a run the workloads take turns, so a
slow spell of the machine falls on all of them.  For each workload and
metric it prints the median, the quartiles (``statistics.quantiles`` with
n=4), the spread (q3 - q1) / median and, for end-to-end metrics, the bound
from BENCHMARK.json, flagging a spread above the bound.  Every run's result,
with nproc, the Python and numpy versions, the git SHA and its seed, goes to
perfbench/out/repeat-<time>.json.
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

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__, "git_sha": sha}


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--workload", action="append", choices=names, help="repeatable; default all")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    workloads = args.workload or names
    env = environment()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    records = []
    for i in range(args.runs):
        for name in workloads:
            seed = args.seed + i
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            records.append({"workload": name, "seed": seed, "trace": args.trace, **env, "result": result})
            status = "ok" if result and result["correct"] else f"FAILED (exit {proc.returncode}) {proc.stderr.strip()[-300:]}"
            print(f"run {i + 1}/{args.runs} {name} seed {seed}: {status}", file=sys.stderr, flush=True)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(records, indent=1))

    flagged = 0
    print(f"{'workload':8} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for name in workloads:
        results = [r["result"] for r in records if r["workload"] == name and r["result"]]
        if not results:
            continue
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{name}: {len(results)} runs, {attempted} ops attempted, {failed} failed, correct={correct}")
        for metric in results[0]["metrics"]:
            med, q1, q3, spread = summarise([r["metrics"][metric]["value"] for r in results])
            bound = bounds.get(metric) if not args.trace else None
            flag = ""
            if bound is not None and spread > bound:
                flag, flagged = "  SPREAD > BOUND", flagged + 1
            bound_txt = f"{bound:6.2f}" if bound is not None else " " * 6
            print(f"{'':8} {metric:36} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%} {bound_txt}{flag}")
    print(f"results: {path.relative_to(ROOT)}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
