"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload runs in fresh worker processes (worker.py).  With ``--trace 0``
the worker is launched SETUP_LAUNCHES times: each launch's set-up time runs
from launching it to its first timed op, every launch but the last stops
there, and the last one runs the timed ops.  ``setup_s`` is the median
set-up time in reference seconds: wall seconds on a core where the worker's
set-up calibration loop, timed at the end of set-up, takes exactly 1 ms.
The result holds the metrics ``end_to_end`` of BENCHMARK.json names.  With ``--trace 1`` one launch runs
the ops untraced and then traced, and the result holds the ``per_layer``
metrics.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_LAUNCHES = 7
DEADLINE_S = 170  # the whole run, set-up launches included


class RunError(RuntimeError):
    pass


def launch(args, command: str, deadline: float) -> tuple[float, float, dict | None]:
    """Start a worker, time its set-up, send it the command.

    Returns the set-up time in wall seconds, the same in reference seconds,
    and the worker's result.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        words = line.split()
        if len(words) != 2 or words[0] != "ready":
            raise RunError(f"worker did not get ready (read {line!r})")
        setup_ref_s = setup_s / (float(words[1]) / 1e6)
        out, _ = proc.communicate(command + "\n", timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RunError(f"worker exited with code {proc.returncode}")
        if command == "stop":
            return setup_s, setup_ref_s, None
        lines = out.strip().splitlines()
        if not lines:
            raise RunError("worker printed no result")
        return setup_s, setup_ref_s, json.loads(lines[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def pick(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RunError(f"the worker reported no value for {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "chebring" / "__init__.py").is_file():
        print(f"perfbench: no chebring package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            _, _, result = launch(args, "trace", deadline)
            metrics = pick(result["layers"], spec["per_layer"])
        else:
            wall, ref = [], []
            for i in range(SETUP_LAUNCHES):
                setup_s, setup_ref_s, result = launch(args, "run" if i == SETUP_LAUNCHES - 1 else "stop", deadline)
                wall.append(setup_s)
                ref.append(setup_ref_s)
            metrics = pick({**result, "setup_s": statistics.median(ref)}, spec["end_to_end"])
            print(
                f"perfbench: {args.workload} wall op p50 {result['wall_op_p50_ms']:.3f} ms,"
                f" calibration loop {result['calibration_ms']:.3f} ms,"
                f" wall set-up {statistics.median(wall):.3f} s",
                file=sys.stderr,
            )
    except (RunError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    out = {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
