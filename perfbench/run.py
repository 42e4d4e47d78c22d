"""The ramibound benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload {depth-grid,modules,uniformizer,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ./src.  Each
workload runs in a fresh single-threaded process (worker.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones from a traced run.  With
--workload all, the workloads run one after another, one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("depth-grid", "modules", "uniformizer")
SETUP_PROBES = 15  # after one discarded warm-up probe
PROBE_TIMEOUT_S = 30
UNITS_AROUND_PROBE = 30  # reference units timed before and after each probe
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker_cmd(workload, args, *extra) -> list[str]:
    return [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(args.seed), *extra]


def setup_time(workload, args) -> float:
    """Seconds from starting a fresh interpreter until its inputs are built,
    at the reference speed of speed.py: each probe is scaled by the
    reference units timed just before and just after it."""
    samples = []
    for _ in range(SETUP_PROBES + 1):
        units = [speed.time_unit() for _ in range(UNITS_AROUND_PROBE)]
        start = time.perf_counter()
        proc = subprocess.Popen(worker_cmd(workload, args, "--probe"), cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
        units += [speed.time_unit() for _ in range(UNITS_AROUND_PROBE)]
        samples.append(elapsed * speed.scale(units))
    return statistics.median(samples[1:])


def run_workload(workload, args) -> int:
    """Run one workload and print its JSON line; return the exit code."""
    try:
        setup_s = None if args.trace else setup_time(workload, args)
        done = subprocess.run(
            worker_cmd(workload, args, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)),
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(done.stderr, file=sys.stderr)
        print(f"error: worker exited with code {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(done.stdout.strip().splitlines()[-1])
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
        metrics["trace_overhead_s"] = {"value": report["trace_overhead_s"], "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": report["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": report["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(f"# {workload}: {report['rounds']} round(s), "
          f"{report['attempted']} operations, {report['failed']} failed", file=sys.stderr)
    if not args.trace:
        print(f"# {workload}: reference unit {report['unit_ms']:.4f} ms (median), "
              f"unscaled wall {report['unscaled_wall_s']:.4f} s", file=sys.stderr)
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "ramibound" / "__init__.py").is_file():
        print(f"error: no ramibound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        code = run_workload(workload, args)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
