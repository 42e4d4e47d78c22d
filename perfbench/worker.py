"""Runs one workload in this fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S] [--trace 0|1] [--probe]

With --probe it builds the inputs, prints "ready" and exits; run.py times
that from the start of the interpreter as the set-up time.  Otherwise it
runs whole rounds of the workload's operations back to back (a closed loop
with one caller): one untimed warm-up round, then at least MIN_ROUNDS timed
ones, and more until the next would end after --seconds.  While the timed
rounds run, speed.Sampler times a reference unit every UNIT_EVERY_S; each
operation's time is scaled by the units run within SCALE_MARGIN_S of it,
and its latency is the median of the scaled times over the rounds.  It
checks the outputs and prints one JSON object.  With --trace 1 it runs,
after the warm-up, one round untraced and one traced instead, and reports
the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
clock = time.perf_counter
MIN_ROUNDS = 5  # each operation's latency is its median over the rounds
UNIT_EVERY_S = 0.03  # a reference unit (about 2 ms) this often
SCALE_MARGIN_S = 0.25  # an operation is scaled by the units within this of it


def run_round(ops, failed, reference=None, sampler=None, spans=None):
    """Run every operation once; return latencies, records, mismatches and
    the number of failed operations.

    Records (op, digest, failed) are kept only when there is no reference;
    otherwise each digest is compared with the reference record in turn.
    With a sampler, the time its handler took during an operation is left
    out of the operation's latency, and (start, end) of each operation is
    appended to `spans`."""
    latencies, records, mismatches, n_failed = [], [], 0, 0
    stack = list(reversed(ops))
    while stack:
        op = stack.pop()
        paused = sampler.spent if sampler else 0.0  # handler time so far
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        else:
            error = None
        end = clock()
        if sampler:
            paused = sampler.spent - paused
        latencies.append(end - start - paused)
        if error is not None:
            record = (op, {"error": f"{type(error).__name__}: {error}"}, True)
        else:
            digest = op.digest(result)
            record = (op, digest, failed(op, digest))
            if op.expand is not None:
                stack.extend(reversed(op.expand(result)))
            del result
        if spans is not None:
            spans.append((start, end))
        n_failed += record[2]
        if reference is None:
            records.append(record)
        else:
            ref = reference[len(latencies) - 1] if len(latencies) <= len(reference) else None
            if ref is None or ref[0].label != op.label or ref[1] != record[1]:
                mismatches += 1
    if reference is not None and len(latencies) != len(reference):
        mismatches += 1
    return latencies, records, mismatches, n_failed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ramibound.cli  # noqa: F401  (the CLI cold start is part of set-up)
    import ramibound
    if Path(ramibound.__file__).resolve().parent != src / "ramibound":
        print(f"ramibound imported from {ramibound.__file__}, not from {src}", file=sys.stderr)
        return 2
    import selftest
    import tracing
    import workloads

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            tracer.uninstall()
        if args.probe:
            print("ready", flush=True)
            return 0
        problems = selftest.run()
        ops, failed = workload.ops, workloads.failed

        warmup, reference, mismatches, failed_ops = run_round(ops, failed)
        timed = []
        if tracer:
            # after the warm-up, one round untraced and one traced
            for traced in (False, True):
                if traced:
                    tracer.install()
                more, _, bad, nf = run_round(ops, failed, reference)
                if traced:
                    tracer.uninstall()
                mismatches += bad
                failed_ops += nf
                timed.append(more)
        else:
            # the first round warms up; each operation's time in the timed
            # rounds is scaled by the reference units run around it
            spans_by_round = []
            started = clock()
            with speed.Sampler(UNIT_EVERY_S) as sampler:
                while len(timed) < MIN_ROUNDS or (
                        clock() - started + (clock() - started) / len(timed) <= args.seconds):
                    spans = []
                    more, _, bad, nf = run_round(ops, failed, reference, sampler, spans)
                    mismatches += bad
                    failed_ops += nf
                    timed.append(more)
                    spans_by_round.append(spans)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems += workload.check(reference)
        if mismatches:
            problems.append(f"{mismatches} operations differed from the first round")
        out = {
            "correct": not problems,
            "attempted": len(warmup) + sum(map(len, timed)),
            "failed": failed_ops,
            "rounds": 1 + len(timed),
            "problems": problems[:20],
        }
        if tracer:
            out["layers"] = tracer.metrics()
            out["trace_overhead_s"] = sum(timed[1]) - sum(timed[0])
        else:
            scaled = [[t * sampler.scale_at(a, b, SCALE_MARGIN_S) for t, (a, b) in zip(times, spans)]
                      for times, spans in zip(timed, spans_by_round)]
            typical = [statistics.median(times) for times in zip(*scaled)]
            out.update({
                "wall_s": sum(typical),
                "op_p50_ms": statistics.median(typical) * 1e3,
                "op_p90_ms": statistics.quantiles(typical, n=10)[-1] * 1e3,
                "peak_rss_mb": peak_rss_mb,
                "unit_ms": statistics.median(sampler.times) * 1e3,
                "unscaled_wall_s": sum(statistics.median(t) for t in zip(*timed)),
            })
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
