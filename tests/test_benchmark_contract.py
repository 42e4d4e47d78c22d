"""The benchmark's contract with the package.

perfbench/ calls ramibound by name (default_config, mat_det,
lemma4_check(strict=), Prop2Result.space_size, ...), and its tracer wraps
public functions by name.  Each workload here runs one round at seed 1 with
no failed operation and no problem from the workload's own checks, then one
traced round that must reproduce the first.  So a change to anything
perfbench reads fails tier-1 rather than a benchmark run.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("depth-grid", "modules", "uniformizer")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_clean_and_traces_the_same(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker
    import workloads

    workload = workloads.WORKLOADS[name](1, str(tmp_path))
    _, reference, mismatches, n_failed = worker.run_round(workload.ops, workloads.failed)
    assert (mismatches, n_failed) == (0, 0)
    assert workload.check(reference) == []

    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, _, mismatches, n_failed = worker.run_round(workload.ops, workloads.failed,
                                                      reference)
    finally:
        tracer.uninstall()
    assert (mismatches, n_failed) == (0, 0)
    assert any(tracer.calls.values())

