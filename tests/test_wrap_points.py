"""The end-to-end benchmark's wrap points resolve on the objects it builds.

``benchmarks/e2e/spans.py`` times each layer by rebinding methods named
by attribute paths (``session.plan``, ``submit_fact``, ...) on the
instances a workload's set-up built.  A path that no longer resolves is
reported and skipped, and every budget line that depends on it then reads
``null`` instead of failing the run.  This test fails instead: it sets up
each workload at smoke size (no replay), installs the span recorder over
the harness's own roots and compares the wrap points that did not resolve
with the known set, and it checks that a planning run's span is sized by
the groups it planned.
"""

import sys
from pathlib import Path

import pytest

from repro.runtime import BrpRuntimeService, LoadGenerator

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: Wrap points no workload of that kind resolves today: the cluster's bus
#: dispatch and snapshot intake have no public seam of their own.
UNRESOLVED = {
    "brp_steady": set(),
    "brp_ingest_heavy": set(),
    "brp_ledger_churn": set(),
    "cluster_k2": {"cluster.bus_dispatch", "cluster.tso_snapshot"},
    "parallel_k2": {"cluster.bus_dispatch", "cluster.tso_snapshot"},
}


@pytest.fixture(scope="module")
def harness():
    saved = sys.path[:]
    sys.path.insert(0, str(E2E))
    try:
        import repetition
        import spans
        import workloads
    finally:
        sys.path[:] = saved
    return repetition, spans, workloads


@pytest.mark.parametrize("workload", sorted(UNRESOLVED))
def test_unresolved_wrap_points(harness, workload, tmp_path):
    repetition, spans, workloads = harness
    prepared = workloads.prepare(workloads.WORKLOADS[workload], 42, True, tmp_path)
    recorder = spans.SpanRecorder()
    recorder.install(*repetition._roots(prepared))
    unresolved = {
        name
        for name, reason in recorder.unavailable.items()
        if "did not resolve" in reason
    }
    if prepared.workload.ledger:
        prepared.target.ledger.close()
    assert unresolved == UNRESOLVED[workload]


def test_a_planning_span_is_sized_by_its_planned_groups(harness):
    _, spans, _ = harness
    service = BrpRuntimeService()
    planned = []
    service.plan_listeners.append(
        lambda result: planned.append(len(service.last_plan.groups))
    )
    recorder = spans.SpanRecorder()
    recorder.install({"service": [service]})
    service.run_stream(LoadGenerator(rate_per_hour=200, seed=3).stream(0.0, 24.0), 24.0)
    plan = recorder.names.index("scheduling.plan")
    works = [
        work for name, work in zip(recorder.name_id, recorder.work) if name == plan
    ]
    assert works == planned and len(planned) > 1
