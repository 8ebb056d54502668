"""The planning and commit counters of two end-to-end workloads, pinned.

``brp_ledger_churn`` (one BRP with updates, withdrawals and a ledger) and
``cluster_k2`` (two BRPs under a TSO, remote commits included) each run
once at smoke size, seed 42, untraced, in a fresh process with the
benchmark's pinned environment: offer ids come from a process-global
counter, so two runs in one process would not plan alike.  The counters
say how many placements a run kept and re-placed, how many group commits
it skipped as unchanged, how many members it committed and stranded:
a change that must plan and commit exactly as before moves none of them.

Run as a script (``python tests/test_commit_counters.py WORKLOAD SEED``)
it prints the counters of one run as JSON.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from pins import pin

ROOT = Path(__file__).resolve().parents[1]
E2E = ROOT / "benchmarks" / "e2e"

COUNTERS = (
    "disaggregate.assignments",
    "disaggregate.unchanged_skipped",
    "delta.reused_placements",
    "delta.replaced_placements",
    "schedule.warm_started",
    "schedule.certified_runs",
    "schedule.stranded_members",
    "cluster.remote_commits",
)


def counters(workload: str, seed: int) -> list[int]:
    """One smoke-size replay's :data:`COUNTERS`, in order: a BRP's, or a
    cluster's BRPs summed and then its TSO's."""
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        prepared = workloads.prepare(
            workloads.WORKLOADS[workload], seed, True, Path(tmp)
        )
        prepared.replay()
        if prepared.workload.ledger:
            prepared.target.ledger.close()
        if prepared.workload.kind == "brp":
            values, prefixes = prepared.target.service.metrics.as_dict(), ("",)
        else:
            values, prefixes = prepared.target.metrics().as_dict(), ("", "tso.")
    return [
        int(values.get(prefix + name, 0))
        for prefix in prefixes
        for name in COUNTERS
    ]


@pytest.mark.pinned
@pytest.mark.parametrize("workload", ["brp_ledger_churn", "cluster_k2"])
def test_commit_counters(workload):
    saved = sys.path[:]
    sys.path.insert(0, str(E2E))
    try:
        from run import PINNED_ENV
    finally:
        sys.path[:] = saved
    done = subprocess.run(
        [sys.executable, __file__, workload, "42"],
        env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    pin(f"commit.{workload}.seed42.counters", json.loads(done.stdout))


if __name__ == "__main__":
    sys.path[:0] = [str(E2E), str(ROOT / "src")]
    print(json.dumps(counters(sys.argv[1], int(sys.argv[2]))))
