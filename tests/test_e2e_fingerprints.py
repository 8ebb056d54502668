"""The five end-to-end workloads' fingerprints at seeds 42 and 7.

Each (workload, seed) pair runs once at smoke size, untraced, through the
benchmark's own launcher (``benchmarks/e2e/run.py::run_rep``): a fresh
``rep.py`` process with the benchmark's pinned environment.  A fresh
process per pair is needed because offer ids come from a process-global
counter, so two runs in one process would hash different ids.
"""

import sys
from pathlib import Path

import pytest

from pins import pin

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
WORKLOADS = (
    "brp_steady", "brp_ingest_heavy", "brp_ledger_churn", "cluster_k2", "parallel_k2"
)


@pytest.fixture(scope="module")
def run_rep():
    saved = sys.path[:]  # run.py puts its own directory first on the path
    sys.path.insert(0, str(E2E))
    try:
        from run import run_rep
    finally:
        sys.path[:] = saved
    return run_rep


@pytest.mark.pinned
@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprints(run_rep, workload, seed):
    result = run_rep(workload, seed, smoke=True, traced=False)
    assert result["failed"] == 0
    pin(f"e2e.{workload}.seed{seed}.fingerprint", result["fingerprint_sha256"])
    pin(f"e2e.{workload}.seed{seed}.accepted", result["accepted_sha256"])
