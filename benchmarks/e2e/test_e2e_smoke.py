"""Tier-1 guard: the end-to-end benchmark still runs against the public API.

Runs all five workloads at ~1/20 size (``run.py --smoke``: one traced
repetition each) and checks the result against ``BENCHMARK.json``, so an
API change that breaks the benchmark fails the tests instead of silently
rotting it.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-smoke")
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((out / "result.json").read_text()), done.stdout


def test_every_benchmark_json_name_is_emitted(smoke):
    record, stdout = smoke
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in record["workloads"].items():
        emitted = {**result["per_layer"]}
        for metric, row in result["end_to_end"].items():
            emitted[metric] = {"value": row["median"]}
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            metric = entry["name"]
            assert NAME.match(metric), metric
            assert metric in emitted, f"{name}: {metric} not emitted"
            assert metric in stdout
            value = emitted[metric]["value"]
            if value is None:
                assert emitted[metric]["reason"], f"{name}: {metric} null without reason"
            else:
                assert math.isfinite(value), f"{name}: {metric} = {value}"


def test_catalogue_matches_benchmark_json():
    sys.path.insert(0, str(HERE))
    try:
        from catalog import END_TO_END, FILED_PER_LAYER, PER_LAYER
    finally:
        sys.path.remove(str(HERE))

    def rows(metrics):
        return [(m.name, m.unit, m.better) for m in metrics]

    def spec_rows(entries):
        return [(e["name"], e["unit"], e["better"]) for e in entries]

    assert rows(END_TO_END) == spec_rows(SPEC["end_to_end"])
    assert rows(FILED_PER_LAYER + PER_LAYER) == spec_rows(SPEC["per_layer"])


def test_checks_pass_and_window_is_attributed(smoke):
    record, _ = smoke
    for name, result in record["workloads"].items():
        assert result["violations"] == [], name
        assert result["failed"] == 0, name
        assert result["attempted"] > 0, name
        # omitted where it does not apply, not zero-filled
        assert ("recovery_s" in result["end_to_end"]) == (name == "brp_ledger_churn")
        assert len(result["fingerprint_sha256"]) == 64
        unattributed = result["per_layer"]["harness.unattributed_fraction"]
        assert unattributed["value"] is not None, name
        assert 0.0 <= unattributed["value"] < 1.0, name


def test_layers_do_work_only_where_they_exist(smoke):
    record, _ = smoke
    for name, result in record["workloads"].items():
        layers = result["per_layer"]
        if name != "brp_ledger_churn":
            for metric, row in layers.items():
                if metric.startswith("ledger."):
                    assert row["value"] == 0, f"{name}: {metric} = {row['value']}"
        if name != "parallel_k2":
            for metric, row in layers.items():
                if metric.startswith(("parallel.", "shm.")):
                    assert not row["value"], f"{name}: {metric} = {row['value']}"
    assert record["workloads"]["brp_ledger_churn"]["per_layer"]["ledger.appends"]["value"] > 0
    assert record["workloads"]["parallel_k2"]["per_layer"]["shm.segments"]["value"] > 0
    assert (
        record["workloads"]["parallel_k2"]["accepted_sha256"]
        == record["workloads"]["cluster_k2"]["accepted_sha256"]
    )
