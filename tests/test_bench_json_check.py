"""``benchmarks/check_bench_json.py``: a record must name a test that exists."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_json", ROOT / "benchmarks" / "check_bench_json.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, test):
    payload = {
        "kind": "scheduling",
        "schema_version": 1,
        "scale": 1.0,
        "smoke": False,
        "records": [
            {
                "test": test,
                "name": "plan_window",
                "workload": {"cpu_count": 2, "dirty_fraction": 0.0},
                "metrics": {"passes_per_sec": 1.0},
            }
        ],
    }
    (directory / "BENCH_scheduling.json").write_text(json.dumps(payload))


def test_a_record_naming_a_missing_test_file_is_refused(tmp_path, capsys):
    checker = _checker()
    _write(tmp_path, "scratch/benchmarks/bench_fig6_scheduling.py::test_x")
    assert checker.main([str(tmp_path)]) == 1
    assert "names no file" in capsys.readouterr().out
    # A file that exists, named from outside the repository.
    outside = tmp_path / "benchmarks" / "bench_fig6_scheduling.py"
    outside.parent.mkdir()
    outside.write_text("")
    for test in (f"{outside}::test_x", "../" * 40 + f"{outside}::test_x"):
        _write(tmp_path, test)
        assert checker.main([str(tmp_path)]) == 1
    _write(tmp_path, "benchmarks/bench_fig6_scheduling.py::test_x[row]")
    assert checker.main([str(tmp_path), "scheduling.plan"]) == 0


def test_the_committed_records_pass():
    assert _checker().main([str(ROOT / "benchmarks")]) == 0
