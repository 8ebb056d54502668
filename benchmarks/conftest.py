"""Shared benchmark configuration.

Every benchmark regenerates one of the paper's figures/tables via the
harnesses in :mod:`repro.experiments` and prints the same rows the paper
plots.  Experiments are full end-to-end runs, so each executes exactly once
(``pedantic`` with one round) — we are measuring the experiment, not
micro-timing a function.

Scale with ``REPRO_SCALE`` (e.g. ``REPRO_SCALE=8`` runs the aggregation
experiment at the paper's 800 000-offer scale).  ``REPRO_BENCH_SMOKE=1``
shrinks workloads to seconds and disables timing-threshold assertions (the
CI smoke job uses it; the emitted JSON keeps its schema either way).

Benchmark-trajectory harness: run with ``--json DIR`` to emit
machine-readable ``BENCH_<kind>.json`` files (ops/sec, latency percentiles,
cost-at-budget) next to the human tables, so perf PRs carry a recorded
before/after trajectory.  Benchmarks feed it through the ``bench_record``
fixture; ``benchmarks/check_bench_json.py`` validates the schema.
"""

import json
import math
import os
import pathlib

import pytest

BENCH_SCHEMA_VERSION = 1

_RECORDS: dict[str, list[dict]] = {}


def smoke_mode() -> bool:
    """True when workloads should shrink to CI-smoke sizes."""
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def pytest_addoption(parser):
    parser.addoption(
        "--json",
        action="store",
        default=None,
        metavar="DIR",
        help="emit machine-readable BENCH_<kind>.json files into DIR",
    )


def pytest_terminal_summary(terminalreporter):
    """Replay every experiment table after the benchmark summary.

    pytest captures stdout per test; this hook makes the figure rows land in
    ``bench_output.txt`` next to the timing table.
    """
    from repro.experiments.reporting import session_tables

    tables = session_tables()
    if not tables:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("Reproduced figure/table rows")
    terminalreporter.write_line("=" * 70)
    for text in tables:
        terminalreporter.write_line("")
        terminalreporter.write_line(text)


def pytest_sessionfinish(session):
    """Write one BENCH_<kind>.json per recorded kind when --json is set."""
    directory = session.config.getoption("--json")
    if directory is None or not _RECORDS:
        return
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    from repro.experiments import scale_factor

    for kind, records in sorted(_RECORDS.items()):
        payload = {
            "kind": kind,
            "schema_version": BENCH_SCHEMA_VERSION,
            "scale": scale_factor(),
            "smoke": smoke_mode(),
            "records": records,
        }
        path = out / f"BENCH_{kind}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture
def bench_record(request):
    """Append one named metrics record to a BENCH_<kind>.json trajectory.

    Usage: ``bench_record("scheduling", name="greedy_kernel", workload={...},
    metrics={...})``.  Records accumulate per session and are flushed by
    ``pytest_sessionfinish`` when ``--json`` is given; without the flag the
    call is a cheap no-op append, so benchmarks always record.
    """

    def record(kind: str, *, name: str, workload: dict, metrics: dict) -> None:
        clean = {
            key: (float(value) if math.isfinite(value) else None)
            for key, value in metrics.items()
        }
        _RECORDS.setdefault(kind, []).append(
            {
                "test": request.node.nodeid,
                "name": name,
                "workload": workload,
                "metrics": clean,
            }
        )

    return record
