"""Validate the schema of emitted BENCH_*.json trajectory files.

Usage: ``python benchmarks/check_bench_json.py DIR [expected ...]``

Each ``expected`` argument is either a bare kind (``runtime`` — the file
``BENCH_runtime.json`` must exist) or ``kind.family`` (``runtime.cluster``
— that kind must also contain at least one record whose name is ``family``
or starts with ``family.``, e.g. the multi-node runtime's ``cluster.*``
scaling records).

Some families carry extra structural requirements (``SPECIAL_FAMILIES``):
``runtime.parallel`` selects the process-parallel scaling rows — records
named ``cluster.parallel_k<N>`` — and requires each to declare a numeric
``workers`` field in its workload, so a scaling row can never silently
drop the worker count it was measured at.  ``runtime.delta`` selects the
dirty-set re-planning rows (``delta.*``) and requires numeric
``live_groups`` / ``dirty_fraction`` workload fields for the same reason.
``runtime.store`` selects the LEDMS store rows (``store.*``) and requires a
numeric ``batch`` (rows per store call) and ``cpu_count``: an events/sec
figure means nothing without the batch size it was taken at.
``scheduling.kernel`` selects the placement-kernel rows (``greedy_kernel``)
and requires a numeric ``cpu_count`` and a ``shape`` string: the kernel's
cost is per-call overhead on short micro-offers and element work on the
aggregates the runtime schedules, so a passes/sec figure must say which.
``runtime.ledger`` selects the journal rows (``ledger.*``) and requires a
numeric ``cpu_count`` and a ``source`` string: fsync and append-call counts
describe the code that journaled, so a row must say which tree that was
(the commit's own, or a parent's ``src/`` for a before/after pair).
``scheduling.optimum`` selects the oracle's gap-table rows
(``fig6_optimum``) and requires a ``status`` string and a numeric
``cpu_count``: an optimality gap is measured against a proven optimum only
when the solver says ``optimal``.  ``scheduling.plan`` selects the whole
planning-pass rows (``plan_window*``) and requires a numeric ``cpu_count``
and ``dirty_fraction``: a pass that keeps every placement and one that
re-places every offer differ by an order of magnitude.

Every record's ``test`` must name a file that exists inside the repository
(the part before ``::``, relative to the root; an absolute path or one that
climbs out through ``..`` is refused), so a record taken from a scratch
checkout cannot keep a path nobody can run.

Checks structure only — never timing thresholds — so the CI smoke job can
assert the harness works without becoming a flaky performance gate.  Exits
non-zero (with a message per problem) when a file is malformed or an
expected kind/record family is missing.
"""

from __future__ import annotations

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def _under_repo(test: str) -> bool:
    """Whether ``test``'s file part (before ``::``) is a file inside the
    repository: an absolute path or one that leaves it through ``..`` is
    not, even if the file exists."""
    path = (REPO / test.split("::")[0]).resolve()
    return path.is_relative_to(REPO) and path.is_file()

REQUIRED_TOP_LEVEL = ("kind", "schema_version", "scale", "smoke", "records")
REQUIRED_RECORD = ("test", "name", "workload", "metrics")

#: ``kind.family`` specs whose records live under a different name prefix
#: and carry required workload fields.  ``runtime.parallel`` matches the
#: process-parallel cluster rows ``cluster.parallel_k<N>``; each must say
#: how many worker processes produced it.
SPECIAL_FAMILIES: dict[tuple[str, str], dict] = {
    ("runtime", "parallel"): {
        "name_prefix": "cluster.parallel_k",
        "required_workload": ("workers",),
    },
    # Delta re-planning rows must say what pool they were measured at — a
    # speedup claim without the live-group count and dirty fraction is
    # uninterpretable.
    ("runtime", "delta"): {
        "name_prefix": "delta.",
        "required_workload": ("live_groups", "dirty_fraction"),
    },
    # Store rows must say how many facts each store call carried.
    ("runtime", "store"): {
        "name_prefix": "store.",
        "required_workload": ("batch", "cpu_count"),
    },
    # Journal rows must say whose journaling code they counted.
    ("runtime", "ledger"): {
        "name_prefix": "ledger.",
        "required_workload": ("cpu_count",),
        "required_text": ("source",),
    },
    # Kernel rows must say which offer shape they timed.
    ("scheduling", "kernel"): {
        "name_prefix": "greedy_kernel",
        "required_workload": ("cpu_count",),
        "required_text": ("shape",),
    },
    # Planning-pass rows must say how much of the pool they re-placed.
    ("scheduling", "plan"): {
        "name_prefix": "plan_window",
        "required_workload": ("cpu_count", "dirty_fraction"),
    },
    # Gap-table rows must say whether their optimum is proven.
    ("scheduling", "optimum"): {
        "name_prefix": "fig6_optimum",
        "required_workload": ("cpu_count",),
        "required_text": ("status",),
    },
}


def check_file(
    path: pathlib.Path,
) -> tuple[list[str], str | None, list[dict]]:
    """Validate one file; returns (problems, kind or None, records)."""
    problems: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSON ({exc})"], None, []
    if not isinstance(payload, dict):
        return [f"{path}: top level must be a JSON object"], None, []
    for key in REQUIRED_TOP_LEVEL:
        if key not in payload:
            problems.append(f"{path}: missing top-level key {key!r}")
    if f"BENCH_{payload.get('kind')}.json" != path.name:
        problems.append(f"{path}: kind {payload.get('kind')!r} mismatches filename")
    records = payload.get("records", [])
    if not isinstance(records, list) or not records:
        problems.append(f"{path}: records must be a non-empty list")
        records = []
    for i, record in enumerate(records):
        for key in REQUIRED_RECORD:
            if key not in record:
                problems.append(f"{path}: records[{i}] missing key {key!r}")
        test = record.get("test")
        if isinstance(test, str) and not _under_repo(test):
            problems.append(
                f"{path}: records[{i}] test {test!r} names no file under "
                f"{REPO}"
            )
        metrics = record.get("metrics")
        if isinstance(metrics, dict):
            bad = [
                k
                for k, v in metrics.items()
                if v is not None
                and (not isinstance(v, (int, float)) or isinstance(v, bool))
            ]
            if bad:
                problems.append(
                    f"{path}: records[{i}] non-numeric metrics {bad!r}"
                )
        else:
            problems.append(f"{path}: records[{i}] metrics must be a dict")
    return problems, payload.get("kind"), [r for r in records if isinstance(r, dict)]


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    directory = pathlib.Path(argv[0])
    expected_kinds = {spec for spec in argv[1:] if "." not in spec}
    expected_families = [
        tuple(spec.split(".", 1)) for spec in argv[1:] if "." in spec
    ]
    files = sorted(directory.glob("BENCH_*.json"))
    if not files:
        print(f"no BENCH_*.json files found in {directory}")
        return 1
    problems: list[str] = []
    seen_kinds: set[str] = set()
    records_by_kind: dict[str, list[dict]] = {}
    for path in files:
        file_problems, kind, records = check_file(path)
        problems.extend(file_problems)
        if kind is not None:
            seen_kinds.add(kind)
            records_by_kind.setdefault(kind, []).extend(records)
    for kind in sorted(expected_kinds - seen_kinds):
        problems.append(f"{directory}: expected kind {kind!r} was not emitted")
    for kind, family in expected_families:
        records = records_by_kind.get(kind, [])
        names = {
            record["name"]
            for record in records
            if isinstance(record.get("name"), str)
        }
        special = SPECIAL_FAMILIES.get((kind, family))
        if special is not None:
            prefix = special["name_prefix"]
            matched = [
                record
                for record in records
                if isinstance(record.get("name"), str)
                and record["name"].startswith(prefix)
            ]
            if not matched:
                problems.append(
                    f"{directory}: kind {kind!r} has no {family!r} record "
                    f"(expected a name prefixed by {prefix!r})"
                )
            for record in matched:
                workload = record.get("workload")
                if not isinstance(workload, dict):
                    workload = {}
                for field in special["required_workload"]:
                    value = workload.get(field)
                    if not isinstance(value, (int, float)) or isinstance(
                        value, bool
                    ):
                        problems.append(
                            f"{directory}: record {record['name']!r} "
                            f"workload is missing a numeric {field!r}"
                        )
                for field in special.get("required_text", ()):
                    value = workload.get(field)
                    if not isinstance(value, str) or not value:
                        problems.append(
                            f"{directory}: record {record['name']!r} "
                            f"workload is missing a {field!r} string"
                        )
        elif not any(
            name == family or name.startswith(f"{family}.") for name in names
        ):
            problems.append(
                f"{directory}: kind {kind!r} has no {family!r} record "
                f"(expected a name equal to or prefixed by {family + '.'!r})"
            )
    for problem in problems:
        print(problem)
    if not problems:
        names = ", ".join(p.name for p in files)
        print(f"ok: {names} ({len(files)} file(s)) pass schema checks")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
