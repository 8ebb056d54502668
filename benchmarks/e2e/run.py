"""LEDMS end-to-end benchmark: one command, five workloads, every metric.

Two ways in, one implementation:

* the suite (``python benchmarks/e2e/run.py --seed 42 --out DIR``) runs
  the selected workloads, prints every end-to-end and per-layer metric by
  name with its unit, writes ``DIR/result.json`` (and, traced, the raw
  ``DIR/<workload>.spans.json``) and exits non-zero if an output check
  fails;
* the driver contract (``--workload NAME --seed N --seconds S --trace
  0|1``) runs one workload and prints one JSON object as its last line.

Each repetition is a fresh ``rep.py`` subprocess with thread pools pinned.
See README.md for the load model and the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

#: Environment of every repetition: single-threaded numeric libraries and
#: a fixed hash seed, so set iteration order cannot differ between runs.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
MIN_REPS = 3
REP_TIMEOUT_S = 170


class CheckFailure(Exception):
    """An output check was violated (or a repetition crashed)."""


def run_rep(
    workload: str,
    seed: int,
    smoke: bool,
    traced: bool,
    untraced_window_s: float = 0.0,
    spans_out: Path | None = None,
) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--smoke", str(int(smoke)),
        "--traced", str(int(traced)),
        "--untraced-window-s", repr(untraced_window_s),
    ]
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    done = subprocess.run(
        command,
        env={**os.environ, **PINNED_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=REP_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise CheckFailure(f"{workload}: repetition exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def summarise_end_to_end(reps: list[dict]) -> dict[str, dict[str, Any]]:
    names = list(reps[0]["end_to_end"])
    summary = {}
    for name in names:
        values = [rep["end_to_end"][name] for rep in reps]
        summary[name] = {
            "median": _median(values),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "values": values,
        }
    return summary


def summarise_per_layer(reps: list[dict]) -> dict[str, dict[str, Any]]:
    """Median over traced repetitions; ``null`` (+ reason) stays ``null``."""
    summary = {}
    for name, first in reps[0]["per_layer"].items():
        values = [rep["per_layer"][name]["value"] for rep in reps]
        entry = dict(first)
        if all(v is not None for v in values):
            entry["value"] = _median(values)
        summary[name] = entry
    return summary


def violations_of(workload: str, reps: list[dict]) -> list[str]:
    """Every repetition's violations, plus: same seed, same code, so sim
    behaviour must not differ between repetitions."""
    found = [f"{workload}: {v}" for rep in reps for v in rep["violations"]]
    for key in ("fingerprint_sha256", "accepted_sha256"):
        if len({rep[key] for rep in reps}) != 1:
            found.append(f"{workload}: {key} differs between repetitions")
    return found


def parity_violations(results: dict[str, dict]) -> list[str]:
    """parallel_k2 replays cluster_k2's streams: same per-BRP accepted ids."""
    pair = [results.get(name) for name in ("cluster_k2", "parallel_k2")]
    if all(pair) and pair[0]["accepted_sha256"] != pair[1]["accepted_sha256"]:
        return ["parallel_k2 accepted a different offer set than cluster_k2"]
    return []


def measure(
    workload: str,
    seed: int,
    smoke: bool,
    *,
    untraced_reps: int,
    traced_reps: int,
    out_dir: Path | None = None,
) -> dict[str, Any]:
    """Fresh-process repetitions of one workload: untraced, then traced.

    End-to-end metrics come from the untraced repetitions only; the last
    of them is also the base of the traced run's overhead figure.  With no
    untraced repetition at all (``--smoke``) the traced one stands in and
    the overhead figure reads ``null``.
    """
    reps = [
        run_rep(workload, seed, smoke, traced=False)
        for _ in range(untraced_reps)
    ]
    traced = [
        run_rep(
            workload, seed, smoke, traced=True,
            untraced_window_s=reps[-1]["window_s"] if reps else 0.0,
            spans_out=(
                out_dir / f"{workload}.spans.json"
                if out_dir is not None and index == 0
                else None
            ),
        )
        for index in range(traced_reps)
    ]
    violations = violations_of(workload, reps + traced)
    reps = reps or traced
    last = reps[-1]
    result: dict[str, Any] = {
        "end_to_end": summarise_end_to_end(reps),
        "samples": last["samples"],
        "repetitions": {
            key: [rep[key] for rep in reps]
            for key in ("window_s", "window_raw_s", "machine_speed")
        },
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "violations": violations,
        "fingerprint_sha256": last["fingerprint_sha256"],
        "accepted_sha256": last["accepted_sha256"],
    }
    if traced:
        result["per_layer"] = summarise_per_layer(traced)
        result["unavailable_spans"] = traced[0]["unavailable_spans"]
    return result


# ----------------------------------------------------------------------
def load_benchmark_json() -> dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def untraced_repetitions(reps: int | None, seconds: float | None) -> int:
    """How many untraced repetitions a run makes of each workload.

    ``--reps`` says so outright.  Otherwise ``MIN_REPS``, which is sized
    for ``run_seconds`` of ``BENCHMARK.json``; a longer ``--seconds`` raises
    it in proportion.
    """
    if reps is not None:
        return reps
    if seconds is None:
        return MIN_REPS
    nominal = load_benchmark_json()["run_seconds"]
    return max(MIN_REPS, round(MIN_REPS * seconds / nominal))


def contract_line(spec: dict, result: dict, trace: bool) -> str:
    """The driver's one-line result: exactly the metrics BENCHMARK.json names.

    The contract wants a number under every name.  A per-layer metric the
    harness cannot give on this workload (its layer runs inside forked
    workers, or a wrap-point stopped resolving) has none: it is named with
    its reason on stderr and carried as 0 in the line, which therefore
    means "no reading", not "no cost", for the names the note lists.  The
    suite output and ``result.json`` keep the ``null``.
    """
    metrics = {}
    if trace:
        values = {n: row["value"] for n, row in result["per_layer"].items()}
        for name in ("failed_fraction", "commit_wall_ms_p95"):
            values[name] = result["end_to_end"][name]["median"]
        for entry in spec["per_layer"]:
            value = values[entry["name"]]
            if value is None:
                reason = result["per_layer"][entry["name"]]["reason"]
                print(f"note: {entry['name']} has no reading: {reason}", file=sys.stderr)
                value = 0.0
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {
                "value": result["end_to_end"][entry["name"]]["median"],
                "unit": entry["unit"],
            }
    return json.dumps(
        {
            "correct": not result["violations"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def host_record() -> dict[str, Any]:
    import numpy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
    }


def print_suite(name: str, result: dict, units: dict[str, str]) -> None:
    print(f"\n== {name} ==")
    if result["end_to_end"]:
        print(f"  {'end-to-end metric':34} {'unit':9} {'median':>14} {'min':>14} {'max':>14}  n")
    for metric, row in result["end_to_end"].items():
        print(
            f"  {metric:34} {units[metric]:9} {row['median']:14.6g} "
            f"{row['min']:14.6g} {row['max']:14.6g}  {row['n']}"
        )
    print(
        f"  attempted={result['attempted']} failed={result['failed']} "
        f"fingerprint_sha256={result['fingerprint_sha256'][:16]}..."
    )
    if "per_layer" not in result:
        return
    print(f"  {'per-layer metric':34} {'unit':9} {'value':>14}  source")
    for metric, row in result["per_layer"].items():
        if row["value"] is None:
            print(f"  {metric:34} {row['unit']:9} {'null':>14}  ({row['reason']})")
        else:
            print(f"  {metric:34} {row['unit']:9} {row['value']:14.6g}  {row['source']}")
    unattributed = result["per_layer"]["harness.unattributed_fraction"]["value"]
    if unattributed is not None and unattributed > 0.10:
        print(f"  WARNING: unattributed_fraction {unattributed:.3f} > 0.10")
    for span, reason in result.get("unavailable_spans", {}).items():
        print(f"  note: span {span} unavailable: {reason}")


def main(argv: list[str] | None = None) -> int:
    try:
        from catalog import END_TO_END, EXTRA_END_TO_END
        from workloads import WORKLOADS
    except ModuleNotFoundError as missing:
        print(
            f"{missing}: run from a checkout that has src/ (and numpy)",
            file=sys.stderr,
        )
        return 2

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--reps", type=int, default=None,
                        help=f"untraced repetitions per workload (default {MIN_REPS})")
    parser.add_argument("--traced", action="store_true",
                        help="suite: only the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="~1/20 size, one traced repetition per workload")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="window seconds to measure: scales the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver contract: 0 end-to-end, 1 per-layer; prints one JSON line")
    args = parser.parse_args(argv)

    names = args.workload or list(WORKLOADS)
    try:
        if args.trace is not None:
            if len(names) != 1:
                parser.error("the driver contract runs exactly one --workload")
            spec = load_benchmark_json()
            result = measure(
                names[0], args.seed, args.smoke,
                untraced_reps=(
                    1 if args.trace
                    else untraced_repetitions(args.reps, args.seconds)
                ),
                traced_reps=2 if args.trace else 0,
            )
            print(contract_line(spec, result, bool(args.trace)))
            if result["violations"]:
                raise CheckFailure("; ".join(result["violations"][:5]))
            return 0

        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
        units = {m.name: m.unit for m in END_TO_END + EXTRA_END_TO_END}
        record: dict[str, Any] = {
            "host": host_record(),
            "seed": args.seed,
            "smoke": args.smoke,
            "workloads": {},
        }
        violations = []
        for name in names:
            result = measure(
                name, args.seed, args.smoke,
                untraced_reps=(
                    0 if args.smoke else 1 if args.traced
                    else untraced_repetitions(args.reps, args.seconds)
                ),
                traced_reps=1,
                out_dir=args.out,
            )
            result["why"] = WORKLOADS[name].why
            record["workloads"][name] = result
            violations += result["violations"]
            print_suite(name, result, units)
        violations += parity_violations(record["workloads"])
        if args.out is not None:
            (args.out / "result.json").write_text(json.dumps(record, indent=1))
            print(f"\nwrote {args.out / 'result.json'}")
        if violations:
            raise CheckFailure("; ".join(violations[:5]))
        return 0
    except CheckFailure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
