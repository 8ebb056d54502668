"""How steady is the benchmark?  Ten seeds per workload, as the contract asks.

``steadiness.py --out FILE [--seeds 10] [--first-seed 100] [--workload W]``
makes the runs the driver form makes (``run.py --workload W --seed N
--seconds run_seconds --trace 0``), one per seed and workload, and prints,
for every end-to-end metric, the distance between the first and third
quartile of the ten values as a share of their median
(``statistics.quantiles(values, n=4)``) beside the metric's bound in
``BENCHMARK.json`` (``-`` for the ones it does not gate).  It prints the
same spread for the *uncorrected* throughput (accepted offers ÷ the wall
clock's own window seconds), which is what ``machine.py`` is there to
steady, and the wall seconds each run took, which the contract caps.

Exit status is 1 if a gated spread other than ``setup_s``'s exceeds its
bound.  Results of the sets the bounds were sized on are in
``steadiness/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import run

UNCORRECTED = "offers_per_sec_uncorrected"


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = run.load_benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record: dict = {"host": run.host_record(), "workloads": {}}
    too_wide = []
    for name in args.workload or names:
        rows: dict[str, list[float]] = {}
        run_wall_s = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.perf_counter()
            result = run.measure(
                name, seed, False, untraced_reps=run.MIN_REPS, traced_reps=0,
            )
            run_wall_s.append(time.perf_counter() - started)
            for metric, row in result["end_to_end"].items():
                rows.setdefault(metric, []).append(row["median"])
            rows.setdefault(UNCORRECTED, []).append(
                result["samples"]["offers_accepted"]
                / statistics.median(result["repetitions"]["window_raw_s"])
            )
        print(f"\n== {name} ==  run wall s: median "
              f"{statistics.median(run_wall_s):.1f}, max {max(run_wall_s):.1f}")
        summary = {}
        for metric, values in rows.items():
            bound = bounds.get(metric)
            summary[metric] = {
                "values": values,
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
            }
            flag = ""
            if bound is not None and metric != "setup_s" and summary[metric]["spread"] > bound:
                too_wide.append((name, metric))
                flag = "  TOO WIDE"
            print(
                f"  {metric:30} median {summary[metric]['median']:12.6g}  "
                f"spread {summary[metric]['spread']:.4f}  "
                f"bound {'-' if bound is None else bound}{flag}"
            )
        record["workloads"][name] = {"run_wall_s": run_wall_s, "metrics": summary}
    args.out.write_text(json.dumps(record, indent=1))
    print(f"\nwrote {args.out}")
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
