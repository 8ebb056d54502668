"""One repetition of one workload, in this (fresh) process.

``run.py`` starts this file as a subprocess per repetition, with thread
pools pinned and ``PYTHONHASHSEED`` fixed, and reads the one JSON object it
prints.  Importing ``repro`` is deferred into the timed set-up, so it
counts as set-up; numpy (which the machine-speed kernel needs) and the
first kernel burst come before it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from machine import Pilot  # noqa: E402  (numpy only, nothing under src/)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--untraced-window-s", type=float, default=0.0)
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args()

    setup_pilot = Pilot()
    setup_pilot.burst()
    setup_started = time.perf_counter()
    # Deferred on purpose: importing repro is part of set-up.
    from repetition import run_repetition

    result = run_repetition(
        args.workload, args.seed, bool(args.smoke), bool(args.traced),
        args.spans_out, args.untraced_window_s, setup_started, setup_pilot,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
