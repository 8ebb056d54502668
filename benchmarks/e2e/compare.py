"""Compare two suite results of one seed: ``compare.py A.json B.json`` (A is the base).

For every (workload, end-to-end metric) pair present in both files it
prints A's and B's median with the ratio's base, and one verdict:

* ``improved``   — B better than A by more than the bound;
* ``regressed``  — B worse than A by more than the bound;
* ``unchanged``  — within the bound;
* ``unresolved`` — either side's own spread (max - min over its
  repetitions, as a share of its median) is wider than the bound *and* the
  two sides' ranges overlap, so the runs cannot tell.

Bounds are ``BENCHMARK.json``'s, with two additions.  ``EXTRA_BOUNDS``
carries those of the metrics it files under ``per_layer``, and the issue's
absolute floor for ``setup_s``.  And both files
must have run the same seed, so the inputs are identical and the sim-time
metrics exact: those are held to ``SAME_SEED_BOUND`` in place of
``BENCHMARK.json``'s bound, which the driver applies to medians over
*different* seeds and which therefore has to cover their seed-to-seed
spread (README, "Bounds").  The wall-clock bounds stay as they are: two
runs of one commit and seed differ by up to 16 % on this box (README).
Exit status is 1 if anything regressed, 2 if the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

#: ``(bound, absolute?, better)`` for the end-to-end metrics
#: ``BENCHMARK.json`` does not gate (see ``catalog.EXTRA_END_TO_END``), and
#: for ``setup_s``: the issue's max(20 %, 0.5 s), of which 0.5 s is the
#: larger on every workload but one (and single repetitions of a set-up
#: this short differ by more than a quarter).
EXTRA_BOUNDS = {
    "setup_s": (0.5, True, "lower"),
    "failed_fraction": (0.001, True, "lower"),
    "commit_wall_ms_p95": (0.25, False, "lower"),
    "recovery_s": (0.25, False, "lower"),
}

#: Exact for a seed: identical between two runs of the same code.
DETERMINISTIC = (
    "commit_latency_slices_p50", "commit_latency_slices_p95", "plan_cost_eur_mean",
)
SAME_SEED_BOUND = 0.01


def load_bounds() -> dict[str, tuple[float, bool, str]]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {
        m["name"]: (m["bound"], False, m["better"]) for m in spec["end_to_end"]
    }
    bounds.update(EXTRA_BOUNDS)
    for name in DETERMINISTIC:
        bounds[name] = (SAME_SEED_BOUND, False, bounds[name][2])
    return bounds


def verdict(a: dict, b: dict, bound: float, absolute: bool, better: str) -> tuple[str, float]:
    """The verdict and by how much B is worse than A (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"])
    if not absolute:
        worse_by = worse_by / abs(a["median"]) if a["median"] else 0.0

    def spread(side: dict) -> float:
        width = side["max"] - side["min"]
        return width if absolute else (width / abs(side["median"]) if side["median"] else 0.0)

    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if max(spread(a), spread(b)) > bound and overlap:
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "unchanged", worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    if base["smoke"] or change["smoke"] or base["seed"] != change["seed"]:
        print("compare two full-size results of the same seed", file=sys.stderr)
        return 2
    bounds = load_bounds()
    counts: dict[str, int] = {}
    for workload, a_result in base["workloads"].items():
        b_result = change["workloads"].get(workload)
        if b_result is None:
            continue
        print(f"\n== {workload} ==")
        same = a_result["fingerprint_sha256"] == b_result["fingerprint_sha256"]
        print(f"  fingerprint_sha256 {'identical' if same else 'DIFFERS'}")
        for name, a in a_result["end_to_end"].items():
            b = b_result["end_to_end"].get(name)
            if b is None:
                continue
            bound, absolute, better = bounds[name]
            word, worse_by = verdict(a, b, bound, absolute, better)
            counts[word] = counts.get(word, 0) + 1
            change_text = (
                f"{worse_by:+.4g} abs" if absolute else f"{100 * worse_by:+.2f}%"
            )
            print(
                f"  {word:10} {name:28} B {b['median']:.6g} vs A {a['median']:.6g} "
                f"(worse by {change_text} of A, bound "
                f"{bound if absolute else f'{100 * bound:.0f}%'}, "
                f"A [{a['min']:.6g}, {a['max']:.6g}] n={a['n']}, "
                f"B [{b['min']:.6g}, {b['max']:.6g}] n={b['n']})"
            )
    print("\n" + ", ".join(f"{n} {w}" for w, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
