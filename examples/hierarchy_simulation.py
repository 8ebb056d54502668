#!/usr/bin/env python3
"""The 3-level EDMS hierarchy with TSO-level scheduling and failure injection.

Compares three ways of running the same planning day on the streaming
runtime:

* BRP-local scheduling (level 2), the default;
* TSO-level scheduling (level 3): BRPs forward macro flex-offers upward, the
  TSO re-aggregates, schedules system-wide and the schedules cascade back
  down through two disaggregation steps;
* BRP-local scheduling under a partial network outage — unreachable
  prosumers simply fall back to the open contract (graceful degradation).

Run:  python examples/hierarchy_simulation.py
"""

from repro.experiments import run_balancing
from repro.experiments.balancing import ScenarioConfig


def main() -> None:
    base = dict(seed=3, n_brps=2, prosumers_per_brp=20)
    down = frozenset({"prosumer-0-0", "prosumer-0-1", "prosumer-1-5"})
    for label, overrides in [
        ("BRP-local scheduling", {}),
        ("TSO-level scheduling", {"use_tso": True}),
        ("BRP-local + 3 nodes down", {"unreachable_prosumers": down}),
    ]:
        config = ScenarioConfig(**base, **overrides)
        report = run_balancing(config=config, verbose=False)
        print(
            f"{label:<28} peak {report.peak_demand_before:6.1f} -> "
            f"{report.peak_demand_after:6.1f}  "
            f"imbalance {report.imbalance_before:7.0f} -> {report.imbalance_after:7.0f}  "
            f"scheduled {report.offers_scheduled:>2}/{report.offers_submitted}"
        )
    print(
        f"  outage: {report.schedules_undelivered} schedules never arrived; the "
        f"affected prosumers fell back to the open contract, the rest were "
        f"scheduled."
    )


if __name__ == "__main__":
    main()
