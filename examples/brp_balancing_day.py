#!/usr/bin/env python3
"""A BRP's balancing day — the paper's Figure 1, end to end.

Runs one planning day of the 3-level hierarchy (prosumer households with
EVs, washing machines, solar panels and CHPs under two BRPs with wind
supply) on the streaming runtime, then renders the report's before/after
demand as ASCII art: flexible demand moves into the wind-production window,
peaks shrink.

Run:  python examples/brp_balancing_day.py
"""

import numpy as np

from repro.experiments import run_balancing
from repro.experiments.balancing import ScenarioConfig


def ascii_profile(label: str, values: np.ndarray, width: int = 72, height: float | None = None) -> None:
    """Tiny ASCII chart: one bar per bucket of slices."""
    buckets = np.array_split(values, width)
    means = np.array([b.mean() for b in buckets])
    top = height if height is not None else means.max()
    print(f"\n{label} (peak {values.max():.1f} kWh/slice)")
    for level in (0.75, 0.5, 0.25):
        line = "".join("#" if m >= level * top else " " for m in means)
        print(f"  {level * top:6.1f} |{line}")
    print("         +" + "-" * width)


def main() -> None:
    config = ScenarioConfig(seed=3, n_brps=2, prosumers_per_brp=20)

    # the report (printed table) and the Figure-1 picture behind it
    report = run_balancing(config=config)
    before, after, wind = report.demand_before, report.demand_after, report.wind

    top = max(before.max(), after.max(), wind.max())
    ascii_profile("wind production", wind, height=top)
    ascii_profile("demand BEFORE scheduling (open contract)", before, height=top)
    ascii_profile("demand AFTER scheduling (flex shifted into wind)", after, height=top)

    print(
        f"\npeak reduction {report.peak_reduction:.1%}, "
        f"imbalance reduction {report.imbalance_reduction:.1%}, "
        f"RES utilisation {report.res_utilization_before:.2f} -> "
        f"{report.res_utilization_after:.2f}"
    )


if __name__ == "__main__":
    main()
