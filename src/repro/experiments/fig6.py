"""Figure 6: scheduling cost over time for EA and GS at four problem sizes.

The paper runs both metaheuristics five times on intra-day scenarios with
10 / 100 / 1000 / 10000 aggregated flex-offers and plots averaged cost
against wall-clock time: greedy search converges almost immediately, the
evolutionary algorithm improves more slowly, and "a large number of
flex-offers considerably slows down the convergence of the algorithms".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.flexoffer import FlexOffer, flex_offer
from ..core.timeseries import TimeSeries
from ..scheduling import (
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
)
from .evolutionary import EvolutionaryScheduler
from .reporting import print_table

__all__ = ["intraday_scenario", "Fig6Result", "run_fig6"]


def intraday_scenario(
    n_offers: int,
    *,
    seed: int = 0,
    horizon: int = 96,
    surplus_depth: float = 70.0,
) -> SchedulingProblem:
    """An intra-day BRP scenario with a midday RES surplus.

    Base shortage all day, a deep wind/solar surplus around noon, a limited
    export capacity (so surplus actually hurts), and ``n_offers`` aggregated
    flex-offers with mixed time and energy flexibility.  The net forecast
    and market limits scale with the offer count so per-offer cost stays
    comparable across problem sizes.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(horizon)
    scale = max(1.0, n_offers / 50.0)
    net = scale * (
        40.0
        + 25.0 * np.sin(2 * np.pi * (t - 60) / horizon)
        - surplus_depth * np.exp(-0.5 * ((t - horizon // 2) / 10.0) ** 2)
    )
    market = Market(
        np.full(horizon, 0.20),
        np.full(horizon, 0.05),
        max_buy=np.full(horizon, 1000.0 * scale),
        max_sell=np.full(horizon, 5.0 * scale),
    )
    offers: list[FlexOffer] = []
    for _ in range(n_offers):
        earliest = int(rng.integers(0, int(horizon * 0.6)))
        time_flex = int(rng.integers(0, 25))
        duration = int(rng.integers(2, 8))
        if earliest + time_flex + duration > horizon:
            time_flex = horizon - earliest - duration
        lo = float(rng.uniform(0.5, 2.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        offers.append(
            flex_offer(
                [(lo, hi)] * duration,
                earliest_start=earliest,
                latest_start=earliest + time_flex,
                unit_price=0.02,
            )
        )
    return SchedulingProblem(TimeSeries(0, net), tuple(offers), market)


@dataclass
class Fig6Result:
    """Averaged cost-over-time curves per size and algorithm."""

    sizes: list[int]
    budgets: dict[int, float]
    curves: dict[tuple[int, str], list[tuple[float, float]]] = field(
        default_factory=dict
    )
    final_costs: dict[tuple[int, str], float] = field(default_factory=dict)

    def cost_at(self, size: int, algorithm: str, fraction: float) -> float:
        """Best cost reached within ``fraction`` of the size's budget."""
        t = self.budgets[size] * fraction
        best = float("inf")
        for elapsed, cost in self.curves.get((size, algorithm), []):
            if elapsed > t:
                break
            best = cost
        return best

    def rows(self) -> list[list]:
        out = []
        for size in self.sizes:
            budget = self.budgets[size]
            for fraction in (0.25, 0.5, 1.0):
                row: list = [size, budget * fraction]
                for algorithm in ("greedy-search", "evolutionary-algorithm"):
                    row.append(self.cost_at(size, algorithm, fraction))
                out.append(row)
        return out


def run_fig6(
    *,
    sizes: list[int] | None = None,
    budgets: dict[int, float] | None = None,
    repetitions: int = 2,
    seed: int = 0,
    verbose: bool = True,
) -> Fig6Result:
    """Run both schedulers at every size; averages repeated runs.

    Default budgets follow the paper's proportions (larger instances get
    more time) scaled to seconds instead of minutes.
    """
    sizes = sizes or [10, 100, 1000]
    budgets = budgets or {10: 1.0, 100: 2.0, 1000: 6.0, 10_000: 20.0}
    result = Fig6Result(sizes, budgets)

    algorithms = {
        "greedy-search": RandomizedGreedyScheduler(),
        "evolutionary-algorithm": EvolutionaryScheduler(),
    }
    for size in sizes:
        problem = intraday_scenario(size, seed=seed)
        budget = budgets.get(size, 5.0)
        for name, scheduler in algorithms.items():
            merged: list[tuple[float, float]] = []
            finals = []
            for repetition in range(repetitions):
                run = scheduler.schedule(
                    problem,
                    budget_seconds=budget,
                    rng=np.random.default_rng(seed + repetition + 1),
                )
                merged.extend(run.trace)
                finals.append(run.cost)
            merged.sort()
            # envelope of best-so-far across repetitions ≈ the averaged curve
            envelope: list[tuple[float, float]] = []
            best = float("inf")
            for elapsed, cost in merged:
                if cost < best:
                    best = cost
                    envelope.append((elapsed, best))
            result.curves[(size, name)] = envelope
            result.final_costs[(size, name)] = float(np.mean(finals))

    if verbose:
        print_table(
            "Fig 6: schedule cost (EUR) over time, GS vs EA",
            ["offers", "time_s", "greedy-search", "evolutionary-algorithm"],
            result.rows(),
        )
    return result
