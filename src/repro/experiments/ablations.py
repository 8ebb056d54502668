"""Research-direction studies the paper names but does not evaluate.

* **start-time flexibility vs. scheduling difficulty** (§6: "the complexity
  of the search space heavily depends also on the start time flexibilities
  of the included flex-offers. As this influence was not researched in
  detail yet, it shall be explored in the future") —
  :func:`run_flexibility_influence` sweeps the offers' time flexibility and
  measures solution-space size and solver outcomes at a fixed budget;
* **hybridised scheduling** (§6: "hybridizing the existing [algorithms]") —
  :func:`run_hybrid_scheduling` compares the pure EA against the EA seeded
  with one greedy pass;
* **price-aware aggregation** (§4: flexibility types "e.g., price") —
  :func:`run_price_grouping` shows the compression cost of refusing to mix
  differently-priced offers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..aggregation import AggregationParameters, aggregate_from_scratch
from ..core.flexoffer import flex_offer
from ..core.timeseries import TimeSeries
from ..datagen import paper_dataset
from ..scheduling import (
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
    count_start_combinations,
)
from .evolutionary import EvolutionaryScheduler
from .reporting import print_table

__all__ = [
    "FlexibilityInfluencePoint",
    "run_flexibility_influence",
    "run_hybrid_scheduling",
    "run_price_grouping",
]


# ----------------------------------------------------------------------
# §6 research direction: start-time flexibility vs. search difficulty
# ----------------------------------------------------------------------
@dataclass
class FlexibilityInfluencePoint:
    """Solver outcomes for one time-flexibility level."""

    time_flexibility: int
    solution_space: int
    greedy_cost: float
    ea_cost: float
    best_cost: float


def _tf_scenario(n_offers: int, time_flex: int, seed: int) -> SchedulingProblem:
    rng = np.random.default_rng(seed)
    horizon = 96
    t = np.arange(horizon)
    net = (
        40.0
        + 25.0 * np.sin(2 * np.pi * (t - 60) / horizon)
        - 70.0 * np.exp(-0.5 * ((t - 48) / 10.0) ** 2)
    )
    market = Market(
        np.full(horizon, 0.20), np.full(horizon, 0.05),
        max_sell=np.full(horizon, 5.0),
    )
    offers = []
    for _ in range(n_offers):
        duration = int(rng.integers(2, 6))
        earliest = int(rng.integers(0, horizon - time_flex - duration))
        lo = float(rng.uniform(0.5, 2.0))
        offers.append(
            flex_offer(
                [(lo, lo + 1.0)] * duration,
                earliest_start=earliest,
                latest_start=earliest + time_flex,
                unit_price=0.02,
            )
        )
    return SchedulingProblem(TimeSeries(0, net), tuple(offers), market)


def run_flexibility_influence(
    *,
    n_offers: int = 40,
    flexibilities: list[int] | None = None,
    budget_seconds: float = 1.0,
    seed: int = 9,
    verbose: bool = True,
) -> list[FlexibilityInfluencePoint]:
    """Sweep the offers' time flexibility at fixed offer count and budget.

    More flexibility blows up the search space exponentially, yet gives the
    solvers more room: achievable cost *falls* with flexibility even though
    the space grows — flexibility is worth its search cost.
    """
    flexibilities = flexibilities if flexibilities is not None else [0, 4, 12, 24, 48]
    points: list[FlexibilityInfluencePoint] = []
    for tf in flexibilities:
        problem = _tf_scenario(n_offers, tf, seed)
        greedy = RandomizedGreedyScheduler().schedule(
            problem, budget_seconds=budget_seconds, rng=np.random.default_rng(1)
        )
        ea = EvolutionaryScheduler().schedule(
            problem, budget_seconds=budget_seconds, rng=np.random.default_rng(1)
        )
        points.append(
            FlexibilityInfluencePoint(
                time_flexibility=tf,
                solution_space=count_start_combinations(problem),
                greedy_cost=greedy.cost,
                ea_cost=ea.cost,
                best_cost=min(greedy.cost, ea.cost),
            )
        )
    if verbose:
        print_table(
            "§6 research direction: start-time flexibility vs scheduling",
            ["time_flex", "solution_space", "greedy_cost", "ea_cost", "best_cost"],
            [[p.time_flexibility, p.solution_space, p.greedy_cost, p.ea_cost,
              p.best_cost] for p in points],
        )
    return points


# ----------------------------------------------------------------------
# §6 research direction: hybridising EA with greedy search
# ----------------------------------------------------------------------
def run_hybrid_scheduling(
    *,
    n_offers: int = 300,
    budget_seconds: float = 2.0,
    seed: int = 2,
    verbose: bool = True,
) -> dict[str, float]:
    """Pure EA vs. EA seeded with one greedy pass, same budget."""
    from .fig6 import intraday_scenario

    problem = intraday_scenario(n_offers, seed=seed)
    pure = EvolutionaryScheduler().schedule(
        problem, budget_seconds=budget_seconds, rng=np.random.default_rng(seed)
    )
    hybrid = EvolutionaryScheduler(seed_with_greedy_pass=True).schedule(
        problem, budget_seconds=budget_seconds, rng=np.random.default_rng(seed)
    )
    greedy = RandomizedGreedyScheduler().schedule(
        problem, budget_seconds=budget_seconds, rng=np.random.default_rng(seed)
    )
    costs = {
        "pure-ea": pure.cost,
        "hybrid-ea": hybrid.cost,
        "greedy": greedy.cost,
    }
    if verbose:
        print_table(
            "§6 research direction: hybrid EA (greedy-seeded)",
            ["algorithm", "cost_eur"],
            [[name, cost] for name, cost in costs.items()],
        )
    return costs


# ----------------------------------------------------------------------
# §4 research direction: price-aware grouping
# ----------------------------------------------------------------------
def run_price_grouping(
    *,
    n_offers: int = 20_000,
    seed: int = 4,
    verbose: bool = True,
) -> dict[str, int]:
    """Compression with and without a price-compatibility constraint.

    Offers get one of a few tariff levels; refusing to mix tariffs inside an
    aggregate (``unit_price_tolerance=0``) multiplies the aggregate count by
    roughly the number of tariff levels — the price of keeping aggregates
    priceable.
    """
    rng = np.random.default_rng(seed)
    tariffs = (0.01, 0.02, 0.05)
    offers = [
        flex_offer(
            [(o.profile[k].min_energy, o.profile[k].max_energy)
             for k in range(o.duration)],
            earliest_start=o.earliest_start,
            latest_start=o.latest_start,
            unit_price=float(rng.choice(tariffs)),
        )
        for o in paper_dataset(n_offers, seed=seed)
    ]
    base = AggregationParameters(16, 16, name="price-blind")
    priced = AggregationParameters(
        16, 16, unit_price_tolerance=0.0, name="price-exact"
    )
    counts = {
        params.name: len(aggregate_from_scratch(offers, params))
        for params in (base, priced)
    }
    if verbose:
        print_table(
            "§4 research direction: price-aware grouping",
            ["grouping", "aggregates"],
            [[name, count] for name, count in counts.items()],
        )
    return counts
