"""The §6 optimality anecdote, at the paper's size.

The paper: "In a preliminary experiment with 10 flex-offers without energy
constraints it took almost three hours to explore all (almost 850 million)
sensible solutions and find the optimal schedule."  This harness builds
such an instance (10 offers by default), takes its optimum from the exact
MILP oracle instead of enumerating the start-time space, and measures how
close (and how fast) the two metaheuristics get.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.flexoffer import flex_offer
from ..core.timeseries import TimeSeries
from ..scheduling import (
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
    count_start_combinations,
)
from ..scheduling.milp import MilpScheduler
from .evolutionary import EvolutionaryScheduler
from .reporting import print_table

__all__ = ["OptimalityResult", "run_exhaustive"]


def _no_energy_flex_scenario(
    n_offers: int, time_flex: int, seed: int
) -> SchedulingProblem:
    """Offers with start-time flexibility only, as in the paper's anecdote."""
    rng = np.random.default_rng(seed)
    horizon = 96
    t = np.arange(horizon)
    net = (
        40.0
        + 25.0 * np.sin(2 * np.pi * (t - 60) / horizon)
        - 70.0 * np.exp(-0.5 * ((t - 48) / 10.0) ** 2)
    )
    market = Market(
        np.full(horizon, 0.20),
        np.full(horizon, 0.05),
        max_sell=np.full(horizon, 5.0),
    )
    offers = []
    for _ in range(n_offers):
        earliest = int(rng.integers(0, horizon - time_flex - 4))
        energy = float(rng.uniform(1.0, 3.0))
        duration = int(rng.integers(2, 5))
        offers.append(
            flex_offer(
                [(energy, energy)] * duration,
                earliest_start=earliest,
                latest_start=earliest + time_flex,
            )
        )
    return SchedulingProblem(TimeSeries(0, net), tuple(offers), market)


@dataclass
class OptimalityResult:
    """Optimum vs metaheuristics on one instance of the §6 anecdote."""

    n_offers: int
    solution_count: int
    status: str  # the oracle's: ``optimal``, or ``time_limit`` (unproven)
    optimum_seconds: float
    optimal_cost: float
    greedy_cost: float
    greedy_seconds: float
    ea_cost: float
    ea_seconds: float

    @property
    def greedy_gap(self) -> float:
        """Relative optimality gap of greedy search."""
        return _gap(self.greedy_cost, self.optimal_cost)

    @property
    def ea_gap(self) -> float:
        """Relative optimality gap of the evolutionary algorithm."""
        return _gap(self.ea_cost, self.optimal_cost)


def _gap(cost: float, optimum: float) -> float:
    scale = max(abs(optimum), 1e-9)
    return (cost - optimum) / scale


def run_exhaustive(
    *,
    n_offers: int = 10,
    time_flex: int = 8,
    seed: int = 5,
    metaheuristic_seconds: float = 1.0,
    verbose: bool = True,
) -> OptimalityResult:
    """Solve one instance exactly and benchmark the heuristics against it."""
    problem = _no_energy_flex_scenario(n_offers, time_flex, seed)
    optimum = MilpScheduler().schedule(problem)

    greedy = RandomizedGreedyScheduler().schedule(
        problem, budget_seconds=metaheuristic_seconds, rng=np.random.default_rng(1)
    )
    ea = EvolutionaryScheduler().schedule(
        problem, budget_seconds=metaheuristic_seconds, rng=np.random.default_rng(1)
    )

    result = OptimalityResult(
        n_offers=n_offers,
        solution_count=count_start_combinations(problem),
        status=optimum.status,
        optimum_seconds=optimum.elapsed_seconds,
        optimal_cost=optimum.cost,
        greedy_cost=greedy.cost,
        greedy_seconds=greedy.elapsed_seconds,
        ea_cost=ea.cost,
        ea_seconds=ea.elapsed_seconds,
    )
    if verbose:
        print_table(
            "§6 optimum vs metaheuristics (no energy flexibility)",
            ["method", "cost_eur", "time_s", "gap"],
            [
                ["exact (milp)", result.optimal_cost, result.optimum_seconds, 0.0],
                ["greedy-search", result.greedy_cost, result.greedy_seconds,
                 result.greedy_gap],
                ["evolutionary", result.ea_cost, result.ea_seconds, result.ea_gap],
            ],
        )
        print(
            f"solution space: {result.solution_count:,} start combinations "
            f"for {n_offers} flex-offers (paper: ~850M for 10 offers); "
            f"oracle status: {result.status}"
        )
    return result
