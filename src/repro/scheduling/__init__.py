"""Scheduling of aggregated flex-offers against forecasts and the market
(paper §6).

Public API::

    from repro.scheduling import (
        SchedulingProblem, CandidateSolution, Market,
        RandomizedGreedyScheduler,
        count_start_combinations,
    )

This is the runtime's planner and the cost model it shares.  The exact
oracle, :class:`repro.scheduling.milp.MilpScheduler`, needs scipy (the
``exact`` extra), so nothing here imports it; the paper's evolutionary
algorithm is the §6 comparison baseline in
:mod:`repro.experiments.evolutionary`.
"""

from .engine import CostEngine, IncrementalCostState, OfferConstants
from .greedy import RandomizedGreedyScheduler
from .market import Market
from .problem import CandidateSolution, ScheduleEvaluation, SchedulingProblem
from .problem import count_start_combinations
from .result import CostTracker, SchedulingResult

__all__ = [
    "CostEngine",
    "IncrementalCostState",
    "OfferConstants",
    "count_start_combinations",
    "RandomizedGreedyScheduler",
    "Market",
    "CandidateSolution",
    "ScheduleEvaluation",
    "SchedulingProblem",
    "CostTracker",
    "SchedulingResult",
]
