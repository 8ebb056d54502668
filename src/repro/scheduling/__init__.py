"""Scheduling of aggregated flex-offers against forecasts and the market
(paper §6).

Public API::

    from repro.scheduling import (
        SchedulingProblem, CandidateSolution, Market,
        RandomizedGreedyScheduler, EvolutionaryScheduler,
        count_start_combinations,
    )

The exact oracle, :class:`repro.scheduling.milp.MilpScheduler`, needs scipy
(the ``exact`` extra), so nothing here imports it.
"""

from .delta import DeltaRequest, DeltaScheduler
from .engine import CostEngine, IncrementalCostState, OfferConstants
from .evolutionary import EvolutionaryScheduler
from .greedy import RandomizedGreedyScheduler
from .market import Market
from .problem import CandidateSolution, ScheduleEvaluation, SchedulingProblem
from .problem import count_start_combinations
from .result import CostTracker, SchedulingResult

__all__ = [
    "CostEngine",
    "IncrementalCostState",
    "OfferConstants",
    "DeltaRequest",
    "DeltaScheduler",
    "EvolutionaryScheduler",
    "count_start_combinations",
    "RandomizedGreedyScheduler",
    "Market",
    "CandidateSolution",
    "ScheduleEvaluation",
    "SchedulingProblem",
    "CostTracker",
    "SchedulingResult",
]
