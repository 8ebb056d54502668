"""Scheduling of aggregated flex-offers against forecasts and the market
(paper §6).

Public API::

    from repro.scheduling import (
        SchedulingProblem, CandidateSolution, Market,
        RandomizedGreedyScheduler, DeltaScheduler,
        count_start_combinations,
    )

These are the runtime's planners and the cost model they share.  The exact
oracle, :class:`repro.scheduling.milp.MilpScheduler`, needs scipy (the
``exact`` extra), so nothing here imports it; the paper's evolutionary
algorithm is the §6 comparison baseline in
:mod:`repro.experiments.evolutionary`.
"""

from .delta import DeltaRequest, DeltaScheduler
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
    "DeltaRequest",
    "DeltaScheduler",
    "count_start_combinations",
    "RandomizedGreedyScheduler",
    "Market",
    "CandidateSolution",
    "ScheduleEvaluation",
    "SchedulingProblem",
    "CostTracker",
    "SchedulingResult",
]
