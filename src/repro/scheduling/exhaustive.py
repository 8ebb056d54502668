"""Exhaustive scheduling — the optimality baseline for toy instances.

The paper reports that with 10 flex-offers *without energy constraints* it
"took almost three hours to explore all (almost 850 million) sensible
solutions and find the optimal schedule"; for anything larger the optimum is
unknown.  This module reproduces that investigation at tractable scale:
:func:`count_start_combinations` computes the size of the start-time search
space and :class:`ExhaustiveScheduler` enumerates it to find the true
optimum, against which the metaheuristics are validated.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ..core.errors import SchedulingError
from .engine import IncrementalCostState
from .problem import CandidateSolution, SchedulingProblem
from .result import CostTracker, SchedulingResult

__all__ = ["count_start_combinations", "ExhaustiveScheduler"]


def count_start_combinations(problem: SchedulingProblem) -> int:
    """Number of distinct start-time assignments (the 'sensible solutions').

    Energy flexibility contributes a continuum and is therefore excluded —
    exactly like the paper's preliminary experiment, which dropped energy
    constraints to make enumeration meaningful.
    """
    count = 1
    for offer in problem.offers:
        count *= offer.time_flexibility + 1
    return count


class ExhaustiveScheduler:
    """Enumerates every start combination; energies are set greedily.

    For offers without energy flexibility (the paper's setting) the greedy
    per-slice energy choice is exact, so the returned schedule is the true
    optimum over the full search space.
    """

    name = "exhaustive"

    def __init__(self, *, limit: int = 2_000_000) -> None:
        self.limit = limit

    def schedule(self, problem: SchedulingProblem) -> SchedulingResult:
        """Enumerate everything; raises when the space exceeds ``limit``."""
        combinations = count_start_combinations(problem)
        if combinations > self.limit:
            raise SchedulingError(
                f"{combinations} start combinations exceed the limit "
                f"{self.limit}; the optimum is out of reach (paper §6)"
            )
        for offer in problem.offers:
            if offer.total_energy_flexibility > 0:
                raise SchedulingError(
                    "exhaustive search requires offers without energy "
                    "flexibility (as in the paper's preliminary experiment)"
                )

        tracker = CostTracker(None, max(1, combinations))
        consts = problem.offer_constants
        ranges = [range(c.earliest_start, c.latest_start + 1) for c in consts]

        # Walk the start-time odometer with incremental cost deltas: the
        # first combination places everything at its earliest start (the
        # minimum solution); every later combination moves only the offers
        # whose digit rolled, so a step re-prices a couple of profile-sized
        # windows instead of the whole horizon.  Compensation is constant
        # (energies are fixed).
        first = problem.minimum_solution()
        energies = first.energies
        state = IncrementalCostState(
            problem.engine,
            problem.net_forecast.values + problem.flex_series(first),
        )
        previous = [c.earliest_start for c in consts]
        flex_constant = problem.flexoffer_cost(first)

        horizon_start = problem.horizon_start
        for starts in product(*ranges):
            for j, start in enumerate(starts):
                if start != previous[j]:
                    state.replace(
                        previous[j] - horizon_start,
                        energies[j],
                        start - horizon_start,
                        energies[j],
                    )
                    previous[j] = start
            if tracker.evaluations % 8192 == 8191:
                state.resync()  # bound fp drift on long enumerations
            solution = CandidateSolution(np.asarray(starts, dtype=np.int64), energies)
            tracker.record(state.total + flex_constant, solution)
            if tracker.evaluations >= combinations:
                break
        result = tracker.result()
        return result
