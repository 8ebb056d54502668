"""Randomized greedy search (paper §6).

"The randomized greedy search constructs the schedule gradually — at each
step a randomly chosen flex-offer is scheduled in the best possible position.
This is repeated until all flex-offers have been scheduled.  While it is
possible to schedule a single flex-offer in an optimal way, a sequence of
such optimal placements does not produce an overall optimal schedule."

One *pass* builds a complete schedule; the scheduler keeps running fresh
randomized passes until the budget expires and returns the best schedule
found (with the cost-over-time trace of Figure 6).

Each placement runs the batched kernel
:meth:`~repro.scheduling.engine.CostEngine.best_placement` — all admissible
start positions × all per-slice energy candidates in one vectorized
operation — and an :class:`~repro.scheduling.engine.IncrementalCostState`
carries the residual, the slice costs (the kernel's own, handed back with
each placement) *and* the pass cost across placements, so a finished pass
already knows its own cost and a cold ``schedule()`` never re-derives
``problem.cost(solution)`` from scratch.  The pre-vectorization scalar loop
survives as :mod:`repro.scheduling.reference` (oracle + benchmark baseline).

A streaming runtime re-plans a pool that mostly did not change, so
``schedule()`` also takes the placements to keep (``retained``): every pass
starts from the residual they leave and places only the other offers.  A
full plan is the case where nothing is kept.  Kept placements are summed
canonically — into a zero vector in index order, then onto the forecast in
one add — so a run's bits depend on the kept set alone, never on the order
in which earlier runs built it.  A kept placement is generally not where a
fresh full plan of the changed pool would put it; on the runtime's flat
two-row market the cost hardly depends on it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .engine import IncrementalCostState
from .problem import CandidateSolution, SchedulingProblem
from .result import CostTracker, SchedulingResult

__all__ = ["Placement", "RandomizedGreedyScheduler"]

#: One offer's ``(absolute start slice, per-slice energies)``.
Placement = tuple[int, np.ndarray]


class RandomizedGreedyScheduler:
    """Best-position insertion in random offer order, restarted until budget."""

    name = "greedy-search"

    def schedule(
        self,
        problem: SchedulingProblem,
        *,
        budget_seconds: float | None = None,
        max_passes: int | None = None,
        rng: np.random.Generator | None = None,
        retained: Sequence[Placement | None] | None = None,
    ) -> SchedulingResult:
        """Run greedy passes until the time budget or pass count is reached.

        ``retained[j]``, when given, is a kept ``(start, energies)``
        placement of offer ``j`` (e.g. the previous planning run's, in a
        streaming runtime) or ``None``.  Kept placements are added in index
        order to a zero vector, which joins the forecast in one add; every
        pass starts from that residual and places only the offers without
        one.  Passes are compared by their incremental totals, which leave
        out the kept offers' compensation (the same for every pass); a
        caller that passes ``retained`` gets the winner re-priced by
        ``problem.cost``.  Without it this is the cold greedy, every offer
        placed on every pass.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        tracker = CostTracker(
            budget_seconds, None if max_passes is None else max_passes
        )
        start = _PassStart.of(problem, retained)
        while not tracker.exhausted():
            solution, pass_cost = self._one_pass(problem, rng, start)
            tracker.record(pass_cost, solution)
        result = tracker.result()
        if retained is not None:
            result.cost = problem.cost(result.solution)
        return result

    # ------------------------------------------------------------------
    def _one_pass(
        self,
        problem: SchedulingProblem,
        rng: np.random.Generator,
        start: "_PassStart | None" = None,
    ) -> tuple[CandidateSolution, float]:
        """Place every free offer once, each in its locally best position.

        Returns the finished candidate *and* the incremental state's total
        — the residual's cost plus the placed offers' compensation, paid
        for placement by placement, so the caller must not rebuild the
        residual just to price the pass again.
        """
        if start is None:
            start = _PassStart.of(problem, None)
        consts = problem.offer_constants
        state = IncrementalCostState(problem.engine, start.residual.copy())
        starts = start.starts.copy()
        energies = list(start.energies)

        for j in rng.permutation(start.free):
            c = consts[j]
            start_index, energy, delta, after = state.best_placement(c)
            starts[j] = c.earliest_start + start_index
            energies[j] = energy
            state.place(c.earliest_index + start_index, energy, delta, after)

        return CandidateSolution(starts, energies), state.total


class _PassStart(NamedTuple):
    """What every pass of one run starts from."""

    residual: np.ndarray
    starts: np.ndarray
    energies: list
    free: np.ndarray
    """Indices of the offers a pass places."""

    @classmethod
    def of(
        cls, problem: SchedulingProblem, retained: Sequence[Placement | None] | None
    ) -> "_PassStart":
        n = problem.offer_count
        starts = np.zeros(n, dtype=np.int64)
        energies: list = [None] * n
        if retained is not None and len(retained) != n:
            raise ValueError(f"{len(retained)} retained entries for {n} offers")
        if retained is None or all(kept is None for kept in retained):
            # The cold start: adding a zero seed would turn the forecast's
            # -0.0s into +0.0, and a full plan must be the cold greedy's.
            return cls(problem.net_forecast.values, starts, energies, np.arange(n))
        h0 = problem.horizon_start
        seed = np.zeros(problem.horizon_length)
        free = []
        for j, kept in enumerate(retained):
            if kept is None:
                free.append(j)
                continue
            start, values = kept
            starts[j], energies[j] = start, values
            seed[start - h0 : start - h0 + len(values)] += values
        return cls(
            problem.net_forecast.values + seed,
            starts,
            energies,
            np.array(free, dtype=np.int64),
        )
