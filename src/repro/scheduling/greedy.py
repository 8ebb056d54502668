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
already knows its own cost and ``schedule()`` never re-derives
``problem.cost(solution)`` from scratch.  The pre-vectorization scalar loop
survives as :mod:`repro.scheduling.reference` (oracle + benchmark baseline).
"""

from __future__ import annotations

import numpy as np

from .engine import IncrementalCostState
from .problem import CandidateSolution, SchedulingProblem
from .result import CostTracker, SchedulingResult

__all__ = ["RandomizedGreedyScheduler"]


class RandomizedGreedyScheduler:
    """Best-position insertion in random offer order, restarted until budget."""

    name = "greedy-search"

    #: Declared capabilities, mirrored by the ``scheduler`` entry in
    #: :func:`repro.api.default_registry` (a test pins the two equal):
    #: ``runtime`` = usable by the streaming service's pass-bounded
    #: re-planning loop, ``warm-start`` = accepts a seed candidate,
    #: ``budget`` = honours a wall-clock budget.
    capabilities = frozenset({"runtime", "warm-start", "budget"})

    def schedule(
        self,
        problem: SchedulingProblem,
        *,
        budget_seconds: float | None = None,
        max_passes: int | None = None,
        rng: np.random.Generator | None = None,
        warm_start: CandidateSolution | None = None,
    ) -> SchedulingResult:
        """Run greedy passes until the time budget or pass count is reached.

        ``warm_start`` seeds the tracker with an existing candidate (e.g. the
        previous planning run's solution in a streaming runtime) before any
        greedy pass runs; it counts as one evaluation against ``max_passes``
        and the result is only ever at least as good as the warm candidate.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        tracker = CostTracker(
            budget_seconds, None if max_passes is None else max_passes
        )
        if warm_start is not None:
            tracker.record(problem.cost(warm_start), warm_start)
        while not tracker.exhausted():
            solution, pass_cost = self._one_pass(problem, rng)
            tracker.record(pass_cost, solution)
        return tracker.result()

    # ------------------------------------------------------------------
    def _one_pass(
        self, problem: SchedulingProblem, rng: np.random.Generator
    ) -> tuple[CandidateSolution, float]:
        """Schedule every offer once, each in its locally best position.

        Returns the finished candidate *and* its total cost — the
        incremental state already paid for every placement delta, so the
        caller must not rebuild the residual just to price the pass again.
        """
        consts = problem.offer_constants
        state = IncrementalCostState.for_problem(problem)
        starts = np.zeros(problem.offer_count, dtype=np.int64)
        energies: list[np.ndarray | None] = [None] * problem.offer_count

        for j in rng.permutation(problem.offer_count):
            c = consts[j]
            start_index, energy, delta, after = state.best_placement(c)
            starts[j] = c.earliest_start + start_index
            energies[j] = energy
            state.place(c.earliest_index + start_index, energy, delta, after)

        return CandidateSolution(starts, [e for e in energies]), state.total
