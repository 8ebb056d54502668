"""Randomized greedy search (paper §6).

"The randomized greedy search constructs the schedule gradually — at each
step a randomly chosen flex-offer is scheduled in the best possible position.
This is repeated until all flex-offers have been scheduled.  While it is
possible to schedule a single flex-offer in an optimal way, a sequence of
such optimal placements does not produce an overall optimal schedule."

One *pass* builds a complete schedule; the scheduler keeps running fresh
randomized passes until the budget expires and returns the best schedule
found (with the cost-over-time trace of Figure 6) — unless a pass is
provably optimal.  After each pass a Lagrangian certificate is checked:
one constant price ``λ`` that is a subgradient of every slice's cost at
the pass's residual (:meth:`~repro.scheduling.engine.CostEngine.multiplier`)
and every offer at an energy minimising ``λ·e + unit_price·|e|`` on each
slice.  Then the pass costs what the Lagrangian lower bound says every plan
costs at least, no later pass can be strictly cheaper, and the run stops.
On the runtime's flat two-row market with no forecast most runs stop after
one pass; a capped market, a slice whose cost is not convex, prices or a
forecast that need more than one multiplier, and passes that are not
``λ``-optimal run every pass, as they always did.

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
    """Best-position insertion in random offer order, restarted until budget
    or a certified optimum."""

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
        """Run greedy passes until the time budget or pass count is reached,
        or a pass is proven optimal.

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

        After each pass but the last, the Lagrangian certificate
        (:func:`_certified`) is checked against the pass's final residual;
        when it holds, the pass is optimal and the run ends.  It then draws
        one ``rng.permutation`` per pass that ``max_passes`` still allowed,
        as those passes would have, so a later run's passes do not depend
        on whether this one was certified.  A run with a time budget alone
        draws none.  ``evaluations`` counts the passes that ran.
        """
        rng = rng if rng is not None else np.random.default_rng(0)
        tracker = CostTracker(
            budget_seconds, None if max_passes is None else max_passes
        )
        start = _PassStart.of(problem, retained)
        while not tracker.exhausted():
            solution, state = self._one_pass(problem, rng, start)
            tracker.record(state.total, solution)
            if tracker.evaluations != max_passes and _certified(
                problem, solution, state.residual
            ):
                for _ in range(tracker.evaluations, max_passes or 0):
                    rng.permutation(start.free)
                break
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
    ) -> tuple[CandidateSolution, IncrementalCostState]:
        """Place every free offer once, each in its locally best position.

        Returns the finished candidate *and* the incremental state it left:
        its ``total`` is the residual's cost plus the placed offers'
        compensation, paid for placement by placement, so the caller must
        not rebuild the residual just to price the pass again, and its
        ``residual`` is what the certificate reads.
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

        return CandidateSolution(starts, energies), state


def _certified(
    problem: SchedulingProblem, solution: CandidateSolution, residual: np.ndarray
) -> bool:
    """Whether a Lagrangian certificate proves ``solution`` optimal.

    ``residual`` is the solution's full-horizon residual (forecast plus every
    placement).  With a constant multiplier ``λ`` of every slice's cost there
    (:meth:`~repro.scheduling.engine.CostEngine.multiplier`), each slice
    costs ``λ·r`` at the solution and at least that anywhere, so no plan
    costs less than ``λ·Σforecast + Σ_j min λ-cost_j``, where an offer's
    ``λ-cost`` is ``Σ_t λ·e_t + unit_price·|e_t|`` over its slices and does
    not depend on its start.  That minimum is taken slice by slice at
    ``lo``, ``hi`` or ``clip(0, lo, hi)``; the solution attains the bound
    when every offer's energy, kept ones included, attains it on every
    slice.
    """
    lam = problem.engine.multiplier(residual)
    if lam is None:
        return False
    packed = problem.packed_offers
    lo, hi = packed.lo, packed.hi
    *candidates, chosen = [
        lam * energy + packed.unit_price * np.abs(energy)
        for energy in (lo, hi, np.clip(0.0, lo, hi), packed.pack(solution.energies))
    ]
    return bool(np.logical_and.reduce(chosen <= np.minimum.reduce(candidates)))


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
