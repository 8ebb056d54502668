"""Delta re-planning: re-place only dirty aggregates across runs.

The streaming runtime re-plans the *whole* eligible pool on every trigger
firing, so re-plan latency grows with pool size even when a single offer
changed.  :class:`DeltaScheduler` is the consumer the
:class:`~repro.scheduling.engine.IncrementalCostState` has been waiting
for: it retains the previous run's placements and re-runs the batched
placement kernel only for offers the caller marked **dirty** (via a
:class:`DeltaRequest` built from the aggregation pipeline's per-flush
dirty set), falling back to a deterministic full pass when dirt exceeds a
fraction threshold, when the horizon window shifts (optional), or when no
prior plan exists.

Canonical arithmetic contract (the parity guarantee)
----------------------------------------------------
Floating-point addition is not associative, so a *cumulative* residual
carried across runs would drift bitwise from any from-scratch
reconstruction (``a + b - b != a`` in IEEE 754), and the kernel's argmin
tie-breaks read those bits.  Every run therefore rebuilds its state
canonically:

1. ``seed = zeros(horizon)``; for each **retained** offer in ascending
   problem-index order: ``seed[start - h0 : start - h0 + d] += energies``.
2. ``residual = net_forecast + seed`` (one vector add), priced by a fresh
   :class:`IncrementalCostState`.
3. Each **dirty** offer, in ascending problem-index order, is placed by
   ``state.best_placement`` / ``state.place``.
4. The reported plan cost is re-derived canonically:
   ``engine.slice_costs(residual).sum()`` plus the per-offer compensation
   terms accumulated in ascending index order.

A full pass is the degenerate case with an empty retained set, so delta
and full runs share one arithmetic path — and an independent from-scratch
replay of the same update history (the oracle in
``tests/test_scheduling_engine.py`` style) reproduces every committed
start, energy vector and cost bit for bit, including across
fallback-to-full transitions.  Note what this does *not* claim: a greedy
plan is order-dependent, so a retained clean placement is generally not
the placement a fresh full optimization of the changed pool would pick —
see the README's parity caveats.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .engine import IncrementalCostState, OfferConstants
from .problem import CandidateSolution, SchedulingProblem
from .result import SchedulingResult

__all__ = ["DeltaRequest", "DeltaScheduler"]


@dataclass(frozen=True, slots=True)
class DeltaRequest:
    """What changed since the previous run, from the scheduler's viewpoint.

    ``keys`` assigns one stable identity per problem offer, aligned with
    ``problem.offers`` by index (the runtime uses aggregate group ids).
    ``dirty`` holds the keys whose offers were created or changed since the
    last run; deleted keys simply no longer appear in ``keys``.
    ``window_start`` is the problem's horizon start, used to detect window
    shifts.
    """

    keys: tuple[str, ...]
    dirty: frozenset[str]
    window_start: int


class DeltaScheduler:
    """Dirty-set re-planning over a retained plan (registry name ``delta``).

    Deterministic: placements run in ascending problem-index order (the
    runtime sorts its pool by group id), ``rng`` and ``warm_start`` are
    ignored, and one call performs exactly one pass.  The ``delta``
    capability advertises that :meth:`schedule` accepts a
    :class:`DeltaRequest`; without one, every call is a full pass.
    """

    name = "delta"
    capabilities = frozenset({"runtime", "delta"})

    def __init__(
        self,
        *,
        full_fraction: float = 0.25,
        full_on_window_shift: bool = False,
    ) -> None:
        if not 0.0 < full_fraction <= 1.0:
            raise ValueError(
                f"full_fraction must be in (0, 1], got {full_fraction}"
            )
        self.full_fraction = full_fraction
        self.full_on_window_shift = full_on_window_shift
        #: key -> (absolute start slice, per-slice energies) of the last plan.
        self._plan: dict[str, tuple[int, np.ndarray]] = {}
        self._window_start: int | None = None
        #: Mode and reuse counts of the most recent run, for observability.
        self.last_stats: dict[str, int | str] = {
            "mode": "full", "reused": 0, "replaced": 0, "total": 0,
        }

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the retained plan (next run is a full pass)."""
        self._plan.clear()
        self._window_start = None

    def _retainable(
        self, consts: OfferConstants, key: str
    ) -> tuple[int, np.ndarray] | None:
        """The retained placement for ``key`` if it is still feasible.

        Evicts (returns ``None``) on duration mismatch, a start outside the
        offer's current ``[earliest_start, latest_start]`` window, or
        energies outside the current per-slice bounds — each of which means
        the offer (or the window around it) changed shape even though the
        dirty set did not name it.
        """
        prior = self._plan.get(key)
        if prior is None:
            return None
        start, energies = prior
        if len(energies) != consts.duration:
            return None
        if not consts.earliest_start <= start <= consts.latest_start:
            return None
        if np.any(energies < consts.lo) or np.any(energies > consts.hi):
            return None
        return prior

    # ------------------------------------------------------------------
    def schedule(
        self,
        problem: SchedulingProblem,
        *,
        budget_seconds: float | None = None,
        max_passes: int | None = None,
        rng: np.random.Generator | None = None,
        warm_start: CandidateSolution | None = None,
        delta: DeltaRequest | None = None,
    ) -> SchedulingResult:
        """One delta (or full) pass; returns the committed plan.

        ``budget_seconds`` / ``max_passes`` / ``rng`` / ``warm_start`` are
        accepted for interface compatibility with the randomized schedulers
        but have no effect: the pass is single, deterministic, and seeded
        by the retained plan instead of a warm-start candidate.
        """
        t0 = time.perf_counter()
        n = problem.offer_count
        consts = problem.offer_constants
        keys = delta.keys if delta is not None else tuple(
            f"#{j}" for j in range(n)
        )
        if len(keys) != n:
            raise ValueError(
                f"delta request carries {len(keys)} keys "
                f"for {n} offers"
            )

        mode = "delta"
        if delta is None or not self._plan:
            mode = "full"
        elif (
            self.full_on_window_shift
            and self._window_start is not None
            and delta.window_start != self._window_start
        ):
            mode = "full"

        # Classify: an offer is re-placed when dirty, unknown, or its
        # retained placement no longer fits the offer's current shape.
        retained: list[tuple[int, np.ndarray] | None] = [None] * n
        if mode == "delta":
            assert delta is not None
            for j in range(n):
                if keys[j] not in delta.dirty:
                    retained[j] = self._retainable(consts[j], keys[j])
            replaced = sum(1 for r in retained if r is None)
            if n and replaced / n > self.full_fraction:
                mode = "full"
        if mode == "full":
            retained = [None] * n

        # Canonical state build: retained placements seed a zero vector in
        # ascending index order, added to the forecast in one vector op.
        h0 = problem.horizon_start
        seed = np.zeros(problem.horizon_length)
        for j, prior in enumerate(retained):
            if prior is not None:
                start, energies = prior
                seed[start - h0 : start - h0 + len(energies)] += energies
        state = IncrementalCostState(
            problem.engine, problem.net_forecast.values + seed
        )

        starts = np.zeros(n, dtype=np.int64)
        energies_out: list[np.ndarray] = [np.zeros(0)] * n
        for j in range(n):
            prior = retained[j]
            if prior is not None:
                starts[j] = prior[0]
                energies_out[j] = prior[1]
        for j in range(n):
            if retained[j] is not None:
                continue
            c = consts[j]
            start_index, energy, cost_delta, after = state.best_placement(c)
            starts[j] = c.earliest_start + start_index
            energies_out[j] = energy
            state.place(c.earliest_index + start_index, energy, cost_delta, after)

        # Canonical cost: re-price the final residual and accumulate the
        # compensation terms in index order (never the drifting total).
        compensation = 0.0
        for j in range(n):
            compensation += consts[j].flex_cost(energies_out[j])
        cost = problem.engine.total_cost(state.residual) + compensation

        self._plan = {
            keys[j]: (int(starts[j]), energies_out[j]) for j in range(n)
        }
        self._window_start = (
            delta.window_start if delta is not None else h0
        )
        reused = sum(1 for r in retained if r is not None)
        self.last_stats = {
            "mode": mode, "reused": reused, "replaced": n - reused, "total": n,
        }
        elapsed = time.perf_counter() - t0
        return SchedulingResult(
            solution=CandidateSolution(starts, energies_out),
            cost=cost,
            evaluations=1,
            elapsed_seconds=elapsed,
            trace=[(elapsed, cost)],
        )
