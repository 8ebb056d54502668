"""The one planning pass every runtime node runs over a window.

At the TSO "the process is essentially repeated at a higher level" (§3),
and the cluster's TSO is a :class:`~repro.runtime.service.BrpRuntimeService`
like every BRP, so this pass has one caller.  A node builds one
:class:`PlanSession` from what its planner *is* (passes, market, seed,
metrics registry, optional net forecast; the scheduler is always the §6
randomized greedy) and hands :meth:`PlanSession.plan_window` its pool
ordered by group id, as the packed aggregation engine's views
(:class:`~repro.aggregation.engine.PackedView`) — at the TSO, views of
super-aggregates of the BRPs' macros.  Eligibility and clipping, the
rolling forecast window, the flat market, the
:class:`SchedulingProblem`, the planner call and the ``delta.*`` counters
live here and nowhere else.

The pass reads each view's window, deadline, price and bound rows and
builds the planner's constants from them; no aggregate object is built on
the way.  Clipping moves the first admissible start and nothing else.  The
objects are built only where one leaves the node —
:attr:`WindowPlan.originals` and :attr:`WindowPlan.schedule`, on demand.

Inside the pass, :meth:`PlanSession.plan` plans only what changed: it keeps
the last plan's placements and the dirty key set fed by each flush's
:class:`~repro.aggregation.updates.AggregateUpdate` stream, and hands the
scheduler every clean placement that still fits as one to keep, so only
the dirty offers are re-placed.  A first run is the case where everything
is dirty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..aggregation.aggregator import AggregatedFlexOffer
from ..aggregation.engine import PackedView
from ..aggregation.updates import AggregateUpdate, UpdateKind
from ..core.schedule import Schedule
from ..core.timeseries import TimeSeries
from ..scheduling import Market, RandomizedGreedyScheduler
from ..scheduling.engine import OfferConstants
from ..scheduling.greedy import Placement
from ..scheduling.problem import SchedulingProblem
from ..scheduling.result import SchedulingResult
from .config import MarketConfig
from .metrics import MetricsRegistry

__all__ = [
    "PlanSession",
    "WindowPlan",
    "net_forecast_window",
]


@lru_cache(maxsize=8)
def _flat_market(length: int, buy_price: float, sell_price: float) -> Market:
    """Shared flat market per horizon length.

    Every re-planning run prices the same rolling horizon; `Market` is
    frozen and nothing mutates its arrays, so the instance (and the price
    arrays the scheduling engine reads) can be reused across runs instead
    of being rebuilt on each trigger fire.
    """
    return Market.flat(length, buy_price=buy_price, sell_price=sell_price)


def net_forecast_window(
    series: TimeSeries | None, start: int, end: int
) -> TimeSeries:
    """The forecast restricted to ``[start, end)``, zero-padded outside.

    Both tiers price residuals against a rolling window of the (optional)
    non-flexible net forecast.
    """
    values = np.zeros(end - start)
    if series is not None:
        lo = max(start, series.start)
        hi = min(end, series.end)
        if hi > lo:
            values[lo - start : hi - start] = series.window(lo, hi).values
    return TimeSeries(start, values)


@dataclass(eq=False)
class WindowPlan:
    """One non-empty planned window; the sequences cover the eligible
    candidates only, in candidate order."""

    result: SchedulingResult
    problem: SchedulingProblem
    views: tuple[PackedView, ...]
    """The candidates' views, unclipped: what disaggregation runs against
    (member offsets are anchored at the unclipped earliest start)."""
    keys: tuple[str, ...]

    @cached_property
    def originals(self) -> tuple[AggregatedFlexOffer, ...]:
        """The unclipped candidates as aggregate objects (built on demand)."""
        return tuple(view.aggregate for view in self.views)

    @cached_property
    def schedule(self) -> Schedule:
        """The plan over the (possibly clipped) aggregate objects, built and
        checked on first access."""
        start = self.problem.horizon_start
        offers = [
            original
            if original.earliest_start >= start
            else original.with_times(start, original.latest_start)
            for original in self.originals
        ]
        return self.problem.to_schedule(self.result.solution, offers)


class PlanSession:
    """One node's planner: scheduler, market, rng, kept placements, dirt.

    Keys are stable identities for pool entries across runs: the
    aggregation pipeline's group ids.
    """

    def __init__(
        self,
        *,
        passes: int = 2,
        market: MarketConfig | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        net_forecast: TimeSeries | None = None,
    ) -> None:
        self.scheduler = RandomizedGreedyScheduler()
        self.passes = passes
        self.market = market if market is not None else MarketConfig()
        self.rng = np.random.default_rng(seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.net_forecast = net_forecast
        #: key -> (absolute start slice, per-slice energies) of the last plan.
        self.placements: dict[str, Placement] = {}
        #: Keys created/changed since the last successful :meth:`plan`.
        self.dirty: set[str] = set()

    # ------------------------------------------------------------------
    def absorb(self, updates: Iterable[AggregateUpdate]) -> None:
        """Fold one flush's aggregate updates into the session.

        Every group id they touch is dirty until the next :meth:`plan`
        consumes it; a deleted group also loses its placement at once
        (its aggregate is gone from the pool).
        """
        for update in updates:
            self.dirty.add(update.group_id)
            if update.kind is UpdateKind.DELETED:
                self.placements.pop(update.group_id, None)

    # ------------------------------------------------------------------
    def plan_window(
        self,
        candidates: Iterable[tuple[str, PackedView]],
        start: int,
        end: int,
    ) -> WindowPlan | None:
        """Plan ``[start, end)`` over the tier's ordered ``(key, view)``s.

        One definition of plan eligibility for every node's pool (a BRP's
        aggregates, the TSO's super-aggregates): a candidate is out when
        its start window closed, its profile cannot finish inside the
        horizon, or its tightest member assignment deadline passed.  One
        whose earliest start passed while the window is still open is
        *clipped*: its constants open the window at ``start``.  The
        eligible candidates become one problem, priced against the rolling
        forecast window and the flat market and planned through
        :meth:`plan`.  ``None`` when nothing is eligible — the caller counts
        that under its own ``*.empty_runs``.
        """
        keys: list[str] = []
        views: list[PackedView] = []
        constants: list[OfferConstants] = []
        for key, view in candidates:
            latest = view.latest_start
            if latest < start or latest + view.duration > end:
                continue
            due = view.assignment_before
            if due is not None and due <= start:
                continue
            keys.append(key)
            views.append(view)
            constants.append(
                OfferConstants.of(
                    view.profile,
                    view.unit_price,
                    max(view.earliest_start, start),
                    latest,
                    start,
                )
            )
        if not keys:
            return None
        market = self.market
        problem = SchedulingProblem.from_constants(
            constants,
            net_forecast=net_forecast_window(self.net_forecast, start, end),
            market=_flat_market(end - start, market.buy_price, market.sell_price),
            shortage_penalty=np.array(market.shortage_penalty),
            surplus_penalty=np.array(market.surplus_penalty),
        )
        keys_tuple = tuple(keys)
        return WindowPlan(
            self.plan(problem, keys_tuple), problem, tuple(views), keys_tuple
        )

    # ------------------------------------------------------------------
    def _kept(self, key: str, consts: OfferConstants) -> Placement | None:
        """``key``'s last placement if it is clean and still feasible.

        A dirty key is re-placed, and so is one whose placement no longer
        fits its offer: another duration, a start outside the (clipped)
        window, or energies outside the bounds — the offer, or the window
        around it, changed shape even though no update named it.
        """
        if key in self.dirty:
            return None
        prior = self.placements.get(key)
        if prior is None:
            return None
        start, energies = prior
        if len(energies) != consts.duration:
            return None
        if not consts.earliest_start <= start <= consts.latest_start:
            return None
        # ``np.any``'s ufunc reduction, without its Python-level wrapper.
        if np.logical_or.reduce((energies < consts.lo) | (energies > consts.hi)):
            return None
        return prior

    # ------------------------------------------------------------------
    def plan(
        self, problem: SchedulingProblem, keys: Sequence[str]
    ) -> SchedulingResult:
        """One planning run over ``problem``, whose offers ``keys`` name.

        Every clean, still-feasible placement is kept and the scheduler
        re-places the rest (all of them on a first run).  On return the
        placements reflect the committed plan for every key, the dirty set
        is drained, and ``schedule.warm_started`` (runs that kept a
        placement), ``schedule.certified_runs`` (runs whose plan a pass
        proved optimal before the last one, so the scheduler stopped there)
        and ``delta.reused_placements`` / ``delta.replaced_placements`` have
        counted the run.
        """
        retained = [
            self._kept(key, consts)
            for key, consts in zip(keys, problem.offer_constants)
        ]
        result = self.scheduler.schedule(
            problem, max_passes=self.passes, rng=self.rng, retained=retained
        )
        reused = sum(kept is not None for kept in retained)
        if reused:
            self.metrics.counter("schedule.warm_started").inc()
        if result.evaluations < self.passes:
            self.metrics.counter("schedule.certified_runs").inc()
        self.metrics.counter("delta.reused_placements").inc(reused)
        self.metrics.counter("delta.replaced_placements").inc(len(keys) - reused)
        for key, start, energies in zip(
            keys, result.solution.starts, result.solution.energies
        ):
            self.placements[key] = (int(start), energies)
        self.dirty.clear()
        return result
