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

The pass reads each view's window, deadline, price and bound rows in one
walk over the pool, which decides eligibility, sets the closed views aside
for the service's stranded count (:attr:`PlanSession.closed`) and gathers
the planner's constants; no profile and no aggregate object is built on
the way.  Clipping moves the first admissible start and nothing else.  The
objects are built only where one leaves the node —
:attr:`WindowPlan.originals` and :attr:`WindowPlan.schedule`, on demand.

Inside the pass, :meth:`PlanSession.plan` plans only what changed: it keeps
the last plan's placements and the dirty key set fed by each flush's
:class:`~repro.aggregation.updates.AggregateUpdate` stream, and hands the
scheduler every clean placement that still fits as one to keep, so only
the dirty offers are re-placed.  A first run is the case where everything
is dirty.  The session also carries each group's constants and whether its
placement fits them (:class:`PlanSession`); every such cache is checked by
identity against what it was built from, and the plans are those of a
session that carries nothing (``tests/test_planning_state.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..aggregation.aggregator import AggregatedFlexOffer
from ..aggregation.engine import PackedView
from ..aggregation.updates import AggregateUpdate, UpdateKind
from ..core.flexoffer import FlexOffer
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
    "plannable",
]


@lru_cache(maxsize=8)
def _flat_pricing(length: int, market: MarketConfig) -> SchedulingProblem:
    """The offer-less problem over the flat market, per horizon length.

    Every re-planning run prices the same rolling horizon; a
    :class:`Market`, the penalty arrays and a
    :class:`~repro.scheduling.engine.CostEngine` are read-only, so this
    problem's market, penalties and engine are shared by every run of that
    length (on every node with the same market settings) instead of being
    rebuilt on each trigger fire.
    """
    return SchedulingProblem(
        net_forecast=TimeSeries(0, np.zeros(length)),
        offers=(),
        market=Market.flat(
            length, buy_price=market.buy_price, sell_price=market.sell_price
        ),
        shortage_penalty=np.array(market.shortage_penalty),
        surplus_penalty=np.array(market.surplus_penalty),
    )


def plannable(offer: FlexOffer | PackedView, start: int) -> bool:
    """Whether a plan starting at ``start`` may still place ``offer``.

    An offer — a pool group's view or one member — is out once its start
    window closed (``latest_start < start``) or its assignment deadline
    passed.  :meth:`PlanSession.plan_window` drops a group this way, and
    the service counts the members it strands by the same test.
    """
    due = offer.assignment_before
    return offer.latest_start >= start and (due is None or due > start)


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


@dataclass(slots=True, eq=False)
class _Group:
    """What a session carries for one pool group from run to run."""

    view: PackedView
    """The view the constants were built from."""
    consts: OfferConstants
    """The view's constants in the last problem that planned it."""
    kept: Placement | None = None
    """The group's placement known to fit ``consts`` (start window and
    bounds): one a plan made under them, or one :meth:`PlanSession._kept`
    passed against them."""


class PlanSession:
    """One node's planner: scheduler, market, rng, kept placements, dirt,
    and each pool group's planning state.

    Keys are stable identities for pool entries across runs: the
    aggregation pipeline's group ids.  A group's :class:`OfferConstants`
    are built from its view's bound rows only when the view object changed
    (a flush emitted a new one) or its clip moved; otherwise they are
    re-anchored to the new horizon start and the group's kept-placement
    verdict carries over, so a clean group costs no array work per run.
    The market, penalty arrays and cost engine are shared by every run of
    one horizon length.
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
        #: The views the last :meth:`plan_window` dropped as not
        #: :func:`plannable`, in candidate order.
        self.closed: list[PackedView] = []
        self._groups: dict[str, _Group] = {}

    # ------------------------------------------------------------------
    def absorb(self, updates: Iterable[AggregateUpdate]) -> None:
        """Fold one flush's aggregate updates into the session.

        Every group id they touch is dirty until the next :meth:`plan`
        consumes it; a deleted group also loses its placement and its
        planning state at once (its aggregate is gone from the pool).
        """
        for update in updates:
            gid = update.group_id
            self.dirty.add(gid)
            if update.kind is UpdateKind.DELETED:
                self.placements.pop(gid, None)
                self._groups.pop(gid, None)

    # ------------------------------------------------------------------
    def plan_window(
        self,
        candidates: Iterable[tuple[str, PackedView]],
        start: int,
        end: int,
    ) -> WindowPlan | None:
        """Plan ``[start, end)`` over the tier's ordered ``(key, view)``s.

        One definition of plan eligibility for every node's pool (a BRP's
        aggregates, the TSO's super-aggregates): a candidate is out when it
        is not :func:`plannable` (its start window closed, or its tightest
        member assignment deadline passed) or its profile cannot finish
        inside the horizon.  One
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
        closed: list[PackedView] = []
        groups = self._groups
        for key, view in candidates:
            if not plannable(view, start):
                closed.append(view)
                continue
            latest = view.latest_start
            if latest + view.duration > end:
                continue
            earliest = max(view.earliest_start, start)
            group = groups.get(key)
            if group is None or group.view is not view:
                consts = OfferConstants.of(
                    view.min_array,
                    view.max_array,
                    view.unit_price,
                    earliest,
                    latest,
                    start,
                )
                groups[key] = _Group(view, consts)
            else:
                consts = group.consts
                if consts.earliest_start != earliest:  # the clip moved
                    group.kept = None
                    consts = group.consts = consts.reanchored(earliest, start)
                elif consts.earliest_index != earliest - start:
                    consts = group.consts = consts.reanchored(earliest, start)
            keys.append(key)
            views.append(view)
            constants.append(consts)
        self.closed = closed
        if not keys:
            return None
        problem = SchedulingProblem.from_constants(
            constants,
            net_forecast=net_forecast_window(self.net_forecast, start, end),
            pricing=_flat_pricing(end - start, self.market),
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
        placements = self.placements
        dirty = self.dirty
        groups = self._groups
        retained: list[Placement | None] = []
        for key, consts in zip(keys, problem.offer_constants):
            group = groups.get(key)
            if group is None or group.consts is not consts:
                retained.append(self._kept(key, consts))
                continue
            kept = group.kept
            if kept is None or kept is not placements.get(key):
                kept = group.kept = self._kept(key, consts)
            retained.append(None if key in dirty else kept)
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
        # A kept placement is the solution's as it stands: only the re-placed
        # keys get a new one, and it fits the constants it was made under.
        for key, consts, kept, start, energies in zip(
            keys,
            problem.offer_constants,
            retained,
            result.solution.starts.tolist(),
            result.solution.energies,
        ):
            if kept is None:
                placement = placements[key] = (start, energies)
                group = groups.get(key)
                if group is not None and group.consts is consts:
                    group.kept = placement
        dirty.clear()
        return result
