"""The one planning pass every runtime node runs over a window, and the
book of pool groups it plans.

At the TSO "the process is essentially repeated at a higher level" (§3),
and the cluster's TSO is a :class:`~repro.runtime.service.BrpRuntimeService`
like every BRP, so this pass has one caller.  A node builds one
:class:`PlanSession` from what its planner *is* (passes, market, seed,
metrics registry, optional net forecast; the scheduler is always the §6
randomized greedy) and feeds each flush's
:class:`~repro.aggregation.updates.AggregateUpdate` stream to
:meth:`PlanSession.absorb`.  The session's :attr:`~PlanSession.groups` is
the node's one per-group book: one :class:`PoolGroup` per group id,
holding the group's current view (the packed aggregation engine's
:class:`~repro.aggregation.engine.PackedView` — at the TSO, a view of a
super-aggregate of the BRPs' macros), the planner's constants, placement
and kept verdict, the commitment shift the service's members read their
starts from, and the members waiting to bind to it.  Eligibility and
clipping, the rolling forecast window, the flat market, the
:class:`SchedulingProblem`, the planner call and the ``delta.*`` counters
live here and nowhere else.

:meth:`PlanSession.plan_window` reads each view's window, deadline, price
and bound rows in one walk over the book in group-id order, which decides
eligibility, sets the closed views aside for the service's stranded count
(:attr:`PlanSession.closed`) and gathers the planner's constants; no
profile and no aggregate object is built on the way.  Clipping moves the
first admissible start and nothing else.  The objects are built only
where one leaves the node — :attr:`WindowPlan.originals` and
:attr:`WindowPlan.schedule`, on demand.

Inside the pass, :meth:`PlanSession.plan` plans only what changed: it
keeps each group's last placement and the dirty key set the flushes fed,
and hands the scheduler every clean placement that still fits as one to
keep, so only the dirty offers are re-placed.  A first run is the case
where everything is dirty.  A record carries its constants and whether
its placement fits them from run to run; that cache is dropped with the
view it was built from, and the plans are those of a session handed the
same views and placements and nothing else (``tests/test_planning_state.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

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
    "PoolGroup",
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
    groups: tuple[PoolGroup, ...]
    """The candidates' records in the session's book."""

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
class PoolGroup:
    """The one record a node holds for one pool group, keyed by its group id.

    The flush that emits the group's view feeds it
    (:meth:`PlanSession.absorb`, which also drops it with the group's
    ``DELETED`` update); each planning run reads the view and carries the
    planning state; and the service's commit pass writes the commitment.
    By the §4 disaggregation guarantee a placement of the aggregate maps to
    every member by one start shift, so the group's plan is one fact: a
    member bound to the record starts at ``offer.earliest_start + delta``,
    and a re-plan moves every bound member by writing :attr:`delta` once.
    """

    key: str
    """The group id (the planner's key)."""
    view: PackedView
    """The group's current view: the last one a flush emitted."""
    consts: OfferConstants | None = None
    """The view's constants in the last problem that planned it (``None``
    until that view is planned)."""
    placement: Placement | None = None
    """``(absolute start, per-slice energies)`` of the last plan that
    placed the group."""
    fits: bool = False
    """Whether :attr:`placement` is known to fit :attr:`consts` (start
    window and bounds): a plan made it under them, or the check passed."""
    delta: int = 0
    """The commitment: the start shift of the group's last local commit."""
    plan: int = -1
    """The local plan that last committed the group, while that commitment
    still stands as is: ``-1`` once a flush emits a new view, a plan moves
    the placement, or a remote schedule commits the view's members
    elsewhere.  A plan straight after it that places the group the same
    way commits nothing."""
    waiting: list = field(default_factory=list)
    """The service's live entries that (re)bind at the group's next local
    commit: each flush's newcomers, and the members a remote schedule or a
    restored commitment detached."""


def _fits(placement: Placement | None, consts: OfferConstants) -> bool:
    """Whether ``placement`` still places the offer ``consts`` describe.

    It does not once the offer, or the window around it, changed shape even
    though no update named it: another duration, a start outside the
    (clipped) window, or energies outside the bounds.
    """
    if placement is None:
        return False
    start, energies = placement
    if len(energies) != consts.duration:
        return False
    if not consts.earliest_start <= start <= consts.latest_start:
        return False
    # ``np.any``'s ufunc reduction, without its Python-level wrapper.
    return not np.logical_or.reduce((energies < consts.lo) | (energies > consts.hi))


class PlanSession:
    """One node's planner: scheduler, market, rng, dirt and the pool's book.

    :attr:`groups` holds one :class:`PoolGroup` per pool group, keyed by
    the aggregation pipeline's group ids (stable across runs).  A group's
    :class:`OfferConstants` are built from its view's bound rows only when
    the view object changed (a flush emitted a new one) or its clip moved;
    otherwise they are re-anchored to the new horizon start and the
    group's kept-placement verdict carries over, so a clean group costs no
    array work per run.  The market, penalty arrays and cost engine are
    shared by every run of one horizon length.
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
        #: Group id -> the group's record: the node's one per-group book.
        self.groups: dict[str, PoolGroup] = {}
        #: Group ids created/changed since the last successful :meth:`plan`.
        self.dirty: set[str] = set()
        #: The views the last :meth:`plan_window` dropped as not
        #: :func:`plannable`, in candidate order.
        self.closed: list[PackedView] = []

    # ------------------------------------------------------------------
    def absorb(self, update: AggregateUpdate) -> PoolGroup | None:
        """Fold one of a flush's aggregate updates into the book.

        The group is dirty until the next :meth:`plan` consumes it.  A
        ``DELETED`` update drops the group's record (its aggregate is gone
        from the pool) and returns ``None``; any other returns the record,
        holding the update's view.
        """
        gid = update.group_id
        self.dirty.add(gid)
        if update.kind is UpdateKind.DELETED:
            self.groups.pop(gid, None)
            return None
        view = update.view
        group = self.groups.get(gid)
        if group is None:
            group = self.groups[gid] = PoolGroup(gid, view)
        elif group.view is not view:
            group.view = view
            group.consts = None
            group.plan = -1
        return group

    # ------------------------------------------------------------------
    def plan_window(self, start: int, end: int) -> WindowPlan | None:
        """Plan ``[start, end)`` over the book's groups, in group-id order.

        The book's insertion order depends on how updates interleaved, but
        the plan for a given pool must not.  One definition of plan
        eligibility for every node's pool (a BRP's aggregates, the TSO's
        super-aggregates): a group is out when its view is not
        :func:`plannable` (its start window closed, or its tightest member
        assignment deadline passed) or its profile cannot finish inside the
        horizon.  One whose earliest start passed while the window is still
        open is *clipped*: its constants open the window at ``start``.  The
        eligible groups become one problem, priced against the rolling
        forecast window and the flat market and planned through
        :meth:`plan`.  ``None`` when nothing is eligible — the caller counts
        that under its own ``*.empty_runs``.
        """
        planned: list[PoolGroup] = []
        views: list[PackedView] = []
        constants: list[OfferConstants] = []
        closed: list[PackedView] = []
        groups = self.groups
        for key in sorted(groups):
            group = groups[key]
            view = group.view
            if not plannable(view, start):
                closed.append(view)
                continue
            latest = view.latest_start
            if latest + view.duration > end:
                continue
            earliest = max(view.earliest_start, start)
            consts = group.consts
            if consts is None:
                consts = group.consts = OfferConstants.of(
                    view.min_array,
                    view.max_array,
                    view.unit_price,
                    earliest,
                    latest,
                    start,
                )
                group.fits = False
            elif consts.earliest_start != earliest:  # the clip moved
                group.fits = False
                consts = group.consts = consts.reanchored(earliest, start)
            elif consts.earliest_index != earliest - start:
                consts = group.consts = consts.reanchored(earliest, start)
            planned.append(group)
            views.append(view)
            constants.append(consts)
        self.closed = closed
        if not planned:
            return None
        problem = SchedulingProblem.from_constants(
            constants,
            net_forecast=net_forecast_window(self.net_forecast, start, end),
            pricing=_flat_pricing(end - start, self.market),
        )
        planned_groups = tuple(planned)
        return WindowPlan(
            self.plan(problem, planned_groups), problem, tuple(views), planned_groups
        )

    # ------------------------------------------------------------------
    def plan(
        self, problem: SchedulingProblem, groups: Sequence[PoolGroup]
    ) -> SchedulingResult:
        """One planning run over ``problem``, whose offers ``groups`` hold.

        Every clean placement that still fits its offer is kept and the
        scheduler re-places the rest (all of them on a first run).  On
        return each group holds the committed plan's placement, a group the
        plan moved no longer counts as committed (:attr:`PoolGroup.plan`),
        the dirty set is drained, and ``schedule.warm_started`` (runs that
        kept a placement), ``schedule.certified_runs`` (runs whose plan a
        pass proved optimal before the last one, so the scheduler stopped
        there) and ``delta.reused_placements`` /
        ``delta.replaced_placements`` have counted the run.
        """
        dirty = self.dirty
        retained: list[Placement | None] = []
        for group, consts in zip(groups, problem.offer_constants):
            if group.key in dirty:
                retained.append(None)
                continue
            if group.consts is not consts:
                fits = _fits(group.placement, consts)
            elif not (fits := group.fits):
                fits = group.fits = _fits(group.placement, consts)
            retained.append(group.placement if fits else None)
        result = self.scheduler.schedule(
            problem, max_passes=self.passes, rng=self.rng, retained=retained
        )
        reused = sum(kept is not None for kept in retained)
        if reused:
            self.metrics.counter("schedule.warm_started").inc()
        if result.evaluations < self.passes:
            self.metrics.counter("schedule.certified_runs").inc()
        self.metrics.counter("delta.reused_placements").inc(reused)
        self.metrics.counter("delta.replaced_placements").inc(len(groups) - reused)
        # A kept placement is the solution's as it stands: only the re-placed
        # groups get a new one, and it fits the constants it was made under.
        for group, consts, kept, start, energies in zip(
            groups,
            problem.offer_constants,
            retained,
            result.solution.starts.tolist(),
            result.solution.energies,
        ):
            if kept is None:
                prior = group.placement
                if (
                    prior is None
                    or prior[0] != start
                    or prior[1].tolist() != energies.tolist()
                ):
                    group.plan = -1
                group.placement = (start, energies)
                group.fits = group.consts is consts
        dirty.clear()
        return result
