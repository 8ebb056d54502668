"""The one planning pass both runtime tiers run over a window.

At the TSO "the process is essentially repeated at a higher level" (§3);
this is that process's planning half, written once.  A tier builds one
:class:`PlanSession` from what its planner *is* (scheduler, passes, market,
seed, metrics registry, optional net forecast) and hands
:meth:`PlanSession.plan_window` its ordered candidates — the BRP its
aggregate pool by group id, the TSO its re-aggregated supers keyed by their
member-macro-id join.  Eligibility and clipping, the rolling forecast
window, the flat market, the :class:`SchedulingProblem`, the planner call
and the ``delta.*`` counters live here and nowhere else.

Inside the pass, :meth:`PlanSession.plan` is the seam between full and
delta planners: it keeps the warm-start cache and the dirty key set fed by
the aggregation pipeline's per-flush
:class:`~repro.aggregation.updates.DirtySet`, and routes a run either to a
delta-capable scheduler (with a :class:`~repro.scheduling.delta.
DeltaRequest`) or down the classic warm-started path, so swapping
``--scheduler delta`` in changes nothing but the planner.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ..aggregation.aggregator import AggregatedFlexOffer
from ..aggregation.updates import DirtySet
from ..api.registry import KIND_SCHEDULER, default_registry
from ..core.flexoffer import FlexOffer
from ..core.schedule import Schedule
from ..core.timeseries import TimeSeries
from ..obs.tracing import NullTracer, Tracer
from ..scheduling import Market
from ..scheduling.delta import DeltaRequest
from ..scheduling.problem import CandidateSolution, SchedulingProblem
from ..scheduling.result import SchedulingResult
from .config import MarketConfig
from .metrics import MetricsRegistry

__all__ = [
    "PlanSession",
    "WindowPlan",
    "eligible_for_window",
    "net_forecast_window",
    "report_adaptive",
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


def eligible_for_window(aggregate: FlexOffer, start: int, end: int) -> FlexOffer | None:
    """The schedulable form of ``aggregate`` for ``[start, end)``, or None.

    One definition of plan eligibility for both scheduling tiers (the BRP
    pool, the TSO's macros and its super-aggregates): an aggregate is out
    when its start window closed, its profile cannot finish inside the
    horizon, or the tightest member assignment deadline passed.  An
    aggregate whose earliest start passed while the window is still open is
    *clipped* to start no earlier than ``start`` — disaggregation must run
    against the unclipped original, whose member offsets are anchored at
    the original earliest start (:attr:`WindowPlan.originals`).
    """
    if (
        aggregate.latest_start < start
        or aggregate.latest_start + aggregate.duration > end
    ):
        return None
    if (
        aggregate.assignment_before is not None
        and aggregate.assignment_before <= start
    ):
        return None
    if aggregate.earliest_start < start:
        return aggregate.with_times(start, aggregate.latest_start)
    return aggregate


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


def report_adaptive(
    policies: Iterable, metrics: MetricsRegistry, tracer: Tracer | NullTracer, node: str
) -> None:
    """One control step per adaptive policy, after each scheduling run.

    The policies' ``observe`` hook is the only place trigger thresholds
    change (REP009); a tier (the BRP with its adaptive trigger members, the
    TSO with its adaptive cooldown) just counts and traces each adjustment.
    """
    for policy in policies:
        record = policy.observe(metrics)
        if record is None:
            continue
        metrics.counter("trigger.adaptive_adjustments").inc()
        if tracer.enabled:
            tracer.trigger_event(
                node=node,
                fired=[type(policy).__name__],
                decision=False,
                detail={"adjustment": record},
            )


class WindowPlan(NamedTuple):
    """One non-empty planned window; the sequences cover the eligible
    candidates only, in candidate order."""

    result: SchedulingResult
    schedule: Schedule
    originals: tuple[AggregatedFlexOffer, ...]
    """The unclipped candidates — what disaggregation must run against."""
    keys: tuple[str, ...]


class PlanSession:
    """One tier's planner: scheduler, market, rng, warm cache, dirty set.

    Keys are stable identities for pool entries across runs: aggregate
    group ids at the BRP tier, member-macro id joins at the TSO tier.
    """

    def __init__(
        self,
        scheduler: str = "greedy",
        *,
        passes: int = 2,
        market: MarketConfig | None = None,
        seed: int = 0,
        metrics: MetricsRegistry | None = None,
        net_forecast: TimeSeries | None = None,
    ) -> None:
        self.scheduler = default_registry().create_with_capability(
            KIND_SCHEDULER, scheduler, "runtime"
        )
        self.passes = passes
        self.market = market if market is not None else MarketConfig()
        self.rng = np.random.default_rng(seed)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.net_forecast = net_forecast
        #: key -> (absolute start slice, per-slice energies) of the last plan.
        self.warm: dict[str, tuple[int, np.ndarray]] = {}
        #: Keys created/changed since the last successful :meth:`plan`.
        self.dirty: set[str] = set()
        # Introspection for the tier's metrics, refreshed per plan():
        self.last_mode = "cold"
        self.last_reused = 0
        self.last_replaced = 0
        self.last_warm_started = False

    # ------------------------------------------------------------------
    def absorb(self, dirty: DirtySet) -> None:
        """Fold one flush's dirty set into the session.

        Deleted keys leave the warm cache immediately (their aggregates are
        gone from the pool); created/changed keys accumulate until the next
        :meth:`plan` consumes them.
        """
        self.dirty |= dirty.group_ids
        for key in dirty.deleted:
            self.warm.pop(key, None)

    def mark_dirty(self, keys) -> None:
        """Mark keys dirty directly (the TSO's per-sender snapshot diff)."""
        self.dirty.update(keys)

    # ------------------------------------------------------------------
    def plan_window(
        self,
        candidates: Iterable[tuple[str, AggregatedFlexOffer]],
        start: int,
        end: int,
    ) -> WindowPlan | None:
        """Plan ``[start, end)`` over the tier's ordered ``(key, aggregate)``s.

        The eligible (possibly clipped) candidates become one problem,
        priced against the rolling forecast window and the flat market and
        planned through :meth:`plan`.  ``None`` when nothing is eligible —
        the caller counts that under its own ``*.empty_runs``.
        """
        eligible: list[tuple[str, FlexOffer]] = []
        originals: list[AggregatedFlexOffer] = []
        for key, original in candidates:
            aggregate = eligible_for_window(original, start, end)
            if aggregate is None:
                continue
            eligible.append((key, aggregate))
            originals.append(original)
        if not eligible:
            return None
        market = self.market
        problem = SchedulingProblem(
            net_forecast=net_forecast_window(self.net_forecast, start, end),
            offers=tuple(aggregate for _, aggregate in eligible),
            market=_flat_market(end - start, market.buy_price, market.sell_price),
            shortage_penalty=np.array(market.shortage_penalty),
            surplus_penalty=np.array(market.surplus_penalty),
        )
        result = self.plan(
            problem, eligible, self.scheduler, passes=self.passes, rng=self.rng
        )
        if self.last_mode == "delta":
            self.metrics.counter("delta.runs").inc()
            self.metrics.counter("delta.reused_placements").inc(self.last_reused)
            self.metrics.counter("delta.replaced_placements").inc(
                self.last_replaced
            )
        elif self.last_mode == "full":  # a delta scheduler's full-pass fallback
            self.metrics.counter("delta.full_fallbacks").inc()
        return WindowPlan(
            result,
            problem.to_schedule(result.solution),
            tuple(originals),
            tuple(key for key, _ in eligible),
        )

    # ------------------------------------------------------------------
    def warm_candidate(
        self, eligible: Sequence[tuple[str, FlexOffer]]
    ) -> CandidateSolution | None:
        """Previous plan projected onto the current pool (None if all new).

        Per entry: a prior placement whose duration still matches is
        clipped into the offer's current start window and energy bounds;
        entries without a usable prior fall back to the earliest-start /
        minimum-energy placement.  When *no* entry has a usable prior the
        candidate is pure default and not worth an extra solver pass.
        """
        starts: list[int] = []
        energies: list[np.ndarray] = []
        any_warm = False
        for key, offer in eligible:
            prior = self.warm.get(key)
            if prior is not None and len(prior[1]) == offer.duration:
                start = min(
                    max(prior[0], offer.earliest_start), offer.latest_start
                )
                values = np.clip(
                    prior[1],
                    offer.profile.min_array,
                    offer.profile.max_array,
                )
                any_warm = True
            else:
                start = offer.earliest_start
                values = np.array(offer.profile.min_energies())
            starts.append(start)
            energies.append(values)
        if not any_warm:
            return None
        return CandidateSolution(np.array(starts, dtype=np.int64), energies)

    # ------------------------------------------------------------------
    def plan(
        self,
        problem: SchedulingProblem,
        eligible: Sequence[tuple[str, FlexOffer]],
        scheduler,
        *,
        passes: int,
        rng: np.random.Generator,
    ) -> SchedulingResult:
        """One planning run through the session.

        A scheduler advertising the ``delta`` capability receives a
        :class:`DeltaRequest` built from the accumulated dirty set; any
        other scheduler gets the classic warm-start seeding.  On return the
        warm cache reflects the committed plan for every key, the dirty set
        is drained, and ``last_mode`` / ``last_reused`` / ``last_replaced``
        describe what the planner actually did.
        """
        keys = tuple(key for key, _ in eligible)
        capabilities = getattr(scheduler, "capabilities", frozenset())
        self.last_warm_started = False
        if "delta" in capabilities:
            request = DeltaRequest(
                keys=keys,
                dirty=frozenset(self.dirty),
                window_start=problem.horizon_start,
            )
            result = scheduler.schedule(
                problem, max_passes=passes, rng=rng, delta=request
            )
            stats = getattr(scheduler, "last_stats", {})
            self.last_mode = str(stats.get("mode", "delta"))
            self.last_reused = int(stats.get("reused", 0))
            self.last_replaced = int(stats.get("replaced", len(keys)))
        else:
            warm = self.warm_candidate(eligible)
            result = scheduler.schedule(
                problem,
                max_passes=passes + (1 if warm is not None else 0),
                rng=rng,
                warm_start=warm,
            )
            self.last_mode = "warm" if warm is not None else "cold"
            self.last_warm_started = warm is not None
            self.last_reused = 0
            self.last_replaced = len(keys)

        for key, start, energies in zip(
            keys, result.solution.starts, result.solution.energies
        ):
            self.warm[key] = (int(start), np.asarray(energies).copy())
        self.dirty.clear()
        return result
