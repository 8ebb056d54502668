"""The event-driven BRP service loop: ingest → aggregate → schedule → disaggregate.

This is the online counterpart of :mod:`repro.node.simulation`'s one-shot
planning day.  A :class:`BrpRuntimeService` consumes a continuous stream of
flex-offer arrivals over a pluggable :class:`~repro.runtime.drivers.TimeDriver`
(deterministic simulated time by default; real time via
:class:`~repro.runtime.drivers.WallClockDriver`),
maintains the aggregate pool *incrementally* — by default through the
columnar :class:`~repro.aggregation.engine.PackedAggregationPipeline`
(every engine registered in :mod:`repro.api.registry` is selectable via
``AggregationConfig(engine=...)``) — and re-plans when a
:mod:`~repro.runtime.triggers` policy fires.  Planning is not written here:
the service hands its pool, sorted by group id, to the one planning pass in
:mod:`repro.runtime.planning` (the TSO tier is that pass's other caller) and
commits the returned schedule to the members.  The pass warm-starts the
scheduler from the previous plan and prices placements through the batched
:class:`~repro.scheduling.engine.CostEngine` kernel, so sustained streams
pay only for what changed.

Lifecycle states flow through the :class:`~repro.datamgmt.mirabel.LedmsStore`
(``submitted → accepted → aggregated → scheduled → executed/expired``), and a
:class:`~repro.runtime.metrics.MetricsRegistry` is threaded through every
stage so load tests report throughput and end-to-end latency.
"""

from __future__ import annotations

import heapq
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..aggregation.aggregator import AggregatedFlexOffer
from ..aggregation.pipeline import make_pipeline
from ..aggregation.updates import AggregateUpdate, UpdateKind
from ..core.errors import ServiceError
from ..core.flexoffer import FlexOffer
from ..core.timeseries import TimeSeries
from ..datamgmt.mirabel import LedmsStore
from ..ledger.codec import content_key, offer_json
from ..ledger.ledger import OfferLedger
from ..obs.tracing import NullTracer, Tracer
from ..scheduling import SchedulingResult
from .config import ServiceConfig
from .drivers import SimulatedDriver, TimeDriver, sim_clock
from .ingest import FlexOfferIngest
from .metrics import Histogram, MetricsRegistry
from .planning import PlanSession, report_adaptive
from .triggers import AdaptiveTrigger, AnyTrigger, TriggerContext

__all__ = [
    "RuntimeReport",
    "BrpRuntimeService",
    "SubmitResult",
]


@dataclass(frozen=True)
class SubmitResult:
    """Outcome of one submit/update operation.

    Truthiness mirrors acceptance, so ``if client.submit(offer):`` works.
    """

    accepted: bool
    offer_id: int
    offer: FlexOffer | None
    """The admitted (possibly window-clipped) offer; None when rejected."""
    reason: str | None = None
    """Why admission failed (None when accepted)."""
    duplicate: bool = False
    """Deflected by the idempotency guard: the other fields carry the
    *originally recorded* outcome, not a re-derived one."""

    def __bool__(self) -> bool:
        return self.accepted


def _adaptive_policies(trigger) -> tuple:
    """The adaptive members of a trigger policy (empty when static).

    The service calls each member's ``observe`` hook after every scheduling
    run — the closed loop's only threshold-mutation seam (REP009).
    """
    policies = getattr(trigger, "policies", (trigger,))
    return tuple(p for p in policies if hasattr(p, "observe"))


@dataclass
class RuntimeReport:
    """Summary of one runtime/load-test run."""

    duration_slices: float
    wall_seconds: float
    offers_submitted: int
    offers_accepted: int
    offers_rejected: int
    offers_scheduled: int
    offers_executed: int
    offers_expired: int
    aggregation_runs: int
    scheduling_runs: int
    empty_scheduling_runs: int
    trigger_fires: dict[str, int]
    pool_aggregates: int
    pool_offers: int
    latency_slices_p50: float
    latency_slices_p95: float
    latency_wall_p50: float
    latency_wall_p95: float
    state_counts: dict[str, int] = field(default_factory=dict)
    events_processed: int = 0
    """Events the queue ran: arrivals plus sweep/report ticks."""

    @property
    def offers_per_second(self) -> float:
        """Wall-clock ingest throughput of the whole loop."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.offers_accepted / self.wall_seconds

    def as_text(self) -> str:
        lines = [
            f"simulated duration    {self.duration_slices:g} slices",
            f"wall time             {self.wall_seconds:.3f} s",
            f"offers submitted      {self.offers_submitted}",
            f"offers accepted       {self.offers_accepted}",
            f"offers rejected       {self.offers_rejected}",
            f"offers scheduled      {self.offers_scheduled}",
            f"offers executed       {self.offers_executed}",
            f"offers expired        {self.offers_expired}",
            f"throughput            {self.offers_per_second:.1f} offers/sec",
            f"events processed      {self.events_processed}",
            f"aggregation runs      {self.aggregation_runs}",
            f"scheduling runs       {self.scheduling_runs} "
            f"({self.empty_scheduling_runs} empty)",
            "trigger fires         "
            + (
                ", ".join(f"{k}={v}" for k, v in sorted(self.trigger_fires.items()))
                or "none"
            ),
            f"aggregate pool        {self.pool_aggregates} aggregates / "
            f"{self.pool_offers} offers",
            f"e2e latency (sim)     p50={self.latency_slices_p50:.2f} "
            f"p95={self.latency_slices_p95:.2f} slices",
            f"e2e latency (wall)    p50={self.latency_wall_p50 * 1e3:.2f} "
            f"p95={self.latency_wall_p95 * 1e3:.2f} ms",
        ]
        if self.state_counts:
            states = ", ".join(
                f"{k}={v}" for k, v in self.state_counts.items() if v
            )
            lines.append(f"store state counts    {states}")
        return "\n".join(lines)


class BrpRuntimeService:
    """Event-driven LEDMS service loop for one BRP node."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        net_forecast: TimeSeries | None = None,
        driver: TimeDriver | None = None,
        name: str = "brp",
        tracer: Tracer | NullTracer | None = None,
        ledger: OfferLedger | None = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.store = LedmsStore(self.config.axis)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.driver: TimeDriver = (
            driver if driver is not None else SimulatedDriver()
        )
        #: This node's name — the bus address in a cluster, and the ``brp``
        #: label on per-stage metrics and trace events.
        self.name = name
        # A tracer is injected (how a cluster shares one ring/event-log
        # across every node); the default is the no-op NullTracer, so
        # instrumentation guards stay cheap.
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Optional durable event ledger: every state-changing ingest path
        #: journals an immutable fact through it, the idempotency guard
        #: deflects duplicate submissions, and recovery replays the log.
        self.ledger = ledger
        if ledger is not None:
            ledger.node = name
        self.tracer.bind_clock(sim_clock(self.driver))
        if self.tracer.enabled:
            self.store.subscribe(self._trace_store_event)
        self._stage_hists: dict[str, Histogram] = {}
        # Instruments touched once per arriving offer, looked up once.
        self._submitted_counter = self.metrics.counter("runtime.offers_submitted")
        self._live_gauge = self.metrics.gauge("runtime.live_offers")
        self.ingest = FlexOfferIngest(
            make_pipeline(
                self.config.aggregation.parameters,
                engine=self.config.aggregation.engine,
            ),
            store=self.store,
            metrics=self.metrics,
            batch_size=self.config.ingest.batch_size,
            max_duration_slices=self.config.ingest.max_duration_slices,
        )
        self.pool: dict[str, AggregateUpdate] = {}
        self.last_schedule = None
        #: The *unclipped* pool aggregates behind :attr:`last_schedule`, in
        #: assignment order — what a cluster's BRP publishes as its
        #: committed macro flex-offers to the TSO tier (member offsets are
        #: anchored at the unclipped earliest start, so these are the
        #: objects remote disaggregation must run against).
        self.last_plan_originals: tuple[AggregatedFlexOffer, ...] = ()
        #: Callbacks invoked with each non-empty :class:`SchedulingResult`
        #: after its plan has been committed (the facade's
        #: ``on_plan_committed`` hook attaches here).
        self.plan_listeners: list[Callable[[SchedulingResult], None]] = []
        self._live: dict[int, FlexOffer] = {}
        self._scheduled: set[int] = set()
        self._scheduled_total = 0
        self._committed_start: dict[int, int] = {}
        # aggregate offer_id -> (start, energies) of the last disaggregated
        # plan.  A pool change always materialises a *new* aggregate (new
        # offer_id), so an unchanged key proves every member's schedule is
        # unchanged and the whole disaggregation can be skipped.
        self._plan_cache: dict[int, tuple[int, tuple]] = {}
        self._stream_overflow: tuple[Iterable, float, FlexOffer] | None = None
        self._arrival_sim: dict[int, float] = {}
        self._arrival_wall: dict[int, float] = {}
        #: This tier's planner (:mod:`repro.runtime.planning`): scheduler,
        #: market, rng, warm-start cache and dirty key set live here.
        self.session = PlanSession(
            self.config.scheduling.scheduler,
            passes=self.config.scheduling.scheduler_passes,
            market=self.config.market,
            seed=self.config.scheduling.seed,
            metrics=self.metrics,
            net_forecast=net_forecast,
        )
        self._offers_since_run = 0
        self._last_run_time = -math.inf
        #: The effective trigger policy.  With
        #: ``SchedulingConfig.target_p95_slices`` set and no adaptive policy
        #: configured explicitly, the closed-loop default replaces the
        #: static composite (the adaptive policy owns count+age semantics).
        target = self.config.scheduling.target_p95_slices
        trigger = self.config.scheduling.trigger
        if target is not None and not _adaptive_policies(trigger):
            trigger = AdaptiveTrigger(target)
        self.trigger = trigger
        self._adaptive = _adaptive_policies(trigger)
        # Running trigger-context state, so per-arrival trigger evaluation
        # stays O(1) instead of scanning every live offer: total magnitude
        # of unscheduled energy plus an arrival-ordered heap for the oldest
        # unscheduled offer (entries invalidated lazily).
        self._unscheduled_energy = 0.0
        self._pending_heap: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _trace_store_event(self, offer_id: int, state: str, now: int) -> None:
        """Mirror store lifecycle transitions into the trace (if sampled)."""
        if self.tracer.enabled:
            self.tracer.offer_event(offer_id, state, node=self.name)

    def _stage(self, stage: str):
        """A span around one pipeline stage (no-op under NullTracer)."""
        return self.tracer.span(stage, node=self.name, labels={"stage": stage})

    def _observe_stage(self, stage: str, seconds: float) -> None:
        """Feed the labeled per-stage wall-time histogram (hoisted lookup)."""
        hist = self._stage_hists.get(stage)
        if hist is None:
            hist = self._stage_hists[stage] = self.metrics.histogram(
                "stage.wall_seconds", labels={"brp": self.name, "stage": stage}
            )
        hist.observe(seconds)

    def trace_shutdown(self) -> None:
        """Close the trace: mark offers still live at end of run.

        Emits a ``live_at_shutdown`` lifecycle event for every live offer,
        so a trace validator can require that each submitted offer reaches
        *some* terminal event even when the run window closed mid-flight.
        """
        if not self.tracer.enabled:
            return
        for offer_id in sorted(self._live):
            self.tracer.offer_event(
                offer_id, "live_at_shutdown", node=self.name
            )

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time in slice units, as the driver defines it."""
        return self.driver.now

    @property
    def now_slice(self) -> int:
        """First whole slice at which anything can still be started."""
        return int(math.ceil(self.now))

    @property
    def live_offers(self) -> int:
        """Accepted offers not yet retired."""
        return len(self._live)

    # -- per-offer views (the stable seam the api facade reads) ---------
    def is_live(self, offer_id: int) -> bool:
        """Whether the offer is in the active pool (not retired)."""
        return offer_id in self._live

    def is_scheduled(self, offer_id: int) -> bool:
        """Whether the current plan covers the offer."""
        return offer_id in self._scheduled

    def committed_start(self, offer_id: int) -> int | None:
        """The start slice the plan committed the offer to (None if none)."""
        return self._committed_start.get(offer_id)

    @property
    def scheduled_total(self) -> int:
        """Cumulative unique offers ever scheduled by this service."""
        return self._scheduled_total

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def submit(self, offer: FlexOffer, source_event_id: str | None = None) -> FlexOffer | None:
        """:meth:`submit_fact`, reduced to the accepted offer (``None`` = rejected).

        What the arrival loop and the internal re-admissions call: truthy on
        acceptance, so boolean call sites keep working.
        """
        return self.submit_fact(offer, source_event_id).offer

    def submit_fact(
        self, offer: FlexOffer, source_event_id: str | None = None
    ) -> SubmitResult:
        """Admit one offer at the current time; the full recorded outcome.

        The accepted offer may be window-clipped; a rejection carries its
        reason.  With a ledger attached the submission is journaled as an
        immutable fact, and a duplicate (same ``source_event_id``,
        content-derived by default) is deflected to the *originally
        recorded* result instead of double-counting.
        """
        led = self.ledger
        recording = led is not None and led.recording_inputs
        sid, text = source_event_id, None
        if recording:
            sid, text, duplicate = self._deflect_duplicate(offer, sid)
            if duplicate is not None:
                return duplicate
        self._submitted_counter.inc()
        accepted = self.ingest.submit(offer, self.now_slice)
        if accepted is None:
            reason = self.ingest.reject_reason(offer, self.now_slice)
            result = SubmitResult(False, offer.offer_id, None, reason or "rejected")
        else:
            oid = accepted.offer_id
            self._live[oid] = accepted
            self._arrival_sim[oid] = self.now
            self._arrival_wall[oid] = time.perf_counter()
            self._offers_since_run += 1
            self._unscheduled_energy += self._offer_energy(accepted)
            heapq.heappush(self._pending_heap, (self.now, oid))
            self._live_gauge.set(len(self._live))
            result = SubmitResult(True, oid, accepted)
        if recording:
            # Journal before the aggregation/trigger cascade below, so the
            # submit fact precedes any derived facts it causes.
            self._journal_submit("submit", offer, sid, text, result)
        if accepted is not None:
            if self.ingest.batch_full:
                self.run_aggregation()
            self.maybe_schedule()
        return result

    def update(
        self, offer: FlexOffer, source_event_id: str | None = None
    ) -> SubmitResult:
        """Replace a live offer (same ``offer_id``) with a revised one.

        The revision is validated *before* the previous version is touched,
        so a rejected update leaves the existing offer intact; otherwise
        :meth:`_replace` swaps the versions.  Updating an unknown/retired id
        degrades to a plain submit.

        With a ledger attached the edit journals as one ``reverse`` +
        ``replace`` correction pair (the inner withdraw/submit facts are
        suppressed; derived facts keep recording) — a revision rejected
        before the pool was touched as a lone rejected ``replace`` — and a
        duplicate returns the originally recorded result.
        """
        led = self.ledger
        recording = led is not None and led.recording_inputs
        sid, text = source_event_id, None
        if recording:
            sid, text, duplicate = self._deflect_duplicate(offer, sid)
            if duplicate is not None:
                return duplicate
        reason = self.ingest.reject_reason(offer, self.now_slice)
        if reason is not None:
            result = SubmitResult(False, offer.offer_id, None, reason)
            if recording:
                self._journal_submit("replace", offer, sid, text, result)
            return result
        if not recording:
            return self._replace(offer)
        # Journal the compensating half before touching the pool, so
        # derived facts the edit triggers land between the pair.
        led.record_reverse(offer.offer_id, at=self.now, replaced_by=sid)
        with led.suspended():
            result = self._replace(offer)
        self._journal_submit(
            "replace", offer, sid, text, result, reverses=offer.offer_id
        )
        return result

    def _replace(self, offer: FlexOffer) -> SubmitResult:
        """The withdraw-flush-resubmit core of :meth:`update`.

        The previous version's delete update is flushed through the
        aggregation pipeline first, so the insert cannot pair with a stale
        state; then the revision is admitted like a fresh submission.
        Under a wall-clock driver the admission clock may tick between
        those steps; if the revision fails that second check, the previous
        version is re-admitted, so the prosumer never loses a live offer to
        a rejected update (unless its own window closed in the meantime —
        ordinary expiry).
        """
        previous = self.withdraw(offer.offer_id)
        if previous is not None:
            self.run_aggregation()
        result = self.submit_fact(offer)
        if not result.accepted and previous is not None:
            self.submit(previous)  # best-effort reinstatement
        return result

    def _deflect_duplicate(
        self, offer: FlexOffer, source_event_id: str | None
    ) -> tuple[str, str | None, SubmitResult | None]:
        """The idempotency guard of both ledger-recorded front doors.

        Returns the submission's idempotency key (content-derived unless
        given), the offer's JSON text when deriving the key rendered it
        (the fact journals that same text; ``None`` for a given key) and,
        when the key was journaled before, the originally recorded outcome:
        the duplicate is journaled and counted, nothing is double-counted
        and nothing re-enters the pipeline.
        """
        sid, text = source_event_id, None
        if sid is None:
            text = offer_json(offer)
            sid = content_key(offer, text)
        prior = self.ledger.recorded_result(sid)
        if prior is None:
            return sid, text, None
        self.ledger.note_duplicate(sid, offer_id=prior.offer_id, at=self.now)
        self.metrics.counter("ledger.duplicates").inc()
        if self.tracer.enabled:
            self.tracer.ledger_event(
                "duplicate",
                prior.offer_id,
                node=self.name,
                detail={"source_event_id": sid},
            )
        live = self._live.get(prior.offer_id) if prior.accepted else None
        return sid, text, SubmitResult(
            prior.accepted, prior.offer_id, live, prior.reason, duplicate=True
        )

    def _journal_submit(
        self,
        kind: str,
        offer: FlexOffer,
        sid: str,
        text: str | None,
        result: SubmitResult,
        reverses: int | None = None,
    ) -> None:
        """Journal one ``submit``/``replace`` fact; count and trace it.

        ``text`` is the offer's JSON text when :meth:`_deflect_duplicate`
        rendered it for the content key, so a journaled submission renders
        its offer once.  A rejection also lands in the dead-letter queue
        (the ledger routes it), so the ``ledger.dead_letters`` counter moves
        with the queue.
        """
        self.ledger.record_submit(
            offer,
            at=self.now,
            source_event_id=sid,
            accepted=result.accepted,
            reason=result.reason,
            accepted_offer=result.offer,
            kind=kind,
            reverses=reverses,
            offer_text=text,
        )
        if not result.accepted:
            self.metrics.counter("ledger.dead_letters").inc()
        if self.tracer.enabled:
            self.tracer.ledger_event(
                kind,
                offer.offer_id,
                node=self.name,
                detail={"accepted": result.accepted},
            )
            if not result.accepted:
                self.tracer.dlq_event(
                    offer.offer_id, result.reason, node=self.name
                )

    def withdraw(self, offer_id: int) -> FlexOffer | None:
        """Retract a live offer before execution; returns it, or ``None``.

        The offer leaves the aggregation pool through a delete update and
        its lifecycle ends in the ``withdrawn`` state.  Offers already
        executed/expired (no longer live) cannot be withdrawn.
        """
        offer = self._live.pop(offer_id, None)
        if offer is None:
            return None
        led = self.ledger
        if led is not None and led.recording_inputs:
            led.record_withdraw(offer_id, at=self.now)
            if self.tracer.enabled:
                self.tracer.ledger_event("withdraw", offer_id, node=self.name)
        if offer_id not in self._scheduled:
            self._unscheduled_energy -= self._offer_energy(offer)
        self.ingest.retire([offer], self.now_slice, "withdrawn")
        self._scheduled.discard(offer_id)
        self._arrival_sim.pop(offer_id, None)
        self._arrival_wall.pop(offer_id, None)
        self._committed_start.pop(offer_id, None)
        self.metrics.counter("runtime.offers_withdrawn").inc()
        self._live_gauge.set(len(self._live))
        return offer

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def run_aggregation(self) -> list[AggregateUpdate]:
        """Flush the ingest batch through the incremental pipeline."""
        if self.ingest.pending_updates == 0:
            return []
        t0 = time.perf_counter()
        with self._stage("aggregate"):
            updates = self.ingest.flush(self.now_slice)
            for update in updates:
                if update.kind is UpdateKind.DELETED:
                    self.pool.pop(update.group_id, None)
                else:
                    self.pool[update.group_id] = update
            # The pipeline reported which groups this flush touched; the
            # session accumulates them for the next delta-planning run
            # (and evicts deleted groups from the warm-start cache).
            self.session.absorb(self.ingest.last_dirty)
        elapsed = time.perf_counter() - t0
        self.metrics.counter("aggregate.runs").inc()
        self.metrics.histogram("aggregate.batch_seconds").observe(elapsed)
        self.metrics.gauge("aggregate.pool_size").set(len(self.pool))
        self._observe_stage("aggregate", elapsed)
        return updates

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    @staticmethod
    def _offer_energy(offer: FlexOffer) -> float:
        """The offer's largest-magnitude total energy (trigger accounting)."""
        return max(abs(offer.total_min_energy), abs(offer.total_max_energy))

    def _oldest_unscheduled_age(self) -> float:
        """Age of the oldest live unscheduled offer (lazy heap cleanup)."""
        while self._pending_heap:
            arrival, oid = self._pending_heap[0]
            if oid in self._live and oid not in self._scheduled:
                return self.now - arrival
            heapq.heappop(self._pending_heap)
        return 0.0

    def _trigger_context(self) -> TriggerContext:
        return TriggerContext(
            now=self.now,
            offers_since_last_run=self._offers_since_run,
            oldest_unscheduled_age=self._oldest_unscheduled_age(),
            unscheduled_energy_kwh=max(0.0, self._unscheduled_energy),
        )

    @contextmanager
    def scheduling_suspended(self):
        """Gate every non-forced scheduling run for the ``with`` body.

        Parks the trigger cooldown clock at ``+inf`` and restarts it at the
        current instant on exit — the seam ledger replay uses so
        re-admission cannot fire triggers over a half-rebuilt pool.  This
        is the only sanctioned way to touch the cadence state from outside
        the service (replint rule REP009).
        """
        self._last_run_time = float("inf")
        try:
            yield
        finally:
            self._last_run_time = self.now

    def maybe_schedule(self, force: bool = False) -> SchedulingResult | None:
        """Run scheduling if the trigger policy fires (or ``force``)."""
        if not force:
            cooldown = self.config.scheduling.min_run_interval_slices
            if self.now - self._last_run_time < cooldown:
                return None
            context = self._trigger_context()
            trigger = self.trigger
            if isinstance(trigger, AnyTrigger):
                fired = trigger.fired_names(context)  # one evaluation pass
                if not fired:
                    return None
            else:
                if not trigger.should_fire(context):
                    return None
                fired = [type(trigger).__name__]
            for name in fired:
                self.metrics.counter(f"trigger.{name}").inc()
            if self.tracer.enabled:
                self.tracer.trigger_event(
                    node=self.name, fired=fired, decision=True
                )
        elif self.tracer.enabled:
            self.tracer.trigger_event(
                node=self.name, fired=["forced"], decision=True
            )
        return self.run_scheduling()

    def run_scheduling(self) -> SchedulingResult | None:
        """One scheduling run over the eligible aggregate pool."""
        # Retire offers whose committed start or window passed, then flush
        # the batch, so the run never re-plans a device that already began
        # executing and the pool is current.
        self.sweep_expired()
        self.run_aggregation()
        self._last_run_time = self.now
        self._offers_since_run = 0
        self.metrics.counter("schedule.runs").inc()
        t0 = time.perf_counter()
        with self._stage("schedule"):
            result = self._schedule_pool()
        elapsed = time.perf_counter() - t0
        self._observe_stage("schedule", elapsed)
        # ``schedule.run_seconds`` is a documented alias of
        # ``stage.wall_seconds{stage=schedule}``: one timing pair feeds
        # both, and the value covers the whole stage (problem build +
        # solver + disaggregation), not just the solver call.
        self.metrics.histogram("schedule.run_seconds").observe(elapsed)
        report_adaptive(self._adaptive, self.metrics, self.tracer, self.name)
        return result

    def _schedule_pool(self) -> SchedulingResult | None:
        """The planning body of :meth:`run_scheduling` (inside its span)."""
        start = self.now_slice
        # Candidates in group-id order: the pool dict's insertion order
        # depends on how updates interleaved, but the plan for a given pool
        # must not.
        plan = self.session.plan_window(
            [(gid, self.pool[gid].aggregate) for gid in sorted(self.pool)],
            start,
            start + self.config.scheduling.horizon_slices,
        )
        if plan is None:
            self.metrics.counter("schedule.empty_runs").inc()
            return None
        result = plan.result
        self.metrics.gauge("schedule.last_cost", merge="last").set(result.cost)
        self.metrics.gauge("schedule.last_offers", merge="last").set(
            len(plan.keys)
        )
        if self.session.last_warm_started:
            self.metrics.counter("schedule.warm_started").inc()
        self.last_schedule = plan.schedule
        self.last_plan_originals = plan.originals
        self._disaggregate(plan.schedule, plan.originals)
        for listener in self.plan_listeners:
            listener(result)
        return result

    def _disaggregate(self, schedule, originals) -> None:
        """Commit the aggregate schedule to members; record latencies.

        ``originals[i]`` is the pool aggregate behind ``schedule``'s ``i``-th
        assignment — identical to the scheduled offer unless the window was
        clipped (member offsets are relative to the unclipped earliest
        start).  Only member *start commitments* are derived here: the
        aggregate's admissible start shift maps to every member as-is
        (the §4 disaggregation guarantee), and that is all the runtime's
        lifecycle/commitment tracking consumes per re-plan.  Full per-slice
        energy disaggregation (:func:`repro.aggregation.disaggregate`)
        happens at dispatch time, not on every trigger — re-deriving half a
        million member energy vectors per re-plan was the runtime's single
        hottest path.  Re-plans whose aggregate object *and* plan are
        unchanged are skipped outright.
        """
        now = self.now_slice
        latency_sim = self.metrics.histogram("latency.e2e_slices")
        latency_wall = self.metrics.histogram("latency.e2e_wall_seconds")
        trace = self.tracer.enabled
        members_out = 0
        skipped = 0
        cache = self._plan_cache
        fresh_cache: dict[int, tuple[int, tuple]] = {}
        newly_scheduled: list[FlexOffer] = []
        journal = self._pass_journal()
        recommitted: list[AggregatedFlexOffer] = []
        t0 = time.perf_counter()
        with self._stage("disaggregate"):
            for assignment, original in zip(schedule, originals):
                plan = (assignment.start, assignment.energies)
                fresh_cache[original.offer_id] = plan
                if cache.get(original.offer_id) == plan:
                    # Same aggregate object, same plan: every member's
                    # schedule is identical to the one already committed
                    # and recorded.
                    skipped += 1
                    continue
                self._commit_members(
                    original.members,
                    assignment.start - original.earliest_start,
                    latency_sim,
                    latency_wall,
                    newly_scheduled,
                    journal,
                )
                members_out += len(original.members)
                if trace:
                    recommitted.append(original)
            if journal:
                self.ledger.record_scheduled(journal, at=self.now)
            # One store call per pass, ahead of the pass's trace events:
            # each member's "scheduled" still precedes its
            # "aggregated_into" in the event log.
            self._record_scheduled(newly_scheduled, now)
            if trace:
                for original in recommitted:
                    for member in original.members:
                        self.tracer.offer_event(
                            member.offer_id,
                            "aggregated_into",
                            node=self.name,
                            detail={"macro": original.offer_id},
                        )
        self._observe_stage("disaggregate", time.perf_counter() - t0)
        self._plan_cache = fresh_cache
        self.metrics.counter("disaggregate.assignments").inc(members_out)
        self.metrics.counter("disaggregate.unchanged_skipped").inc(skipped)
        self.metrics.gauge("schedule.unique_scheduled").set(self._scheduled_total)

    def _commit_members(
        self,
        members: tuple[FlexOffer, ...],
        delta: int,
        latency_sim,
        latency_wall,
        newly_scheduled: list[FlexOffer],
        journal: list[tuple[int, int]] | None,
    ) -> int:
        """Shift every live member of one aggregate by ``delta``; the count.

        The one member-commit loop, for local plans and remote schedules
        alike; it runs for every member of every re-planned aggregate on
        every trigger, so the books are looked up once per aggregate and a
        re-commitment with no ledger recording is one dict store.  A member
        counts as live only while ``_live`` holds *this object*: the pool,
        ``_live`` and the published originals share the accepted instance,
        so a different one under the same id is a later version (an
        ``update`` while the plan travelled) whose window the start was not
        chosen for, and it is skipped like a retired member.

        ``journal`` is the pass's list from :meth:`_pass_journal` (``None``
        when no ledger records).  This loop calls no ledger method: a
        member whose committed start changes adds ``(offer_id, start)`` to
        the list, in commit order, and the pass that owns the list hands it
        to the ledger once, right after its commit loop.  Nothing else is
        journaled inside a pass, so the facts and their ``seq`` are those
        of one ledger call per member.
        """
        live_version = self._live.get
        scheduled = self._scheduled
        committed_start = self._committed_start
        skipped = 0
        for member in members:
            oid = member.offer_id
            if live_version(oid) is not member:
                skipped += 1
            elif journal is not None or oid not in scheduled:
                self._commit_member(
                    member,
                    member.earliest_start + delta,
                    latency_sim,
                    latency_wall,
                    newly_scheduled,
                    journal,
                )
            else:
                committed_start[oid] = member.earliest_start + delta
        return len(members) - skipped

    def _pass_journal(self) -> list[tuple[int, int]] | None:
        """A fresh list for one pass's changed plan starts; ``None`` when
        no ledger records them.

        The pass that asks for it (:meth:`_disaggregate`,
        :meth:`apply_remote_schedule`) owns it: it threads it through its
        commit loop, journals it with one ``record_scheduled`` call and
        lets it go when it returns.  That call stamps every fact with the
        instant the commit loop ended — the instant each was committed on
        a simulated driver, where time stands still inside a pass; under a
        wall-clock driver a pass's facts share that one ``at``.
        """
        led = self.ledger
        return [] if led is not None and led.recording else None

    def _commit_member(
        self,
        member: FlexOffer,
        start: int,
        latency_sim,
        latency_wall,
        newly_scheduled: list[FlexOffer],
        journal: list[tuple[int, int]] | None,
    ) -> None:
        """Commit one live member the long way (see :meth:`_commit_members`).

        Taken for a member's first commitment and whenever a ledger is
        recording.  A member scheduled for the first time is appended to
        ``newly_scheduled``; the caller records those lifecycle facts in one
        batch (:meth:`_record_scheduled`).
        """
        oid = member.offer_id
        if journal is not None and self._committed_start.get(oid) != start:
            # Every change to a committed plan start is a durable fact —
            # what makes committed schedules survive a crash or outage.
            journal.append((oid, start))
            if self.tracer.enabled:
                self.tracer.ledger_event(
                    "scheduled", oid, node=self.name, detail={"start": start}
                )
        self._committed_start[oid] = start
        if oid not in self._scheduled:
            self._mark_scheduled(oid)
            latency_sim.observe(self.now - self._arrival_sim[oid])
            latency_wall.observe(time.perf_counter() - self._arrival_wall[oid])
            newly_scheduled.append(member)

    def _mark_scheduled(self, oid: int) -> None:
        """A live offer's first commitment: it leaves the unscheduled backlog."""
        self._scheduled.add(oid)
        self._scheduled_total += 1
        self._unscheduled_energy -= self._offer_energy(self._live[oid])

    def restore_commitment(self, offer_id: int, start: int) -> bool:
        """Re-instate a journaled plan start on a live offer; False if not live.

        Projection recovery's seam: the start comes from the ledger, so
        nothing is journaled and no latency is observed — the offer is
        simply scheduled again, in this service's books and in the store.
        """
        offer = self._live.get(offer_id)
        if offer is None:
            return False
        self._committed_start[offer_id] = start
        if offer_id not in self._scheduled:
            self._mark_scheduled(offer_id)
        self._record_scheduled([offer], self.now_slice)
        return True

    def _record_scheduled(self, members: list[FlexOffer], now: int) -> None:
        """Persist the ``scheduled`` transition of ``members`` in one call."""
        if members:
            self.store.record_offer_events(
                [(member.owner, member, "scheduled") for member in members], now
            )

    def apply_remote_schedule(self, scheduled) -> int:
        """Commit a TSO-scheduled macro back onto this node's members.

        The downlink of the cluster's level-3 path — the streaming
        counterpart of :meth:`repro.node.node.BrpNode.
        disaggregate_tso_schedule`.  ``scheduled`` fixes one of this node's
        own published aggregates (see :attr:`last_plan_originals`); its
        admissible start shift maps to every member as-is (the §4
        disaggregation guarantee), and those start commitments replace
        whatever the local plan had committed — the TSO's system-wide
        placement wins.  Like the local `_disaggregate` path, only start
        commitments are derived here; per-slice energy disaggregation
        (:func:`repro.aggregation.disaggregate`) stays a dispatch-time
        concern.  Members that retired, or were replaced by an ``update``,
        while the plan travelled are skipped.  Returns the number of
        members committed.
        """
        aggregate = scheduled.offer
        if not isinstance(aggregate, AggregatedFlexOffer):
            raise ServiceError(
                f"remote schedule for offer {aggregate.offer_id} is not an "
                "aggregated flex-offer"
            )
        now = self.now_slice
        latency_sim = self.metrics.histogram("latency.e2e_slices")
        latency_wall = self.metrics.histogram("latency.e2e_wall_seconds")
        trace = self.tracer.enabled
        newly_scheduled: list[FlexOffer] = []
        journal = self._pass_journal()
        with self._stage("remote_commit"):
            committed = self._commit_members(
                aggregate.members,
                scheduled.start - aggregate.earliest_start,
                latency_sim,
                latency_wall,
                newly_scheduled,
                journal,
            )
            if journal:
                self.ledger.record_scheduled(journal, at=self.now)
            self._record_scheduled(newly_scheduled, now)
            if trace:
                for member in aggregate.members:
                    if self._live.get(member.offer_id) is member:
                        self.tracer.offer_event(
                            member.offer_id,
                            "remote_commit",
                            node=self.name,
                            detail={"macro": aggregate.offer_id},
                        )
        if trace:
            self.tracer.offer_event(
                aggregate.offer_id,
                "macro_commit",
                node=self.name,
                force=True,
                detail={"members": committed},
            )
        # A remote commitment supersedes the cached local plan for this
        # aggregate: the next local re-plan must re-commit the members even
        # when it reproduces the same placement.
        self._plan_cache.pop(aggregate.offer_id, None)
        self.metrics.counter("cluster.remote_commits").inc(committed)
        return committed

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    def sweep_expired(self) -> int:
        """Retire offers whose start window closed; returns the count.

        Scheduled offers transition to ``executed`` once their committed
        start (or, failing that, their start window) has passed — a device
        already running its plan must not be re-planned.  Unscheduled offers
        transition to ``expired``, also when their assignment deadline
        passed with the start window still open.  Both leave the aggregation
        pool via incremental delete updates.
        """
        t0 = time.perf_counter()
        with self._stage("sweep"):
            retired = self._sweep_pool()
        self._observe_stage("sweep", time.perf_counter() - t0)
        return retired

    def _sweep_pool(self) -> int:
        """The retirement body of :meth:`sweep_expired` (inside its span)."""
        now = self.now
        now_slice = self.now_slice
        scheduled = self._scheduled
        committed_start = self._committed_start
        # One pass, each list in live-pool order: the ledger journals
        # executed before expired, and replay fingerprints depend on it.
        executed: list[FlexOffer] = []
        expired: list[FlexOffer] = []
        for oid, offer in self._live.items():
            window_closed = offer.latest_start < now
            if oid in scheduled:
                if window_closed or committed_start.get(oid, math.inf) < now:
                    executed.append(offer)
            elif window_closed or (
                offer.assignment_before is not None
                and offer.assignment_before <= now
            ):
                expired.append(offer)
        led = self.ledger
        if led is not None and led.recording and (executed or expired):
            # One append for the whole sweep (group commit).
            led.record_retire(
                [(offer.offer_id, "executed") for offer in executed]
                + [(offer.offer_id, "expired") for offer in expired],
                at=now,
            )
        self.ingest.retire(executed, now_slice, "executed")
        self.ingest.retire(expired, now_slice, "expired")
        for offer in expired:
            self._unscheduled_energy -= self._offer_energy(offer)
        for offer in (*executed, *expired):
            oid = offer.offer_id
            del self._live[oid]
            self._arrival_sim.pop(oid, None)
            self._arrival_wall.pop(oid, None)
            self._committed_start.pop(oid, None)
            # Keep the scheduled set bounded to live offers; the cumulative
            # count lives in _scheduled_total.
            self._scheduled.discard(oid)
        self.metrics.counter("runtime.offers_executed").inc(len(executed))
        self.metrics.counter("runtime.offers_expired").inc(len(expired))
        self._live_gauge.set(len(self._live))
        retired = len(executed) + len(expired)
        if retired:
            self.run_aggregation()
        return retired

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def arm_arrivals(
        self, arrivals: Iterable[tuple[float, FlexOffer]], end: float
    ) -> None:
        """Lazily chain an arrival stream onto the driver until ``end``.

        One pending arrival at a time, so arbitrarily long streams run in
        constant memory.  The lookahead pulled to discover the window
        closed is held and replayed by a later call on the *same* iterator
        — the multi-window replay contract :meth:`run_stream` (and the
        cluster runtime) rely on.
        """
        arrivals_iter = iter(arrivals)
        # A previous window on this same iterator may have pulled one
        # arrival beyond its end to discover the window closed; replay it.
        if (
            self._stream_overflow is not None
            and self._stream_overflow[0] is arrivals_iter
        ):
            overflow = [self._stream_overflow[1:]]
            self._stream_overflow = None  # other iterators' holds stay put
        else:
            overflow = []

        def arm_next() -> None:
            item = overflow.pop() if overflow else next(arrivals_iter, None)
            if item is None:
                return
            arrival_time, offer = item
            if arrival_time >= end:
                # Hold the lookahead for a follow-up run on this iterator.
                self._stream_overflow = (arrivals_iter, arrival_time, offer)
                return
            self.driver.schedule_at(
                arrival_time,
                lambda offer=offer: (self.submit(offer), arm_next()),
            )

        arm_next()

    def arm_sweep_ticks(self, end: float) -> None:
        """Periodic expiry sweeps + trigger evaluation until ``end``."""
        interval = self.config.ingest.expiry_sweep_interval

        def sweep_tick() -> None:
            self.sweep_expired()
            self.maybe_schedule()
            next_time = self.now + interval
            if next_time < end:
                self.driver.schedule_at(next_time, sweep_tick)

        self.driver.schedule_at(min(self.now + interval, end), sweep_tick)

    def open_window(
        self, arrivals: Iterable[tuple[float, FlexOffer]], end: float
    ) -> None:
        """Open one run window: journal it, arm arrivals and sweep ticks.

        What "a window" means for one BRP, for every loop that hosts one
        (:meth:`run_stream`, the cluster's :class:`~repro.runtime.cluster.
        BrpHost`).  The ``run_window`` marker lets re-execution replay
        re-arm the same expiry-sweep cadence at the same phase.
        """
        led = self.ledger
        if led is not None and led.recording_inputs:
            led.record_run_window(self.now, end, at=self.now)
        self.arm_arrivals(arrivals, end)
        self.arm_sweep_ticks(end)

    def drain(self, end: float) -> None:
        """Close the window that ended at ``end``: sweep, flush, forced plan.

        The ``run_drain`` marker is journaled before the drain runs, so a
        crash *during* it replays it; its absence marks a window cut short
        mid-run.  Replay and :func:`~repro.runtime.faults.continue_stream`
        call this too (the ledger's ``replaying`` flag suppresses the
        marker there).
        """
        led = self.ledger
        if led is not None and led.recording_inputs:
            led.record_run_drain(end, at=self.now)
        self.sweep_expired()
        self.run_aggregation()
        self.maybe_schedule(force=True)

    def run_stream(
        self,
        arrivals: Iterable[tuple[float, FlexOffer]],
        duration_slices: float,
        *,
        report_every: float | None = None,
        report_sink: Callable[[str], None] = print,
    ) -> RuntimeReport:
        """Process an arrival stream for ``duration_slices`` of driver time.

        ``arrivals`` yields ``(time, offer)`` pairs in non-decreasing time
        order (e.g. from :class:`~repro.runtime.loadgen.LoadGenerator.stream`);
        events beyond the window are ignored.  The iterator is consumed
        lazily — one pending arrival at a time — so arbitrarily long streams
        run in constant memory.  After the window closes, :meth:`drain`
        retires, flushes and plans the remaining work.

        Under the default :class:`~repro.runtime.drivers.SimulatedDriver`
        the stream replays deterministically; under a wall-clock driver the
        same arrivals are paced by real time (and concurrent producers can
        inject extra work through the driver's inbox).
        """
        if report_every is not None and report_every <= 0:
            raise ServiceError(
                f"report_every must be positive, got {report_every}"
            )
        t_wall = time.perf_counter()
        start = self.now
        end = start + duration_slices
        self.open_window(arrivals, end)

        if report_every is not None:

            def report_tick() -> None:
                report_sink(
                    f"[t={self.now:8.1f}] live={len(self._live)} "
                    f"pool={len(self.pool)} scheduled={self._scheduled_total} "
                    f"sched_runs="
                    f"{int(self.metrics.counter('schedule.runs').value)}"
                )
                next_time = self.now + report_every
                if next_time < end:
                    self.driver.schedule_at(next_time, report_tick)

            self.driver.schedule_at(min(start + report_every, end), report_tick)

        self.driver.run_until(end)
        self.drain(end)
        return self.report(
            duration_slices=duration_slices,
            wall_seconds=time.perf_counter() - t_wall,
        )

    # ------------------------------------------------------------------
    def report(
        self, *, duration_slices: float, wall_seconds: float
    ) -> RuntimeReport:
        """Snapshot the run into a :class:`RuntimeReport`."""
        def counter(name: str) -> int:
            return int(self.metrics.counter(name).value)

        trigger_fires = {
            name.split(".", 1)[1]: int(instrument.value)
            for name, instrument in self.metrics.items()
            if name.startswith("trigger.")
        }
        sim = self.metrics.histogram("latency.e2e_slices")
        wall = self.metrics.histogram("latency.e2e_wall_seconds")
        return RuntimeReport(
            duration_slices=duration_slices,
            wall_seconds=wall_seconds,
            offers_submitted=counter("runtime.offers_submitted"),
            offers_accepted=counter("ingest.accepted"),
            offers_rejected=counter("ingest.rejected"),
            offers_scheduled=self._scheduled_total,
            offers_executed=counter("runtime.offers_executed"),
            offers_expired=counter("runtime.offers_expired"),
            aggregation_runs=counter("aggregate.runs"),
            scheduling_runs=counter("schedule.runs"),
            empty_scheduling_runs=counter("schedule.empty_runs"),
            trigger_fires=trigger_fires,
            pool_aggregates=len(self.pool),
            pool_offers=self.ingest.input_count,
            latency_slices_p50=sim.p50,
            latency_slices_p95=sim.p95,
            latency_wall_p50=wall.p50,
            latency_wall_p95=wall.p95,
            state_counts=self.store.state_counts(),
            events_processed=self.driver.processed,
        )
