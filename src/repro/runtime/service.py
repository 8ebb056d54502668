"""The event-driven BRP service loop: ingest → aggregate → schedule → disaggregate.

This is the paper's BRP node, run online (Fig. 1's one-shot planning day,
:mod:`repro.experiments.balancing`, runs on it too).  A
:class:`BrpRuntimeService` consumes a continuous stream of
flex-offer arrivals over a pluggable :class:`~repro.runtime.drivers.TimeDriver`
(deterministic simulated time by default; real time via
:class:`~repro.runtime.drivers.WallClockDriver`),
maintains the aggregate pool *incrementally* through the columnar
:class:`~repro.aggregation.engine.PackedAggregationPipeline` — the
runtime's one aggregation engine, whose views the planner reads — and
re-plans when a
:mod:`~repro.runtime.triggers` policy fires.  Planning is not written here:
the service hands its pool, sorted by group id, to the one planning pass in
:mod:`repro.runtime.planning` and commits the returned schedule to the
members.  A cluster's TSO is this service too, its offers the BRPs' macros
(:class:`~repro.runtime.cluster.ClusterRuntime`).  The pass keeps the
previous plan's clean placements and re-places only the changed aggregates
through the batched :class:`~repro.scheduling.engine.CostEngine` kernel, so
sustained streams pay only for what changed.

Lifecycle states flow through the :class:`~repro.datamgmt.mirabel.LedmsStore`
(``submitted → accepted → aggregated → scheduled → executed/expired``), and a
:class:`~repro.runtime.metrics.MetricsRegistry` is threaded through every
stage so load tests report throughput and end-to-end latency.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from ..aggregation.aggregator import AggregatedFlexOffer
from ..aggregation.engine import PackedAggregationPipeline
from ..aggregation.updates import AggregateUpdate, UpdateKind
from ..core.errors import ServiceError
from ..core.flexoffer import FlexOffer
from ..core.schedule import Schedule
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
from .planning import PlanSession, WindowPlan
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


@dataclass(slots=True, eq=False)
class _Cell:
    """One aggregation group's commitment: the start shift of its last plan.

    A member bound to the cell starts at ``offer.earliest_start + delta``:
    by the §4 disaggregation guarantee a placement of the aggregate maps to
    every member by the same shift, so a re-plan of the group moves every
    bound member by writing ``delta`` once.  ``view_id``, ``start`` and
    ``energies`` are the group's last local placement and ``plan`` numbers
    the local plan that carried it: a plan that reproduces that placement
    on the same view, straight after, commits nothing.
    """

    key: str
    """The group id (the planner's key)."""
    delta: int = 0
    view_id: int = -1
    start: int = 0
    energies: np.ndarray | None = None
    plan: int = -1


@dataclass(slots=True, eq=False)
class _LiveOffer:
    """The service's one book entry for an admitted offer, until it retires.

    Its committed start is not stored per member: once a local plan first
    commits the offer, the entry binds to its group's :class:`_Cell` and
    :attr:`start` reads ``offer.earliest_start + cell.delta``.  A live
    offer never changes groups (the group key depends only on the
    immutable offer, and every revision is a new entry), so it binds once.
    A remote schedule or a restored commitment detaches the entry to a
    private start (:attr:`own`) until the group's next local commit
    rebinds it.
    """

    offer: FlexOffer
    """The accepted (possibly window-clipped) version."""
    seq: int
    """Admission count: orders offers as ``_live`` does."""
    arrival_sim: float
    arrival_wall: float
    energy: float
    """``max(|total_min_energy|, |total_max_energy|)``, computed once at
    admission: what the unscheduled-energy book adds and subtracts."""
    cell: _Cell | None = None
    """The group's commitment cell, from the first local commitment on."""
    own: int | None = None
    """A private committed start that overrides the cell while set."""

    @property
    def start(self) -> int | None:
        """The committed plan start; ``None`` until first committed."""
        own = self.own
        if own is None:
            cell = self.cell
            if cell is not None:
                return self.offer.earliest_start + cell.delta
        return own


_admission_seq = operator.attrgetter("seq")

#: Simulated slices between the periodic sweeps that retire closed-window
#: offers and re-evaluate the trigger.
EXPIRY_SWEEP_SLICES = 4.0

# What ``_live.get`` returns for an id that is not live: its ``offer`` is no
# member, so the commit loop tests liveness and version with one identity
# check.
_GONE = _LiveOffer(None, -1, 0.0, 0.0, 0.0)  # type: ignore[arg-type]


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
            PackedAggregationPipeline(self.config.aggregation.parameters),
            store=self.store,
            metrics=self.metrics,
            batch_size=self.config.ingest.batch_size,
            max_duration_slices=self.config.ingest.max_duration_slices,
        )
        self.pool: dict[str, AggregateUpdate] = {}
        #: The last committed non-empty plan: its result, problem, the
        #: planned views and their keys (:mod:`repro.runtime.planning`).
        self.last_plan: WindowPlan | None = None
        #: Callbacks invoked with each non-empty :class:`SchedulingResult`
        #: after its plan has been committed (the facade's
        #: ``on_plan_committed`` hook attaches here).
        self.plan_listeners: list[Callable[[SchedulingResult], None]] = []
        self._live: dict[int, _LiveOffer] = {}
        self._scheduled_total = 0
        # The commitment books (see _disaggregate): group id -> its cell,
        # and group id -> the live entries that (re)bind at the group's
        # next local commit: each flush's joiners, plus members a remote
        # schedule or a restored commitment detached.  Both go with the
        # group's DELETED update; ``_plans`` numbers the local plans.
        self._cells: dict[str, _Cell] = {}
        self._joiners: dict[str, list[_LiveOffer]] = {}
        self._plans = 0
        self._stream_overflow: tuple[Iterable, float, FlexOffer] | None = None
        #: This tier's planner (:mod:`repro.runtime.planning`): scheduler,
        #: market, rng, kept placements and dirty key set live here.
        self.session = PlanSession(
            passes=self.config.scheduling.scheduler_passes,
            market=self.config.market,
            seed=self.config.scheduling.seed,
            metrics=self.metrics,
            net_forecast=net_forecast,
        )
        self._offers_since_run = 0
        self._last_run_time = -math.inf
        #: The effective trigger policy.  With
        #: ``SchedulingConfig.target_p95_slices`` set, an adaptive trigger
        #: steering toward it replaces the configured one (it owns the
        #: count+age semantics).
        target = self.config.scheduling.target_p95_slices
        self._adaptive = None if target is None else AdaptiveTrigger(target)
        self.trigger = self._adaptive or self.config.scheduling.trigger
        # Running trigger-context state, so per-arrival trigger evaluation
        # stays O(1) instead of scanning every live offer: total magnitude
        # of unscheduled energy plus an arrival-ordered heap for the oldest
        # unscheduled offer (entries invalidated lazily).
        self._unscheduled_energy = 0.0
        self._pending_heap: list[tuple[float, int]] = []
        # The expiry sweep's due-time index (see _sweep_pool).  Admission
        # pushes (due, seq, entry); a sweep moves the entries that fell due
        # into ``_armed`` (offer_id -> entry), and only armed offers are
        # checked against the retirement conditions.
        self._admissions = itertools.count()
        self._due_heap: list[tuple[int, int, _LiveOffer]] = []
        self._armed: dict[int, _LiveOffer] = {}

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    def _trace_store_event(self, offer_id: int, state: str, now: int) -> None:
        """Mirror store lifecycle transitions into the trace (if sampled)."""
        if self.tracer.enabled:
            self.tracer.record(
                "offer", node=self.name, offer_id=offer_id, state=state
            )

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
        for offer_id in self.live_offer_ids():
            self.tracer.record(
                "offer", node=self.name, offer_id=offer_id,
                state="live_at_shutdown",
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
        return self.committed_start(offer_id) is not None

    def committed_start(self, offer_id: int) -> int | None:
        """The start slice the plan committed the offer to (None if none)."""
        return self._live.get(offer_id, _GONE).start

    def live_offer_ids(self) -> list[int]:
        """The ids of the offers in the active pool, sorted."""
        return sorted(self._live)

    def committed_starts(self) -> dict[int, int]:
        """Offer id -> committed start of every live scheduled offer."""
        starts = {}
        for oid, entry in self._live.items():
            start = entry.start
            if start is not None:
                starts[oid] = start
        return starts

    @property
    def scheduled_total(self) -> int:
        """Cumulative unique offers ever scheduled by this service."""
        return self._scheduled_total

    @property
    def last_schedule(self) -> Schedule | None:
        """The last plan as scheduled aggregate objects (built on first
        access; ``None`` before the first plan)."""
        plan = self.last_plan
        return None if plan is None else plan.schedule

    @property
    def last_plan_originals(self) -> tuple[AggregatedFlexOffer, ...]:
        """The *unclipped* pool aggregates behind :attr:`last_schedule`, in
        assignment order — what a cluster's BRP publishes as its committed
        macro flex-offers to the TSO tier (member offsets are anchored at
        the unclipped earliest start, so these are the objects remote
        disaggregation must run against).  Built on first access, once per
        aggregate update."""
        plan = self.last_plan
        return () if plan is None else plan.originals

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
        result = self._admit(offer, source_event_id)
        if result.accepted and not result.duplicate:
            self.maybe_schedule()
        return result

    def submit_many(self, offers: Iterable[FlexOffer]) -> list[SubmitResult]:
        """Admit ``offers`` as one admission: the trigger is asked once, last.

        How a cluster's TSO takes in the macros of one BRP snapshot.
        """
        results = [self._admit(offer) for offer in offers]
        if any(r.accepted and not r.duplicate for r in results):
            self.maybe_schedule()
        return results

    def _admit(
        self, offer: FlexOffer, source_event_id: str | None = None
    ) -> SubmitResult:
        """:meth:`submit_fact` short of asking the trigger.

        The clock is read once: the arrival's slice, its admission instant
        and its place in the age heap all come from that one reading.
        """
        led = self.ledger
        recording = led is not None and led.recording_inputs
        sid, text = source_event_id, None
        if recording:
            sid, text, duplicate = self._deflect_duplicate(offer, sid)
            if duplicate is not None:
                return duplicate
        self._submitted_counter.inc()
        now = self.now
        accepted, reason = self.ingest.submit(offer, int(math.ceil(now)))
        if accepted is None:
            result = SubmitResult(False, offer.offer_id, None, reason)
        else:
            oid = accepted.offer_id
            energy = max(
                abs(accepted.total_min_energy), abs(accepted.total_max_energy)
            )
            entry = _LiveOffer(
                accepted,
                next(self._admissions),
                now,
                time.perf_counter(),
                energy,
            )
            self._live[oid] = entry
            self._offers_since_run += 1
            self._unscheduled_energy += energy
            heapq.heappush(self._pending_heap, (now, oid))
            # Keyed by the *submitted* earliest start (see _sweep_pool).
            due = offer.earliest_start
            deadline = accepted.assignment_before
            if deadline is not None and deadline < due:
                due = deadline
            heapq.heappush(self._due_heap, (due, entry.seq, entry))
            self._live_gauge.set(len(self._live))
            result = SubmitResult(True, oid, accepted)
        if recording:
            # Journal before the aggregation/trigger cascade below, so the
            # submit fact precedes any derived facts it causes.
            self._journal_submit("submit", offer, sid, text, result)
        # Only a set batch cap folds on an arrival (IngestConfig.batch_size).
        if accepted is not None and self.ingest.batch_full:
            self.run_aggregation()
        return result

    def update(
        self, offer: FlexOffer, source_event_id: str | None = None
    ) -> SubmitResult:
        """Replace a live offer (same ``offer_id``) with a revised one.

        The revision is validated *before* the previous version is touched,
        so a rejected update leaves the existing offer intact; otherwise
        :meth:`_replace` swaps the versions in the ingest batch, for the next
        flush (an update forces none).  Updating an unknown/retired id
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
        """The withdraw-then-resubmit core of :meth:`update`.

        The previous version's delete and the revision's insert ride the
        next flush like any arrival: the engine takes another object under
        a live id as a replace (old contribution out, new in, the member at
        its group's end), so no flush is forced between them.  Under a
        wall-clock driver the admission clock may tick between the two
        steps; if the revision fails that second check, the previous
        version is re-admitted, so the prosumer never loses a live offer to
        a rejected update (unless its own window closed in the meantime —
        ordinary expiry).
        """
        previous = self.withdraw(offer.offer_id)
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
            self.tracer.record(
                "ledger_append",
                node=self.name,
                fact="duplicate",
                offer_id=prior.offer_id,
                detail={"source_event_id": sid},
            )
        entry = self._live.get(prior.offer_id, _GONE)
        live = entry.offer if prior.accepted else None
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
            self.tracer.record(
                "ledger_append",
                node=self.name,
                fact=kind,
                offer_id=offer.offer_id,
                detail={"accepted": result.accepted},
            )
            if not result.accepted:
                self.tracer.record(
                    "dlq_routed",
                    node=self.name,
                    offer_id=offer.offer_id,
                    reason=result.reason,
                )

    def withdraw(self, offer_id: int) -> FlexOffer | None:
        """Retract a live offer before execution; returns it, or ``None``.

        The offer leaves the aggregation pool through a delete update and
        its lifecycle ends in the ``withdrawn`` state.  Offers already
        executed/expired (no longer live) cannot be withdrawn.
        """
        withdrawn = self.withdraw_many([offer_id])
        return withdrawn[0] if withdrawn else None

    def withdraw_many(self, offer_ids: Iterable[int]) -> list[FlexOffer]:
        """:meth:`withdraw` each id; the offers that were live, retired in
        one batch (how a cluster's TSO drops the macros a snapshot left)."""
        led = self.ledger
        withdrawn = []
        for offer_id in offer_ids:
            entry = self._live.pop(offer_id, None)
            if entry is None:
                continue
            # Its due-heap entry goes stale (the sweep checks identity).
            self._armed.pop(offer_id, None)
            if led is not None and led.recording_inputs:
                led.record_withdraw(offer_id, at=self.now)
                if self.tracer.enabled:
                    self.tracer.record(
                        "ledger_append", node=self.name, fact="withdraw",
                        offer_id=offer_id,
                    )
            if entry.start is None:
                self._unscheduled_energy -= entry.energy
            withdrawn.append(entry.offer)
        if withdrawn:
            self.ingest.retire(withdrawn, self.now_slice, "withdrawn")
            self.metrics.counter("runtime.offers_withdrawn").inc(len(withdrawn))
            self._live_gauge.set(len(self._live))
            live = self._live
            if len(self._due_heap) > 2 * len(live) + 64:
                # A withdrawn offer's due entry waits in the heap until it
                # falls due; under heavy churn (a TSO's macros) drop them
                # now, keeping exactly the entries a sweep would arm.
                self._due_heap = [
                    item
                    for item in self._due_heap
                    if live.get(item[2].offer.offer_id) is item[2]
                ]
                heapq.heapify(self._due_heap)
        return withdrawn

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
            live = self._live.get
            for update in updates:
                gid = update.group_id
                if update.kind is UpdateKind.DELETED:
                    self.pool.pop(gid, None)
                    self._cells.pop(gid, None)
                    self._joiners.pop(gid, None)
                    continue
                self.pool[gid] = update
                joined = update.view.joined
                if joined:
                    waiting = self._joiners.setdefault(gid, [])
                    for member in joined:
                        entry = live(member.offer_id, _GONE)
                        if entry.offer is member:
                            waiting.append(entry)
            # The session accumulates the touched groups for the next
            # planning run (and drops deleted groups' placements).
            self.session.absorb(updates)
        elapsed = time.perf_counter() - t0
        self.metrics.counter("aggregate.runs").inc()
        self.metrics.histogram("aggregate.batch_seconds").observe(elapsed)
        self.metrics.gauge("aggregate.pool_size").set(len(self.pool))
        self._observe_stage("aggregate", elapsed)
        return updates

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _oldest_unscheduled_age(self, now: float) -> float:
        """Age at ``now`` of the oldest live unscheduled offer (lazy heap
        cleanup)."""
        while self._pending_heap:
            arrival, oid = self._pending_heap[0]
            entry = self._live.get(oid)
            if entry is not None and entry.start is None:
                return now - arrival
            heapq.heappop(self._pending_heap)
        return 0.0

    def _trigger_context(self, now: float) -> TriggerContext:
        return TriggerContext(
            now=now,
            offers_since_last_run=self._offers_since_run,
            oldest_unscheduled_age=self._oldest_unscheduled_age(now),
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
            now = self.now  # the trigger's one clock reading
            cooldown = self.config.scheduling.min_run_interval_slices
            if now - self._last_run_time < cooldown:
                return None
            context = self._trigger_context(now)
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
                self.tracer.record(
                    "trigger", node=self.name, fired=fired, decision=True
                )
        elif self.tracer.enabled:
            self.tracer.record(
                "trigger", node=self.name, fired=["forced"], decision=True
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
        self._adapt()
        return result

    def _adapt(self) -> None:
        """One control step of the adaptive trigger, after each run.

        Its ``observe`` hook is the only place trigger thresholds change
        (REP009); the service just counts and traces each adjustment.
        """
        record = None if self._adaptive is None else self._adaptive.observe(
            self.metrics
        )
        if record is None:
            return
        self.metrics.counter("trigger.adaptive_adjustments").inc()
        if self.tracer.enabled:
            self.tracer.record(
                "trigger",
                node=self.name,
                fired=["AdaptiveTrigger"],
                decision=False,
                detail={"adjustment": record},
            )

    def _schedule_pool(self) -> SchedulingResult | None:
        """The planning body of :meth:`run_scheduling` (inside its span)."""
        start = self.now_slice
        # Candidates in group-id order: the pool dict's insertion order
        # depends on how updates interleaved, but the plan for a given pool
        # must not.
        plan = self.session.plan_window(
            [(gid, self.pool[gid].view) for gid in sorted(self.pool)],
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
        self.last_plan = plan
        self._disaggregate(plan)
        for listener in self.plan_listeners:
            listener(result)
        return result

    def _disaggregate(self, plan: WindowPlan) -> None:
        """Commit the plan to members; record latencies.

        Reads the plan's columns: the ``i``-th start and energies of the
        solution belong to ``plan.views[i]``, planned under the group id
        ``plan.keys[i]``.  Only member *start commitments* are derived
        here: the aggregate's admissible start shift, ``start`` minus the
        view's *unclipped* earliest start, maps to every member as-is (the
        §4 disaggregation guarantee), and that shift is what the group's
        :class:`_Cell` holds.  So committing a view writes one number, and
        every member bound to the cell moves with it; no loop walks the
        members.  The members that wait in ``_joiners`` bind: a newcomer
        takes its first commitment here (latency observed, backlog and
        store updated, in plan and membership order), and a member a
        remote schedule or a restored commitment detached drops its
        private start.  Full per-slice energy disaggregation
        (:func:`repro.aggregation.disaggregate`) happens at dispatch time,
        not on every trigger.  A view whose placement the previous plan
        already committed is skipped outright.

        A plan runs straight after sweep and flush, so every member of a
        planned view is live and current, and every live member of the
        group is either bound or waiting.  Only output walks the members:
        with a ledger recording, the pass journals each member whose start
        changed, and with a tracer, each member's ``aggregated_into``.
        """
        trace = self.tracer.enabled
        members_out = 0
        skipped = 0
        self._plans += 1
        number = self._plans
        cells = self._cells
        joiners = self._joiners
        live = self._live.get
        first: list[_LiveOffer] = []
        journal = self._pass_journal()
        recommitted: list = []
        solution = plan.result.solution
        t0 = time.perf_counter()
        with self._stage("disaggregate"):
            for key, view, start, energies in zip(
                plan.keys, plan.views, solution.starts.tolist(), solution.energies
            ):
                cell = cells.get(key)
                if cell is None:
                    cell = cells[key] = _Cell(key)
                elif (
                    cell.plan == number - 1
                    and cell.view_id == view.offer_id
                    and cell.start == start
                    and (
                        cell.energies is energies  # a kept placement's own array
                        or cell.energies.tolist() == energies.tolist()
                    )
                ):
                    # Same aggregate version, same plan: every member's
                    # schedule is the one already committed and recorded.
                    cell.plan = number
                    cell.energies = energies
                    skipped += 1
                    continue
                delta = start - view.earliest_start
                if journal is not None:
                    self._journal_starts(view.members, delta, journal)
                cell.delta = delta
                cell.view_id = view.offer_id
                cell.start = start
                cell.energies = energies
                cell.plan = number
                waiting = joiners.pop(key, None)
                if waiting:
                    for entry in waiting:
                        if live(entry.offer.offer_id) is not entry:
                            continue
                        if entry.cell is None and entry.own is None:
                            first.append(entry)
                        entry.cell = cell
                        entry.own = None
                members_out += len(view.members)
                if trace:
                    recommitted.append(view)
            if journal:
                self.ledger.record_scheduled(journal, at=self.now)
            # One store call per pass, ahead of the pass's trace events:
            # each member's "scheduled" still precedes its
            # "aggregated_into" in the event log.
            self._commit_first(first)
            if trace:
                for original in recommitted:
                    for member in original.members:
                        self.tracer.record(
                            "offer",
                            node=self.name,
                            offer_id=member.offer_id,
                            state="aggregated_into",
                            detail={"macro": original.offer_id},
                        )
        self._observe_stage("disaggregate", time.perf_counter() - t0)
        self.metrics.counter("disaggregate.assignments").inc(members_out)
        self.metrics.counter("disaggregate.unchanged_skipped").inc(skipped)
        self.metrics.gauge("schedule.unique_scheduled").set(self._scheduled_total)

    def _journal_starts(
        self,
        members: tuple[FlexOffer, ...],
        delta: int,
        journal: list[tuple[int, int]],
    ) -> None:
        """List each live current member whose start ``delta`` changes.

        An output loop, run before the pass moves any start: it appends
        ``(offer_id, new_start)`` in membership order to the pass's list
        from :meth:`_pass_journal`, which the pass hands to the ledger once.
        A member counts as current only while ``_live``'s entry holds *this
        object*; a different one under the same id is a later version.
        """
        live = self._live.get
        trace = self.tracer.enabled
        for member in members:
            entry = live(member.offer_id, _GONE)
            if entry.offer is not member:
                continue
            start = member.earliest_start + delta
            if entry.start != start:
                # Every change to a committed plan start is a durable fact —
                # what makes committed schedules survive a crash or outage.
                journal.append((member.offer_id, start))
                if trace:
                    self.tracer.record(
                        "ledger_append", node=self.name, fact="scheduled",
                        offer_id=member.offer_id, detail={"start": start},
                    )

    def _pass_journal(self) -> list[tuple[int, int]] | None:
        """A fresh list for one pass's changed plan starts; ``None`` when
        no ledger records them.

        The pass that asks for it (:meth:`_disaggregate`,
        :meth:`apply_remote_schedule`) owns it: it fills it through
        :meth:`_journal_starts`, journals it with one ``record_scheduled``
        call and lets it go when it returns.  That call stamps every fact
        with the instant the pass ended — the instant each was committed on
        a simulated driver, where time stands still inside a pass; under a
        wall-clock driver a pass's facts share that one ``at``.
        """
        led = self.ledger
        return [] if led is not None and led.recording else None

    def _commit_first(self, entries: list[_LiveOffer]) -> None:
        """One pass's first commitments by a plan, in commit order.

        Each offer leaves the unscheduled backlog and its end-to-end
        latencies are observed; then the pass records every ``scheduled``
        transition in one store call.
        """
        if not entries:
            return
        now = self.now
        observe_sim = self.metrics.histogram("latency.e2e_slices").observe
        observe_wall = self.metrics.histogram("latency.e2e_wall_seconds").observe
        clock = time.perf_counter
        backlog = self._unscheduled_energy
        for entry in entries:
            backlog -= entry.energy
            observe_sim(now - entry.arrival_sim)
            observe_wall(clock() - entry.arrival_wall)
        self._unscheduled_energy = backlog
        self._scheduled_total += len(entries)
        self._record_scheduled([entry.offer for entry in entries], self.now_slice)

    def _detach(self, entry: _LiveOffer, start: int) -> None:
        """Give a live entry the private start ``start``.

        A bound entry leaves its cell's shift and waits to rebind at its
        group's next local commit; an entry that never bound already waits
        there as a joiner.
        """
        cell = entry.cell
        if cell is not None and entry.own is None:
            self._joiners.setdefault(cell.key, []).append(entry)
        entry.own = start

    def restore_commitment(self, offer_id: int, start: int) -> bool:
        """Re-instate a journaled plan start on a live offer; False if not live.

        Projection recovery's seam: the start comes from the ledger, so
        nothing is journaled and no latency is observed — the offer is
        simply scheduled again, in this service's books and in the store.
        The start is a private one: the group's next local commit rebinds
        the offer like a joiner, without a first commitment.
        """
        entry = self._live.get(offer_id)
        if entry is None:
            return False
        if entry.start is None:
            self._scheduled_total += 1
            self._unscheduled_energy -= entry.energy
        self._detach(entry, start)
        self._record_scheduled([entry.offer], self.now_slice)
        return True

    def _record_scheduled(self, members: list[FlexOffer], now: int) -> None:
        """Persist the ``scheduled`` transition of ``members`` in one call."""
        if members:
            self.store.record_offer_events(
                [(member.owner, member, "scheduled") for member in members], now
            )

    def apply_remote_schedule(self, scheduled) -> int:
        """Commit a TSO-scheduled macro back onto this node's members.

        The downlink of the cluster's level-3 path.  ``scheduled`` fixes one
        of this node's own published aggregates (see
        :attr:`last_plan_originals`); its admissible start shift maps to
        every member as-is (the §4 disaggregation guarantee), and those
        start commitments replace whatever the local plan had committed —
        the TSO's system-wide placement wins.  The published aggregate may
        be older than the group's current view, so this pass walks the
        members: each live current one is detached to a private start
        (a first commitment if it had none) and rebinds to its group's
        cell at the group's next local commit.  When the macro is the view
        the group's cell last committed, that commit happens even if the
        next plan reproduces the same placement.  Like the local
        :meth:`_disaggregate` path, only start commitments are derived
        here; per-slice energy disaggregation
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
        trace = self.tracer.enabled
        first: list[_LiveOffer] = []
        journal = self._pass_journal()
        delta = scheduled.start - aggregate.earliest_start
        committed = 0
        live = self._live.get
        with self._stage("remote_commit"):
            if journal is not None:
                self._journal_starts(aggregate.members, delta, journal)
            for member in aggregate.members:
                entry = live(member.offer_id, _GONE)
                if entry.offer is not member:
                    continue
                committed += 1
                if entry.start is None:
                    first.append(entry)
                cell = entry.cell
                if cell is not None and cell.view_id == aggregate.offer_id:
                    cell.view_id = -1
                self._detach(entry, member.earliest_start + delta)
            if journal:
                self.ledger.record_scheduled(journal, at=self.now)
            self._commit_first(first)
            if trace:
                for member in aggregate.members:
                    if live(member.offer_id, _GONE).offer is member:
                        self.tracer.record(
                            "offer",
                            node=self.name,
                            offer_id=member.offer_id,
                            state="remote_commit",
                            detail={"macro": aggregate.offer_id},
                        )
        if trace:
            self.tracer.record(
                "offer",
                force=True,
                node=self.name,
                offer_id=aggregate.offer_id,
                state="macro_commit",
                detail={"members": committed},
            )
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

        The sweep visits only offers whose retirement could already be due
        — those whose earliest start has passed or whose deadline has come
        (a due-time heap filled at admission) — not the whole live pool, and
        retires in live-pool order, exactly what a walk over every live
        offer would retire.
        """
        t0 = time.perf_counter()
        with self._stage("sweep"):
            retired = self._sweep_pool()
        self._observe_stage("sweep", time.perf_counter() - t0)
        return retired

    def _sweep_pool(self) -> int:
        """The retirement body of :meth:`sweep_expired` (inside its span).

        An offer can retire only once ``now > earliest_start`` or its
        deadline is ``<= now``: its latest start, and any start committed
        to it, are never before its earliest start — local and remote plans
        place starts inside the admitted window, and the heap key is the
        *submitted* earliest start, at or before the clipped one and before
        any start projection recovery restores.  So the offers whose key
        ``min(earliest_start, assignment_before) <= now`` are armed (stale
        versions skipped by identity against ``_live``), and the retirement
        conditions run over the armed offers only.  An armed offer stays
        armed until it retires or leaves the pool.
        """
        now = self.now
        now_slice = self.now_slice
        live = self._live
        armed = self._armed
        due = self._due_heap
        while due and due[0][0] <= now:
            entry = heapq.heappop(due)[2]
            oid = entry.offer.offer_id
            if live.get(oid) is entry:
                armed[oid] = entry
        # Each list sorted by admission seq, which is live-pool order: the
        # ledger journals executed before expired, and replay fingerprints
        # depend on both orders.
        executed_entries: list[_LiveOffer] = []
        expired_entries: list[_LiveOffer] = []
        for entry in armed.values():
            offer = entry.offer
            window_closed = offer.latest_start < now
            start = entry.start
            if start is not None:
                if window_closed or start < now:
                    executed_entries.append(entry)
            elif window_closed or (
                offer.assignment_before is not None
                and offer.assignment_before <= now
            ):
                expired_entries.append(entry)
        executed_entries.sort(key=_admission_seq)
        expired_entries.sort(key=_admission_seq)
        executed = [entry.offer for entry in executed_entries]
        expired = [entry.offer for entry in expired_entries]
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
        for entry in expired_entries:
            self._unscheduled_energy -= entry.energy
        for offer in (*executed, *expired):
            oid = offer.offer_id
            del live[oid]
            del armed[oid]
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

        def sweep_tick() -> None:
            self.sweep_expired()
            self.maybe_schedule()
            next_time = self.now + EXPIRY_SWEEP_SLICES
            if next_time < end:
                self.driver.schedule_at(next_time, sweep_tick)

        self.driver.schedule_at(
            min(self.now + EXPIRY_SWEEP_SLICES, end), sweep_tick
        )

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
