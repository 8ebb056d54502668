"""`LedmsClient` / `LedmsSession`: the typed front door of the LEDMS node.

The paper's LEDMS node is a *service*: prosumers submit, update and
withdraw flex-offers against a running node, and the BRP tier answers with
schedules (§§2–4).  That node is the streaming
:class:`~repro.runtime.service.BrpRuntimeService`, which owns the three
operations, their journal facts and the idempotency guard;
:class:`LedmsClient` builds one and puts the request/response surface on it,
so callers need not wire the service and event queue by hand:

    from repro.api import LedmsClient, ServiceConfig

    client = LedmsClient(ServiceConfig())
    result = client.submit(offer)          # -> SubmitResult
    plan = client.schedule_now()           # -> PlanView | None
    view = client.query_offer(result.offer_id)

The facade adds what a caller sees and the loop does not need: typed views
(:class:`PlanView`, :class:`OfferView`; :class:`SubmitResult` is the
service's own result type), lifecycle hooks
(:meth:`LedmsClient.on_plan_committed`,
:meth:`LedmsClient.on_offer_state_change`), a :class:`LedmsSession` scoping
the operations to one prosumer, and :meth:`LedmsClient.resume_from_ledger` —
the one way back after a restart: a node rebuilt from its durable ledger.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from ..core.errors import ServiceError
from ..core.flexoffer import FlexOffer
from ..core.timeseries import TimeSeries
from ..datamgmt.mirabel import LedmsStore
from ..ledger import replay as ledger_replay
from ..ledger.ledger import DeadLetter, OfferLedger
from ..ledger.log import JsonlEventLog, segment_files
from ..runtime.config import ServiceConfig
from ..runtime.drivers import SimulatedDriver, TimeDriver
from ..runtime.metrics import MetricsRegistry
from ..runtime.service import BrpRuntimeService, RuntimeReport, SubmitResult
from ..scheduling import SchedulingResult

__all__ = [
    "LedmsClient",
    "LedmsSession",
    "OfferView",
    "PlanAssignment",
    "PlanView",
    "SubmitResult",
]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanAssignment:
    """One aggregate's placement in a committed plan."""

    aggregate_id: int
    start: int
    total_energy: float
    members: int


@dataclass(frozen=True)
class PlanView:
    """Snapshot of a committed plan.

    The node's own views (:meth:`LedmsClient.current_plan`, the
    ``on_plan_committed`` hooks) capture each aggregate's id and member
    count and the plan's solution at commit, and build :attr:`assignments`
    on first read: a hook that reads only the cost builds none, and a view
    read after later plans still describes its own.  Until that read the
    view keeps the solution's starts and energies alive, not the
    aggregation views they were planned from.
    """

    at: float
    """Driver time of the scheduling run."""
    cost: float
    """Total schedule cost (EUR) reported by the scheduler."""
    evaluations: int
    """Candidate evaluations the scheduler spent on this run."""
    scheduled_offers: int
    """Cumulative unique micro offers ever scheduled by this node."""
    assignments: tuple[PlanAssignment, ...]

    @classmethod
    def _committed(
        cls, at: float, result: SchedulingResult, views: tuple, scheduled: int
    ) -> "PlanView":
        """The view of a plan just committed over ``views`` (plan order),
        its assignments not built yet."""
        ids = [view.offer_id for view in views]
        sizes = [len(view.members) for view in views]
        plan = object.__new__(cls)
        fields = plan.__dict__
        fields["at"] = at
        fields["cost"] = float(result.cost)
        fields["evaluations"] = int(result.evaluations)
        fields["scheduled_offers"] = scheduled
        fields["_plan"] = (ids, sizes, result.solution)
        return plan

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: a committed
        # view's assignments, until their first read.
        plan = self.__dict__.get("_plan")
        if name != "assignments" or plan is None:
            raise AttributeError(name)
        # ``sum`` over the Python floats adds in slice order, as it did
        # over a scheduled offer's energy tuple.
        ids, sizes, solution = plan
        built = self.__dict__["assignments"] = tuple(
            PlanAssignment(
                aggregate_id=aggregate_id,
                start=start,
                total_energy=float(sum(energies.tolist())),
                members=members,
            )
            for aggregate_id, members, start, energies in zip(
                ids, sizes, solution.starts.tolist(), solution.energies
            )
        )
        del self.__dict__["_plan"]
        return built

    @property
    def aggregates(self) -> int:
        """Aggregates placed by this plan."""
        plan = self.__dict__.get("_plan")
        return len(self.assignments if plan is None else plan[0])


@dataclass(frozen=True)
class OfferView:
    """Lifecycle snapshot of one offer, as the node currently sees it."""

    offer_id: int
    state: str | None
    """Latest lifecycle state recorded in the store (None if never seen)."""
    live: bool
    """Whether the offer is in the active pool (not retired)."""
    scheduled: bool
    """Whether the current plan covers the offer."""
    committed_start: int | None
    """The start slice the plan committed the offer to (None if unplanned)."""
    offer: FlexOffer | None
    """The accepted (possibly window-clipped) version while the offer is
    live; None once it is retired, rejected or never seen."""


# ----------------------------------------------------------------------
class LedmsClient:
    """Unified facade over one streaming LEDMS/BRP node.

    Parameters mirror :class:`~repro.runtime.service.BrpRuntimeService`:
    a composed :class:`~repro.api.ServiceConfig`, an optional
    :class:`~repro.runtime.drivers.TimeDriver`
    (simulated by default; pass a
    :class:`~repro.runtime.drivers.WallClockDriver` for real-time
    operation), plus optional metrics/forecast injections.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        driver: TimeDriver | None = None,
        metrics: MetricsRegistry | None = None,
        net_forecast: TimeSeries | None = None,
        name: str = "brp",
        tracer=None,
        ledger: OfferLedger | None = None,
    ):
        self.service = BrpRuntimeService(
            config,
            metrics=metrics,
            net_forecast=net_forecast,
            driver=driver,
            name=name,
            tracer=tracer,
            ledger=ledger,
        )
        #: Replay statistics when this client was built by
        #: :meth:`resume_from_ledger`; ``None`` otherwise.
        self.last_replay: ledger_replay.ReplayStats | None = None
        self._last_plan: PlanView | None = None
        self._plan_hooks: list[Callable[[PlanView], None]] = []
        self._state_hooks: list[Callable[[int, str, int], None]] = []
        self.service.plan_listeners.append(self._record_plan)

    # -- introspection ---------------------------------------------------
    @property
    def config(self) -> ServiceConfig:
        return self.service.config

    @property
    def store(self) -> LedmsStore:
        return self.service.store

    @property
    def driver(self) -> TimeDriver:
        return self.service.driver

    @property
    def now(self) -> float:
        """Current time in slice units, as the driver defines it."""
        return self.service.now

    @property
    def live_offers(self) -> int:
        """Offers currently in the active pool."""
        return self.service.live_offers

    # -- lifecycle hooks -------------------------------------------------
    def on_plan_committed(
        self, callback: Callable[[PlanView], None]
    ) -> Callable[[PlanView], None]:
        """Call ``callback(plan_view)`` after each committed scheduling run.

        Returns the callback, so it can be used as a decorator.
        """
        self._plan_hooks.append(callback)
        return callback

    def on_offer_state_change(
        self, callback: Callable[[int, str, int], None]
    ) -> Callable[[int, str, int], None]:
        """Call ``callback(offer_id, state, now)`` on lifecycle transitions.

        The client subscribes to the store when the first hook registers,
        so a node nobody listens to pays nothing per transition.  Returns
        the callback, so it can be used as a decorator.
        """
        if not self._state_hooks:
            self.service.store.subscribe(self._record_state)
        self._state_hooks.append(callback)
        return callback

    def _record_plan(self, result: SchedulingResult) -> None:
        service = self.service
        self._last_plan = PlanView._committed(
            service.now, result, service.last_plan.views, service.scheduled_total
        )
        for callback in self._plan_hooks:
            callback(self._last_plan)

    def _record_state(self, offer_id: int, state: str, now: int) -> None:
        for callback in self._state_hooks:
            callback(offer_id, state, now)

    # -- operations ------------------------------------------------------
    def submit(
        self, offer: FlexOffer, *, source_event_id: str | None = None
    ) -> SubmitResult:
        """Admit one flex-offer (see :meth:`BrpRuntimeService.submit_fact`)."""
        return self.service.submit_fact(offer, source_event_id)

    def update(
        self, offer: FlexOffer, *, source_event_id: str | None = None
    ) -> SubmitResult:
        """Replace a live offer with a revision of the same ``offer_id``.

        Side-effect free when rejected; see :meth:`BrpRuntimeService.update`.
        """
        return self.service.update(offer, source_event_id)

    def withdraw(self, offer_id: int) -> bool:
        """Retract a live offer; True when something was withdrawn."""
        return self.service.withdraw(offer_id) is not None

    def query_offer(self, offer_id: int) -> OfferView:
        """Lifecycle snapshot of one offer (works for unknown ids too)."""
        service = self.service
        return OfferView(
            offer_id=offer_id,
            state=service.store.offer_state(offer_id),
            live=service.is_live(offer_id),
            scheduled=service.is_scheduled(offer_id),
            committed_start=service.committed_start(offer_id),
            offer=service.live_offer(offer_id),
        )

    def current_plan(self) -> PlanView | None:
        """The most recently committed plan (None before the first run)."""
        return self._last_plan

    def schedule_now(self) -> PlanView | None:
        """Force a scheduling run; returns the committed plan (or None)."""
        result = self.service.maybe_schedule(force=True)
        if result is None:
            return None
        return self._last_plan

    def metrics(self) -> dict:
        """Flat snapshot of the node's metrics registry."""
        return self.service.metrics.as_dict()

    # -- durability ------------------------------------------------------
    @property
    def ledger(self) -> OfferLedger | None:
        """The attached durable event ledger (None when not configured)."""
        return self.service.ledger

    def dead_letters(self) -> tuple[DeadLetter, ...]:
        """The dead-letter queue: rejected/malformed submissions + reasons.

        Empty when no ledger is attached.
        """
        led = self.service.ledger
        return led.dead_letters() if led is not None else ()

    # -- driving ---------------------------------------------------------
    def run_stream(
        self,
        arrivals: Iterable[tuple[float, FlexOffer]],
        duration_slices: float,
        **kwargs,
    ) -> RuntimeReport:
        """Drive the node through an arrival stream (see the service docs)."""
        return self.service.run_stream(arrivals, duration_slices, **kwargs)

    def post(self, offer: FlexOffer) -> None:
        """Submit through the driver's inbox (deferred to the loop).

        The admission runs on the loop thread at its next opportunity —
        this is how real-time producers feed a node driven by a
        :class:`~repro.runtime.drivers.WallClockDriver`, whose inbox is
        thread-safe.  Under the default ``SimulatedDriver`` the call is
        *not* safe from foreign threads (the simulated event queue is
        single-threaded by design); it simply enqueues at the current
        simulated time.
        """
        self.service.driver.post(lambda: self.service.submit(offer))

    # -- sessions & recovery ---------------------------------------------
    def session(self, owner: str) -> "LedmsSession":
        """A per-prosumer view stamping ``owner`` on everything it submits."""
        return LedmsSession(self, owner)

    @classmethod
    def resume_from_ledger(
        cls,
        log,
        config: ServiceConfig | None = None,
        *,
        driver: TimeDriver | None = None,
        metrics: MetricsRegistry | None = None,
        net_forecast: TimeSeries | None = None,
        name: str = "brp",
        tracer=None,
        fsync: str = "commit",
    ) -> "LedmsClient":
        """Rebuild a node from its durable event log (crash recovery).

        ``log`` is a ledger directory path, an event-log backend
        (:class:`~repro.ledger.JsonlEventLog` /
        :class:`~repro.ledger.MemoryEventLog`) or an
        :class:`~repro.ledger.OfferLedger`.  A path must hold a ledger:
        recovering from a directory without one is an error, not an empty
        node.  The driver selects the replay (:mod:`repro.ledger.replay`):

        re-execution (no driver, or a simulated one not past the first
        journaled instant)
            Re-drive every journaled input at its recorded instant — the
            rebuilt node is *bit-identical* to the uninterrupted run at the
            last journaled time, and the run can simply continue.

        projection (any other driver, wall-clock included)
            Fold the facts into store/service state at the current time:
            zero-loss (live pool, committed starts, terminal history) but
            not bit-for-bit internal state.

        The returned client keeps the ledger attached (new operations keep
        journaling) and exposes the replay summary as ``client.last_replay``.
        """
        if isinstance(log, (str, os.PathLike)):
            if not segment_files(log):
                raise ServiceError(
                    f"no ledger to recover under {os.fspath(log)!r}: the "
                    "directory holds no event-log segment"
                )
            log = JsonlEventLog(log, fsync=fsync)
        if isinstance(log, OfferLedger):
            ledger, events = log, list(log.events())
        else:
            ledger, events = OfferLedger.recover(log, node=name)
        first = min((float(e["at"]) for e in events), default=0.0)
        reexecute = driver is None or (
            isinstance(driver, SimulatedDriver) and driver.now <= first
        )
        client = cls(
            config,
            driver=driver if driver is not None else SimulatedDriver(first),
            metrics=metrics,
            net_forecast=net_forecast,
            name=name,
            tracer=tracer,
            ledger=ledger,
        )
        replay = ledger_replay.reexecute if reexecute else ledger_replay.project
        client.last_replay = replay(client.service, events)
        return client


# ----------------------------------------------------------------------
class LedmsSession:
    """One prosumer's scoped view of a :class:`LedmsClient`.

    Stamps the session owner on every submitted offer and only allows
    withdrawing/updating offers this session created — the facade-level
    equivalent of per-actor authorisation at a real node boundary.
    """

    def __init__(self, client: LedmsClient, owner: str):
        if not owner:
            raise ServiceError("session owner must be a non-empty actor name")
        self.client = client
        self.owner = owner
        self._offer_ids: set[int] = set()

    def _owned(self, offer: FlexOffer) -> FlexOffer:
        if offer.owner == self.owner:
            return offer
        return replace(offer, owner=self.owner)

    def _check_owned(self, offer_id: int) -> None:
        if offer_id not in self._offer_ids:
            raise ServiceError(
                f"offer {offer_id} does not belong to session {self.owner!r}"
            )

    def submit(self, offer: FlexOffer) -> SubmitResult:
        """Submit on behalf of this session's owner."""
        result = self.client.submit(self._owned(offer))
        if result:
            self._offer_ids.add(result.offer_id)
        return result

    def update(self, offer: FlexOffer) -> SubmitResult:
        """Revise an offer this session submitted."""
        self._check_owned(offer.offer_id)
        return self.client.update(self._owned(offer))

    def withdraw(self, offer_id: int) -> bool:
        """Retract an offer this session submitted."""
        self._check_owned(offer_id)
        return self.client.withdraw(offer_id)

    def offers(self) -> list[OfferView]:
        """Lifecycle snapshots of every offer this session ever submitted."""
        return [self.client.query_offer(oid) for oid in sorted(self._offer_ids)]
