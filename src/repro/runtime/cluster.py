"""Multi-node runtime: per-BRP streaming services and a TSO over one bus.

The paper's EDMS is a *hierarchy* of LEDMS nodes — prosumers feed BRPs, and
BRPs forward macro flex-offers to a TSO that "essentially repeats the
process at a higher level".  This module runs that hierarchy online, in
three layers with one loop each:

* **service window** — :meth:`~repro.runtime.service.BrpRuntimeService.
  open_window` / :meth:`~repro.runtime.service.BrpRuntimeService.drain`
  say what a run window means for one node;
* :class:`BrpHost` — N BRPs (each behind its :class:`~repro.api.
  LedmsClient`) on one :class:`~repro.runtime.drivers.TimeDriver`, wired
  once to an *uplink*: a committed local plan publishes the BRP's macro
  snapshot, a returned scheduled macro is disaggregated locally;
* :class:`ClusterRuntime` — the head (the :class:`BusAdapter`, the
  simulated network delivering on the driver, and the TSO) and the cluster
  loop: open the hosts' and the TSO's windows, advance epoch by epoch with
  a barrier after each, drain the hosts, drain the TSO, collect results
  into a :class:`ClusterReport`.

The TSO runs level 2's loop: it is a :class:`~repro.runtime.service.
BrpRuntimeService` (configured by :class:`TsoConfig`) whose offers are the
BRPs' macros.  What is specific to it lives here, in two seams: a snapshot
from a BRP is diffed against that BRP's previous one and admitted, and a
committed TSO plan is disaggregated into scheduled macros sent home.

Here the one host shares the TSO's driver, so cluster time is a single
axis — deterministic under :class:`~repro.runtime.drivers.SimulatedDriver`,
real under a wall clock.  :mod:`repro.runtime.parallel` overrides only
where hosts live (worker processes) and when the barrier falls.

Ledger note: a hosted BRP journals the same ``run_window``/``run_drain``
markers as a stand-alone one, so ``resume_from_ledger`` re-executes its
windows, sweeps and drains.  Schedules *returned by the TSO* are not
journaled inputs, though: re-execution reproduces the BRP's local plans
only, not the remote commitments that overrode them.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple

from ..aggregation.aggregator import member_schedules
from ..core.errors import CommunicationError, ServiceError
from ..core.flexoffer import FlexOffer
from ..core.schedule import ScheduledFlexOffer
from ..core.timeseries import TimeSeries
from ..datamgmt.mirabel import OFFER_STATES
from ..node.messages import Message, MessageType
from ..obs.tracing import NullTracer, Tracer
from .config import SchedulingConfig, ServiceConfig
from .drivers import SimulatedDriver, TimeDriver, sim_clock
from .fields import check_fields
from .metrics import Counter, MetricsRegistry, aggregate_registries
from .service import BrpRuntimeService, RuntimeReport
from .triggers import CountTrigger

__all__ = [
    "BrpHost",
    "BusAdapter",
    "BusConfig",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRuntime",
    "TsoConfig",
]


# ----------------------------------------------------------------------
#: Delay before a message's first retry, in driver slices.
RETRY_BACKOFF_SLICES = 1.0
#: Multiplier applied to the backoff after each failed attempt.
BACKOFF_FACTOR = 2.0
#: Per-recipient cap on exhausted messages parked for recovery replay.
PARK_LIMIT = 256


@dataclass(frozen=True)
class BusConfig:
    """Delivery resilience of the cluster's :class:`BusAdapter`.

    With ``max_retries=0`` (the default) a message to an unreachable node
    drops immediately — best effort, where every failed send is a traced
    drop.  With ``max_retries>0`` the adapter retries after
    :data:`RETRY_BACKOFF_SLICES`, the wait growing by
    :data:`BACKOFF_FACTOR` per attempt, and parks up to
    :data:`PARK_LIMIT` exhausted messages per recipient, replaying them
    when the node returns (:meth:`BusAdapter.set_unreachable` with
    ``unreachable=False``), so a BRP returning from an outage reconciles
    the TSO schedules it missed.  Enable it from a cluster-config ``bus``
    section, e.g. ``{"bus": {"max_retries": 3}}``.
    """

    max_retries: int = 0
    """Redelivery attempts after the first failure (0 disables retry)."""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_retries < 0:
            raise ServiceError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BusConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ServiceError(f"invalid bus config: {exc}") from exc


# ----------------------------------------------------------------------
class BusAdapter:
    """The simulated wide-area network between nodes, on a :class:`TimeDriver`.

    ``send`` queues a message and arms a single *pump* callback through
    :meth:`TimeDriver.post`; when the pump runs — on the driver's loop, at
    the current driver time — every queued message is delivered to its
    recipient's handler.  Handlers therefore always execute on the loop, in
    deterministic driver order, which is what lets one simulated clock
    drive a whole cluster.  Under a
    :class:`~repro.runtime.drivers.WallClockDriver` the same ``post`` is
    thread-safe, so network threads can feed the bus without touching the
    loop — the adapter *is* the real wall-clock feed.  An unknown or
    unreachable recipient never raises: the message takes the retry path
    (:class:`BusConfig`) and drops when retries are out — the paper's
    graceful degradation, where pending flexibilities simply time out.
    """

    def __init__(
        self,
        driver: TimeDriver,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        bus_config: BusConfig | None = None,
    ):
        self.driver = driver
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Drop-immediately by default; pass a :class:`BusConfig` with
        #: ``max_retries>0`` to enable retry-with-backoff + park/replay.
        self.bus_config = bus_config if bus_config is not None else BusConfig()
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._unreachable: set[str] = set()
        # (wall send time, message) for everything queued but not yet
        # delivered, in send order.
        self._queue: deque[tuple[float, Message]] = deque()
        self._pump_armed = False
        # message type -> its ``bus.sent`` counter, registered on first send.
        self._sent: dict[str, Counter] = {}
        # recipient -> exhausted messages awaiting recovery replay.
        self._parked: dict[str, deque[Message]] = {}
        self.retries = 0
        """All-time redelivery attempts scheduled."""
        self.replayed = 0
        """All-time parked messages replayed after a node recovered."""
        self.pending_retries = 0
        """Retries scheduled but not yet attempted."""

    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        """Attach a node's handler under its unique bus name.

        Every delivery is accounted: queue→handler latency lands in the
        ``bus.delivery_seconds`` histogram, the per-type ``bus.delivered``
        counter increments, and (when tracing) a ``deliver`` bus event
        records the message's carried
        :class:`~repro.obs.tracing.TraceContext` — the receive side of the
        cross-node causal edge.
        """
        if name in self._handlers:
            raise CommunicationError(f"node name {name!r} already registered")
        self._handlers[name] = handler

    def set_unreachable(self, name: str, unreachable: bool = True) -> None:
        """Simulate a node outage (messages to it fail to arrive).

        Recovery (``unreachable=False``) replays every message parked for
        the node while it was down, so it reconciles what it missed.
        """
        if name not in self._handlers:
            raise CommunicationError(f"unknown node {name!r}")
        if unreachable:
            self._unreachable.add(name)
            return
        self._unreachable.discard(name)
        for message in self._parked.pop(name, ()):
            self.replayed += 1
            self.metrics.counter(
                "bus.replayed", labels={"type": message.type.value}
            ).inc()
            if self.tracer.enabled:
                self.tracer.record(
                    "bus_retry",
                    node=name,
                    type=message.type.value,
                    sender=message.sender,
                    recipient=message.recipient,
                    message_id=message.message_id,
                    attempt=1,
                    detail={"outcome": "replayed_after_recovery"},
                )
            self._dispatch(message, attempt=1)

    @property
    def parked(self) -> int:
        """Exhausted messages currently parked awaiting recovery."""
        return sum(len(q) for q in self._parked.values())

    def send(
        self,
        sender: str,
        recipient: str,
        type_: MessageType,
        payload: Any,
        now: float,
        *,
        detail: Mapping[str, Any] | None = None,
    ) -> bool:
        """Queue one message and arm delivery; False when undeliverable.

        The sender's innermost open span (if any) rides along as the
        message's :class:`~repro.obs.tracing.TraceContext`, so the
        receiver's spans can link back across the bus.
        """
        tracer = self.tracer
        context = tracer.current_context(sender) if tracer.enabled else None
        message = Message(
            sender, recipient, type_, payload, int(now), trace=context
        )
        return self._dispatch(message, attempt=1, detail=detail)

    def forward(
        self,
        message: Message,
        *,
        detail: Mapping[str, Any] | None = None,
    ) -> bool:
        """Dispatch a pre-built message; False when undeliverable.

        The relay entry point for messages that originated in *another*
        process (the parallel runtime's worker transports): the message
        keeps its original ``message_id`` and the sender's
        :class:`~repro.obs.tracing.TraceContext`, so the publish/deliver
        pairing and the causal chain stay intact across the pipe.
        """
        return self._dispatch(message, attempt=1, detail=detail)

    def _dispatch(
        self,
        message: Message,
        *,
        attempt: int,
        detail: Mapping[str, Any] | None = None,
    ) -> bool:
        """One queueing attempt; failures go through the retry path."""
        recipient = message.recipient
        if recipient not in self._handlers or recipient in self._unreachable:
            self._handle_failure(message, attempt=attempt, detail=detail)
            return False
        type_name = message.type.value
        sent = self._sent.get(type_name)
        if sent is None:
            sent = self._sent[type_name] = self.metrics.counter(
                "bus.sent", labels={"type": type_name}
            )
        sent.inc()
        self._queue.append((time.perf_counter(), message))
        if self.tracer.enabled:
            self.tracer.record(
                "bus",
                node=message.sender,
                action="publish",
                type=type_name,
                sender=message.sender,
                recipient=recipient,
                message_id=message.message_id,
                ctx=message.trace,
                detail=detail,
            )
        if not self._pump_armed:
            self._pump_armed = True
            self.driver.post(self._pump)
        return True

    def _handle_failure(
        self,
        message: Message,
        *,
        attempt: int,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        """Retry with exponential backoff; exhausted messages drop + park."""
        max_retries = self.bus_config.max_retries
        type_name = message.type.value
        if attempt <= max_retries:
            backoff = RETRY_BACKOFF_SLICES * BACKOFF_FACTOR ** (attempt - 1)
            self.retries += 1
            self.pending_retries += 1
            self.metrics.counter(
                "bus.retries", labels={"type": type_name}
            ).inc()
            if self.tracer.enabled:
                self.tracer.record(
                    "bus_retry",
                    node=message.sender,
                    type=type_name,
                    sender=message.sender,
                    recipient=message.recipient,
                    message_id=message.message_id,
                    attempt=attempt,
                    detail={"backoff_slices": backoff},
                )

            def retry(message=message, attempt=attempt, detail=detail) -> None:
                self.pending_retries -= 1
                self._dispatch(message, attempt=attempt + 1, detail=detail)

            self.driver.schedule_at(self.driver.now + backoff, retry)
            return
        self.metrics.counter("bus.dropped", labels={"type": type_name}).inc()
        if self.tracer.enabled:
            drop_detail = {
                "reason": "retries_exhausted" if max_retries else "unreachable"
            }
            if detail:
                drop_detail.update(detail)
            self.tracer.record(
                "bus",
                node=message.sender,
                action="drop",
                type=type_name,
                sender=message.sender,
                recipient=message.recipient,
                message_id=message.message_id,
                ctx=message.trace,
                detail=drop_detail,
            )
        if max_retries:
            # The recipient may come back: park the exhausted message so
            # recovery can replay it instead of losing it outright.
            self._parked.setdefault(
                message.recipient, deque(maxlen=PARK_LIMIT)
            ).append(message)

    def _pump(self) -> None:
        """Deliver every queued message, in FIFO order.

        A message whose recipient went down after it was queued is set
        aside; once the queue is empty, those go down the retry path in
        message-id order, like a failed send.
        """
        self._pump_armed = False
        queue = self._queue
        stranded: list[Message] = []
        while queue:
            sent_at, message = queue.popleft()
            recipient = message.recipient
            if recipient in self._unreachable:
                stranded.append(message)
                continue
            type_name = message.type.value
            self.metrics.histogram("bus.delivery_seconds").observe(
                time.perf_counter() - sent_at
            )
            self.metrics.counter(
                "bus.delivered", labels={"type": type_name}
            ).inc()
            if self.tracer.enabled:
                self.tracer.record(
                    "bus",
                    node=recipient,
                    action="deliver",
                    type=type_name,
                    sender=message.sender,
                    recipient=recipient,
                    message_id=message.message_id,
                    ctx=message.trace,
                )
            self._handlers[recipient](message)
        stranded.sort(key=lambda message: message.message_id)
        for message in stranded:
            self._handle_failure(message, attempt=1)

    def _total(self, name: str) -> int:
        counters = self.metrics.items()
        return int(sum(c.value for _, c in counters if c.name == name))

    @property
    def delivered(self) -> int:
        """All-time messages delivered: the ``bus.delivered`` counters."""
        return self._total("bus.delivered")

    @property
    def dropped(self) -> int:
        """All-time messages whose retries ran out: the ``bus.dropped``
        counters, one per traced ``drop`` event."""
        return self._total("bus.dropped")


# ----------------------------------------------------------------------
def _tso_scheduling() -> SchedulingConfig:
    """Re-plan after two admitted macros, at most once per 4 slices."""
    return SchedulingConfig(trigger=CountTrigger(2), min_run_interval_slices=4.0)


@dataclass(frozen=True)
class TsoConfig(ServiceConfig):
    """Configuration of the cluster's level-3 node.

    The TSO "essentially repeats the process at a higher level": it is a
    :class:`~repro.runtime.service.BrpRuntimeService` whose offers are the
    BRPs' macros, so it takes a BRP's sections; only the scheduling default
    differs (a count trigger over two admitted macros and a longer
    cooldown).  Its sections are set as a BRP's are, each with the TSO's
    own default underneath:
    ``TsoConfig(scheduling=replace(TsoConfig().scheduling, scheduler_passes=1))``
    or ``TsoConfig.from_dict({"scheduling": {"scheduler_passes": 1}})``.
    """

    scheduling: SchedulingConfig = field(default_factory=_tso_scheduling)


@dataclass(frozen=True)
class ClusterConfig:
    """One :class:`~repro.api.ServiceConfig` per BRP plus the TSO tier."""

    brps: Mapping[str, ServiceConfig]
    tso: TsoConfig = field(default_factory=TsoConfig)
    tso_name: str = "tso"
    bus: BusConfig = field(default_factory=BusConfig)

    def __post_init__(self) -> None:
        if not self.brps:
            raise ServiceError("a cluster needs at least one BRP section")
        # Names are bus addresses and metric labels.
        for name in (self.tso_name, *self.brps):
            if not isinstance(name, str) or not name:
                raise ServiceError(
                    f"node names must be non-empty strings, got {name!r}"
                )
        if self.tso_name in self.brps:
            raise ServiceError(
                f"tso_name {self.tso_name!r} collides with a BRP name"
            )
        object.__setattr__(self, "brps", dict(self.brps))

    @classmethod
    def uniform(
        cls,
        count: int,
        config: ServiceConfig | None = None,
        *,
        tso: TsoConfig | None = None,
        bus: BusConfig | None = None,
    ) -> "ClusterConfig":
        """``count`` identically configured BRPs named ``brp-0`` … ``brp-K``."""
        if count <= 0:
            raise ServiceError(f"cluster BRP count must be positive, got {count}")
        config = config if config is not None else ServiceConfig()
        return cls(
            brps={f"brp-{i}": config for i in range(count)},
            tso=tso if tso is not None else TsoConfig(),
            bus=bus if bus is not None else BusConfig(),
        )

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        *,
        base: ServiceConfig | None = None,
    ) -> "ClusterConfig":
        """Build a cluster config from a JSON-style mapping.

        ``brps`` is either an integer (that many default BRPs) or a mapping
        of BRP name to a :meth:`ServiceConfig.from_dict` section (``{}``
        for defaults); ``defaults`` supplies the base section every BRP
        starts from; ``tso`` configures the level-3 node with the same
        sections (:meth:`TsoConfig.from_dict`).  A field is named only
        through its section, so a bare ``batch_size`` anywhere is an
        unknown key whose error names the section that holds it::

            {"brps": {"north": {"scheduling": {"horizon_slices": 96}},
                      "south": {}},
             "defaults": {"ingest": {"batch_size": 32}},
             "tso": {"scheduling": {"trigger": {"kind": "count",
                                                "threshold": 4}},
                     "ingest": {"batch_size": 8}}}

        ``base`` (e.g. the CLI's flag-derived :class:`ServiceConfig`)
        underlies everything: fields neither a BRP section nor ``defaults``
        mentions keep its values.
        """
        known = {"brps", "defaults", "tso", "tso_name", "bus"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ServiceError(
                f"unknown cluster config keys {', '.join(map(repr, unknown))}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        defaults = data.get("defaults", {})
        if not isinstance(defaults, Mapping):
            raise ServiceError("cluster config 'defaults' must be a mapping")
        brps_spec = data.get("brps", 1)
        if isinstance(brps_spec, bool) or not isinstance(
            brps_spec, (int, Mapping)
        ):
            raise ServiceError(
                "cluster config 'brps' must be an integer count or a "
                "mapping of BRP name to service-config section"
            )
        # ``defaults`` is a layer over ``base`` and each BRP's section one
        # over it, so a BRP's own field wins.
        layer = ServiceConfig.from_dict(defaults, base=base)
        if isinstance(brps_spec, int):
            if brps_spec <= 0:
                raise ServiceError("cluster BRP count must be positive")
            brps = {f"brp-{i}": layer for i in range(brps_spec)}
        else:
            brps = {}
            for name, section in brps_spec.items():
                if not isinstance(section, Mapping):
                    raise ServiceError(
                        f"cluster BRP section {name!r} must be a mapping"
                    )
                brps[name] = ServiceConfig.from_dict(section, base=layer)
        tso_spec = data.get("tso", {})
        if not isinstance(tso_spec, Mapping):
            raise ServiceError("cluster config 'tso' must be a mapping")
        bus_spec = data.get("bus", {})
        if not isinstance(bus_spec, Mapping):
            raise ServiceError("cluster config 'bus' must be a mapping")
        return cls(
            brps=brps,
            tso=TsoConfig.from_dict(tso_spec),
            tso_name=data.get("tso_name", "tso"),
            bus=BusConfig.from_dict(bus_spec),
        )


# ----------------------------------------------------------------------
def _same_macro(held: FlexOffer | None, sent: FlexOffer) -> bool:
    """Whether ``sent`` is the macro the TSO holds under the same id.

    In-process a re-sent macro is the very object; decoded from shared
    memory it is a copy, so the columns the TSO plans on are compared.
    """
    if held is sent:
        return True
    return (
        held is not None
        and held.earliest_start == sent.earliest_start
        and held.latest_start == sent.latest_start
        and held.assignment_before == sent.assignment_before
        and held.unit_price == sent.unit_price
        and held.profile.min_array.tobytes() == sent.profile.min_array.tobytes()
        and held.profile.max_array.tobytes() == sent.profile.max_array.tobytes()
    )


@dataclass
class ClusterReport:
    """Cluster-level summary of one multi-node run."""

    duration_slices: float
    wall_seconds: float
    brp_reports: dict[str, RuntimeReport]
    tso_scheduling_runs: int
    tso_macro_snapshots: int
    tso_macros_returned: int
    tso_plan_cost: float
    remote_commits: int
    """Micro offers committed from TSO plans, summed across BRPs."""
    bus_delivered: int
    bus_dropped: int
    latency_slices_p50: float = 0.0
    latency_slices_p95: float = 0.0
    bus_retries: int = 0
    """Redelivery attempts scheduled by the adapter's retry policy."""
    bus_replayed: int = 0
    """Parked messages replayed to nodes that recovered from an outage."""
    bus_parked: int = 0
    """Messages the bus still holds undelivered at run end: parked after
    their retries ran out, or waiting for a retry."""
    workers: int = 0
    """Worker processes hosting the BRPs (0: all in the calling process)."""
    epochs: int = 0
    """Barrier-separated epochs the window was cut into."""
    shm_segments: int = 0
    """Macro snapshots relayed over shared memory."""
    shm_bytes: int = 0
    """Raw snapshot bytes that crossed the process boundary (macro columns
    only — independent of how many micro offers the macros fold)."""

    def _sum(self, attribute: str) -> int:
        return sum(getattr(r, attribute) for r in self.brp_reports.values())

    @property
    def brp_count(self) -> int:
        return len(self.brp_reports)

    @property
    def offers_submitted(self) -> int:
        return self._sum("offers_submitted")

    @property
    def offers_accepted(self) -> int:
        return self._sum("offers_accepted")

    @property
    def offers_scheduled(self) -> int:
        return self._sum("offers_scheduled")

    @property
    def offers_executed(self) -> int:
        return self._sum("offers_executed")

    @property
    def offers_expired(self) -> int:
        return self._sum("offers_expired")

    @property
    def scheduling_runs(self) -> int:
        return self._sum("scheduling_runs")

    @property
    def offers_per_second(self) -> float:
        """Aggregate wall-clock ingest throughput of the whole cluster."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.offers_accepted / self.wall_seconds

    def as_text(self) -> str:
        lines = [
            f"cluster               {self.brp_count} BRPs + TSO",
            f"simulated duration    {self.duration_slices:g} slices",
            f"wall time             {self.wall_seconds:.3f} s",
            f"offers submitted      {self.offers_submitted}",
            f"offers accepted       {self.offers_accepted}",
            f"offers scheduled      {self.offers_scheduled}",
            f"offers executed       {self.offers_executed}",
            f"offers expired        {self.offers_expired}",
            f"throughput            {self.offers_per_second:.1f} offers/sec "
            "(aggregate)",
            f"e2e latency (sim)     p50={self.latency_slices_p50:.2f} "
            f"p95={self.latency_slices_p95:.2f} slices",
            f"BRP scheduling runs   {self.scheduling_runs}",
            f"TSO runs              {self.tso_scheduling_runs} "
            f"({self.tso_macro_snapshots} snapshots in, "
            f"{self.tso_macros_returned} macros back)",
            f"TSO plan cost         {self.tso_plan_cost:.2f} EUR",
            f"remote commits        {self.remote_commits} micro offers",
            f"bus traffic           {self.bus_delivered} delivered / "
            f"{self.bus_dropped} dropped",
        ]
        if self.bus_retries or self.bus_replayed or self.bus_parked:
            lines.append(
                f"bus resilience        {self.bus_retries} retries / "
                f"{self.bus_replayed} replayed / {self.bus_parked} parked"
            )
        width = max(len(name) for name in self.brp_reports)
        for name in sorted(self.brp_reports):
            report = self.brp_reports[name]
            lines.append(
                f"  {name.ljust(width)}  accepted={report.offers_accepted} "
                f"scheduled={report.offers_scheduled} "
                f"sched_runs={report.scheduling_runs} "
                f"p95={report.latency_slices_p95:.2f}sl"
            )
        if self.workers > 0:
            lines.append(
                f"workers               {self.workers} processes "
                f"({self.epochs} epochs)"
            )
            lines.append(
                f"shm snapshots         {self.shm_segments} segments / "
                f"{self.shm_bytes} bytes"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
class BrpResult(NamedTuple):
    """What a :class:`BrpHost` knows of one BRP at the end of a run.

    Plain picklable data: a worker ships a dict of these up its pipe.
    """

    report: RuntimeReport
    metrics: MetricsRegistry
    committed_starts: dict[int, int]
    """Micro start commitments still held at run end."""
    accepted_offers: list[int]
    """Ids of every offer accepted at ingest, sorted."""


class BrpHost:
    """N BRP stacks on one driver, wired to an uplink towards the TSO.

    ``uplink`` is anything with the ``send``/``register`` surface of
    :class:`BusAdapter`: the adapter itself when the BRPs share the TSO's
    process and driver (:class:`ClusterRuntime`), a
    :class:`~repro.runtime.parallel.ProcessBusTransport` when they live in
    a forked worker on a driver of their own.  This is the one place a
    BRP's ``on_plan_committed`` hook meets a bus.
    """

    def __init__(
        self,
        brps: Mapping[str, ServiceConfig],
        *,
        driver: TimeDriver,
        uplink: Any,
        tso_name: str,
        tracer: Tracer | NullTracer,
        ledger_factory: Callable[[str], Any] | None = None,
    ):
        # Imported lazily: the api facade sits above the runtime package.
        from ..api.client import LedmsClient

        self.uplink = uplink
        self.tso_name = tso_name
        self.tracer = tracer
        self.clients: dict[str, LedmsClient] = {}
        for name, service_config in brps.items():
            # ledger_factory(name) gives each BRP its own durable event
            # ledger (e.g. one JSONL directory per node).
            client = LedmsClient(
                service_config,
                driver=driver,
                name=name,
                tracer=tracer,
                ledger=ledger_factory(name) if ledger_factory else None,
            )
            self.clients[name] = client
            self._wire(name, client)

    def _wire(self, name: str, client) -> None:
        service = client.service

        @client.on_plan_committed
        def publish(plan_view) -> None:
            # The hook fires after every committed local plan; the payload
            # is the node's full macro snapshot (unclipped originals), which
            # replaces the TSO's previous view of this BRP.
            macros = service.last_plan_originals
            if macros:
                detail = None
                if self.tracer.enabled:
                    detail = {"macro_ids": [m.offer_id for m in macros]}
                self.uplink.send(
                    name,
                    self.tso_name,
                    MessageType.MACRO_FLEX_OFFER,
                    macros,
                    service.now,
                    detail=detail,
                )

        def handle(message: Message) -> None:
            if message.type is not MessageType.SCHEDULED_MACRO_FLEX_OFFER:
                raise CommunicationError(f"{name}: unexpected {message.type}")
            service.apply_remote_schedule(message.payload)

        self.uplink.register(name, handle)

    def open(
        self,
        streams: Mapping[str, Iterable[tuple[float, FlexOffer]]],
        end: float,
    ) -> None:
        """Open the window on every BRP (one without a stream still sweeps)."""
        for name, client in self.clients.items():
            client.service.open_window(streams.get(name, ()), end)

    def drain(self, end: float) -> None:
        """Close the window on every BRP; final plans publish to the uplink."""
        for client in self.clients.values():
            client.service.drain(end)

    def trace_shutdown(self) -> None:
        """Emit terminal ``live_at_shutdown`` events for still-open offers."""
        for client in self.clients.values():
            client.service.trace_shutdown()

    def results(
        self, duration_slices: float, wall_seconds: float
    ) -> dict[str, BrpResult]:
        """Snapshot every BRP: report, registry, commitments, accepted ids."""
        admitted = [s for s in OFFER_STATES if s not in ("submitted", "rejected")]
        return {
            name: BrpResult(
                client.service.report(
                    duration_slices=duration_slices, wall_seconds=wall_seconds
                ),
                client.service.metrics,
                client.service.committed_starts(),
                sorted(
                    set().union(
                        *(client.store.offers_in_state(s) for s in admitted)
                    )
                ),
            )
            for name, client in self.clients.items()
        }


# ----------------------------------------------------------------------
class ClusterRuntime:
    """K BRP streaming services + one TSO over a shared driver and bus.

    Owns the head (driver, bus, :class:`BusAdapter`, the TSO's
    :class:`~repro.runtime.service.BrpRuntimeService` and its two seams)
    and the one cluster run loop.  Here every
    BRP sits in a local :class:`BrpHost` on the shared driver, the window
    is a single epoch and the barrier is empty;
    :class:`~repro.runtime.parallel.ParallelClusterRuntime` overrides only
    the placement hooks (``_start`` … ``_cleanup``) to put the hosts in
    worker processes.
    """

    #: Epoch length between barriers; in-process the window is one epoch.
    epoch_slices: float = math.inf
    workers = 0
    shm_segments = 0
    shm_bytes = 0

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        driver: TimeDriver | None = None,
        tso_net_forecast: TimeSeries | None = None,
        tracer: Tracer | NullTracer | None = None,
        ledger_factory: Callable[[str], Any] | None = None,
    ):
        self.config = config if config is not None else ClusterConfig.uniform(2)
        self.driver: TimeDriver = (
            driver if driver is not None else SimulatedDriver()
        )
        # One shared tracer across every node: span ids are then unique
        # cluster-wide and the ring holds the whole causal graph in one
        # deterministic sequence.
        self.tracer = tracer if tracer is not None else NullTracer()
        self.tracer.bind_clock(sim_clock(self.driver))
        head = self._head_driver()
        self.adapter = BusAdapter(
            head,
            tracer=self.tracer,
            bus_config=self.config.bus,
        )
        #: Level 3: the same service as every BRP, on the shared driver,
        #: admitting the BRPs' macros and planning their super-aggregates.
        self.tso = BrpRuntimeService(
            self.config.tso,
            driver=head,
            name=self.config.tso_name,
            net_forecast=tso_net_forecast,
            tracer=self.tracer,
        )
        #: BRP -> macro id -> the macro as that BRP last sent it.
        self._macros: dict[str, dict[int, FlexOffer]] = {}
        self.adapter.register(self.config.tso_name, self._receive_macros)
        self.tso.plan_listeners.append(self._return_macros)
        self.host = BrpHost(
            self._local_brps(),
            driver=self.driver,
            uplink=self.adapter,
            tso_name=self.config.tso_name,
            tracer=self.tracer,
            ledger_factory=ledger_factory,
        )
        self.clients = self.host.clients
        self.epochs = 0
        #: End-of-run results by BRP name, from whichever host ran it.
        self._results: dict[str, BrpResult] = {}

    def _local_brps(self) -> Mapping[str, ServiceConfig]:
        """The BRPs hosted in this process: all of them."""
        return self.config.brps

    def _head_driver(self) -> TimeDriver:
        """The driver of the bus and the TSO: here the one shared driver."""
        return self.driver

    # ------------------------------------------------------------------
    @property
    def accepted_offers(self) -> dict[str, list[int]]:
        """Per-BRP ids of every offer accepted at ingest, as of the last run."""
        return {n: r.accepted_offers for n, r in self._results.items()}

    @property
    def committed_starts(self) -> dict[str, dict[int, int]]:
        """Per-BRP micro start commitments, as of the last run's end."""
        return {n: r.committed_starts for n, r in self._results.items()}

    def _brp_registries(self) -> list[MetricsRegistry]:
        """Live for local BRPs; a remote host's arrive with its results."""
        registries = {n: c.service.metrics for n, c in self.clients.items()}
        registries.update((n, r.metrics) for n, r in self._results.items())
        return list(registries.values())

    @property
    def remote_commits(self) -> int:
        """Micro offers committed from TSO plans, summed across BRPs."""
        return int(
            sum(
                registry.counter("cluster.remote_commits").value
                for registry in self._brp_registries()
            )
        )

    def set_unreachable(self, name: str, unreachable: bool = True) -> None:
        """Mark one BRP as down; bus traffic to it drops instead of raising."""
        self.adapter.set_unreachable(name, unreachable)

    def _tso_count(self, name: str) -> int:
        return int(self.tso.metrics.counter(name).value)

    def metrics(self) -> MetricsRegistry:
        """Cluster-level aggregation of every BRP's metrics registry.

        Counters and gauges sum by name (gauges declared ``merge="last"``
        follow their policy); latency histograms pool their
        observations, so cluster-wide p50/p95 come from the merged
        distribution rather than a max-of-maxima.  The bus adapter's
        ``bus.*``/``transport.*`` instruments ride along, and the TSO's
        registry joins under a ``tso.`` prefix: it is a service's registry
        too, and its macro latencies must not pool with the BRPs' offers.
        """
        merged = aggregate_registries(
            [*self._brp_registries(), self.adapter.metrics]
        )
        merged.merge_from(self.tso.metrics, prefix="tso.")
        return merged

    def trace_shutdown(self) -> None:
        """Emit terminal ``live_at_shutdown`` events for still-open offers.

        Call once after the final drain (the CLI does) so the trace
        validator can require a terminal lifecycle state for every
        submitted offer, macros at the TSO included.  Remote hosts emit
        theirs before they exit.
        """
        self.host.trace_shutdown()
        self.tso.trace_shutdown()

    # -- the TSO's two seams ---------------------------------------------
    def _receive_macros(self, message: Message) -> None:
        """Uplink: admit what changed in one BRP's macro snapshot.

        A snapshot is the BRP's full committed macro set, so it replaces
        that BRP's previous one: ids that left, and ids whose macro
        changed, are withdrawn from the TSO; the new macros are submitted
        as one admission, so the trigger is asked once per snapshot.
        """
        tso = self.tso
        if message.type is not MessageType.MACRO_FLEX_OFFER:
            raise CommunicationError(f"{tso.name}: unexpected {message.type}")
        brp = message.sender
        previous = self._macros.get(brp, {})
        current = {macro.offer_id: macro for macro in message.payload}
        self._macros[brp] = current
        fresh = {
            offer_id: macro
            for offer_id, macro in current.items()
            if not _same_macro(previous.get(offer_id), macro)
        }
        tso.metrics.counter("cluster.macro_snapshots").inc()
        with self.tracer.span(
            "snapshot", node=tso.name, labels={"stage": "snapshot"}
        ) as span:
            # The uplink edge of the causal graph: back to the BRP plan
            # whose publish carried the snapshot.
            span.link(message.trace)
            tso.withdraw_many(
                offer_id
                for offer_id in previous
                if offer_id not in current or offer_id in fresh
            )
            if self.tracer.enabled:
                # Macros are few (one per committed BRP aggregate), so their
                # receipt is recorded regardless of the sampling stride —
                # the chain's trunk must stay complete.
                for offer_id in fresh:
                    self.tracer.record(
                        "offer",
                        force=True,
                        node=tso.name,
                        offer_id=offer_id,
                        state="macro_received",
                        detail={"brp": brp},
                    )
            tso.submit_many(fresh.values())

    def _return_macros(self, result) -> None:
        """Downlink: send every macro of the TSO's committed plan home.

        Each planned super is disaggregated from the plan's own start and
        energies against its unclipped view (no super object is built), and
        each macro goes back to its BRP as one schedule built (and checked)
        on the macro object that BRP sent — not the TSO's admission-clipped
        copy — over the bus in best-effort mode, so an unreachable BRP
        degrades to dropped messages.  A macro that has no home builds
        nothing.
        """
        tso = self.tso
        plan = tso.last_plan
        solution = plan.result.solution
        trace = self.tracer.enabled
        returned = 0
        for view, start, energies in zip(
            plan.views, solution.starts.tolist(), solution.energies
        ):
            for member, macro_start, macro_energies in member_schedules(
                view, start, energies
            ):
                macro_id = member.offer_id
                home = next(
                    (b for b, held in self._macros.items() if macro_id in held),
                    None,
                )
                if home is None:
                    continue
                if trace:
                    self.tracer.record(
                        "offer",
                        force=True,
                        node=tso.name,
                        offer_id=macro_id,
                        state="macro_scheduled",
                        detail={"super": view.offer_id, "brp": home},
                    )
                if self.adapter.send(
                    tso.name,
                    home,
                    MessageType.SCHEDULED_MACRO_FLEX_OFFER,
                    ScheduledFlexOffer(
                        self._macros[home][macro_id], macro_start, macro_energies
                    ),
                    tso.now_slice,
                    detail={"macro": macro_id} if trace else None,
                ):
                    returned += 1
        tso.metrics.counter("cluster.macros_returned").inc(returned)

    # ------------------------------------------------------------------
    def run(
        self,
        streams: Mapping[str, Iterable[tuple[float, FlexOffer]]],
        duration_slices: float,
        *,
        report_every: float | None = None,
        report_sink: Callable[[str], None] = print,
    ) -> ClusterReport:
        """Drive every BRP through its arrival stream for the window.

        ``streams`` maps BRP name to an iterable of ``(time, offer)`` pairs
        in non-decreasing time order (e.g. one
        :meth:`~repro.runtime.loadgen.LoadGenerator.stream` per BRP, with
        per-BRP seeds).  The TSO's window opens with the hosts', and the
        window runs epoch by epoch — the driver advances to each boundary,
        then :meth:`_barrier` waits for every host to get there.  After the
        last one every BRP
        drains (sweep, flush, forced plan), the resulting macro snapshots
        are delivered, and the TSO drains too, so the final system plan
        reaches every reachable BRP.  In-process, all of it executes on the
        one shared driver, so a simulated cluster run is exactly
        reproducible.
        """
        unknown = sorted(set(streams) - set(self.config.brps))
        if unknown:
            raise ServiceError(
                f"streams for unknown BRPs {', '.join(map(repr, unknown))}"
            )
        if report_every is not None and report_every <= 0:
            raise ServiceError(
                f"report_every must be positive, got {report_every}"
            )
        t_wall = time.perf_counter()
        start = self.driver.now
        end = start + duration_slices
        boundaries = [min(start + self.epoch_slices, end)]
        while boundaries[-1] < end:
            boundaries.append(min(boundaries[-1] + self.epoch_slices, end))
        self.epochs = len(boundaries)
        try:
            self._start(streams, boundaries)
            self.tso.open_window((), end)
            if report_every is not None:
                self._arm_report(report_every, end, report_sink)
            for epoch, boundary in enumerate(boundaries):
                self.driver.run_until(boundary)
                self._barrier(epoch)
            self._final_drain(end)
            self._collect_results(duration_slices, time.perf_counter() - t_wall)
        finally:
            self._cleanup()
        return self.report(
            duration_slices=duration_slices,
            wall_seconds=time.perf_counter() - t_wall,
        )

    # -- placement hooks: where hosts live, when the barrier falls ------
    def _start(self, streams, boundaries: list[float]) -> None:
        """Open the window on every host."""
        self.host.open(streams, boundaries[-1])

    def _barrier(self, epoch: int) -> None:
        """Wait for every host to reach the epoch boundary.

        Nothing to wait for here: the local host runs on the TSO's driver,
        so snapshots and returned schedules interleave with arrivals.
        """

    def _final_drain(self, end: float) -> None:
        """Drain every host, then the TSO."""
        self.host.drain(end)
        self._drain_tso(end)

    def _drain_tso(self, end: float) -> None:
        """Deliver the final snapshots, drain the TSO, deliver the replies."""
        driver = self.tso.driver
        driver.run_until(driver.now)
        self.tso.drain(end)
        driver.run_until(driver.now)

    def _collect_results(self, duration_slices: float, wall_seconds: float) -> None:
        """Gather every host's end-of-run results."""
        self._results.update(self.host.results(duration_slices, wall_seconds))

    def _cleanup(self) -> None:
        """Release whatever :meth:`_start` acquired (nothing, in-process)."""

    # ------------------------------------------------------------------
    def _arm_report(
        self, every: float, end: float, sink: Callable[[str], None]
    ) -> None:
        def tick() -> None:
            live = sum(c.service.live_offers for c in self.clients.values())
            scheduled = sum(
                c.service.scheduled_total for c in self.clients.values()
            )
            sink(
                f"[t={self.driver.now:8.1f}] brps={len(self.clients)} "
                f"live={live} scheduled={scheduled} "
                f"tso_runs={self._tso_count('schedule.runs')} "
                f"bus={self.adapter.delivered}/{self.adapter.dropped}d"
            )
            next_time = self.driver.now + every
            if next_time < end:
                self.driver.schedule_at(next_time, tick)

        self.driver.schedule_at(min(self.driver.now + every, end), tick)

    # ------------------------------------------------------------------
    def report(
        self, *, duration_slices: float, wall_seconds: float
    ) -> ClusterReport:
        """The cluster's :class:`ClusterReport` as of the last collected run."""
        latency = self.metrics().histogram("latency.e2e_slices")
        return ClusterReport(
            duration_slices=duration_slices,
            wall_seconds=wall_seconds,
            brp_reports={n: r.report for n, r in self._results.items()},
            tso_scheduling_runs=self._tso_count("schedule.runs"),
            tso_macro_snapshots=self._tso_count("cluster.macro_snapshots"),
            tso_macros_returned=self._tso_count("cluster.macros_returned"),
            tso_plan_cost=(
                self.tso.metrics.gauge("schedule.last_cost", merge="last").value
                if self.tso.last_plan is not None
                else math.nan
            ),
            remote_commits=self.remote_commits,
            bus_delivered=self.adapter.delivered,
            bus_dropped=self.adapter.dropped,
            latency_slices_p50=latency.p50,
            latency_slices_p95=latency.p95,
            bus_retries=self.adapter.retries,
            bus_replayed=self.adapter.replayed,
            bus_parked=self.adapter.parked + self.adapter.pending_retries,
            workers=self.workers,
            epochs=self.epochs,
            shm_segments=self.shm_segments,
            shm_bytes=self.shm_bytes,
        )
