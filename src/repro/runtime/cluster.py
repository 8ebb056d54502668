"""Multi-node runtime: per-BRP streaming services and a TSO tier over node.bus.

The paper's EDMS is a *hierarchy* of LEDMS nodes — prosumers feed BRPs, and
BRPs forward macro flex-offers to a TSO that "essentially repeats the
process at a higher level".  This module runs that hierarchy online, in
three layers with one loop each:

* **service window** — :meth:`~repro.runtime.service.BrpRuntimeService.
  open_window` / :meth:`~repro.runtime.service.BrpRuntimeService.drain`
  say what a run window means for one BRP;
* :class:`BrpHost` — N BRPs (each behind its :class:`~repro.api.
  LedmsClient`) on one :class:`~repro.runtime.drivers.TimeDriver`, wired
  once to an *uplink*: a committed local plan publishes the BRP's macro
  snapshot, a returned scheduled macro is disaggregated locally;
* :class:`ClusterRuntime` — the TSO head (:class:`BusAdapter` bridging the
  :class:`~repro.node.bus.MessageBus` onto the driver, plus the
  :class:`TsoRuntimeService`, the streaming equivalent of
  :meth:`repro.node.node.TsoNode.schedule`) and the cluster loop: start
  the hosts, advance epoch by epoch with a barrier after each, drain the
  hosts, drain the TSO, collect results into a :class:`ClusterReport`.

The TSO plans through the same pass as every BRP
(:meth:`repro.runtime.planning.PlanSession.plan_window`); what is specific
to it lives here — which macros are in, their re-aggregation into supers,
and sending the scheduled macros home.

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

from ..aggregation.aggregator import disaggregate
from ..aggregation.pipeline import make_pipeline
from ..aggregation.thresholds import AggregationParameters
from ..api.registry import (
    KIND_AGGREGATION,
    KIND_SCHEDULER,
    default_registry,
)
from ..core.errors import CommunicationError, ServiceError
from ..core.flexoffer import FlexOffer
from ..core.schedule import ScheduledFlexOffer
from ..core.timeseries import TimeSeries
from ..datamgmt.mirabel import OFFER_STATES
from ..node.bus import MessageBus
from ..node.messages import Message, MessageType
from ..obs.tracing import NullTracer, Tracer
from ..scheduling import SchedulingResult
from .config import MarketConfig, ServiceConfig, _runtime_parameters
from .drivers import SimulatedDriver, TimeDriver, sim_clock
from .metrics import MetricsRegistry, aggregate_registries
from .planning import PlanSession, eligible_for_window, report_adaptive
from .service import RuntimeReport
from .triggers import AdaptiveCooldown

__all__ = [
    "BrpHost",
    "BusAdapter",
    "BusConfig",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRuntime",
    "TsoConfig",
    "TsoRuntimeService",
]


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BusConfig:
    """Delivery-resilience knobs for the cluster's :class:`BusAdapter`.

    With ``max_retries=0`` (the default) a message to an unreachable node
    drops immediately — the original best-effort mode, where every failed
    send is a traced drop.  With ``max_retries>0`` the adapter retries
    with exponential backoff and parks exhausted messages per recipient,
    replaying them when the node returns
    (:meth:`BusAdapter.set_unreachable` with ``unreachable=False``), so a
    BRP returning from an outage reconciles the TSO schedules it missed.
    Enable it from a cluster-config ``bus`` section, e.g.
    ``{"bus": {"max_retries": 3}}``.
    """

    max_retries: int = 0
    """Redelivery attempts after the first failure (0 disables retry)."""
    retry_backoff_slices: float = 1.0
    """Delay before the first retry, in driver slices."""
    backoff_factor: float = 2.0
    """Multiplier applied to the backoff after each failed attempt."""
    park_limit: int = 256
    """Per-recipient cap on exhausted messages parked for recovery replay."""

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ServiceError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.retry_backoff_slices <= 0:
            raise ServiceError(
                "retry_backoff_slices must be positive, got "
                f"{self.retry_backoff_slices}"
            )
        if self.backoff_factor < 1.0:
            raise ServiceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.park_limit < 0:
            raise ServiceError(
                f"park_limit must be non-negative, got {self.park_limit}"
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BusConfig":
        try:
            return cls(**data)
        except TypeError as exc:
            raise ServiceError(f"invalid bus config: {exc}") from exc


# ----------------------------------------------------------------------
class BusAdapter:
    """Bridges a :class:`MessageBus` onto a :class:`TimeDriver`.

    ``send`` queues in the bus's best-effort mode
    (:meth:`~repro.node.bus.MessageBus.try_send`: an unknown or unreachable
    recipient is counted as dropped, never raised) and arms a single *pump*
    callback through :meth:`TimeDriver.post`; when the pump runs — on the
    driver's loop, at the current driver time — every queued message is
    delivered to its registered handler.  Handlers therefore always execute
    on the loop, in deterministic driver order, which is what lets one
    simulated clock drive a whole cluster.  Under a
    :class:`~repro.runtime.drivers.WallClockDriver` the same ``post`` is
    thread-safe, so network threads can feed the bus without touching the
    loop — the adapter *is* the real wall-clock feed.
    """

    def __init__(
        self,
        bus: MessageBus,
        driver: TimeDriver,
        *,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | NullTracer | None = None,
        bus_config: BusConfig | None = None,
    ):
        self.bus = bus
        self.driver = driver
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NullTracer()
        #: Drop-immediately by default; pass a :class:`BusConfig` with
        #: ``max_retries>0`` to enable retry-with-backoff + park/replay.
        self.bus_config = bus_config if bus_config is not None else BusConfig()
        self._pump_armed = False
        # message_id -> (wall send time, message-type label, message) for
        # everything queued but not yet delivered; resolved to a
        # delivery-latency observation on delivery, or re-routed through
        # the retry path when dropped at dispatch.
        self._sent_at: dict[int, tuple[float, str, Message]] = {}
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

        The handler is wrapped so every delivery is accounted: queue→handler
        latency lands in the ``bus.delivery_seconds`` histogram, the
        per-type ``bus.delivered`` counter increments, and (when tracing)
        a ``deliver`` bus event records the message's carried
        :class:`~repro.obs.tracing.TraceContext` — the receive side of the
        cross-node causal edge.
        """

        def deliver(message: Message) -> None:
            info = self._sent_at.pop(message.message_id, None)
            if info is not None:
                self.metrics.histogram("bus.delivery_seconds").observe(
                    time.perf_counter() - info[0]
                )
                self.metrics.counter(
                    "bus.delivered", labels={"type": info[1]}
                ).inc()
            if self.tracer.enabled:
                self.tracer.bus_event(
                    "deliver",
                    node=name,
                    type=message.type.value,
                    sender=message.sender,
                    recipient=message.recipient,
                    message_id=message.message_id,
                    ctx=message.trace,
                )
            handler(message)

        self.bus.register(name, deliver)

    def set_unreachable(self, name: str, unreachable: bool = True) -> None:
        """Simulate a node outage (messages to it count as dropped).

        Recovery (``unreachable=False``) replays every message parked for
        the node while it was down, so it reconciles what it missed.
        """
        self.bus.set_unreachable(name, unreachable)
        if not unreachable:
            parked = self._parked.pop(name, None)
            if not parked:
                return
            for message in parked:
                self.replayed += 1
                self.metrics.counter(
                    "bus.replayed", labels={"type": message.type.value}
                ).inc()
                if self.tracer.enabled:
                    self.tracer.bus_retry_event(
                        node=name,
                        type=message.type.value,
                        sender=message.sender,
                        recipient=message.recipient,
                        message_id=message.message_id,
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
        sent = self.bus.try_send(message)
        type_name = message.type.value
        if sent:
            self.metrics.counter("bus.sent", labels={"type": type_name}).inc()
            self._sent_at[message.message_id] = (
                time.perf_counter(), type_name, message,
            )
            if self.tracer.enabled:
                self.tracer.bus_event(
                    "publish",
                    node=message.sender,
                    type=type_name,
                    sender=message.sender,
                    recipient=message.recipient,
                    message_id=message.message_id,
                    ctx=message.trace,
                    detail=detail,
                )
            if not self._pump_armed:
                self._pump_armed = True
                self.driver.post(self._pump)
        else:
            self._handle_failure(message, attempt=attempt, detail=detail)
        return sent

    def _handle_failure(
        self,
        message: Message,
        *,
        attempt: int,
        detail: Mapping[str, Any] | None = None,
    ) -> None:
        """Retry with exponential backoff; exhausted messages drop + park."""
        config = self.bus_config
        type_name = message.type.value
        if attempt <= config.max_retries:
            backoff = config.retry_backoff_slices * (
                config.backoff_factor ** (attempt - 1)
            )
            self.retries += 1
            self.pending_retries += 1
            self.metrics.counter(
                "bus.retries", labels={"type": type_name}
            ).inc()
            if self.tracer.enabled:
                self.tracer.bus_retry_event(
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
                "reason": (
                    "retries_exhausted" if config.max_retries else "unreachable"
                )
            }
            if detail:
                drop_detail.update(detail)
            self.tracer.bus_event(
                "drop",
                node=message.sender,
                type=type_name,
                sender=message.sender,
                recipient=message.recipient,
                message_id=message.message_id,
                ctx=message.trace,
                detail=drop_detail,
            )
        if config.max_retries and config.park_limit:
            # The recipient may come back: park the exhausted message so
            # recovery can replay it instead of losing it outright.
            queue = self._parked.get(message.recipient)
            if queue is None:
                queue = deque(maxlen=config.park_limit)
                self._parked[message.recipient] = queue
            queue.append(message)

    def _pump(self) -> None:
        self._pump_armed = False
        self.bus.dispatch_all()
        if self._sent_at:
            # dispatch_all drains the whole queue, so anything still
            # outstanding was dropped at dispatch time (its recipient
            # turned unreachable after queueing); route it through the
            # retry path like a failed send.
            leftovers = [self._sent_at[mid] for mid in sorted(self._sent_at)]
            self._sent_at.clear()
            for _, _, message in leftovers:
                self._handle_failure(message, attempt=1)

    @property
    def delivered(self) -> int:
        """All-time messages delivered over this adapter's bus."""
        return self.bus.total_delivered()

    @property
    def dropped(self) -> int:
        """All-time messages dropped (unknown or unreachable recipients)."""
        return self.bus.dropped


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TsoConfig:
    """Configuration of the cluster's level-3 scheduling tier."""

    engine: str = "packed"
    """Aggregation engine re-aggregating BRP macros, by registry name."""
    scheduler: str = "greedy"
    """System-wide scheduler, by registry name (``runtime`` capability)."""
    scheduler_passes: int = 2
    horizon_slices: int = 192
    trigger_refreshes: int = 2
    """BRP macro-snapshot refreshes that trigger a TSO scheduling run."""
    min_run_interval_slices: float = 4.0
    """Cooldown between TSO runs, bounding re-plan thrash."""
    target_p95_slices: float | None = None
    """Closed-loop staleness target (p95 of snapshot wait, in slices).

    When set, an :class:`~repro.runtime.triggers.AdaptiveCooldown` owns
    mutable copies of ``trigger_refreshes`` / ``min_run_interval_slices``
    and steers them toward this target; the configured values become the
    relaxation rails.
    """
    parameters: AggregationParameters = field(
        default_factory=_runtime_parameters
    )
    market: MarketConfig = field(default_factory=MarketConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        registry = default_registry()
        if not registry.has(KIND_AGGREGATION, self.engine):
            registry.get(KIND_AGGREGATION, self.engine)  # raises with names
        registry.require_capability(KIND_SCHEDULER, self.scheduler, "runtime")
        if self.scheduler_passes <= 0:
            raise ServiceError("scheduler_passes must be positive")
        if self.horizon_slices <= 0:
            raise ServiceError("horizon_slices must be positive")
        if self.trigger_refreshes <= 0:
            raise ServiceError("trigger_refreshes must be positive")
        if self.min_run_interval_slices < 0:
            raise ServiceError("min_run_interval_slices must be non-negative")
        if self.target_p95_slices is not None and self.target_p95_slices <= 0:
            raise ServiceError("target_p95_slices must be positive")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TsoConfig":
        """Build from a JSON-style mapping (``market`` may be nested)."""
        values = dict(data)
        if "parameters" in values:
            raise ServiceError(
                "TSO aggregation parameters cannot be configured from a "
                "dict; pass parameters= to TsoConfig directly"
            )
        market = values.pop("market", None)
        if market is not None:
            if not isinstance(market, Mapping):
                raise ServiceError("tso config section 'market' must be a mapping")
            values["market"] = MarketConfig(**market)
        try:
            return cls(**values)
        except TypeError as exc:
            raise ServiceError(f"invalid tso config: {exc}") from exc


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
        starts from; ``tso`` configures the level-3 tier::

            {"brps": {"north": {"scheduling": {"horizon_slices": 96}},
                      "south": {}},
             "defaults": {"ingest": {"batch_size": 32}},
             "tso": {"trigger_refreshes": 4}}

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
        if isinstance(brps_spec, int):
            if brps_spec <= 0:
                raise ServiceError("cluster BRP count must be positive")
            uniform = ServiceConfig.from_dict(defaults, base=base)
            brps = {f"brp-{i}": uniform for i in range(brps_spec)}
        else:
            brps = {}
            for name, section in brps_spec.items():
                if not isinstance(section, Mapping):
                    raise ServiceError(
                        f"cluster BRP section {name!r} must be a mapping"
                    )
                merged = dict(defaults)
                for key, value in section.items():
                    if (
                        key in merged
                        and isinstance(merged[key], Mapping)
                        and isinstance(value, Mapping)
                    ):
                        merged[key] = {**merged[key], **value}
                    else:
                        merged[key] = value
                brps[name] = ServiceConfig.from_dict(merged, base=base)
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
def _member_key(aggregate) -> str:
    """A super-aggregate's identity across TSO runs: its member-macro ids.

    An unchanged fleet re-aggregates into the same supers, so the keys
    recur and clean placements can be retained; any pool change
    materialises new keys, which are re-placed as new.
    """
    return "|".join(
        str(mid) for mid in sorted(m.offer_id for m in aggregate.members)
    )


class TsoRuntimeService:
    """The streaming level-3 node: re-aggregate BRP macros, schedule, reply.

    BRPs publish ``MACRO_FLEX_OFFER`` messages whose payload is the BRP's
    full committed macro snapshot (a tuple of macro flex-offers, of which
    only the :class:`~repro.core.flexoffer.FlexOffer` surface is read —
    members stay with the BRP that disaggregates them); each snapshot
    *replaces* that BRP's previous one, so the TSO's macro pool
    always mirrors the fleet's latest committed plans (a pool change always
    materialises new aggregate ids, so retaining stale snapshots would
    double-count).  After ``trigger_refreshes`` snapshot refreshes (and a
    cooldown), the TSO re-aggregates the pool once more — "the process is
    essentially repeated at a higher level" — plans the super-aggregates
    system-wide through its :class:`~repro.runtime.planning.PlanSession`,
    disaggregates the plan back into scheduled macros, and returns each to
    its home BRP over the bus in best-effort mode, so an unreachable BRP
    degrades to dropped messages.
    """

    def __init__(
        self,
        config: TsoConfig | None = None,
        *,
        adapter: BusAdapter,
        name: str = "tso",
        metrics: MetricsRegistry | None = None,
        net_forecast: TimeSeries | None = None,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.config = config if config is not None else TsoConfig()
        self.adapter = adapter
        self.name = name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else adapter.tracer
        # Last macro-snapshot trace context per BRP: the causal edge from
        # the BRP plan that published the macros into the next TSO run.
        self._snapshot_ctx: dict[str, Any] = {}
        self._macros_by_brp: dict[str, dict[int, FlexOffer]] = {}
        self._macro_home: dict[int, str] = {}
        self._pending_refreshes = 0
        self._last_run_time = -math.inf
        self.last_plan_cost = float("nan")
        # The same planner as the BRP tier, keyed by the super-aggregate's
        # member-macro-id join.
        self.session = PlanSession(
            self.config.scheduler,
            passes=self.config.scheduler_passes,
            market=self.config.market,
            seed=self.config.seed,
            metrics=self.metrics,
            net_forecast=net_forecast,
        )
        #: key -> keys of the last plan containing each BRP's macros.
        self._keys_by_brp: dict[str, set[str]] = {}
        #: Sim arrival time of each snapshot refresh still awaiting a run.
        self._refresh_arrivals: list[float] = []
        self._cooldown = (
            AdaptiveCooldown(
                self.config.target_p95_slices,
                trigger_refreshes=self.config.trigger_refreshes,
                min_run_interval_slices=self.config.min_run_interval_slices,
            )
            if self.config.target_p95_slices is not None
            else None
        )
        self._adaptive = () if self._cooldown is None else (self._cooldown,)
        adapter.register(name, self.handle_message)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.adapter.driver.now

    @property
    def macro_count(self) -> int:
        """Macro flex-offers currently in the pool, across all BRPs."""
        return len(self._macro_home)

    @property
    def scheduling_runs(self) -> int:
        return int(self.metrics.counter("tso.runs").value)

    @property
    def macros_returned(self) -> int:
        return int(self.metrics.counter("tso.macros_returned").value)

    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.type is not MessageType.MACRO_FLEX_OFFER:
            raise CommunicationError(f"{self.name}: unexpected {message.type}")
        if message.trace is not None:
            self._snapshot_ctx[message.sender] = message.trace
        self.receive_snapshot(message.sender, message.payload)

    def receive_snapshot(self, brp: str, macros: Iterable[FlexOffer]) -> None:
        """Replace ``brp``'s macro set with its latest committed snapshot."""
        fresh = {macro.offer_id: macro for macro in macros}
        for offer_id in self._macros_by_brp.get(brp, ()):
            self._macro_home.pop(offer_id, None)
        self._macros_by_brp[brp] = fresh
        for offer_id in fresh:
            self._macro_home[offer_id] = brp
        # Only this sender's part of the plan is dirtied: every retained
        # super-aggregate containing one of its macros must be re-placed
        # (same macro id can reappear with a changed profile), while supers
        # built purely from other BRPs' macros stay clean.
        touched = self._keys_by_brp.pop(brp, set())
        self.session.mark_dirty(touched)
        self._pending_refreshes += 1
        self._refresh_arrivals.append(self.now)
        self.metrics.counter("tso.macro_snapshots").inc()
        self.metrics.counter("tso.macros_received").inc(len(fresh))
        self.metrics.gauge("tso.macro_pool").set(self.macro_count)
        if self.tracer.enabled:
            # Macros are few (one per committed BRP aggregate), so their
            # lifecycle is always recorded regardless of the sampling
            # stride — the chain's trunk must stay complete.
            for offer_id in sorted(fresh):
                self.tracer.offer_event(
                    offer_id,
                    "macro_received",
                    node=self.name,
                    force=True,
                    detail={"brp": brp},
                )
        self.maybe_schedule()

    # ------------------------------------------------------------------
    def maybe_schedule(self, force: bool = False) -> SchedulingResult | None:
        """Run system-wide scheduling when enough snapshots refreshed."""
        if not force:
            # The adaptive cooldown (when configured) owns the effective
            # thresholds; the static config values are its relaxation rails.
            gate = self._cooldown if self._cooldown is not None else self.config
            if self._pending_refreshes < gate.trigger_refreshes:
                return None
            if self.now - self._last_run_time < gate.min_run_interval_slices:
                return None
        return self.run_scheduling()

    def run_scheduling(self) -> SchedulingResult | None:
        """One system-wide run over the eligible macro pool."""
        self._last_run_time = self.now
        self._pending_refreshes = 0
        wait = self.metrics.histogram("tso.refresh_wait_slices")
        for arrival in self._refresh_arrivals:
            wait.observe(self.now - arrival)
        self._refresh_arrivals.clear()
        self.metrics.counter("tso.runs").inc()
        t0 = time.perf_counter()
        with self.tracer.span(
            "schedule", node=self.name, labels={"stage": "schedule"}
        ) as span:
            result = self._schedule_macros(span)
        self.metrics.histogram(
            "stage.wall_seconds", labels={"brp": self.name, "stage": "schedule"}
        ).observe(time.perf_counter() - t0)
        report_adaptive(self._adaptive, self.metrics, self.tracer, self.name)
        return result

    def _schedule_macros(self, span) -> SchedulingResult | None:
        """The planning body of :meth:`run_scheduling` (inside its span)."""
        start = int(math.ceil(self.now))
        end = start + self.config.horizon_slices
        trace = self.tracer.enabled

        eligible: list[FlexOffer] = []
        # Deterministic pool order regardless of snapshot arrival
        # interleaving.  Eligibility is the same rule as the BRP pool walk;
        # the clip is not applied here — macros enter re-aggregation with
        # their full windows, and the clip happens at the super level.
        for brp in sorted(self._macros_by_brp):
            macros = self._macros_by_brp[brp]
            contributed = False
            for offer_id in sorted(macros):
                macro = macros[offer_id]
                if eligible_for_window(macro, start, end) is not None:
                    eligible.append(macro)
                    contributed = True
            if contributed and trace:
                # Link this run back to the BRP plan whose publish carried
                # the snapshot — the uplink edge of the causal graph.
                span.link(self._snapshot_ctx.get(brp))
        if not eligible:
            self.metrics.counter("tso.empty_runs").inc()
            return None

        # Re-aggregate the fleet's macros once more (level 3 of the paper's
        # hierarchy); a fresh pipeline per run — the macro pool is orders of
        # magnitude smaller than any BRP's micro pool.
        pipeline = make_pipeline(self.config.parameters, engine=self.config.engine)
        pipeline.submit_inserts(eligible)
        pipeline.run()

        # Aggregation shrinks the window to the least-flexible member, so a
        # super-aggregate can be unschedulable even when every macro in it
        # was eligible; the planning pass re-applies the eligibility rule at
        # this level (ineligible supers simply wait for the next run).
        supers = sorted(pipeline.aggregates, key=lambda a: a.offer_id)
        t0 = time.perf_counter()
        plan = self.session.plan_window(
            [(_member_key(original), original) for original in supers],
            start,
            end,
        )
        if plan is None:
            self.metrics.counter("tso.empty_runs").inc()
            return None
        self.metrics.histogram("tso.run_seconds").observe(
            time.perf_counter() - t0
        )
        result = plan.result
        # Refresh the reverse index driving per-sender dirty marking.
        self._keys_by_brp = {}
        for key, original in zip(plan.keys, plan.originals):
            for member in original.members:
                home = self._macro_home.get(member.offer_id)
                if home is not None:
                    self._keys_by_brp.setdefault(home, set()).add(key)
        self.last_plan_cost = float(result.cost)
        self.metrics.gauge("tso.last_cost", merge="last").set(result.cost)

        # Clipped supers were scheduled on the clipped window but are
        # disaggregated against the original, whose member offsets anchor
        # at the unclipped start.
        returned = 0
        for scheduled_super, original in zip(plan.schedule, plan.originals):
            anchored = ScheduledFlexOffer(
                original, scheduled_super.start, scheduled_super.energies
            )
            for scheduled_macro in disaggregate(anchored):
                macro_id = scheduled_macro.offer.offer_id
                home = self._macro_home.get(macro_id)
                if home is None:
                    continue
                if trace:
                    self.tracer.offer_event(
                        macro_id,
                        "macro_scheduled",
                        node=self.name,
                        force=True,
                        detail={"super": original.offer_id, "brp": home},
                    )
                if self.adapter.send(
                    self.name,
                    home,
                    MessageType.SCHEDULED_MACRO_FLEX_OFFER,
                    scheduled_macro,
                    start,
                    detail={"macro": macro_id} if trace else None,
                ):
                    returned += 1
        self.metrics.counter("tso.macros_returned").inc(returned)
        return result


# ----------------------------------------------------------------------
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
    """Exhausted messages still parked (recipient down at run end)."""
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
                dict(client.service._committed_start),
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

    Owns the TSO head (driver, bus, :class:`BusAdapter`,
    :class:`TsoRuntimeService`) and the one cluster run loop.  Here every
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
        bus: MessageBus | None = None,
        tso_net_forecast: TimeSeries | None = None,
        tracer: Tracer | NullTracer | None = None,
        ledger_factory: Callable[[str], Any] | None = None,
    ):
        self.config = config if config is not None else ClusterConfig.uniform(2)
        self.driver: TimeDriver = (
            driver if driver is not None else SimulatedDriver()
        )
        self.bus = bus if bus is not None else MessageBus()
        # One shared tracer across every node: span ids are then unique
        # cluster-wide and the ring holds the whole causal graph in one
        # deterministic sequence.
        self.tracer = tracer if tracer is not None else NullTracer()
        self.tracer.bind_clock(sim_clock(self.driver))
        self.adapter = BusAdapter(
            self.bus,
            self.driver,
            tracer=self.tracer,
            bus_config=self.config.bus,
        )
        self.tso = TsoRuntimeService(
            self.config.tso,
            adapter=self.adapter,
            name=self.config.tso_name,
            net_forecast=tso_net_forecast,
            tracer=self.tracer,
        )
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

    def metrics(self) -> MetricsRegistry:
        """Cluster-level aggregation of every BRP's metrics registry.

        Counters and gauges sum by name (gauges declared ``merge="last"``
        or ``"max"`` follow their policy); latency histograms pool their
        observations, so cluster-wide p50/p95 come from the merged
        distribution rather than a max-of-maxima.  The TSO's ``tso.*``
        instruments and the bus adapter's ``bus.*``/``transport.*``
        instruments ride along (their names are disjoint from the BRPs').
        """
        return aggregate_registries(
            [*self._brp_registries(), self.tso.metrics, self.adapter.metrics]
        )

    def trace_shutdown(self) -> None:
        """Emit terminal ``live_at_shutdown`` events for still-open offers.

        Call once after the final drain (the CLI does) so the trace
        validator can require a terminal lifecycle state for every
        submitted offer.  Remote hosts emit theirs before they exit.
        """
        self.host.trace_shutdown()

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
        per-BRP seeds).  The window runs epoch by epoch — the TSO's driver
        advances to each boundary, then :meth:`_barrier` waits for every
        host to get there.  After the last one every BRP drains (sweep,
        flush, forced plan), the resulting macro snapshots are delivered,
        and the TSO runs once more so the final system plan reaches every
        reachable BRP.  In-process, all of it executes on the one shared
        driver, so a simulated cluster run is exactly reproducible.
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
        """Drain every host, then the TSO tier."""
        self.host.drain(end)
        self._drain_tso()

    def _drain_tso(self) -> None:
        """Deliver the final snapshots, plan system-wide, deliver the replies."""
        self.driver.run_until(self.driver.now)
        if self.tso._pending_refreshes:
            self.tso.run_scheduling()
            self.driver.run_until(self.driver.now)

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
                f"tso_runs={self.tso.scheduling_runs} "
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
            tso_scheduling_runs=self.tso.scheduling_runs,
            tso_macro_snapshots=int(
                self.tso.metrics.counter("tso.macro_snapshots").value
            ),
            tso_macros_returned=self.tso.macros_returned,
            tso_plan_cost=self.tso.last_plan_cost,
            remote_commits=self.remote_commits,
            bus_delivered=self.adapter.delivered,
            bus_dropped=self.adapter.dropped,
            latency_slices_p50=latency.p50,
            latency_slices_p95=latency.p95,
            bus_retries=self.adapter.retries,
            bus_replayed=self.adapter.replayed,
            bus_parked=self.adapter.parked,
            workers=self.workers,
            epochs=self.epochs,
            shm_segments=self.shm_segments,
            shm_bytes=self.shm_bytes,
        )
