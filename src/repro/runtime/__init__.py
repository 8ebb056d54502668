"""Streaming flex-offer runtime: the event-driven LEDMS service loop.

The paper's aggregation component is explicitly incremental — it "accepts a
set of flex-offer updates … and produces a set of aggregated flex-offer
updates" (§4).  This package provides the *online* runtime that exercises
that design the way a deployed MIRABEL BRP node would: a continuous stream
of offer arrivals over a pluggable time driver (deterministic simulation by
default, wall clock on request), incremental aggregate maintenance,
trigger-driven scheduling with warm starts, lifecycle persistence in the
LEDMS store, and operational metrics end to end.

Most callers should go through the typed facade in :mod:`repro.api`
(:class:`~repro.api.LedmsClient`); this package remains the engine room::

    from repro.runtime import (
        BrpRuntimeService, ServiceConfig, RuntimeReport,
        TimeDriver, SimulatedDriver, WallClockDriver,
        EventQueue, SimulatedClock,
        FlexOfferIngest, LoadGenerator, MetricsRegistry,
        TriggerContext, CountTrigger, AgeTrigger, ImbalanceTrigger, AnyTrigger,
        ClusterRuntime, ClusterConfig, ClusterReport, BrpHost,
        TsoRuntimeService, TsoConfig, BusAdapter,
        ParallelClusterRuntime, ProcessBusTransport,
    )
"""

from .clock import ClockError, EventQueue, SimulatedClock
from .cluster import (
    BrpHost,
    BusAdapter,
    BusConfig,
    ClusterConfig,
    ClusterReport,
    ClusterRuntime,
    TsoConfig,
    TsoRuntimeService,
)
from .config import (
    AggregationConfig,
    IngestConfig,
    MarketConfig,
    SchedulingConfig,
    ServiceConfig,
)
from .drivers import SimulatedDriver, TimeDriver, WallClockDriver
from .faults import (
    CrashKill,
    OutageSpec,
    apply_outages,
    continue_stream,
    duplicate_stream,
    parse_outage,
    remaining_arrivals,
    reorder_stream,
    run_stream_with_crash,
    state_fingerprint,
)
from .ingest import FlexOfferIngest
from .loadgen import LoadGenerator
from .parallel import (
    ParallelClusterRuntime,
    ProcessBusTransport,
    WorkerCrashError,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_registries,
)
from .service import BrpRuntimeService, RuntimeReport
from .triggers import (
    AdaptiveCooldown,
    AdaptiveTrigger,
    AgeTrigger,
    AnyTrigger,
    CountTrigger,
    ImbalanceTrigger,
    TriggerContext,
    TriggerPolicy,
)

__all__ = [
    "AdaptiveCooldown",
    "AdaptiveTrigger",
    "AgeTrigger",
    "AggregationConfig",
    "AnyTrigger",
    "BrpHost",
    "BrpRuntimeService",
    "BusAdapter",
    "BusConfig",
    "ClockError",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRuntime",
    "CountTrigger",
    "Counter",
    "CrashKill",
    "EventQueue",
    "FlexOfferIngest",
    "Gauge",
    "Histogram",
    "ImbalanceTrigger",
    "IngestConfig",
    "LoadGenerator",
    "MarketConfig",
    "MetricsRegistry",
    "OutageSpec",
    "ParallelClusterRuntime",
    "ProcessBusTransport",
    "RuntimeReport",
    "SchedulingConfig",
    "ServiceConfig",
    "SimulatedClock",
    "SimulatedDriver",
    "TimeDriver",
    "TriggerContext",
    "TriggerPolicy",
    "TsoConfig",
    "TsoRuntimeService",
    "WallClockDriver",
    "WorkerCrashError",
    "aggregate_registries",
    "apply_outages",
    "continue_stream",
    "duplicate_stream",
    "parse_outage",
    "remaining_arrivals",
    "reorder_stream",
    "run_stream_with_crash",
    "state_fingerprint",
]
