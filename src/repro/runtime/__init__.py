"""Streaming flex-offer runtime: the event-driven LEDMS service loop.

The paper's aggregation component is explicitly incremental — it "accepts a
set of flex-offer updates … and produces a set of aggregated flex-offer
updates" (§4).  This package provides the *online* runtime that exercises
that design the way a deployed MIRABEL BRP node would: a continuous stream
of offer arrivals over a pluggable time driver (deterministic simulation by
default, wall clock on request), incremental aggregate maintenance,
trigger-driven scheduling that re-places only what changed, lifecycle persistence in the
LEDMS store, and operational metrics end to end.

Most callers should go through the typed facade in :mod:`repro.api`
(:class:`~repro.api.LedmsClient`).  The configuration, driver and cluster
names :mod:`repro.api` exports are defined here (``config``, ``drivers``,
``cluster``, ``parallel``), and it hands out these very objects; this
package remains the engine room::

    from repro.runtime import (
        BrpRuntimeService, ServiceConfig, RuntimeReport,
        TimeDriver, SimulatedDriver, WallClockDriver, ClockError,
        FlexOfferIngest, LoadGenerator, MetricsRegistry,
        TriggerContext, CountTrigger, AgeTrigger, ImbalanceTrigger, AnyTrigger,
        ClusterRuntime, ClusterConfig, ClusterReport, BrpHost,
        TsoConfig, BusAdapter,
        ParallelClusterRuntime, ProcessBusTransport,
    )
"""

from .cluster import (
    BrpHost,
    BusAdapter,
    BusConfig,
    ClusterConfig,
    ClusterReport,
    ClusterRuntime,
    TsoConfig,
)
from .config import (
    AggregationConfig,
    IngestConfig,
    MarketConfig,
    SchedulingConfig,
    ServiceConfig,
)
from .drivers import ClockError, SimulatedDriver, TimeDriver, WallClockDriver
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
    AdaptiveTrigger,
    AgeTrigger,
    AnyTrigger,
    CountTrigger,
    ImbalanceTrigger,
    TriggerContext,
    TriggerPolicy,
)

__all__ = [
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
    "SimulatedDriver",
    "TimeDriver",
    "TriggerContext",
    "TriggerPolicy",
    "TsoConfig",
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
