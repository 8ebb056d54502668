"""repro.api — the unified front door of the LEDMS stack.

Everything a caller needs to run a node lives here, typed and composable:

* :class:`LedmsClient` / :class:`LedmsSession` — request/response facade
  over the streaming BRP service (submit / update / withdraw /
  query_offer / current_plan / metrics), with lifecycle hooks and
  :meth:`LedmsClient.resume_from_ledger` for recovery from the durable
  event ledger;
* :class:`TimeDriver` — the pluggable time seam: deterministic
  :class:`SimulatedDriver` or real-time :class:`WallClockDriver`;
* :class:`ServiceConfig` — the composed runtime configuration
  (:class:`MarketConfig` / :class:`AggregationConfig` /
  :class:`SchedulingConfig` / :class:`IngestConfig`);
* :class:`ClusterRuntime` / :class:`ClusterConfig` — the multi-node
  runtime: one client per BRP over one bus adapter on a
  shared time driver, with a TSO that is one more streaming service,
  admitting each BRP's committed macro flex-offers (:class:`TsoConfig`);
* :class:`Tracer` / :class:`JsonlWriter` — the observability subsystem
  (:mod:`repro.obs`): end-to-end offer tracing over the cluster, a
  structured JSONL event log, and metrics exporters.

Only the client is defined in this package.  Every other name is its
defining module's own object (:mod:`repro.runtime.config`,
:mod:`repro.runtime.drivers`, :mod:`repro.runtime.cluster` /
:mod:`repro.runtime.parallel`, :mod:`repro.ledger`, :mod:`repro.obs`):
import it from here or from there, never through a re-export module.
Every name resolves lazily (PEP 562), so ``import repro.api`` loads no
runtime module until a name is used.

The names a caller picks by string — trigger kinds, time drivers, metrics
exporters, aggregation engines — are tables in the layer that reads them
(:data:`repro.runtime.triggers.TRIGGERS`,
:data:`repro.runtime.drivers.DRIVERS`, :data:`repro.obs.export.EXPORTERS`,
:data:`repro.aggregation.pipeline.ENGINES`).
"""

__all__ = [
    "AggregationConfig",
    "BrpHost",
    "BusAdapter",
    "BusConfig",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRuntime",
    "DeadLetter",
    "IngestConfig",
    "JsonlEventLog",
    "JsonlWriter",
    "LedmsClient",
    "LedmsSession",
    "MarketConfig",
    "MemoryEventLog",
    "NullTracer",
    "OfferLedger",
    "OfferView",
    "ParallelClusterRuntime",
    "PlanAssignment",
    "PlanView",
    "ProcessBusTransport",
    "ReplayStats",
    "SchedulingConfig",
    "ServiceConfig",
    "SimulatedDriver",
    "SubmitResult",
    "TimeDriver",
    "TraceContext",
    "Tracer",
    "TsoConfig",
    "WallClockDriver",
    "WorkerCrashError",
    "build_trigger",
]

#: Lazily exported names -> the module that defines them.  The client pulls
#: in the whole runtime stack, which ``import repro.api`` alone must not.
_LAZY_EXPORTS = {
    "LedmsClient": "repro.api.client",
    "LedmsSession": "repro.api.client",
    "OfferView": "repro.api.client",
    "PlanAssignment": "repro.api.client",
    "PlanView": "repro.api.client",
    "SubmitResult": "repro.api.client",
    "AggregationConfig": "repro.runtime.config",
    "IngestConfig": "repro.runtime.config",
    "MarketConfig": "repro.runtime.config",
    "SchedulingConfig": "repro.runtime.config",
    "ServiceConfig": "repro.runtime.config",
    "build_trigger": "repro.runtime.config",
    "JsonlWriter": "repro.obs",
    "NullTracer": "repro.obs",
    "TraceContext": "repro.obs",
    "Tracer": "repro.obs",
    "SimulatedDriver": "repro.runtime.drivers",
    "TimeDriver": "repro.runtime.drivers",
    "WallClockDriver": "repro.runtime.drivers",
    "BrpHost": "repro.runtime.cluster",
    "BusAdapter": "repro.runtime.cluster",
    "BusConfig": "repro.runtime.cluster",
    "ClusterConfig": "repro.runtime.cluster",
    "ClusterReport": "repro.runtime.cluster",
    "ClusterRuntime": "repro.runtime.cluster",
    "TsoConfig": "repro.runtime.cluster",
    "ParallelClusterRuntime": "repro.runtime.parallel",
    "ProcessBusTransport": "repro.runtime.parallel",
    "WorkerCrashError": "repro.runtime.parallel",
    "DeadLetter": "repro.ledger",
    "JsonlEventLog": "repro.ledger",
    "MemoryEventLog": "repro.ledger",
    "OfferLedger": "repro.ledger",
    "ReplayStats": "repro.ledger",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
