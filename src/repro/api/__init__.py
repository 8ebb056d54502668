"""repro.api — the unified front door of the LEDMS stack.

Everything a caller needs to run a node lives here, typed and composable:

* :class:`LedmsClient` / :class:`LedmsSession` — request/response facade
  over the streaming BRP service (submit / update / withdraw /
  query_offer / current_plan / metrics), with lifecycle hooks and
  :meth:`LedmsClient.resume_from_ledger` for recovery from the durable
  event ledger;
* :class:`TimeDriver` — the pluggable time seam: deterministic
  :class:`SimulatedDriver` or real-time :class:`WallClockDriver`;
* :func:`default_registry` — the engine registry where aggregation
  engines, schedulers, trigger policies and drivers register by name with
  declared capabilities (the single source of truth every validation site
  consults);
* :class:`ServiceConfig` — the composed runtime configuration
  (:class:`MarketConfig` / :class:`AggregationConfig` /
  :class:`SchedulingConfig` / :class:`IngestConfig`);
* :class:`ClusterRuntime` / :class:`ClusterConfig` — the multi-node
  runtime: one client per BRP over a ``node.bus``-backed adapter on a
  shared time driver, with a :class:`TsoRuntimeService` scheduling tier
  consuming each BRP's committed macro flex-offers;
* :class:`Tracer` / :class:`JsonlWriter` — the observability subsystem
  (:mod:`repro.obs`): end-to-end offer tracing over the cluster, a
  structured JSONL event log, and metrics exporters registered under the
  ``exporter`` registry kind.

Only the registry is imported eagerly; the facade classes resolve lazily
(PEP 562) so lower layers can consult the registry without import cycles.
"""

from .registry import (
    KIND_AGGREGATION,
    KIND_DRIVER,
    KIND_EXPORTER,
    KIND_SCHEDULER,
    KIND_TRIGGER,
    Registration,
    Registry,
    RegistryError,
    default_registry,
)

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
    "KIND_AGGREGATION",
    "KIND_DRIVER",
    "KIND_EXPORTER",
    "KIND_SCHEDULER",
    "KIND_TRIGGER",
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
    "Registration",
    "Registry",
    "RegistryError",
    "ReplayStats",
    "SchedulingConfig",
    "ServiceConfig",
    "SimulatedDriver",
    "SubmitResult",
    "TimeDriver",
    "TraceContext",
    "Tracer",
    "TsoConfig",
    "TsoRuntimeService",
    "WallClockDriver",
    "WorkerCrashError",
    "build_trigger",
    "default_registry",
]

#: Lazily exported names -> the submodule that defines them.  The client
#: pulls in the whole runtime stack; importing it eagerly here would cycle
#: with the runtime modules that consult the registry above.
_LAZY_EXPORTS = {
    "LedmsClient": "client",
    "LedmsSession": "client",
    "OfferView": "client",
    "PlanAssignment": "client",
    "PlanView": "client",
    "SubmitResult": "client",
    "AggregationConfig": "config",
    "IngestConfig": "config",
    "MarketConfig": "config",
    "SchedulingConfig": "config",
    "ServiceConfig": "config",
    "build_trigger": "config",
    "JsonlWriter": "obs",
    "NullTracer": "obs",
    "TraceContext": "obs",
    "Tracer": "obs",
    "SimulatedDriver": "drivers",
    "TimeDriver": "drivers",
    "WallClockDriver": "drivers",
    "BrpHost": "cluster",
    "BusAdapter": "cluster",
    "BusConfig": "cluster",
    "ClusterConfig": "cluster",
    "ClusterReport": "cluster",
    "ClusterRuntime": "cluster",
    "ParallelClusterRuntime": "cluster",
    "ProcessBusTransport": "cluster",
    "WorkerCrashError": "cluster",
    "TsoConfig": "cluster",
    "TsoRuntimeService": "cluster",
    "DeadLetter": "ledger",
    "JsonlEventLog": "ledger",
    "MemoryEventLog": "ledger",
    "OfferLedger": "ledger",
    "ReplayStats": "ledger",
}


def __getattr__(name: str):
    submodule = _LAZY_EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
