"""The engine registry: every pluggable component, one named catalogue.

Aggregation engines, schedulers, trigger policies and time drivers used to
be validated by ad-hoc string checks scattered across the runtime config,
:func:`~repro.aggregation.pipeline.make_pipeline` and the CLI — three
copies of the same set, free to diverge (and they did: the config
rejected ``"reference"`` while ``make_pipeline`` supported it).  This
module is the single source of truth: components register by ``(kind,
name)`` with a factory, a one-line description and declared capabilities;
every validation site asks the registry, so the valid set *cannot* diverge.

Factories import their implementation lazily, which keeps this module —
the one everything else consults — free of heavyweight imports and import
cycles.  User code can register additional engines::

    from repro.api import default_registry, KIND_SCHEDULER

    default_registry().register(
        KIND_SCHEDULER, "annealing", make_annealer,
        description="simulated annealing", capabilities=("runtime",),
    )
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from ..core.errors import ServiceError

__all__ = [
    "KIND_AGGREGATION",
    "KIND_DRIVER",
    "KIND_EXPORTER",
    "KIND_SCHEDULER",
    "KIND_TRIGGER",
    "Registration",
    "Registry",
    "RegistryError",
    "default_registry",
]

#: Registry kinds used by the built-in stack.
KIND_AGGREGATION = "aggregation"
KIND_SCHEDULER = "scheduler"
KIND_TRIGGER = "trigger"
KIND_DRIVER = "driver"
KIND_EXPORTER = "exporter"


class RegistryError(ServiceError):
    """An unknown (kind, name) pair, or a conflicting registration."""


@dataclass(frozen=True)
class Registration:
    """One registered component: identity, factory, declared capabilities."""

    kind: str
    name: str
    factory: Callable[..., object]
    description: str = ""
    capabilities: frozenset[str] = field(default_factory=frozenset)

    def create(self, *args, **kwargs):
        """Instantiate the component through its factory."""
        return self.factory(*args, **kwargs)


class Registry:
    """Named component catalogue with capability queries."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], Registration] = {}

    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        name: str,
        factory: Callable[..., object],
        *,
        description: str = "",
        capabilities: tuple[str, ...] | frozenset[str] = (),
        replace: bool = False,
    ) -> Registration:
        """Register ``factory`` under ``(kind, name)``; returns the entry.

        Re-registering an existing name is an error unless ``replace=True``
        — silent shadowing of a built-in engine would be a debugging trap.
        """
        key = (kind, name)
        if key in self._entries and not replace:
            raise RegistryError(
                f"{kind} {name!r} is already registered; pass replace=True "
                "to override it"
            )
        entry = Registration(
            kind=kind,
            name=name,
            factory=factory,
            description=description,
            capabilities=frozenset(capabilities),
        )
        self._entries[key] = entry
        return entry

    # ------------------------------------------------------------------
    def names(self, kind: str) -> tuple[str, ...]:
        """Registered names of ``kind``, sorted."""
        return tuple(
            sorted(name for (k, name) in self._entries if k == kind)
        )

    def get(self, kind: str, name: str) -> Registration:
        """The registration of ``(kind, name)``; raises with the known set."""
        entry = self._entries.get((kind, name))
        if entry is None:
            known = ", ".join(self.names(kind)) or "<none>"
            raise RegistryError(
                f"unknown {kind} {name!r}; known {kind} names: {known}"
            )
        return entry

    def create(self, kind: str, name: str, *args, **kwargs):
        """Instantiate ``(kind, name)`` through its registered factory."""
        return self.get(kind, name).create(*args, **kwargs)

    def require_capability(
        self, kind: str, name: str, capability: str
    ) -> Registration:
        """The registration of ``(kind, name)``, which must declare
        ``capability``.

        The shared validation for call sites that can only drive components
        of a certain shape — e.g. the streaming loop and the node planning
        tier both need schedulers with the ``runtime`` capability
        (warm-started, pass-bounded re-planning).  Raises
        :class:`RegistryError` naming the missing capability.
        """
        entry = self.get(kind, name)
        if capability not in entry.capabilities:
            raise RegistryError(
                f"{kind} {name!r} lacks the {capability!r} capability "
                f"(declared: {', '.join(sorted(entry.capabilities)) or 'none'})"
            )
        return entry

    def entries(self, kind: str | None = None) -> tuple[Registration, ...]:
        """All registrations (of ``kind`` if given), sorted by kind then name."""
        return tuple(
            entry
            for key, entry in sorted(self._entries.items())
            if kind is None or key[0] == kind
        )

    def render(self) -> str:
        """Human-readable catalogue, one line per entry."""
        lines = []
        for entry in self.entries():
            caps = ",".join(sorted(entry.capabilities)) or "-"
            lines.append(
                f"{entry.kind:<12} {entry.name:<12} [{caps}]  "
                f"{entry.description}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# built-in registrations (lazy factories: no heavyweight imports up front)
# ----------------------------------------------------------------------
def _resolve(module: str, name: str):
    """``repro.<module>.<name>``, imported on first use."""
    return getattr(importlib.import_module(f"repro.{module}"), name)


def _lazy(module: str, name: str) -> Callable[..., object]:
    """A factory calling ``repro.<module>.<name>`` with its arguments."""
    return lambda *args, **kwargs: _resolve(module, name)(*args, **kwargs)


def _reference_pipeline(parameters, bounds=None):
    from ..aggregation.pipeline import AggregationPipeline
    from ..aggregation.reference import ReferenceAggregator

    pipeline = AggregationPipeline(parameters, bounds)
    pipeline.aggregator = ReferenceAggregator()
    return pipeline


def _register_builtins(registry: Registry) -> Registry:
    # ``bin-packing`` = accepts ``BinPackerBounds`` (``make_pipeline``
    # checks it); the packed engine runs with the optional bin-packer off.
    registry.register(
        KIND_AGGREGATION, "packed",
        _lazy("aggregation.engine", "PackedAggregationPipeline"),
        description="columnar engine (PackedPool + GroupArena), runtime default",
        capabilities=("incremental", "columnar"),
    )
    registry.register(
        KIND_AGGREGATION, "scalar",
        _lazy("aggregation.pipeline", "AggregationPipeline"),
        description="live object pipeline (group-builder -> n-to-1 aggregator)",
        capabilities=("incremental", "bin-packing"),
    )
    registry.register(
        KIND_AGGREGATION, "reference", _reference_pipeline,
        description="historical rebuild-on-remove state; oracle + baseline",
        capabilities=("incremental", "oracle", "bin-packing"),
    )
    # Scheduler capabilities are declared here and nowhere else:
    # ``runtime`` = usable by the streaming service's pass-bounded
    # re-planning loop (the budget-driven EA is not), ``warm-start`` =
    # accepts a seed candidate, ``budget`` = honours a wall-clock budget,
    # ``delta`` = takes a :class:`~repro.scheduling.delta.DeltaRequest`
    # (read by :class:`~repro.runtime.planning.PlanSession`), ``exact`` =
    # returns a proven optimum (the plan-quality oracle).
    registry.register(
        KIND_SCHEDULER, "greedy", _lazy("scheduling", "RandomizedGreedyScheduler"),
        description="randomized best-position greedy with warm starts",
        capabilities=("runtime", "warm-start", "budget"),
    )
    registry.register(
        KIND_SCHEDULER, "evolutionary",
        _lazy("scheduling", "EvolutionaryScheduler"),
        description="packed-genome evolutionary search",
        capabilities=("budget",),
    )
    registry.register(
        KIND_SCHEDULER, "milp", _lazy("scheduling.milp", "MilpScheduler"),
        description="exact MILP optimum via HiGHS (needs scipy); the oracle",
        capabilities=("exact",),
    )
    registry.register(
        KIND_SCHEDULER, "delta", _lazy("scheduling", "DeltaScheduler"),
        description="dirty-set re-planning over a retained plan (one pass)",
        capabilities=("runtime", "delta"),
    )
    registry.register(
        KIND_TRIGGER, "count", _lazy("runtime.triggers", "CountTrigger"),
        description="fire after N offers since the last run",
    )
    registry.register(
        KIND_TRIGGER, "age", _lazy("runtime.triggers", "AgeTrigger"),
        description="fire once the oldest unscheduled offer waited too long",
    )
    registry.register(
        KIND_TRIGGER, "imbalance", _lazy("runtime.triggers", "ImbalanceTrigger"),
        description="fire once unscheduled flexible energy exceeds a kWh bound",
    )
    registry.register(
        KIND_TRIGGER, "any", _lazy("runtime.triggers", "AnyTrigger"),
        description="composite: fire when any member policy fires",
        capabilities=("composite",),
    )
    registry.register(
        KIND_DRIVER, "simulated", _lazy("runtime.drivers", "SimulatedDriver"),
        description="deterministic simulated time over an event heap",
        capabilities=("deterministic",),
    )
    registry.register(
        KIND_DRIVER, "wallclock", _lazy("runtime.drivers", "WallClockDriver"),
        description="real-time slices with a thread-safe arrival inbox",
        capabilities=("realtime", "threadsafe-inbox"),
    )
    # Exporter factories return a render callable (registry -> str), so an
    # exporter is resolved once and applied to any number of registries.
    registry.register(
        KIND_EXPORTER, "text",
        partial(_resolve, "obs.export", "render_metrics_text"),
        description="plain key = value metrics dump (the CLI default)",
    )
    registry.register(
        KIND_EXPORTER, "json",
        partial(_resolve, "obs.export", "render_metrics_json"),
        description="pretty-printed JSON metrics snapshot (as_dict)",
    )
    registry.register(
        KIND_EXPORTER, "prometheus",
        partial(_resolve, "obs.export", "render_prometheus"),
        description="Prometheus text exposition (histograms as summaries)",
    )
    return registry


_DEFAULT: Registry | None = None


def default_registry() -> Registry:
    """The process-wide registry, built (with the built-ins) on first use."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _register_builtins(Registry())
    return _DEFAULT
