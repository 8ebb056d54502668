"""Composable runtime configuration: market, aggregation, scheduling, ingest.

The runtime's knobs belong to four different layers of the stack; this
module splits the configuration along those seams:

* :class:`MarketConfig` — prices and imbalance penalties the scheduler
  prices residuals against;
* :class:`AggregationConfig` — grouping thresholds and the aggregation
  engine (validated against the :mod:`repro.api.registry`);
* :class:`SchedulingConfig` — horizon, scheduler (by registry name),
  passes, trigger policy, cadence and seed;
* :class:`IngestConfig` — admission batching and expiry sweeping.

:class:`ServiceConfig` composes the four (plus the time axis); readers go
through the sections (``config.ingest.batch_size``).  The cluster's TSO
tier composes the same market, aggregation and scheduling sections
(:class:`~repro.runtime.cluster.TsoConfig`), and both share one
:meth:`~SectionedConfig.from_flat` / :meth:`~SectionedConfig.merged` /
:meth:`~SectionedConfig.from_dict`, which also accept every section field
under its bare name — a table derived from the section dataclasses, so a
field is declared once.

Engine, scheduler and trigger names are resolved through
:func:`repro.api.default_registry`, so the set of valid names is defined in
exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ..aggregation.thresholds import AggregationParameters
from ..api.registry import (
    KIND_AGGREGATION,
    KIND_SCHEDULER,
    KIND_TRIGGER,
    default_registry,
)
from ..core.errors import ServiceError
from ..core.timebase import DEFAULT_AXIS, TimeAxis
from .fields import check_fields
from .triggers import AgeTrigger, AnyTrigger, CountTrigger, ImbalanceTrigger, TriggerPolicy

__all__ = [
    "AggregationConfig",
    "IngestConfig",
    "MarketConfig",
    "SchedulingConfig",
    "ServiceConfig",
]


def _runtime_parameters() -> AggregationParameters:
    return AggregationParameters(
        start_after_tolerance=8, time_flexibility_tolerance=8, name="runtime"
    )


def default_trigger() -> TriggerPolicy:
    """Count for throughput, age for latency, imbalance for burst risk.

    The ``loadtest``/``serve`` CLI takes this policy when no ``--trigger``
    is given, and reads every other service flag's default off a default
    :class:`ServiceConfig`, so library and CLI runs behave identically out
    of the box.
    """
    return AnyTrigger(
        [CountTrigger(200), AgeTrigger(16), ImbalanceTrigger(2_000.0)]
    )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MarketConfig:
    """Flat market prices and imbalance penalties (EUR/kWh)."""

    buy_price: float = 0.20
    sell_price: float = 0.05
    shortage_penalty: float = 0.5
    surplus_penalty: float = 0.2

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class AggregationConfig:
    """Grouping thresholds and engine selection."""

    parameters: AggregationParameters = field(
        default_factory=_runtime_parameters
    )
    engine: str = "packed"
    """Aggregation engine, by :mod:`repro.api.registry` name."""

    def __post_init__(self) -> None:
        check_fields(self)
        default_registry().get(KIND_AGGREGATION, self.engine)  # raises with names


@dataclass(frozen=True)
class SchedulingConfig:
    """Horizon, scheduler, trigger policy and re-planning cadence."""

    horizon_slices: int = 192
    """Rolling planning horizon (2 days on the 15-min axis)."""
    scheduler: str = "greedy"
    """Scheduler, by registry name; must declare the ``runtime`` capability."""
    scheduler_passes: int = 2
    """Greedy passes per scheduling run (the warm start adds one evaluation)."""
    trigger: TriggerPolicy = field(default_factory=default_trigger)
    """When a scheduling run fires, asked over a
    :class:`~repro.runtime.triggers.TriggerContext`.

    At a BRP it counts accepted offers since the last run and is evaluated
    on every arrival.  At the TSO it counts macro-snapshot refreshes since
    the last run (the age is the oldest waiting refresh's, the energy 0)
    and is evaluated when a snapshot arrives, since the TSO has no tick of
    its own.
    """
    min_run_interval_slices: float = 1.0
    """Cooldown between scheduling runs, bounding trigger thrash."""
    seed: int = 0
    """Seed of the scheduler RNG (the load generator has its own)."""
    target_p95_slices: float | None = None
    """Closed-loop latency target, in slices.

    At a BRP (p95 of offer end-to-end latency), when no explicit adaptive
    policy is configured, the service replaces ``trigger`` with an
    :class:`~repro.runtime.triggers.AdaptiveTrigger` steering its count/age
    thresholds toward this target.  At the TSO (p95 of snapshot wait), an
    :class:`~repro.runtime.triggers.AdaptiveCooldown` steers the count
    trigger's threshold and the cooldown, the configured values being its
    rails.
    """

    def __post_init__(self) -> None:
        check_fields(self)
        if self.horizon_slices <= 0:
            raise ServiceError("horizon_slices must be positive")
        if self.scheduler_passes <= 0:
            raise ServiceError("scheduler_passes must be positive")
        if self.min_run_interval_slices < 0:
            raise ServiceError("min_run_interval_slices must be non-negative")
        if self.target_p95_slices is not None and self.target_p95_slices <= 0:
            raise ServiceError("target_p95_slices must be positive")
        # RegistryError is a ServiceError; the registry owns the single
        # copy of the capability check and its message.
        default_registry().require_capability(
            KIND_SCHEDULER, self.scheduler, "runtime"
        )


@dataclass(frozen=True)
class IngestConfig:
    """Admission batching and expiry sweeping."""

    batch_size: int = 64
    """Pending flex-offer updates that trigger an incremental pipeline run."""
    expiry_sweep_interval: float = 4.0
    """Simulated slices between sweeps retiring closed-window offers."""
    max_duration_slices: int | None = None
    """Admission limit on profile length (None = unlimited)."""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.batch_size <= 0:
            raise ServiceError("batch_size must be positive")
        if self.expiry_sweep_interval <= 0:
            raise ServiceError("expiry_sweep_interval must be positive")
        if (
            self.max_duration_slices is not None
            and self.max_duration_slices <= 0
        ):
            raise ServiceError("max_duration_slices must be positive")


# ----------------------------------------------------------------------
def _field_tables(sections: Mapping[str, type]):
    """Section -> its field names, and flat name -> (section, field).

    Read off the section dataclasses.  Every field goes by its own flat
    name except ``AggregationConfig.parameters``.
    """
    by_section = {
        section: tuple(f.name for f in fields(cls))
        for section, cls in sections.items()
    }
    flat = {
        name: (section, name)
        for section, names in by_section.items()
        for name in names
    }
    flat["aggregation_parameters"] = flat.pop("parameters")
    return by_section, flat


def _unknown_field(scope: str, key: str, known) -> ServiceError:
    return ServiceError(
        f"unknown {scope} configuration field {key!r}; known "
        f"fields: {', '.join(sorted(known))}"
    )


class SectionedConfig:
    """Flat and JSON-style construction of a config made of sections.

    A subclass is a frozen dataclass with one field per section; it sets
    ``_SECTION_FIELDS, _FLAT_FIELDS = _field_tables({section: class})``
    and, for error messages, ``_SCOPE``.  :class:`ServiceConfig` and the
    cluster's ``TsoConfig`` are the two users.
    """

    _SCOPE = "runtime"
    _SECTION_FIELDS: dict[str, tuple[str, ...]] = {}
    _FLAT_FIELDS: dict[str, tuple[str, str]] = {}

    @classmethod
    def from_flat(cls, **flat):
        """Build a config from flat keyword names (see ``merged``)."""
        return cls().merged(**flat)

    def merged(self, **flat):
        """A copy with flat-named overrides applied (explicit values win)."""
        sections: dict[str, dict[str, Any]] = {}
        for key, value in flat.items():
            target = self._FLAT_FIELDS.get(key)
            if target is None:
                raise _unknown_field(self._SCOPE, key, self._FLAT_FIELDS)
            section, name = target
            sections.setdefault(section, {})[name] = value
        return self._with_sections(sections)

    def flat(self) -> dict[str, Any]:
        """Every section field under its flat name (what ``merged`` takes)."""
        return {
            name: getattr(getattr(self, section), field_name)
            for name, (section, field_name) in self._FLAT_FIELDS.items()
        }

    def _with_sections(self, sections: Mapping[str, Mapping[str, Any]]):
        """A copy with ``{section: {field: value}}`` overrides applied."""
        updates = {}
        for section, values in sections.items():
            known = self._SECTION_FIELDS[section]
            for key in values:
                if key not in known:
                    raise _unknown_field(section, key, known)
            updates[section] = replace(getattr(self, section), **values)
        return replace(self, **updates)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, base=None):
        """Build a config from a JSON-style mapping.

        Accepts nested sections (``{"scheduling": {"horizon_slices": 96}}``)
        and/or flat keys at the top level.  A trigger is given as
        a registry spec — one mapping or a list of mappings with a ``kind``
        key, combined with the ``any`` composite::

            {"scheduling": {"trigger": [
                {"kind": "count", "threshold": 200},
                {"kind": "age", "max_age_slices": 16}
            ]}}

        ``base`` supplies the configuration every unmentioned field falls
        back to (instead of the built-in defaults) — how the cluster CLI
        layers file sections over flag-derived settings.
        """
        flat: dict[str, Any] = {}
        nested: dict[str, dict[str, Any]] = {}
        for key, value in data.items():
            if key in cls._SECTION_FIELDS:
                if not isinstance(value, Mapping):
                    raise ServiceError(
                        f"config section {key!r} must be a mapping"
                    )
                nested[key] = dict(value)
            elif key == "axis":
                raise ServiceError(
                    "the time axis cannot be configured from a dict; pass "
                    "axis= to ServiceConfig directly"
                )
            else:
                flat[key] = value
        trigger_spec = nested.get("scheduling", {}).pop("trigger", None)
        if trigger_spec is None:
            trigger_spec = flat.pop("trigger", None)
        config = base if base is not None else cls()
        config = config.merged(**flat)._with_sections(nested)
        if trigger_spec is not None:
            config = config.merged(trigger=build_trigger(trigger_spec))
        return config


@dataclass(frozen=True)
class ServiceConfig(SectionedConfig):
    """The composed configuration of one streaming BRP service."""

    axis: TimeAxis = DEFAULT_AXIS
    market: MarketConfig = field(default_factory=MarketConfig)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    scheduling: SchedulingConfig = field(default_factory=SchedulingConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)

    _SECTION_FIELDS, _FLAT_FIELDS = _field_tables(
        {
            "market": MarketConfig,
            "aggregation": AggregationConfig,
            "scheduling": SchedulingConfig,
            "ingest": IngestConfig,
        }
    )

    @classmethod
    def from_flat(cls, *, axis: TimeAxis = DEFAULT_AXIS, **flat) -> "ServiceConfig":
        """Build a composed config from flat keyword names (see ``merged``)."""
        return cls(axis=axis).merged(**flat)


def build_trigger(spec: Any) -> TriggerPolicy:
    """Instantiate a trigger policy from a registry-name spec.

    ``spec`` is one mapping (``{"kind": "count", "threshold": 200}``) or a
    list of them (combined with the ``any`` composite).  Already-built
    policies pass through untouched.
    """
    if isinstance(spec, TriggerPolicy) and not isinstance(spec, Mapping):
        return spec
    registry = default_registry()
    if isinstance(spec, Mapping):
        spec = [spec]
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ServiceError(
            "trigger spec must be a mapping or a non-empty list of mappings"
        )
    policies = []
    for item in spec:
        if not isinstance(item, Mapping) or "kind" not in item:
            raise ServiceError(
                f"trigger spec entries need a 'kind' key, got {item!r}"
            )
        kwargs = {k: v for k, v in item.items() if k != "kind"}
        policies.append(registry.create(KIND_TRIGGER, item["kind"], **kwargs))
    if len(policies) == 1:
        return policies[0]
    return registry.create(KIND_TRIGGER, "any", policies)
