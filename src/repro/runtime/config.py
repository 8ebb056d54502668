"""Composable runtime configuration: market, aggregation, scheduling, ingest.

The runtime's knobs belong to four different layers of the stack; this
module splits the configuration along those seams:

* :class:`MarketConfig` — prices and imbalance penalties the scheduler
  prices residuals against;
* :class:`AggregationConfig` — grouping thresholds (the runtime always
  aggregates with the packed engine);
* :class:`SchedulingConfig` — horizon, passes, trigger policy, cadence
  and seed (the scheduler is always the §6 randomized greedy);
* :class:`IngestConfig` — the optional admission batch cap and the
  duration limit.

:class:`ServiceConfig` composes the four (plus the time axis); readers go
through the sections (``config.ingest.batch_size``).  The cluster's TSO is
a service too, configured by a subclass with another scheduling default
(:class:`~repro.runtime.cluster.TsoConfig`).  Both share one
:meth:`~SectionedConfig.from_flat` / :meth:`~SectionedConfig.merged` /
:meth:`~SectionedConfig.from_dict`, which also accept every section field
under its bare name — a table derived from the section dataclasses, so a
field is declared once.

A trigger spec's ``kind`` names an entry of
:data:`repro.runtime.triggers.TRIGGERS`, the one table of trigger names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

from ..aggregation.thresholds import AggregationParameters
from ..core.errors import ServiceError, choose
from ..core.timebase import DEFAULT_AXIS, TimeAxis
from .fields import check_fields
from .triggers import (
    TRIGGERS,
    AdaptiveTrigger,
    AgeTrigger,
    AnyTrigger,
    CountTrigger,
    ImbalanceTrigger,
    TriggerPolicy,
)

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
    """Grouping thresholds of the packed aggregation engine."""

    parameters: AggregationParameters = field(
        default_factory=_runtime_parameters
    )

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class SchedulingConfig:
    """Horizon, trigger policy and re-planning cadence."""

    horizon_slices: int = 192
    """Rolling planning horizon (2 days on the 15-min axis)."""
    scheduler_passes: int = 2
    """Most greedy passes per scheduling run; each pass re-places only the
    offers whose last placement was not kept (all of them on a first run).
    A run stops after a pass that a Lagrangian certificate proves optimal
    (see :meth:`~repro.scheduling.greedy.RandomizedGreedyScheduler.schedule`),
    so a run may take fewer."""
    trigger: TriggerPolicy = field(default_factory=default_trigger)
    """When a scheduling run fires, asked over a
    :class:`~repro.runtime.triggers.TriggerContext`.

    It counts accepted offers since the last run and is evaluated on every
    arrival and every expiry sweep.  At the TSO the offers are the BRPs'
    macros, and a snapshot's new macros arrive as one admission, so it is
    asked once per snapshot.
    """
    min_run_interval_slices: float = 1.0
    """Cooldown between scheduling runs, bounding trigger thrash."""
    seed: int = 0
    """Seed of the scheduler RNG (the load generator has its own)."""
    target_p95_slices: float | None = None
    """Closed-loop latency target, in slices: the loop's one switch.

    The service replaces ``trigger`` with an
    :class:`~repro.runtime.triggers.AdaptiveTrigger` steering its count/age
    thresholds toward this p95 of arrival-to-first-commitment latency: an
    offer's at a BRP, a macro's at the TSO.  The controller's tuning is
    fixed (the constants in :mod:`repro.runtime.triggers`); no trigger spec
    builds it, and a hand-built ``AdaptiveTrigger`` is refused as
    ``trigger``.
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
        policies = getattr(self.trigger, "policies", (self.trigger,))
        if any(isinstance(p, AdaptiveTrigger) for p in policies):
            raise ServiceError(
                "an AdaptiveTrigger is not configured as a trigger; set "
                "target_p95_slices instead"
            )


@dataclass(frozen=True)
class IngestConfig:
    """The optional admission batch cap and the profile-length limit."""

    batch_size: int | None = None
    """Optional cap on pending flex-offer updates: once this many wait, the
    arrival that reached it runs the incremental pipeline.

    With no cap (the default), admitted inserts and retirement deletes wait
    in the ingest batch for a flush the service makes anyway: the one
    before each planning run, the one in an expiry sweep that retired
    offers, and the one in a drain.  The planner is the pool's only
    reader, so each node folds once per plan; an update waits at most
    until the next plan or the next sweep that retires an offer."""
    max_duration_slices: int | None = None
    """Admission limit on profile length (None = unlimited)."""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.batch_size is not None and self.batch_size <= 0:
            raise ServiceError("batch_size must be positive")
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
        a spec — one mapping or a list of mappings with a ``kind`` key,
        combined with the ``any`` composite::

            {"scheduling": {"trigger": [
                {"kind": "count", "threshold": 200},
                {"kind": "age", "max_age_slices": 16}
            ]}}

        ``base`` supplies the configuration every unmentioned field falls
        back to (instead of the built-in defaults) — how the cluster CLI
        layers file sections over flag-derived settings.  A field given
        both flat and in its section is refused.
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
        for key in flat:
            section, name = cls._FLAT_FIELDS.get(key, (None, None))
            if name in nested.get(section, ()):
                raise ServiceError(
                    f"config field {key!r} is given both flat and in section "
                    f"{section!r}; give it once"
                )
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
    """Instantiate a trigger policy from a spec.

    ``spec`` is one mapping (``{"kind": "count", "threshold": 200}``) or a
    list of them (combined with the ``any`` composite); each ``kind`` is a
    name in :data:`~repro.runtime.triggers.TRIGGERS`.  Already-built
    policies pass through untouched.
    """
    if isinstance(spec, TriggerPolicy) and not isinstance(spec, Mapping):
        return spec
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
        policies.append(choose(TRIGGERS, "trigger", item["kind"])(**kwargs))
    if len(policies) == 1:
        return policies[0]
    return AnyTrigger(policies)
