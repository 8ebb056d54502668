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

:class:`ServiceConfig` composes the four (plus the time axis), and a
setting has one spelling, ``section.field``: readers go through the
sections (``config.ingest.batch_size``), code builds them
(``ServiceConfig(ingest=IngestConfig(batch_size=8))``) or overlays one
with :func:`dataclasses.replace`, and JSON-style data names them the same
way (``{"ingest": {"batch_size": 8}}``, :meth:`ServiceConfig.from_dict`).
The cluster's TSO is a service too, configured by a subclass with another
scheduling default (:class:`~repro.runtime.cluster.TsoConfig`).

A trigger spec's ``kind`` names an entry of
:data:`repro.runtime.triggers.TRIGGERS`, the one table of trigger names,
and a list of specs is the one spelling of the composite.
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
#: Section name -> its field names, read off the section dataclasses.
_SECTION_FIELDS: dict[str, tuple[str, ...]] = {
    section: tuple(f.name for f in fields(cls))
    for section, cls in (
        ("market", MarketConfig),
        ("aggregation", AggregationConfig),
        ("scheduling", SchedulingConfig),
        ("ingest", IngestConfig),
    )
}


def _unknown_key(scope: str, key: str) -> ServiceError:
    """A top-level key that names no section; a section's field is named
    through its section, never bare."""
    home = [s for s, names in _SECTION_FIELDS.items() if key in names]
    hint = (
        f"it is a field of section {home[0]!r}: "
        f"{{{home[0]!r}: {{{key!r}: ...}}}}"
        if home
        else f"known sections: {', '.join(sorted(_SECTION_FIELDS))}"
    )
    return ServiceError(f"unknown {scope} configuration key {key!r}; {hint}")


@dataclass(frozen=True)
class ServiceConfig:
    """The composed configuration of one streaming BRP service."""

    axis: TimeAxis = DEFAULT_AXIS
    market: MarketConfig = field(default_factory=MarketConfig)
    aggregation: AggregationConfig = field(default_factory=AggregationConfig)
    scheduling: SchedulingConfig = field(default_factory=SchedulingConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, base: "ServiceConfig | None" = None
    ):
        """Build a config from a JSON-style mapping of sections.

        Each key is a section and each value a mapping of that section's
        fields (``{"scheduling": {"horizon_slices": 96}}``).  A trigger is
        given as a spec (:func:`build_trigger`)::

            {"scheduling": {"trigger": [
                {"kind": "count", "threshold": 200},
                {"kind": "age", "max_age_slices": 16}
            ]}}

        ``base`` supplies the configuration every unmentioned field falls
        back to (instead of the built-in defaults) — how the cluster CLI
        layers file sections over flag-derived settings.  The time axis is
        no section; pass ``axis=`` to the constructor.
        """
        config = base if base is not None else cls()
        updates = {}
        for section, values in data.items():
            known = _SECTION_FIELDS.get(section)
            if known is None:
                raise _unknown_key(cls.__name__, section)
            if not isinstance(values, Mapping):
                raise ServiceError(
                    f"config section {section!r} must be a mapping"
                )
            for key in values:
                if key not in known:
                    raise ServiceError(
                        f"unknown {section} configuration field {key!r}; "
                        f"known fields: {', '.join(sorted(known))}"
                    )
            values = dict(values)
            if "trigger" in values:
                values["trigger"] = build_trigger(values["trigger"])
            updates[section] = replace(getattr(config, section), **values)
        return replace(config, **updates)


def build_trigger(spec: Any) -> TriggerPolicy:
    """Instantiate a trigger policy from a spec.

    ``spec`` is one mapping (``{"kind": "count", "threshold": 200}``) or a
    non-empty list of them, which fire as one
    :class:`~repro.runtime.triggers.AnyTrigger`: the list is the
    composite's one spelling.  Each ``kind`` is a name in
    :data:`~repro.runtime.triggers.TRIGGERS` and the other keys are that
    policy's parameters; a spec its policy refuses is a
    :class:`~repro.core.errors.ServiceError`.
    """
    if isinstance(spec, Mapping):
        spec = [spec]
    if not isinstance(spec, (list, tuple)) or not spec:
        raise ServiceError(
            "trigger spec must be a mapping or a non-empty list of mappings"
        )
    policies = []
    for item in spec:
        if not isinstance(item, Mapping) or not isinstance(
            item.get("kind"), str
        ):
            raise ServiceError(
                f"trigger spec entries need a 'kind' name, got {item!r}"
            )
        kind = item["kind"]
        policy = choose(TRIGGERS, "trigger", kind)
        params = {k: v for k, v in item.items() if k != "kind"}
        try:
            policies.append(policy(**params))
        except TypeError:
            takes = ", ".join(f.name for f in fields(policy))
            raise ServiceError(
                f"trigger {kind!r} takes {takes}; got {params or 'none'}"
            ) from None
    if len(policies) == 1:
        return policies[0]
    return AnyTrigger(policies)
