"""Trigger policies: when should the BRP re-run scheduling?

The paper's control component invokes aggregation and scheduling "when
required"; in a streaming node that decision is a policy over the live state.
Each policy inspects a :class:`TriggerContext` snapshot and answers whether a
scheduling run should fire *now*:

* :class:`CountTrigger` — enough new offers accumulated since the last run;
* :class:`AgeTrigger` — the oldest unscheduled offer has waited too long
  (bounds scheduling latency under light traffic);
* :class:`ImbalanceTrigger` — the unscheduled flexible energy exceeds a
  kWh threshold (fires early under bursts of large offers);
* :class:`AnyTrigger` — fires when any child fires (the usual composite:
  count for throughput, age for latency, imbalance for risk); a list of
  trigger specs builds it.

Policies are stateless between decisions; the service resets its context
counters after every scheduling run, so "since the last run" semantics live
in the context, not the policy.

The closed latency loop has one switch, ``SchedulingConfig.target_p95_slices``
(no name in :data:`TRIGGERS` builds the controller).  With it set, a node's trigger is
an :class:`AdaptiveTrigger` — at a BRP and at the TSO alike — tuned by the
module constants below.  Its thresholds are mutable, and ``observe`` —
called by the service after each scheduling run — is the **only** place
they change (replint rule REP009 enforces the seam).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

from ..core.errors import ServiceError
from .fields import check_fields
from .metrics import MetricsRegistry

__all__ = [
    "TriggerContext",
    "TriggerPolicy",
    "CountTrigger",
    "AgeTrigger",
    "ImbalanceTrigger",
    "AnyTrigger",
    "AdaptiveTrigger",
    "TRIGGERS",
]


@dataclass(frozen=True, slots=True)
class TriggerContext:
    """Snapshot of the runtime state a trigger decision is based on.

    All quantities refer to the window since the last scheduling run.
    """

    now: float
    """Current simulated time (slice units)."""
    offers_since_last_run: int
    """Offers accepted since the previous scheduling run."""
    oldest_unscheduled_age: float
    """Simulated slices the oldest unscheduled offer has waited (0 if none)."""
    unscheduled_energy_kwh: float
    """Unscheduled flexible energy at risk: the sum over unscheduled offers
    of each offer's largest-magnitude total energy, ``max(|total_min|,
    |total_max|)`` kWh."""


@runtime_checkable
class TriggerPolicy(Protocol):
    """Decides whether a scheduling run should fire for a given context."""

    def should_fire(self, context: TriggerContext) -> bool:
        """True when scheduling should run now."""
        ...


@dataclass(frozen=True, slots=True)
class CountTrigger:
    """Fire once ``threshold`` offers arrived since the last run."""

    threshold: int

    def __post_init__(self) -> None:
        check_fields(self)
        if self.threshold <= 0:
            raise ServiceError("CountTrigger threshold must be positive")

    def should_fire(self, context: TriggerContext) -> bool:
        return context.offers_since_last_run >= self.threshold


@dataclass(frozen=True, slots=True)
class AgeTrigger:
    """Fire once any unscheduled offer waited ``max_age_slices`` or longer."""

    max_age_slices: float

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_age_slices <= 0:
            raise ServiceError("AgeTrigger max_age_slices must be positive")

    def should_fire(self, context: TriggerContext) -> bool:
        return context.oldest_unscheduled_age >= self.max_age_slices


@dataclass(frozen=True, slots=True)
class ImbalanceTrigger:
    """Fire once unscheduled flexible energy reaches ``threshold_kwh``."""

    threshold_kwh: float

    def __post_init__(self) -> None:
        check_fields(self)
        if self.threshold_kwh <= 0:
            raise ServiceError("ImbalanceTrigger threshold_kwh must be positive")

    def should_fire(self, context: TriggerContext) -> bool:
        return context.unscheduled_energy_kwh >= self.threshold_kwh


class AnyTrigger:
    """Composite policy: fires when any member policy fires."""

    def __init__(self, policies: Sequence[TriggerPolicy]):
        check_fields(self, locals())
        if not policies:
            raise ServiceError("AnyTrigger needs at least one policy")
        for policy in policies:
            if not isinstance(policy, TriggerPolicy):
                raise ServiceError(
                    f"AnyTrigger members must be trigger policies, got "
                    f"{policy!r}"
                )
        self.policies = tuple(policies)

    def should_fire(self, context: TriggerContext) -> bool:
        return any(p.should_fire(context) for p in self.policies)

    def fired_names(self, context: TriggerContext) -> list[str]:
        """Class names of the member policies that fire for ``context``.

        Order is the construction order of ``policies`` (a tuple), so the
        returned list is deterministic across runs for a given context.
        """
        return [
            type(p).__name__ for p in self.policies if p.should_fire(context)
        ]


#: Trigger specs' ``kind`` names (:func:`repro.runtime.config.build_trigger`):
#: name -> (policy class, description).  No name builds the
#: :class:`AnyTrigger`, which a list of specs spells, or the
#: :class:`AdaptiveTrigger`, which ``SchedulingConfig.target_p95_slices``
#: builds.
TRIGGERS = {
    "age": (AgeTrigger, "fire once the oldest unscheduled offer waited too long"),
    "count": (CountTrigger, "fire after N offers since the last run"),
    "imbalance": (
        ImbalanceTrigger,
        "fire once unscheduled flexible energy exceeds a kWh bound",
    ),
}


#: The adaptive controller's tuning.  :class:`AdaptiveTrigger` starts from
#: the static count/age defaults (the age no looser than ``RELAX_MARGIN``
#: times its target) and keeps both thresholds between a floor and a cap;
#: a step scales them by one of the factors.
START_COUNT = 200
START_AGE_SLICES = 16.0
MIN_COUNT = 8
MIN_AGE_SLICES = 1.0
MAX_COUNT = 4096
MAX_AGE_SLICES = 64.0
TIGHTEN_FACTOR = 0.5
RELAX_FACTOR = 1.2
#: The controller relaxes only once the p95 is under this share of target.
RELAX_MARGIN = 0.7


class AdaptiveTrigger:
    """Count/age trigger whose thresholds auto-tune toward a latency target.

    The firing rule is the familiar count-or-age composite; what is new is
    the feedback loop: after every scheduling run the service hands the
    metrics registry to :meth:`observe`, which compares the p95 of
    ``latency.e2e_slices`` against ``target_p95_slices`` and multiplicatively
    tightens (``x TIGHTEN_FACTOR``) or relaxes (``x RELAX_FACTOR``) both
    thresholds between the ``MIN_*`` floors and ``MAX_*`` caps.  Tightening
    makes runs fire earlier (lower latency, more solver work); relaxing
    recovers batching once the p95 sits comfortably under target (below
    ``RELAX_MARGIN x target``), with the p95 of ``schedule.run_seconds``
    reported alongside so operators can see the cost of each adjustment.

    :meth:`observe` is the single mutation seam for the thresholds —
    nothing else may assign ``count_threshold`` / ``max_age_slices``
    (replint rule REP009).
    """

    __slots__ = (
        "target_p95_slices",
        "count_threshold",
        "max_age_slices",
        "_seen_observations",
    )

    def __init__(self, target_p95_slices: float) -> None:
        check_fields(self, locals())
        if target_p95_slices <= 0:
            raise ServiceError(
                "AdaptiveTrigger target_p95_slices must be positive"
            )
        self.target_p95_slices = float(target_p95_slices)
        self.count_threshold = START_COUNT
        # Runs before the first feedback must not blow the target already:
        # the age limit starts no looser than the band the loop settles in.
        self.max_age_slices = min(
            START_AGE_SLICES, RELAX_MARGIN * self.target_p95_slices
        )
        self._seen_observations = 0

    def should_fire(self, context: TriggerContext) -> bool:
        return (
            context.offers_since_last_run >= self.count_threshold
            or context.oldest_unscheduled_age >= self.max_age_slices
        )

    def observe(self, metrics: MetricsRegistry) -> Optional[dict]:
        """One control step; returns the adjustment record, or ``None``.

        Only acts when new latency observations arrived since the previous
        step (the histograms are cumulative), so a quiet period cannot wind
        the thresholds to a rail on a stale signal.
        """
        latency = metrics.histogram("latency.e2e_slices")
        if latency.count == self._seen_observations or latency.count == 0:
            return None
        self._seen_observations = latency.count
        p95 = latency.p95
        if p95 > self.target_p95_slices:
            direction = "tighten"
            count = max(MIN_COUNT, int(self.count_threshold * TIGHTEN_FACTOR))
            age = max(MIN_AGE_SLICES, self.max_age_slices * TIGHTEN_FACTOR)
        elif p95 < RELAX_MARGIN * self.target_p95_slices:
            direction = "relax"
            count = min(
                MAX_COUNT,
                max(
                    self.count_threshold + 1,
                    int(self.count_threshold * RELAX_FACTOR),
                ),
            )
            age = min(MAX_AGE_SLICES, self.max_age_slices * RELAX_FACTOR)
        else:
            return None
        if count == self.count_threshold and age == self.max_age_slices:
            return None  # pinned at a rail; nothing to report
        record = {
            "direction": direction,
            "p95_slices": p95,
            "target_p95_slices": self.target_p95_slices,
            "run_seconds_p95": metrics.histogram("schedule.run_seconds").p95,
            "count_threshold": {"old": self.count_threshold, "new": count},
            "max_age_slices": {"old": self.max_age_slices, "new": age},
        }
        self.count_threshold = count
        self.max_age_slices = age
        return record
