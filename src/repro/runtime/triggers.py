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
  count for throughput, age for latency, imbalance for risk);
* :class:`AdaptiveTrigger` — count/age semantics whose thresholds a control
  loop tightens or relaxes toward a target end-to-end p95 (registry name
  ``adaptive``).

Policies are stateless between decisions; the service resets its context
counters after every scheduling run, so "since the last run" semantics live
in the context, not the policy.  The adaptive policy is the one exception:
its thresholds are mutable, and :meth:`AdaptiveTrigger.observe` — called by
the service after each scheduling run — is the **only** place they change
(replint rule REP009 enforces the seam).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence, runtime_checkable

from ..core.errors import ServiceError
from .metrics import MetricsRegistry

__all__ = [
    "TriggerContext",
    "TriggerPolicy",
    "CountTrigger",
    "AgeTrigger",
    "ImbalanceTrigger",
    "AnyTrigger",
    "AdaptiveTrigger",
    "AdaptiveCooldown",
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
        if self.threshold <= 0:
            raise ServiceError("CountTrigger threshold must be positive")

    def should_fire(self, context: TriggerContext) -> bool:
        return context.offers_since_last_run >= self.threshold


@dataclass(frozen=True, slots=True)
class AgeTrigger:
    """Fire once any unscheduled offer waited ``max_age_slices`` or longer."""

    max_age_slices: float

    def __post_init__(self) -> None:
        if self.max_age_slices <= 0:
            raise ServiceError("AgeTrigger max_age_slices must be positive")

    def should_fire(self, context: TriggerContext) -> bool:
        return context.oldest_unscheduled_age >= self.max_age_slices


@dataclass(frozen=True, slots=True)
class ImbalanceTrigger:
    """Fire once unscheduled flexible energy reaches ``threshold_kwh``."""

    threshold_kwh: float

    def __post_init__(self) -> None:
        if self.threshold_kwh <= 0:
            raise ServiceError("ImbalanceTrigger threshold_kwh must be positive")

    def should_fire(self, context: TriggerContext) -> bool:
        return context.unscheduled_energy_kwh >= self.threshold_kwh


class AnyTrigger:
    """Composite policy: fires when any member policy fires."""

    def __init__(self, policies: Sequence[TriggerPolicy]):
        if not policies:
            raise ServiceError("AnyTrigger needs at least one policy")
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


class AdaptiveTrigger:
    """Count/age trigger whose thresholds auto-tune toward a latency target.

    The firing rule is the familiar count-or-age composite; what is new is
    the feedback loop: after every scheduling run the service hands the
    metrics registry to :meth:`observe`, which compares the p95 of
    ``latency.e2e_slices`` against ``target_p95_slices`` and multiplicatively
    tightens (``x tighten_factor``) or relaxes (``x relax_factor``) both
    thresholds within ``[min, max]`` bounds.  Tightening makes runs fire
    earlier (lower latency, more solver work); relaxing recovers batching
    once the p95 sits comfortably under target (below ``relax_margin x
    target``), with the p95 of ``schedule.run_seconds`` reported alongside
    so operators can see the cost of each adjustment.

    :meth:`observe` is the single mutation seam for the thresholds —
    nothing else may assign ``count_threshold`` / ``max_age_slices``
    (replint rule REP009).
    """

    __slots__ = (
        "target_p95_slices",
        "count_threshold",
        "max_age_slices",
        "min_count",
        "max_count",
        "min_age_slices",
        "max_age_cap",
        "tighten_factor",
        "relax_factor",
        "relax_margin",
        "_seen_observations",
    )

    def __init__(
        self,
        target_p95_slices: float,
        *,
        count_threshold: int = 200,
        max_age_slices: float = 16.0,
        min_count: int = 8,
        max_count: int = 4096,
        min_age_slices: float = 1.0,
        max_age_cap: float = 64.0,
        tighten_factor: float = 0.5,
        relax_factor: float = 1.2,
        relax_margin: float = 0.7,
    ) -> None:
        if target_p95_slices <= 0:
            raise ServiceError(
                "AdaptiveTrigger target_p95_slices must be positive"
            )
        if count_threshold <= 0 or max_age_slices <= 0:
            raise ServiceError("AdaptiveTrigger thresholds must be positive")
        if not 0 < min_count <= max_count:
            raise ServiceError(
                "AdaptiveTrigger needs 0 < min_count <= max_count"
            )
        if not 0 < min_age_slices <= max_age_cap:
            raise ServiceError(
                "AdaptiveTrigger needs 0 < min_age_slices <= max_age_cap"
            )
        if not 0.0 < tighten_factor < 1.0:
            raise ServiceError(
                "AdaptiveTrigger tighten_factor must be in (0, 1)"
            )
        if relax_factor <= 1.0:
            raise ServiceError("AdaptiveTrigger relax_factor must exceed 1")
        if not 0.0 < relax_margin < 1.0:
            raise ServiceError(
                "AdaptiveTrigger relax_margin must be in (0, 1)"
            )
        self.target_p95_slices = float(target_p95_slices)
        self.count_threshold = int(count_threshold)
        self.max_age_slices = float(max_age_slices)
        self.min_count = int(min_count)
        self.max_count = int(max_count)
        self.min_age_slices = float(min_age_slices)
        self.max_age_cap = float(max_age_cap)
        self.tighten_factor = float(tighten_factor)
        self.relax_factor = float(relax_factor)
        self.relax_margin = float(relax_margin)
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
            count = max(
                self.min_count,
                int(self.count_threshold * self.tighten_factor),
            )
            age = max(
                self.min_age_slices, self.max_age_slices * self.tighten_factor
            )
        elif p95 < self.relax_margin * self.target_p95_slices:
            direction = "relax"
            count = min(
                self.max_count,
                max(
                    self.count_threshold + 1,
                    int(self.count_threshold * self.relax_factor),
                ),
            )
            age = min(
                self.max_age_cap, self.max_age_slices * self.relax_factor
            )
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


class AdaptiveCooldown:
    """The TSO-tier half of the control loop: auto-tuned re-run gating.

    The TSO gates system-wide re-scheduling on its scheduling section — a
    count trigger over per-BRP snapshot refreshes, and a cooldown of
    ``min_run_interval_slices`` after the previous run.  This controller
    stands in for both: it is the TSO's trigger (firing after
    ``trigger_refreshes`` refreshes), owns a mutable copy of the cooldown
    and, fed the p95 of the TSO's snapshot staleness
    (``tso.refresh_wait_slices``, observed at each run), tightens them when
    macros wait longer than ``target_p95_slices`` and relaxes them when the
    wait sits under ``relax_margin x target``.  :meth:`observe` is the only
    mutation site (replint rule REP009, same seam as
    :class:`AdaptiveTrigger`).
    """

    __slots__ = (
        "target_p95_slices",
        "trigger_refreshes",
        "min_run_interval_slices",
        "_max_refreshes",
        "_max_interval",
        "relax_margin",
        "_seen_observations",
    )

    def __init__(
        self,
        target_p95_slices: float,
        *,
        trigger_refreshes: int,
        min_run_interval_slices: float,
        relax_margin: float = 0.7,
    ) -> None:
        if target_p95_slices <= 0:
            raise ServiceError(
                "AdaptiveCooldown target_p95_slices must be positive"
            )
        if trigger_refreshes <= 0:
            raise ServiceError(
                "AdaptiveCooldown trigger_refreshes must be positive"
            )
        if min_run_interval_slices < 0:
            raise ServiceError(
                "AdaptiveCooldown min_run_interval_slices must be >= 0"
            )
        if not 0.0 < relax_margin < 1.0:
            raise ServiceError(
                "AdaptiveCooldown relax_margin must be in (0, 1)"
            )
        self.target_p95_slices = float(target_p95_slices)
        # The configured values double as the relaxation rails: adaptivity
        # may only make the TSO *more* responsive than its static config.
        self.trigger_refreshes = int(trigger_refreshes)
        self.min_run_interval_slices = float(min_run_interval_slices)
        self._max_refreshes = int(trigger_refreshes)
        self._max_interval = float(min_run_interval_slices)
        self.relax_margin = float(relax_margin)
        self._seen_observations = 0

    def should_fire(self, context: TriggerContext) -> bool:
        """Fire once ``trigger_refreshes`` snapshot refreshes arrived."""
        return context.offers_since_last_run >= self.trigger_refreshes

    def observe(self, metrics: MetricsRegistry) -> Optional[dict]:
        """One control step over ``tso.refresh_wait_slices``; see class doc."""
        wait = metrics.histogram("tso.refresh_wait_slices")
        if wait.count == self._seen_observations or wait.count == 0:
            return None
        self._seen_observations = wait.count
        p95 = wait.p95
        if p95 > self.target_p95_slices:
            direction = "tighten"
            refreshes = max(1, self.trigger_refreshes - 1)
            interval = self.min_run_interval_slices * 0.5
            if interval < 0.25:  # snap to "no cooldown" instead of asymptoting
                interval = 0.0
        elif p95 < self.relax_margin * self.target_p95_slices:
            direction = "relax"
            refreshes = min(self._max_refreshes, self.trigger_refreshes + 1)
            interval = min(
                self._max_interval, self.min_run_interval_slices * 1.2
            )
        else:
            return None
        if (
            refreshes == self.trigger_refreshes
            and interval == self.min_run_interval_slices
        ):
            return None
        record = {
            "direction": direction,
            "p95_slices": p95,
            "target_p95_slices": self.target_p95_slices,
            "trigger_refreshes": {
                "old": self.trigger_refreshes, "new": refreshes,
            },
            "min_run_interval_slices": {
                "old": self.min_run_interval_slices, "new": interval,
            },
        }
        self.trigger_refreshes = refreshes
        self.min_run_interval_slices = interval
        return record

