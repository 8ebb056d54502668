"""Exception hierarchy for the MIRABEL reproduction.

Every package raises subclasses of :class:`MirabelError` so callers can
catch library failures without also swallowing programming errors.
:func:`choose` is the one lookup of a named component (a trigger kind, a
time driver, a metrics exporter, a pipeline engine) in the table of the
layer that owns the names.
"""

from __future__ import annotations

from typing import Any, Mapping


class MirabelError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidFlexOfferError(MirabelError):
    """A flex-offer violates its structural invariants.

    Raised, e.g., when ``latest_start < earliest_start`` or a profile slice
    has ``max_energy < min_energy``.
    """


class InvalidScheduleError(MirabelError):
    """A scheduled flex-offer violates the constraints of its flex-offer."""


class DisaggregationError(MirabelError):
    """Disaggregation of a scheduled aggregate could not be performed.

    By construction of the n-to-1 aggregator this should never happen for
    schedules that respect the aggregate's constraints; it therefore also
    guards against internal inconsistencies.
    """


class AggregationError(MirabelError):
    """The aggregation pipeline was used inconsistently.

    Raised, e.g., when deleting a flex-offer that was never added or when
    aggregating an empty group.
    """


class TimeSeriesError(MirabelError):
    """Time-series operands are misaligned or otherwise incompatible."""


class ForecastingError(MirabelError):
    """A forecast model was used before fitting, or fitting failed."""


class SchedulingError(MirabelError):
    """The scheduling problem definition is inconsistent."""


class NegotiationError(MirabelError):
    """Invalid pricing policy configuration or inputs."""


class DataManagementError(MirabelError):
    """Schema violations in the dimensional store (unknown columns, bad keys)."""


class CommunicationError(MirabelError):
    """Message routing failures in the simulated node network."""


class ServiceError(MirabelError):
    """The streaming runtime was misused (bad event times, invalid config)."""


def choose(
    table: Mapping[str, tuple[Any, str]],
    kind: str,
    name: str,
    error: type[MirabelError] = ServiceError,
) -> Any:
    """The factory ``table`` holds under ``name``.

    Each table maps a name to ``(factory, one-line description)``.  An
    unknown name raises ``error`` naming the known set:
    ``unknown trigger 'x'; known trigger names: age, count, imbalance``.
    """
    entry = table.get(name)
    if entry is None:
        raise error(
            f"unknown {kind} {name!r}; known {kind} names: "
            f"{', '.join(sorted(table))}"
        )
    return entry[0]
