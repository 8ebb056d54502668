"""Synthetic calendar: day types and holidays for the demand generator.

The EGRV forecast model (paper §5) conditions on calendar events; the demand
generator needs the same information to *produce* those effects.  We model a
simple European calendar: weekends plus a configurable set of fixed-date
holidays, all derived deterministically from the time axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.timebase import TimeAxis

__all__ = ["CalendarModel", "DayType"]


class DayType:
    """Day classification constants."""

    WORKDAY = 0
    SATURDAY = 1
    SUNDAY = 2
    HOLIDAY = 3


@dataclass(frozen=True)
class CalendarModel:
    """Deterministic calendar over a :class:`TimeAxis`.

    ``holidays`` lists ``(month, day)`` pairs treated as public holidays
    (default: a small European set).  Holidays dominate weekends.
    """

    axis: TimeAxis
    holidays: frozenset[tuple[int, int]] = field(
        default_factory=lambda: frozenset(
            {(1, 1), (5, 1), (12, 24), (12, 25), (12, 26), (12, 31)}
        )
    )

    def day_type(self, slice_index: int) -> int:
        """Classify the day containing ``slice_index``."""
        moment = self.axis.to_datetime(slice_index)
        if (moment.month, moment.day) in self.holidays:
            return DayType.HOLIDAY
        weekday = self.axis.day_of_week(slice_index)
        if weekday == 5:
            return DayType.SATURDAY
        if weekday == 6:
            return DayType.SUNDAY
        return DayType.WORKDAY
