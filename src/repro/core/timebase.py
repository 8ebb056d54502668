"""Discrete time axis shared by all MIRABEL components.

The MIRABEL system plans energy in discrete metering slices.  Throughout the
library a point in time is an ``int`` — the index of a slice on a
:class:`TimeAxis`.  The axis knows the slice resolution and an epoch, so slice
indices can be converted to and from :class:`datetime.datetime` when talking
to users; all internal algorithms (aggregation, scheduling, forecasting) work
purely on integers, which keeps them fast and unambiguous.

The default resolution is 15 minutes, the ENTSO-E metering-interval targeted
by MIRABEL; the forecasting experiments use a 30-minute axis to mirror the
half-hourly UK demand data of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

__all__ = [
    "TimeAxis",
    "DEFAULT_AXIS",
    "MINUTES_PER_DAY",
]

MINUTES_PER_DAY = 24 * 60


@dataclass(frozen=True)
class TimeAxis:
    """A uniform discrete time axis.

    Parameters
    ----------
    resolution_minutes:
        Length of one slice in minutes.  Must divide a day evenly so that
        daily and weekly seasonality have integer periods.
    epoch:
        The wall-clock time of slice ``0``.
    """

    resolution_minutes: int = 15
    epoch: datetime = datetime(2010, 1, 4)  # a Monday, so weeks start cleanly

    def __post_init__(self) -> None:
        if self.resolution_minutes <= 0:
            raise ValueError("resolution_minutes must be positive")
        if MINUTES_PER_DAY % self.resolution_minutes != 0:
            raise ValueError(
                "resolution_minutes must divide a day evenly, got "
                f"{self.resolution_minutes}"
            )

    @property
    def slices_per_hour(self) -> int:
        """Number of slices in one hour (may be fractional-free only for <=60m)."""
        if 60 % self.resolution_minutes == 0:
            return 60 // self.resolution_minutes
        raise ValueError(
            f"resolution {self.resolution_minutes} min does not divide an hour"
        )

    @property
    def slices_per_day(self) -> int:
        """Number of slices in one day."""
        return MINUTES_PER_DAY // self.resolution_minutes

    @property
    def slices_per_week(self) -> int:
        """Number of slices in one week."""
        return 7 * self.slices_per_day

    def to_datetime(self, slice_index: int) -> datetime:
        """Wall-clock time at which slice ``slice_index`` begins."""
        return self.epoch + timedelta(minutes=slice_index * self.resolution_minutes)

    def to_slice(self, moment: datetime) -> int:
        """Slice index containing ``moment`` (floor division)."""
        delta = moment - self.epoch
        total_minutes = delta.days * MINUTES_PER_DAY + delta.seconds // 60
        return total_minutes // self.resolution_minutes

    def hour_of_day(self, slice_index: int) -> int:
        """Hour of day (0-23) in which the slice begins."""
        minutes = (slice_index * self.resolution_minutes) % MINUTES_PER_DAY
        return minutes // 60

    def slice_of_day(self, slice_index: int) -> int:
        """Position of the slice within its day (0 .. slices_per_day - 1)."""
        return slice_index % self.slices_per_day

    def day_of_week(self, slice_index: int) -> int:
        """Day of week, Monday = 0 (relative to the epoch's weekday)."""
        day = slice_index // self.slices_per_day
        return (self.epoch.weekday() + day) % 7

    def day_index(self, slice_index: int) -> int:
        """Number of whole days since the epoch."""
        return slice_index // self.slices_per_day


#: Library-wide default axis: 15-minute slices.
DEFAULT_AXIS = TimeAxis()
