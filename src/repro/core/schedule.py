"""Scheduled flex-offers and schedules.

Scheduling (paper §6) *fixes* the two flexibilities of a flex-offer: the start
time is pinned to a single slice and every profile slice gets a concrete
energy amount inside its ``[min, max]`` range.  A :class:`ScheduledFlexOffer`
records that assignment; a :class:`Schedule` is a collection of them plus the
market transactions, and can render itself as an energy time series for
imbalance accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidScheduleError
from .flexoffer import FlexOffer
from .timeseries import TimeSeries, align_union

__all__ = ["ScheduledFlexOffer", "Schedule", "outside_bounds"]


def outside_bounds(
    values: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Per-slice mask of energies *not* within ``[lo, hi]`` (1e-9 kWh slack).

    The one containment rule over bound arrays: written as the negation of
    "inside" so that a ``nan`` energy (or bound) counts as outside, exactly
    as :meth:`~repro.core.flexoffer.EnergyConstraint.contains` rejects it.
    """
    return ~((values >= lo - 1e-9) & (values <= hi + 1e-9))


@dataclass(frozen=True, slots=True)
class ScheduledFlexOffer:
    """A flex-offer with start time and per-slice energies fixed.

    Invariants are validated eagerly: the start must lie within
    ``[earliest_start, latest_start]`` and every energy within its slice's
    constraint.  Violations raise :class:`InvalidScheduleError`, which is how
    the *disaggregation requirement* tests detect incorrect aggregates.
    """

    offer: FlexOffer
    start: int
    energies: tuple[float, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", tuple(values.tolist()))
        if not self.offer.earliest_start <= self.start <= self.offer.latest_start:
            raise InvalidScheduleError(
                f"start {self.start} outside "
                f"[{self.offer.earliest_start}, {self.offer.latest_start}] "
                f"for offer {self.offer.offer_id}"
            )
        if len(values) != self.offer.duration:
            raise InvalidScheduleError(
                f"got {len(values)} energies for a "
                f"{self.offer.duration}-slice profile"
            )
        # The schedules a planning pass returns do not come through here:
        # ``SchedulingProblem.to_schedule`` applies :func:`outside_bounds`
        # to all of its assignments at once and builds them with
        # :meth:`_from_checked`, constructing them one by one only to raise
        # this method's error.
        profile = self.offer.profile
        bad = outside_bounds(values, profile.min_array, profile.max_array)
        if np.logical_or.reduce(bad):
            i = int(bad.argmax())
            raise InvalidScheduleError(
                f"energy {self.energies[i]} outside "
                f"[{float(profile.min_array[i])}, {float(profile.max_array[i])}] "
                f"in slice {i} of offer {self.offer.offer_id}"
            )

    @classmethod
    def _from_checked(
        cls, offer: FlexOffer, start: int, energies: tuple[float, ...]
    ) -> "ScheduledFlexOffer":
        """The assignment ``__post_init__`` would build, without running it.

        For a caller that already applied every check of ``__post_init__``
        to this exact ``(start, energies)`` — and ``energies`` is already
        the tuple of Python floats it would have stored.
        """
        assignment = object.__new__(cls)
        object.__setattr__(assignment, "offer", offer)
        object.__setattr__(assignment, "start", start)
        object.__setattr__(assignment, "energies", energies)
        return assignment

    @property
    def end(self) -> int:
        """First slice after the scheduled profile."""
        return self.start + self.offer.duration

    @property
    def total_energy(self) -> float:
        """Total scheduled energy (kWh, signed)."""
        return float(sum(self.energies))

    def as_series(self) -> TimeSeries:
        """Scheduled energies as a time series starting at :attr:`start`."""
        return TimeSeries(self.start, self.energies)

    @classmethod
    def at_minimum(cls, offer: FlexOffer, start: int | None = None) -> "ScheduledFlexOffer":
        """Schedule at the lower energy bounds (earliest start by default)."""
        s = offer.earliest_start if start is None else start
        return cls(offer, s, offer.profile.min_array)

    @classmethod
    def at_fraction(
        cls, offer: FlexOffer, fraction: float, start: int | None = None
    ) -> "ScheduledFlexOffer":
        """Schedule each slice at ``min + fraction * (max - min)``."""
        if not 0.0 <= fraction <= 1.0:
            raise InvalidScheduleError(f"fraction {fraction} outside [0, 1]")
        s = offer.earliest_start if start is None else start
        lo, hi = offer.profile.min_array, offer.profile.max_array
        return cls(offer, s, lo + fraction * (hi - lo))


@dataclass
class Schedule:
    """A set of scheduled flex-offers plus per-slice market transactions.

    ``market_buy``/``market_sell`` are non-negative kWh arrays over the
    planning horizon ``[horizon_start, horizon_start + horizon_length)``;
    they are filled in by the scheduler's analytic market settlement.
    """

    horizon_start: int
    horizon_length: int
    assignments: list[ScheduledFlexOffer] = field(default_factory=list)
    market_buy: np.ndarray | None = None
    market_sell: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.horizon_length <= 0:
            raise InvalidScheduleError("horizon_length must be positive")

    def __iter__(self) -> Iterator[ScheduledFlexOffer]:
        return iter(self.assignments)

    def __len__(self) -> int:
        return len(self.assignments)

    @property
    def horizon_end(self) -> int:
        """First slice after the planning horizon."""
        return self.horizon_start + self.horizon_length

    def add(self, assignment: ScheduledFlexOffer) -> None:
        """Append one scheduled flex-offer."""
        self.assignments.append(assignment)


def sum_profiles(assignments: Sequence[ScheduledFlexOffer]) -> TimeSeries:
    """Sum the energy series of several assignments over their union window."""
    if not assignments:
        raise InvalidScheduleError("no assignments to sum")
    aligned = align_union([a.as_series() for a in assignments])
    total = aligned[0]
    for s in aligned[1:]:
        total = total + s
    return total
