"""Flex-offers — MIRABEL's central energy-planning object.

A flex-offer (paper §2, Fig. 3) describes an amount of energy that a prosumer
is willing to consume (or produce), together with the *flexibility* the
balance-responsible party (BRP) may exploit:

* **time flexibility** — the consumption profile may start anywhere between an
  *earliest start time* and a *latest start time*;
* **energy flexibility** — each profile slice carries a ``[min_energy,
  max_energy]`` range rather than a fixed amount.

Energy is measured in kWh per slice.  Positive energies denote consumption,
negative energies denote production, so supply flex-offers (e.g. from a
controllable CHP unit) are "treated equivalently" exactly as the paper
requires — every algorithm in the library is sign-agnostic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidFlexOfferError

__all__ = [
    "EnergyConstraint",
    "Profile",
    "FlexOffer",
    "flex_offer",
    "rebase_offer_ids",
]

_id_counter = itertools.count(1)


def _next_id() -> int:
    return next(_id_counter)


def rebase_offer_ids(base: int) -> None:
    """Restart the process-wide offer-id counter at ``base`` + 1.

    Offer ids are minted from one process-global counter, which keeps them
    unique only *within* a process.  A forked worker inherits the parent's
    counter position, so two workers would mint colliding aggregate ids —
    fatal once their macro flex-offers meet again at the TSO.  Each worker
    therefore rebases its counter into a disjoint band before running
    (e.g. ``(worker_index + 1) * 10**12``).
    """
    global _id_counter
    if base < 0:
        raise InvalidFlexOfferError(f"offer-id base must be >= 0, got {base}")
    _id_counter = itertools.count(base + 1)


@dataclass(frozen=True, slots=True)
class EnergyConstraint:
    """Energy bounds for one profile slice, in kWh.

    ``min_energy <= max_energy``; the *energy flexibility* of the slice is
    ``max_energy - min_energy``.
    """

    min_energy: float
    max_energy: float

    def __post_init__(self) -> None:
        if self.max_energy < self.min_energy:
            raise InvalidFlexOfferError(
                f"max_energy {self.max_energy} < min_energy {self.min_energy}"
            )

    @property
    def energy_flexibility(self) -> float:
        """Width of the admissible energy range (kWh)."""
        return self.max_energy - self.min_energy

    def contains(self, energy: float, tol: float = 1e-9) -> bool:
        """Whether ``energy`` lies within the bounds (with tolerance)."""
        return self.min_energy - tol <= energy <= self.max_energy + tol

    def clamp(self, energy: float) -> float:
        """Project ``energy`` onto the admissible range."""
        return min(max(energy, self.min_energy), self.max_energy)

    def scaled(self, factor: float) -> "EnergyConstraint":
        """Constraint with both bounds multiplied by a non-negative factor."""
        if factor < 0:
            raise InvalidFlexOfferError("scaling factor must be non-negative")
        return EnergyConstraint(self.min_energy * factor, self.max_energy * factor)

    def __add__(self, other: "EnergyConstraint") -> "EnergyConstraint":
        return EnergyConstraint(
            self.min_energy + other.min_energy, self.max_energy + other.max_energy
        )


class Profile(tuple):
    """An immutable sequence of :class:`EnergyConstraint`, one per slice.

    Each entry spans exactly one slice of the time axis; devices whose
    operation covers several slices simply repeat constraints (a 2 h washing
    cycle on a 15-min axis is a profile of 8 slices).

    Bound views (:meth:`min_energies` / :meth:`max_energies` and the NumPy
    :attr:`min_array` / :attr:`max_array`) and the energy totals are cached
    on first access: they are hit on every aggregate build, every cost-engine
    pack and every lifecycle fact, and the profile is immutable, so
    re-materialising them per call was pure waste.
    (No ``__slots__``: tuple subclasses cannot carry non-empty slots, and the
    cache lives in the instance dict.)
    """

    def __new__(cls, slices: Iterable[EnergyConstraint]) -> "Profile":
        items = tuple(slices)
        if not items:
            raise InvalidFlexOfferError("a profile must contain at least one slice")
        for s in items:
            if not isinstance(s, EnergyConstraint):
                raise InvalidFlexOfferError(
                    f"profile slices must be EnergyConstraint, got {type(s).__name__}"
                )
        return super().__new__(cls, items)

    @classmethod
    def from_bounds(
        cls, bounds: Iterable[tuple[float, float]]
    ) -> "Profile":
        """Build a profile from ``(min_energy, max_energy)`` pairs.

        Skips the per-item type validation of the constructor — every item
        is an :class:`EnergyConstraint` built right here (aggregate builds
        materialise millions of them, so the check is pure overhead).
        """
        items = tuple(EnergyConstraint(lo, hi) for lo, hi in bounds)
        if not items:
            raise InvalidFlexOfferError("a profile must contain at least one slice")
        return tuple.__new__(cls, items)

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "Profile":
        """:meth:`from_bounds` for a caller that holds the bound columns.

        Every :class:`EnergyConstraint` is still built and validated, but
        ``lo`` and ``hi`` (equal-length 1-D float64) *become* the
        :attr:`min_array` / :attr:`max_array` caches — made read-only, not
        copied — instead of being rebuilt slice by slice from the objects
        on first use.  The caller hands them over: it must not write to
        them afterwards (aggregate builds and the shared-memory macro
        decode pass their own fresh copies).
        """
        if not (
            lo.dtype == hi.dtype == np.float64
            and lo.ndim == 1
            and lo.shape == hi.shape
        ):
            raise InvalidFlexOfferError(
                "profile bound arrays must be 1-D float64 of equal length, "
                f"got {lo.dtype}{lo.shape} and {hi.dtype}{hi.shape}"
            )
        profile = cls.from_bounds(zip(lo.tolist(), hi.tolist()))
        lo.setflags(write=False)
        hi.setflags(write=False)
        profile.__dict__["_min_array"] = lo
        profile.__dict__["_max_array"] = hi
        return profile

    @classmethod
    def constant(cls, n_slices: int, min_energy: float, max_energy: float) -> "Profile":
        """A flat profile of ``n_slices`` identical constraints."""
        if n_slices <= 0:
            raise InvalidFlexOfferError("n_slices must be positive")
        return cls(EnergyConstraint(min_energy, max_energy) for _ in range(n_slices))

    @property
    def duration(self) -> int:
        """Number of slices the profile spans."""
        return len(self)

    @property
    def total_min_energy(self) -> float:
        """Sum of lower bounds (kWh; cached)."""
        cached = self.__dict__.get("_total_min_energy")
        if cached is None:
            cached = sum(s.min_energy for s in self)
            self.__dict__["_total_min_energy"] = cached
        return cached

    @property
    def total_max_energy(self) -> float:
        """Sum of upper bounds (kWh; cached)."""
        cached = self.__dict__.get("_total_max_energy")
        if cached is None:
            cached = sum(s.max_energy for s in self)
            self.__dict__["_total_max_energy"] = cached
        return cached

    @property
    def total_energy_flexibility(self) -> float:
        """Sum of per-slice energy flexibilities (kWh; cached)."""
        cached = self.__dict__.get("_total_energy_flexibility")
        if cached is None:
            cached = sum(s.energy_flexibility for s in self)
            self.__dict__["_total_energy_flexibility"] = cached
        return cached

    def min_energies(self) -> tuple[float, ...]:
        """Lower bounds as a tuple (cached)."""
        cached = self.__dict__.get("_min_energies")
        if cached is None:
            cached = tuple(s.min_energy for s in self)
            self.__dict__["_min_energies"] = cached
        return cached

    def max_energies(self) -> tuple[float, ...]:
        """Upper bounds as a tuple (cached)."""
        cached = self.__dict__.get("_max_energies")
        if cached is None:
            cached = tuple(s.max_energy for s in self)
            self.__dict__["_max_energies"] = cached
        return cached

    @property
    def min_array(self) -> np.ndarray:
        """Read-only float64 array of the lower bounds (cached)."""
        cached = self.__dict__.get("_min_array")
        if cached is None:
            cached = np.fromiter(
                (s.min_energy for s in self), dtype=float, count=len(self)
            )
            cached.setflags(write=False)
            self.__dict__["_min_array"] = cached
        return cached

    @property
    def max_array(self) -> np.ndarray:
        """Read-only float64 array of the upper bounds (cached)."""
        cached = self.__dict__.get("_max_array")
        if cached is None:
            cached = np.fromiter(
                (s.max_energy for s in self), dtype=float, count=len(self)
            )
            cached.setflags(write=False)
            self.__dict__["_max_array"] = cached
        return cached


@dataclass(frozen=True, slots=True)
class FlexOffer:
    """A (micro or macro) flex-offer.

    Parameters
    ----------
    profile:
        Energy constraints per slice, starting at the chosen start time.
    earliest_start, latest_start:
        Bounds (slice indices, inclusive) between which the profile may be
        started.  ``latest_start - earliest_start`` is the *time flexibility*.
    offer_id:
        Unique identifier; auto-assigned when ``None`` is passed to
        :func:`flex_offer`.
    owner:
        Identifier of the issuing prosumer / node.
    creation_time:
        Slice at which the offer was issued.
    assignment_before:
        Deadline (slice) by which the BRP must schedule the offer; offers with
        an approaching deadline are *expiring* and must be flushed through the
        aggregation pipeline (paper §4).  ``None`` means no explicit deadline.
    unit_price:
        Compensation in EUR/kWh paid for scheduled energy; enters the
        schedule cost (paper §6) and negotiation (§7).
    """

    profile: Profile
    earliest_start: int
    latest_start: int
    offer_id: int = field(default_factory=_next_id)
    owner: str = "anonymous"
    creation_time: int = 0
    assignment_before: int | None = None
    unit_price: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.profile, Profile):
            object.__setattr__(self, "profile", Profile(self.profile))
        if self.latest_start < self.earliest_start:
            raise InvalidFlexOfferError(
                f"latest_start {self.latest_start} precedes earliest_start "
                f"{self.earliest_start}"
            )
        if self.earliest_start < self.creation_time:
            raise InvalidFlexOfferError(
                "earliest_start must not precede creation_time"
            )
        if (
            self.assignment_before is not None
            and self.assignment_before > self.latest_start
        ):
            raise InvalidFlexOfferError(
                "assignment_before must not exceed latest_start"
            )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def time_flexibility(self) -> int:
        """Number of slices the start may be shifted (paper Fig. 3)."""
        return self.latest_start - self.earliest_start

    @property
    def duration(self) -> int:
        """Profile length in slices."""
        return self.profile.duration

    @property
    def earliest_end(self) -> int:
        """First slice after the profile when started as early as possible."""
        return self.earliest_start + self.duration

    @property
    def latest_end(self) -> int:
        """First slice after the profile when started as late as possible."""
        return self.latest_start + self.duration

    @property
    def total_min_energy(self) -> float:
        """Minimum total energy over the whole profile (kWh)."""
        return self.profile.total_min_energy

    @property
    def total_max_energy(self) -> float:
        """Maximum total energy over the whole profile (kWh)."""
        return self.profile.total_max_energy

    @property
    def total_energy_flexibility(self) -> float:
        """Total dispatchable energy range (kWh), the §7 *energy flexibility*."""
        return self.profile.total_energy_flexibility

    @property
    def is_consumption(self) -> bool:
        """True when the offer is net-consuming (positive mean energy)."""
        return (self.total_min_energy + self.total_max_energy) >= 0

    @property
    def min_array(self) -> np.ndarray:
        """Per-slice minimum energies as a cached read-only array."""
        return self.profile.min_array

    @property
    def max_array(self) -> np.ndarray:
        """Per-slice maximum energies as a cached read-only array."""
        return self.profile.max_array

    def start_times(self) -> Iterator[int]:
        """Iterate over all admissible start slices."""
        return iter(range(self.earliest_start, self.latest_start + 1))

    def assignment_flexibility(self, now: int) -> int:
        """Slices left for (re)scheduling before the assignment deadline.

        The §7 *assignment flexibility*: time remaining until the offer must
        be assigned.  Falls back to ``latest_start`` when no explicit
        deadline was given; never negative.
        """
        deadline = (
            self.assignment_before
            if self.assignment_before is not None
            else self.latest_start
        )
        return max(0, deadline - now)

    def with_times(self, earliest_start: int, latest_start: int) -> "FlexOffer":
        """Copy with a different admissible start window (same identity)."""
        return replace(
            self, earliest_start=earliest_start, latest_start=latest_start
        )


def flex_offer(
    bounds: Sequence[tuple[float, float]],
    earliest_start: int,
    latest_start: int,
    *,
    offer_id: int | None = None,
    owner: str = "anonymous",
    creation_time: int = 0,
    assignment_before: int | None = None,
    unit_price: float = 0.0,
) -> FlexOffer:
    """Convenience constructor from raw ``(min, max)`` energy pairs.

    Example
    -------
    An EV that needs 8-10 kWh over two slices, starting between slice 88 and
    slice 116::

        offer = flex_offer([(4, 5), (4, 5)], earliest_start=88, latest_start=116)
    """
    return FlexOffer(
        profile=Profile.from_bounds(bounds),
        earliest_start=earliest_start,
        latest_start=latest_start,
        offer_id=_next_id() if offer_id is None else offer_id,
        owner=owner,
        creation_time=creation_time,
        assignment_before=assignment_before,
        unit_price=unit_price,
    )
