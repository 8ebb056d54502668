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
import math
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


_NEG_INF = -math.inf
_INF = math.inf


@dataclass(frozen=True, slots=True)
class EnergyConstraint:
    """Energy bounds for one profile slice, in kWh.

    Both bounds are finite and ``min_energy <= max_energy``; the *energy
    flexibility* of the slice is ``max_energy - min_energy``.
    """

    min_energy: float
    max_energy: float

    def __post_init__(self) -> None:
        if not _NEG_INF < self.min_energy <= self.max_energy < _INF:
            raise _bound_error(self.min_energy, self.max_energy)

    @property
    def energy_flexibility(self) -> float:
        """Width of the admissible energy range (kWh)."""
        return self.max_energy - self.min_energy

    def contains(self, energy: float, tol: float = 1e-9) -> bool:
        """Whether ``energy`` lies within the bounds (with tolerance)."""
        return self.min_energy - tol <= energy <= self.max_energy + tol


def _bound_error(min_energy: float, max_energy: float) -> InvalidFlexOfferError:
    """The one error for a slice that breaks the bounds rule.

    The rule, wherever bounds enter a profile: both bounds finite and
    ``min_energy <= max_energy``.  A non-finite bound is named as such, a
    finite slice whose upper bound is below its lower one as inverted.
    """
    if _NEG_INF < min_energy < _INF and _NEG_INF < max_energy < _INF:
        return InvalidFlexOfferError(
            f"max_energy {max_energy} < min_energy {min_energy}"
        )
    return InvalidFlexOfferError(
        f"energy bounds must be finite, got min_energy {min_energy}, "
        f"max_energy {max_energy}"
    )


_new = object.__new__
_set_min = EnergyConstraint.min_energy.__set__  # type: ignore[attr-defined]
_set_max = EnergyConstraint.max_energy.__set__  # type: ignore[attr-defined]


class Profile:
    """A flex-offer's energy profile: one ``[min_energy, max_energy]`` range
    per slice, stored as two bound columns.

    Each slice spans exactly one slice of the time axis; devices whose
    operation covers several slices simply repeat their bounds (a 2 h
    washing cycle on a 15-min axis is a profile of 8 slices).

    The storage is two read-only float64 arrays, :attr:`min_array` and
    :attr:`max_array`, and the two energy totals summed from their Python
    floats.  Every constructor sets all four: the constructor from
    :class:`EnergyConstraint` objects, :meth:`from_bounds`,
    :meth:`from_arrays` and :meth:`constant` — so equal floats give equal
    arrays and bit-identical totals whichever one built the profile.  The
    packed pool, the planner, the shared-memory codec and disaggregation
    read only these.

    The profile also behaves as the tuple of its constraints: ``len``,
    indexing, slicing (which returns a plain tuple), iteration, ``==`` and
    ``hash`` equal to that tuple's, and its ``repr``.  That tuple is built
    from the arrays' Python floats on the first iteration or indexing, then
    kept; the runtime never asks for it.  Pickling goes through
    :meth:`from_arrays`.

    Every field is a slot, so reading a bound array, a total or
    :attr:`duration` costs no Python call.  The scheduler's kernel template
    lives in an instance dict that exists only once it is written.
    """

    __slots__ = {
        "duration": "Number of slices the profile spans.",
        "min_array": "Read-only float64 array of the lower bounds (kWh).",
        "max_array": "Read-only float64 array of the upper bounds (kWh).",
        "total_min_energy": "Sum of the lower bounds (kWh).",
        "total_max_energy": "Sum of the upper bounds (kWh).",
        "_items": "The constraint tuple once iterated or indexed, else None.",
        "__dict__": "The scheduler's kernel template, created on first write.",
    }

    duration: int
    min_array: np.ndarray
    max_array: np.ndarray
    total_min_energy: float
    total_max_energy: float

    def __init__(self, slices: Iterable[EnergyConstraint]) -> None:
        items = tuple(slices)
        for s in items:
            if not isinstance(s, EnergyConstraint):
                raise InvalidFlexOfferError(
                    f"profile slices must be EnergyConstraint, got {type(s).__name__}"
                )
        self._hold(
            np.array([s.min_energy for s in items], dtype=float),
            np.array([s.max_energy for s in items], dtype=float),
        )

    def _hold(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Set the storage from two bound columns that obey the bounds rule."""
        if not lo.shape[0]:
            raise InvalidFlexOfferError("a profile must contain at least one slice")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self.duration = lo.shape[0]
        self.min_array = lo
        self.max_array = hi
        self.total_min_energy = sum(lo.tolist())
        self.total_max_energy = sum(hi.tolist())
        self._items = None

    @classmethod
    def from_bounds(
        cls, bounds: Iterable[tuple[float, float]]
    ) -> "Profile":
        """Build a profile from ``(min_energy, max_energy)`` pairs.

        The bounds rule runs once per pair, then the pairs become the two
        bound columns; no :class:`EnergyConstraint` is built.
        """
        pairs = list(bounds)
        neg_inf, inf = _NEG_INF, _INF
        for lo, hi in pairs:
            if not neg_inf < lo <= hi < inf:
                raise _bound_error(lo, hi)
        lows, highs = zip(*pairs) if pairs else ((), ())
        return cls._from_checked_arrays(
            np.array(lows, dtype=float), np.array(highs, dtype=float)
        )

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "Profile":
        """The profile of two bound columns.

        ``lo`` and ``hi`` must be equal-length, non-empty, 1-D float64.  The
        bounds rule runs eagerly, in four numpy calls and no arithmetic:
        every slice ordered (which a ``nan`` on either side fails), the
        smallest lower bound above ``-inf`` and the largest upper bound
        below ``inf`` — so every bound is finite.  A violation raises the
        error :class:`EnergyConstraint` raises, for the first bad slice.

        The arrays *are* the profile: made read-only, not copied.  The
        caller hands them over and must not write to them afterwards
        (aggregate builds and the shared-memory macro decode pass their own
        fresh copies).
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
        if not lo.shape[0]:
            raise InvalidFlexOfferError("a profile must contain at least one slice")
        if not (
            np.logical_and.reduce(lo <= hi)
            and _NEG_INF < np.minimum.reduce(lo)
            and np.maximum.reduce(hi) < _INF
        ):
            for a, b in zip(lo.tolist(), hi.tolist()):
                if not _NEG_INF < a <= b < _INF:
                    raise _bound_error(a, b)
        return cls._from_checked_arrays(lo, hi)

    @classmethod
    def _from_checked_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "Profile":
        """:meth:`from_arrays` without its bounds checks, for columns
        ordered and finite by construction (an aggregation engine's sums of
        admitted offers' bounds, ``hi`` raised to ``lo`` slice by slice)."""
        profile = _new(cls)
        profile._hold(lo, hi)
        return profile

    @classmethod
    def constant(cls, n_slices: int, min_energy: float, max_energy: float) -> "Profile":
        """A flat profile of ``n_slices`` identical bounds."""
        if n_slices <= 0:
            raise InvalidFlexOfferError("n_slices must be positive")
        if not _NEG_INF < min_energy <= max_energy < _INF:
            raise _bound_error(min_energy, max_energy)
        return cls._from_checked_arrays(
            np.full(n_slices, min_energy, dtype=float),
            np.full(n_slices, max_energy, dtype=float),
        )

    @property
    def total_energy_flexibility(self) -> float:
        """Sum of per-slice energy flexibilities (kWh)."""
        return sum((self.max_array - self.min_array).tolist())

    # ------------------------------------------------------------------
    # the sequence surface (builds the constraint tuple on first use)
    # ------------------------------------------------------------------
    def _constraints(self) -> tuple[EnergyConstraint, ...]:
        """The constraint tuple, built from the arrays once, then kept.

        Each :class:`EnergyConstraint` is allocated and its two slots set
        directly: the bounds already passed the bounds rule, so the
        per-object ``__init__``/``__post_init__`` calls are skipped.
        """
        items = self._items
        if items is None:
            built = []
            for lo, hi in zip(self.min_array.tolist(), self.max_array.tolist()):
                constraint = _new(EnergyConstraint)
                _set_min(constraint, lo)
                _set_max(constraint, hi)
                built.append(constraint)
            items = self._items = tuple(built)
        return items

    def __len__(self) -> int:
        return self.duration

    def __iter__(self) -> Iterator[EnergyConstraint]:
        return iter(self._constraints())

    def __getitem__(self, index):
        return self._constraints()[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Profile):
            return self._constraints() == other._constraints()
        if isinstance(other, tuple):
            return self._constraints() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._constraints())

    def __repr__(self) -> str:
        return repr(self._constraints())

    def __reduce__(self):
        return (type(self).from_arrays, (self.min_array, self.max_array))


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
        """Per-slice minimum energies: the profile's read-only array."""
        return self.profile.min_array

    @property
    def max_array(self) -> np.ndarray:
        """Per-slice maximum energies: the profile's read-only array."""
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
