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


def _constraints_of(pairs: Iterable[tuple[float, float]]) -> list[EnergyConstraint]:
    """The constraints of bound pairs that already passed the bounds rule.

    Each :class:`EnergyConstraint` is allocated and its two slots set
    directly, without the per-object ``__init__``/``__post_init__`` calls —
    the same object the constructor builds, at half the cost.
    """
    items = []
    for lo, hi in pairs:
        constraint = _new(EnergyConstraint)
        _set_min(constraint, lo)
        _set_max(constraint, hi)
        items.append(constraint)
    return items


class Profile:
    """An immutable sequence of :class:`EnergyConstraint`, one per slice.

    Each entry spans exactly one slice of the time axis; devices whose
    operation covers several slices simply repeat constraints (a 2 h washing
    cycle on a 15-min axis is a profile of 8 slices).

    One class with two storage forms behind one surface: ``len``, indexing,
    slicing (which returns a plain tuple), iteration, ``==`` and ``hash``
    equal to the tuple of its constraints, that tuple's ``repr``, pickling.

    * *Item form* holds the constraint tuple.  The constructor and
      :meth:`from_bounds` build it — every micro offer.
    * *Array form* holds the two read-only bound arrays.
      :meth:`from_arrays` builds it — every aggregate and every macro
      decoded from shared memory.  The planner, the TSO's disaggregation
      and the shared-memory encoder read only the arrays, so the runtime
      never builds an aggregate's per-slice objects.

    Each form derives the other on first use and caches it; both hold the
    same Python floats, so every derived view is bit for bit the one the
    other form gives.  The bound views (:meth:`min_energies` /
    :meth:`max_energies`, :attr:`min_array` / :attr:`max_array`) and the
    energy totals are cached on first access: they are hit on every
    aggregate build, every cost-engine pack and every lifecycle fact.

    The storage, the arrays and the two bound totals live in slots, and
    :attr:`duration` is one of them, so reading it costs no Python call.
    The rarer caches (the energy tuples, the flexibility total, the
    scheduler's kernel template) live in an instance dict that exists only
    once one of them is written: a micro offer's profile never gets one on
    the runtime path.
    """

    __slots__ = {
        "duration": "Number of slices the profile spans.",
        "_items": "The constraint tuple (None until derived, in array form).",
        "_lo": "Read-only lower-bound array (None until derived, in item form).",
        "_hi": "Read-only upper-bound array (None until derived, in item form).",
        "_totals": "``(total_min, total_max)`` once computed, else None.",
        "__dict__": "The rarer caches, created on first write.",
    }

    duration: int

    def __init__(self, slices: Iterable[EnergyConstraint]) -> None:
        items = tuple(slices)
        if not items:
            raise InvalidFlexOfferError("a profile must contain at least one slice")
        for s in items:
            if not isinstance(s, EnergyConstraint):
                raise InvalidFlexOfferError(
                    f"profile slices must be EnergyConstraint, got {type(s).__name__}"
                )
        self._hold(items, None, None)

    def _hold(self, items, lo, hi) -> None:
        """Set the storage slots: one form given, the other ``None``."""
        self._items = items
        self.duration = len(items) if lo is None else len(lo)
        self._lo = lo
        self._hi = hi
        self._totals = None

    @classmethod
    def from_bounds(
        cls, bounds: Iterable[tuple[float, float]]
    ) -> "Profile":
        """Build a profile from ``(min_energy, max_energy)`` pairs.

        Skips the per-item type validation of the constructor — every item
        is an :class:`EnergyConstraint` built right here (ingest builds one
        per offer slice, so the check is pure overhead).  The bounds rule
        runs once per pair, then :meth:`_from_checked` builds the slices.
        """
        pairs = list(bounds)
        neg_inf, inf = _NEG_INF, _INF
        for lo, hi in pairs:
            if not neg_inf < lo <= hi < inf:
                raise _bound_error(lo, hi)
        return cls._from_checked(pairs)

    @classmethod
    def _from_checked(cls, pairs: Iterable[tuple[float, float]]) -> "Profile":
        """The item-form profile of bound pairs that already passed the
        bounds rule (see :func:`_constraints_of`)."""
        items = _constraints_of(pairs)
        if not items:
            raise InvalidFlexOfferError("a profile must contain at least one slice")
        profile = _new(cls)
        profile._hold(tuple(items), None, None)
        return profile

    @classmethod
    def from_arrays(cls, lo: np.ndarray, hi: np.ndarray) -> "Profile":
        """The array-form profile of two bound columns.

        ``lo`` and ``hi`` must be equal-length, non-empty, 1-D float64.  The
        bounds rule runs eagerly, in four numpy calls and no arithmetic:
        every slice ordered (which a ``nan`` on either side fails), the
        smallest lower bound above ``-inf`` and the largest upper bound
        below ``inf`` — so every bound is finite.  A violation raises the
        error :class:`EnergyConstraint` raises, for the first bad slice.

        No :class:`EnergyConstraint` is built and nothing is converted to
        Python floats: the arrays *are* the profile — made read-only, not
        copied — until something iterates or indexes it, which derives the
        constraint tuple once (from the arrays' Python floats, so it equals
        what :meth:`from_bounds` builds from them).  The caller hands the
        arrays over and must not write to them afterwards (aggregate builds
        and the shared-memory macro decode pass their own fresh copies).
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
        """The array-form profile of bound columns that already obey the
        bounds rule — :meth:`from_arrays` without its checks, for columns
        ordered and finite by construction (an aggregation engine's sums of
        admitted offers' bounds, ``hi`` raised to ``lo`` slice by slice)."""
        lo.setflags(write=False)
        hi.setflags(write=False)
        profile = _new(cls)
        profile._hold(None, lo, hi)
        return profile

    @classmethod
    def constant(cls, n_slices: int, min_energy: float, max_energy: float) -> "Profile":
        """A flat profile of ``n_slices`` identical constraints."""
        if n_slices <= 0:
            raise InvalidFlexOfferError("n_slices must be positive")
        return cls(EnergyConstraint(min_energy, max_energy) for _ in range(n_slices))

    # ------------------------------------------------------------------
    # the sequence surface (derives the item form of an array profile)
    # ------------------------------------------------------------------
    def _constraints(self) -> tuple[EnergyConstraint, ...]:
        """The constraint tuple; derived from the arrays once, then kept."""
        items = self._items
        if items is None:
            items = self._items = tuple(
                _constraints_of(zip(self._lo.tolist(), self._hi.tolist()))
            )
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
        if self._items is not None:
            return (type(self), (self._items,))
        return (type(self).from_arrays, (self._lo, self._hi))

    # ------------------------------------------------------------------
    # bound views (derive the array form of an item profile)
    # ------------------------------------------------------------------
    def _cache_bounds(self) -> None:
        """Fill an item profile's bound arrays and totals, one pass per bound.

        Iterates the stored tuple directly; ``np.array`` and ``sum`` over
        each bound's list give bit for bit what ``np.fromiter`` and ``sum``
        over a generator give.
        """
        items = self._items
        lows = [s.min_energy for s in items]
        highs = [s.max_energy for s in items]
        lo = np.array(lows, dtype=float)
        lo.setflags(write=False)
        hi = np.array(highs, dtype=float)
        hi.setflags(write=False)
        self._lo = lo
        self._hi = hi
        self._totals = (sum(lows), sum(highs))

    def _bound_totals(self) -> tuple[float, float]:
        """``(total_min, total_max)``, filled on first use.

        An array profile sums its arrays' Python floats: the totals an item
        profile of the same floats gives.
        """
        if self._lo is None:
            self._cache_bounds()
        else:
            self._totals = (sum(self._lo.tolist()), sum(self._hi.tolist()))
        return self._totals

    @property
    def total_min_energy(self) -> float:
        """Sum of lower bounds (kWh; cached with :attr:`min_array`)."""
        totals = self._totals
        if totals is None:
            totals = self._bound_totals()
        return totals[0]

    @property
    def total_max_energy(self) -> float:
        """Sum of upper bounds (kWh; cached with :attr:`max_array`)."""
        totals = self._totals
        if totals is None:
            totals = self._bound_totals()
        return totals[1]

    @property
    def total_energy_flexibility(self) -> float:
        """Sum of per-slice energy flexibilities (kWh; cached)."""
        cached = self.__dict__.get("_total_energy_flexibility")
        if cached is None:
            if self._items is None:
                cached = sum((self._hi - self._lo).tolist())
            else:
                cached = sum(s.energy_flexibility for s in self._items)
            self.__dict__["_total_energy_flexibility"] = cached
        return cached

    def min_energies(self) -> tuple[float, ...]:
        """Lower bounds as a tuple (cached)."""
        cached = self.__dict__.get("_min_energies")
        if cached is None:
            if self._items is None:
                cached = tuple(self._lo.tolist())
            else:
                cached = tuple(s.min_energy for s in self._items)
            self.__dict__["_min_energies"] = cached
        return cached

    def max_energies(self) -> tuple[float, ...]:
        """Upper bounds as a tuple (cached)."""
        cached = self.__dict__.get("_max_energies")
        if cached is None:
            if self._items is None:
                cached = tuple(self._hi.tolist())
            else:
                cached = tuple(s.max_energy for s in self._items)
            self.__dict__["_max_energies"] = cached
        return cached

    @property
    def min_array(self) -> np.ndarray:
        """Read-only float64 array of the lower bounds (cached with the total)."""
        lo = self._lo
        if lo is None:
            self._cache_bounds()
            lo = self._lo
        return lo

    @property
    def max_array(self) -> np.ndarray:
        """Read-only float64 array of the upper bounds (cached with the total)."""
        hi = self._hi
        if hi is None:
            self._cache_bounds()
            hi = self._hi
        return hi

    @property
    def bounds_cached(self) -> bool:
        """Whether :attr:`min_array` / :attr:`max_array` exist already."""
        return self._lo is not None


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
