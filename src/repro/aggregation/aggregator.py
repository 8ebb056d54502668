"""N-to-1 aggregator: builds macro flex-offers and disaggregates schedules.

The aggregator (paper §4) turns a group of similar flex-offers into **one**
aggregated flex-offer whose internal constraints are produced conservatively:

1. every member profile is *aligned at its own earliest start time* — member
   ``i`` contributes to the aggregate profile at offset
   ``earliest_start_i - earliest_start_agg``, so the aggregate profile can be
   longer than any member profile when earliest starts differ (this is why
   the paper's P2/P3 combinations traverse "energy profiles with increased
   number of intervals");
2. per-slice energy bounds are the **sums** of overlapping member bounds;
3. the aggregate's time flexibility is the **minimum** member time
   flexibility, so shifting the aggregate by any admissible δ shifts every
   member by δ without violating its window.

This construction satisfies the paper's *disaggregation requirement* by
design: any schedule of the aggregate maps back to a valid schedule of every
member (start = member earliest start + δ; energies split proportionally
within each member's range).

:class:`NToOneAggregator` maintains aggregates *incrementally*: adding
members to an existing group updates the group's running profile arrays
instead of re-aggregating from scratch, exactly the optimisation the paper
highlights ("aggregated flex-offers can be incrementally updated to avoid a
from-scratch re-computation").  Pass ``incremental=False`` to get the
from-scratch behaviour for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..core.errors import AggregationError, DisaggregationError
from ..core.flexoffer import EnergyConstraint, FlexOffer, Profile, _next_id
from ..core.schedule import ScheduledFlexOffer
from .updates import AggregateUpdate, GroupUpdate, UpdateKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .engine import PackedView

__all__ = [
    "AggregatedFlexOffer",
    "BuiltView",
    "NToOneAggregator",
    "aggregate_group",
    "disaggregate",
]

_ENERGY_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class AggregatedFlexOffer(FlexOffer):
    """A macro flex-offer carrying its members and their profile offsets.

    ``offsets[i]`` is the position of member ``i``'s first profile slice
    within the aggregate profile (``members[i].earliest_start -
    self.earliest_start``).
    """

    members: tuple[FlexOffer, ...] = ()
    offsets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Explicit base call: dataclass(slots=True) recreates the class, which
        # breaks the zero-argument super() inside methods defined before that.
        FlexOffer.__post_init__(self)
        if len(self.members) != len(self.offsets):
            raise AggregationError("members and offsets must have equal length")
        if not self.members:
            raise AggregationError("an aggregate needs at least one member")

    @property
    def member_count(self) -> int:
        """Number of micro flex-offers folded into this aggregate."""
        return len(self.members)

    @property
    def time_flexibility_loss(self) -> int:
        """Total time flexibility lost by members (paper Fig. 5(c) metric).

        Each member loses ``member.time_flexibility - aggregate
        time_flexibility`` slices of shifting freedom.
        """
        tf = self.time_flexibility
        return sum(m.time_flexibility - tf for m in self.members)


class _GroupState:
    """Running aggregation state of one group, O(touched slices) per update.

    The per-slice bound sums are kept in two **mutable lists** anchored at
    ``base`` (the smallest earliest start the group has seen while
    non-empty): an insert touches only the new member's ``duration`` slices,
    and a removal *subtracts* the member's contribution instead of rebuilding
    the group from the remaining members — the O(group²) churn streaming
    deletes used to pay.  The group's minimum earliest start is tracked
    separately (removals may raise it, leaving dead leading slices in the
    arrays that snapshots simply skip).

    The historical rebuild-everything state survives verbatim in
    :mod:`repro.aggregation.reference` as the property-test oracle and
    benchmark baseline.
    """

    __slots__ = ("members", "est", "base", "_lo", "_hi")

    def __init__(self) -> None:
        self.members: dict[int, FlexOffer] = {}
        self.est = 0
        self.base = 0
        self._lo: list[float] = []
        self._hi: list[float] = []

    def add(self, offer: FlexOffer) -> None:
        if offer.offer_id in self.members:
            raise AggregationError(
                f"flex-offer {offer.offer_id} already in this aggregate"
            )
        if not self.members:
            self.est = self.base = offer.earliest_start
        else:
            if offer.earliest_start < self.base:
                pad = self.base - offer.earliest_start
                self._lo[:0] = [0.0] * pad
                self._hi[:0] = [0.0] * pad
                self.base = offer.earliest_start
            if offer.earliest_start < self.est:
                self.est = offer.earliest_start

        offset = offer.earliest_start - self.base
        profile = offer.profile
        need = offset + profile.duration
        if need > len(self._lo):
            grow = need - len(self._lo)
            self._lo.extend([0.0] * grow)
            self._hi.extend([0.0] * grow)
        lo, hi = self._lo, self._hi
        for k, c in enumerate(profile, start=offset):
            lo[k] += c.min_energy
            hi[k] += c.max_energy
        self.members[offer.offer_id] = offer

    def remove(self, offer_id: int) -> None:
        offer = self.members.pop(offer_id, None)
        if offer is None:
            raise AggregationError(f"flex-offer {offer_id} not in this aggregate")
        if not self.members:
            self.est = self.base = 0
            self._lo.clear()
            self._hi.clear()
            return
        offset = offer.earliest_start - self.base
        lo, hi = self._lo, self._hi
        for k, c in enumerate(offer.profile, start=offset):
            lo[k] -= c.min_energy
            hi[k] -= c.max_energy
        if offer.earliest_start == self.est:
            self.est = min(o.earliest_start for o in self.members.values())

    def snapshot(
        self,
    ) -> tuple[tuple[FlexOffer, ...], int, tuple[EnergyConstraint, ...]]:
        """O(members + profile) snapshot of the live, mutable state."""
        members = tuple(self.members.values())
        if not members:
            return members, self.est, ()
        start = self.est - self.base
        length = max((o.earliest_start - self.est) + o.duration for o in members)
        bounds = tuple(
            # Guard against sub-ulp subtraction residue inverting a slice
            # whose bounds coincide; exact-value corpora never trigger it.
            EnergyConstraint(lo, hi if hi >= lo else lo)
            for lo, hi in zip(
                self._lo[start : start + length],
                self._hi[start : start + length],
            )
        )
        return members, self.est, bounds

    def build(self, offer_id: int) -> AggregatedFlexOffer:
        """Materialise the immutable aggregated flex-offer (O(profile))."""
        members, est, bounds = self.snapshot()
        return _build_aggregate(members, est, bounds, offer_id)


def _build_aggregate(
    members: tuple[FlexOffer, ...],
    est: int,
    bounds: tuple[EnergyConstraint, ...],
    offer_id: int,
) -> AggregatedFlexOffer:
    """Construct the immutable aggregate from a state snapshot."""
    if not members:
        raise AggregationError("cannot build an aggregate from no members")
    length = max((o.earliest_start - est) + o.duration for o in members)
    return _finalize_aggregate(members, est, Profile(bounds[:length]), offer_id)


def _finalize_aggregate(
    members: tuple[FlexOffer, ...],
    est: int,
    profile: Profile,
    offer_id: int,
) -> AggregatedFlexOffer:
    """Assemble the aggregate metadata around an already-built profile.

    The scalar and reference states build through here: one walk over the
    members finds the least time flexibility and the tightest deadline,
    then :func:`_assemble` adds the rest.
    """
    if not members:
        raise AggregationError("cannot build an aggregate from no members")
    time_flex = members[0].time_flexibility
    deadline = None
    for o in members:
        if o.latest_start - o.earliest_start < time_flex:
            time_flex = o.latest_start - o.earliest_start
        due = o.assignment_before
        if due is not None and (deadline is None or due < deadline):
            deadline = due
    return _assemble(
        members,
        est,
        est + time_flex,
        _capped_deadline(deadline, est + time_flex),
        _mean_price(members),
        profile,
        offer_id,
    )


def _capped_deadline(deadline: int | None, latest_start: int) -> int | None:
    """The tightest member deadline, but never beyond the aggregate's own
    (possibly reduced) latest start."""
    if deadline is not None and deadline > latest_start:
        return latest_start
    return deadline


def _mean_price(members: tuple[FlexOffer, ...]) -> float:
    """The members' mean unit price, in membership order."""
    return _mean(np.array([o.unit_price for o in members], float))


def _mean(prices: np.ndarray) -> float:
    """What ``np.mean`` computes (numpy/_core/_methods.py: one ``add.reduce``
    over the float64 column, then a true division by the count), without
    its Python-level wrapper.

    The pairwise ``add.reduce`` is why no running sum can stand in for it:
    the bits depend on the whole column, in order.
    """
    return float(np.add.reduce(prices) / len(prices))


def _assemble(
    members: tuple[FlexOffer, ...],
    est: int,
    latest_start: int,
    deadline: int | None,
    unit_price: float,
    profile: Profile,
    offer_id: int,
) -> AggregatedFlexOffer:
    """The aggregate object around scalars an engine already holds.

    Only the earliest creation time and the member offsets need a walk.
    """
    creation = est
    for o in members:
        if o.creation_time < creation:
            creation = o.creation_time
    return AggregatedFlexOffer(
        profile=profile,
        earliest_start=est,
        latest_start=latest_start,
        offer_id=offer_id,
        owner="aggregate",
        creation_time=creation,
        assignment_before=deadline,
        unit_price=unit_price,
        members=members,
        offsets=tuple(o.earliest_start - est for o in members),
    )


class BuiltView:
    """What a scalar or reference update carries: its id and its aggregate.

    The aggregator hands it its state snapshot's builder, so the
    :class:`AggregatedFlexOffer` is built on first use of :attr:`aggregate`
    and kept.  The runtime plans from the packed engine's
    :class:`~repro.aggregation.engine.PackedView` only, so nothing reads
    the aggregate's fields off this view.
    """

    __slots__ = ("offer_id", "_build", "_aggregate")

    def __init__(
        self, offer_id: int, build: Callable[[], AggregatedFlexOffer]
    ) -> None:
        self.offer_id = offer_id
        self._build = build
        self._aggregate: AggregatedFlexOffer | None = None

    @property
    def aggregate(self) -> AggregatedFlexOffer:
        built = self._aggregate
        if built is None:
            built = self._aggregate = self._build()
        return built


def aggregate_group(
    offers: Sequence[FlexOffer],
    *,
    offer_id: int | None = None,
) -> AggregatedFlexOffer:
    """Aggregate a group of flex-offers into a single macro flex-offer.

    The group must be non-empty; callers are responsible for grouping only
    *similar* offers (the group-builder's job) — correctness (the
    disaggregation requirement) holds for any group, but flexibility loss and
    profile length degrade when dissimilar offers are mixed.
    """
    if not offers:
        raise AggregationError("cannot aggregate an empty group")
    state = _GroupState()
    for offer in offers:
        state.add(offer)
    return state.build(offers[0].offer_id if offer_id is None else offer_id)


def disaggregate(scheduled: ScheduledFlexOffer) -> list[ScheduledFlexOffer]:
    """Convert a scheduled aggregate into scheduled member flex-offers.

    The inverse of :func:`aggregate_group`; guaranteed to succeed for
    schedules respecting the aggregate's constraints (the *disaggregation
    requirement*).  Per-slice energy is distributed proportionally: if the
    aggregate slice was scheduled at fraction ``f`` of its ``[min, max]``
    range, every member slice is scheduled at fraction ``f`` of its own range,
    which reproduces the aggregate energy exactly and respects member bounds.
    Each member starts at the aggregate's start plus its profile offset, so
    an aggregate whose start window was clipped (``with_times``: same
    profile and offsets, a later earliest start) disaggregates exactly as
    its unclipped original does.
    """
    aggregate = scheduled.offer
    if not isinstance(aggregate, AggregatedFlexOffer):
        raise DisaggregationError(
            f"offer {aggregate.offer_id} is not an AggregatedFlexOffer"
        )
    return [
        ScheduledFlexOffer(member, start, energies)
        for member, start, energies in member_schedules(
            aggregate, scheduled.start, scheduled.energies
        )
    ]


def member_schedules(
    aggregate: AggregatedFlexOffer | PackedView,
    start: int,
    energies: Sequence[float],
) -> list[tuple[FlexOffer, int, np.ndarray]]:
    """:func:`disaggregate`'s ``(member, start, energies)`` triples, built
    into no :class:`ScheduledFlexOffer` and checked against nothing.

    For a caller that builds each member's schedule on an object of its
    own — the TSO's downlink builds it on the macro its BRP sent — and so
    builds and checks it once.  ``start`` and ``energies`` place
    ``aggregate`` (or a clipped copy of it: same profile and offsets),
    which may also be the packed engine's view of it: the view answers
    the members, offsets and bound rows the object would.
    """
    fractions = _slice_fractions(aggregate, energies)

    # Per member ``lo + f * (hi - lo)`` over its bound arrays: the IEEE
    # operations of ``c.min_energy + f * c.energy_flexibility`` per
    # constraint, so the same bits, and no member builds its constraint
    # objects.
    out: list[tuple[FlexOffer, int, np.ndarray]] = []
    for member, offset in zip(aggregate.members, aggregate.offsets):
        profile = member.profile
        lo = profile.min_array
        out.append(
            (
                member,
                start + offset,
                lo + fractions[offset : offset + profile.duration]
                * (profile.max_array - lo),
            )
        )
    return out


def _slice_fractions(
    aggregate: AggregatedFlexOffer | PackedView, energies: Sequence[float]
) -> np.ndarray:
    """Per-slice position of the scheduled energy within its [min, max] range.

    Vectorized over the aggregate profile's cached bound arrays — this runs
    for every scheduled aggregate on every re-planning trigger, and the
    per-slice Python loop dominated the streaming runtime's wall clock.
    """
    values = np.asarray(energies, dtype=float)
    lo = aggregate.min_array
    width = aggregate.max_array - lo
    fixed = width <= _ENERGY_EPS
    if fixed.any():
        off = np.abs(values - lo) > 1e-6
        off &= fixed
        if off.any():
            k = int(np.argmax(off))
            raise DisaggregationError(
                f"scheduled energy {values[k]} deviates from the fixed "
                f"amount {lo[k]} in slice {k}"
            )
    fractions = (values - lo) / np.where(fixed, 1.0, width)
    fractions[fixed] = 0.0
    np.clip(fractions, 0.0, 1.0, out=fractions)
    return fractions


class NToOneAggregator:
    """Maintains one aggregate per (sub-)group.

    Consumes :class:`GroupUpdate` streams (from the group-builder or the
    bin-packer) and produces :class:`AggregateUpdate` streams.

    With ``incremental=True`` (the default, and the paper's design) the
    aggregator keeps per-group running profile sums, so adding members costs
    time proportional to the new members' profiles plus one rebuild of the
    aggregate object — not to the whole group.  With ``incremental=False``
    every modification re-aggregates the group from scratch.
    """

    #: State class per group; the reference oracle swaps in the historical
    #: rebuild-on-remove state (see :mod:`repro.aggregation.reference`).
    _state_factory = _GroupState

    def __init__(self, *, incremental: bool = True) -> None:
        self.incremental = incremental
        self._states: dict[str, _GroupState] = {}

    @property
    def aggregate_count(self) -> int:
        """Number of aggregates currently maintained."""
        return len(self._states)

    def aggregates(self) -> list[AggregatedFlexOffer]:
        """Materialise all current aggregated flex-offers."""
        return [
            state.build(self._take_id()) for state in self._states.values()
        ]

    def process(self, updates: Iterable[GroupUpdate]) -> list[AggregateUpdate]:
        """Apply group updates; return the resulting aggregate updates.

        Each emitted update's :class:`BuiltView` builds its aggregate
        on first use from a snapshot taken here, so the maintenance cost per
        update stays proportional to the change, not to the aggregate
        object.
        """
        out: list[AggregateUpdate] = []
        for update in updates:
            gid = update.group_id
            if update.kind is UpdateKind.DELETED or not update.offers:
                state = self._states.pop(gid, None)
                if state is None:
                    raise AggregationError(f"deleting unknown group {gid}")
                out.append(
                    AggregateUpdate(
                        UpdateKind.DELETED, gid, self._deferred(state)
                    )
                )
                continue

            existed = gid in self._states
            if self.incremental:
                state = self._apply_incremental(gid, update.offers)
            else:
                state = self._state_factory()
                for offer in update.offers:
                    state.add(offer)
                self._states[gid] = state
            kind = UpdateKind.MODIFIED if existed else UpdateKind.CREATED
            out.append(AggregateUpdate(kind, gid, self._deferred(state)))
        return out

    def rebuild(self, groups: dict[str, tuple[FlexOffer, ...]]) -> list[AggregateUpdate]:
        """From-scratch recomputation over a full group snapshot."""
        self._states.clear()
        return self.process(
            GroupUpdate(UpdateKind.CREATED, gid, offers)
            for gid, offers in groups.items()
            if offers
        )

    # ------------------------------------------------------------------
    def _deferred(self, state: _GroupState) -> BuiltView:
        members, est, bounds = state.snapshot()
        offer_id = self._take_id()
        return BuiltView(
            offer_id, lambda: _build_aggregate(members, est, bounds, offer_id)
        )

    def _apply_incremental(self, gid: str, offers: tuple[FlexOffer, ...]) -> _GroupState:
        """Diff the held members against ``offers`` by identity: a revision
        (another object under a held id) replaces its member at the end; the
        held object itself keeps its place and its contribution."""
        state = self._states.get(gid)
        if state is None:
            state = self._states[gid] = self._state_factory()
        current = {o.offer_id: o for o in offers}
        for oid, held in list(state.members.items()):
            if current.get(oid) is not held:
                state.remove(oid)
        for offer in offers:
            if offer.offer_id not in state.members:
                state.add(offer)
        return state

    @staticmethod
    def _take_id() -> int:
        # Globally unique ids: aggregates from different nodes meet again at
        # the TSO, so per-aggregator counters would collide.
        return _next_id()
