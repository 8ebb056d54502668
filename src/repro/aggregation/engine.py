"""Columnar aggregation engine (paper §4 hot path).

The scalar pipeline spends its time on per-slice ``EnergyConstraint`` value
objects: every insert traverses the aggregate profile object-by-object and
every batch hashes grid cells offer-by-offer.  This module keeps the same
update semantics but moves the bookkeeping into NumPy struct-of-arrays,
mirroring the design of :mod:`repro.scheduling.engine`:

* :class:`PackedPool` — all live flex-offers' constants in flat columns
  (earliest/latest start, duration, price, packed per-slice min/max energy
  arrays, a row per offer) with tombstone deletes and amortised compaction;
* vectorized grouping — grid-cell keys for a whole batch are computed as
  array ops (:func:`repro.aggregation.grouping.cell_columns`) and offers are
  partitioned per cell with one ``lexsort``, so the canonical cell tuple is
  derived once per *unique* cell instead of once per offer;
* :class:`GroupArena` + :class:`GroupProfileState` — every group's summed
  min/max profile arrays live as segments of **one** pair of arena arrays,
  so a flush applies *all* removals in one ``np.add.at`` sweep and *all*
  inserts in another, no matter how many groups it touches.  Insert and
  remove are both **O(touched slices)**: a removal subtracts the member's
  contribution instead of re-aggregating the remaining members (the
  group's earliest start / end are re-derived from value counters, since a
  removal may raise them);
* :class:`PackedAggregationPipeline` — the runtime's one aggregation
  engine: the interface of
  :class:`~repro.aggregation.pipeline.AggregationPipeline` without the
  bin-packer, and the same
  :class:`~repro.aggregation.updates.AggregateUpdate` stream.  Bin-packing
  stays with the scalar pipeline: build
  ``AggregationPipeline(parameters, bounds)`` for it;
* :class:`PackedView` — what each update hands the planner: the group's
  scalars off the state's counters and its bound rows off the arena, with
  the aggregate object built only if someone asks for it.

The scalar path survives in :mod:`repro.aggregation.reference` as the
correctness oracle; ``tests/test_aggregation_engine.py`` pins the packed
engine's aggregates and update streams identical to it (bit-identical on
exact-value corpora; the live scalar state matches on arbitrary floats
because both apply the same adds and subtracts in the same order).
"""

from __future__ import annotations

import gc
from collections import Counter
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import AggregationError
from ..core.flexoffer import FlexOffer, Profile, _next_id
from .aggregator import (
    AggregatedFlexOffer,
    _assemble,
    _capped_deadline,
    _mean,
)
from .grouping import GroupBuilder, cell_columns, partition_cells
from .thresholds import AggregationParameters
from .updates import AggregateUpdate, FlexOfferUpdate, UpdateKind

__all__ = [
    "PackedPool",
    "GroupArena",
    "GroupProfileState",
    "PackedAggregationPipeline",
    "PackedView",
]

_EMPTY_ROWS = np.zeros(0, dtype=np.int64)
_NO_PRICES = np.zeros(0)
_NO_PRICES.setflags(write=False)


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for a block, restoring the prior state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _within(durations: np.ndarray) -> np.ndarray:
    """Position of each concatenated slice inside its own offer."""
    return np.arange(int(durations.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(durations) - durations, durations
    )


class PackedPool:
    """Struct-of-arrays over the live flex-offer population.

    Rows are append-only between compactions: deletes tombstone the row
    (keeping its slice data readable for the subtract pass of the same
    flush) and :meth:`maybe_compact` rebuilds the arrays once dead slices
    outnumber live ones.  ``offer_id -> row`` lookups go through a dict that
    compaction rewrites, so holders of offer ids never see stale rows.
    """

    __slots__ = (
        "size",
        "live",
        "slice_used",
        "dead_slices",
        "est",
        "lst",
        "dur",
        "price",
        "offset",
        "alive",
        "slice_lo",
        "slice_hi",
        "_objects",
        "_row_of",
    )

    def __init__(self, capacity: int = 256) -> None:
        self.size = 0
        self.live = 0
        self.slice_used = 0
        self.dead_slices = 0
        self.est = np.zeros(capacity, dtype=np.int64)
        self.lst = np.zeros(capacity, dtype=np.int64)
        self.dur = np.zeros(capacity, dtype=np.int64)
        self.price = np.zeros(capacity)
        self.offset = np.zeros(capacity, dtype=np.int64)
        self.alive = np.zeros(capacity, dtype=bool)
        self.slice_lo = np.zeros(capacity * 8)
        self.slice_hi = np.zeros(capacity * 8)
        self._objects: list[FlexOffer | None] = []
        self._row_of: dict[int, int] = {}

    # ------------------------------------------------------------------
    def __contains__(self, offer_id: int) -> bool:
        return offer_id in self._row_of

    def __len__(self) -> int:
        return self.live

    def row_of(self, offer_id: int) -> int:
        """Current row of a live offer."""
        return self._row_of[offer_id]

    def offer_at(self, row: int) -> FlexOffer:
        """The flex-offer object stored at ``row``."""
        offer = self._objects[row]
        if offer is None:  # pragma: no cover - internal invariant
            raise AggregationError(f"row {row} is dead")
        return offer

    # ------------------------------------------------------------------
    @staticmethod
    def _grown(array: np.ndarray, need: int) -> np.ndarray:
        if need <= len(array):
            return array
        out = np.zeros(max(need, 2 * len(array)), dtype=array.dtype)
        out[: len(array)] = array
        return out

    def insert_batch(self, offers: Sequence[FlexOffer]) -> np.ndarray:
        """Append a batch of offers; returns their rows (submission order)."""
        n = len(offers)
        if n == 0:
            return _EMPTY_ROWS
        need = self.size + n
        for name in ("est", "lst", "dur", "price", "offset", "alive"):
            setattr(self, name, self._grown(getattr(self, name), need))

        rows = np.arange(self.size, need, dtype=np.int64)
        ests: list[int] = []
        lsts: list[int] = []
        durs: list[int] = []
        prices: list[float] = []
        lows: list[np.ndarray] = []
        highs: list[np.ndarray] = []
        for row, offer in zip(rows.tolist(), offers):
            oid = offer.offer_id
            if oid in self._row_of:
                raise AggregationError(f"flex-offer {oid} inserted twice")
            profile = offer.profile
            ests.append(offer.earliest_start)
            lsts.append(offer.latest_start)
            durs.append(profile.duration)
            prices.append(offer.unit_price)
            lows.append(profile.min_array)
            highs.append(profile.max_array)
            self._objects.append(offer)
            self._row_of[oid] = row
        view = slice(self.size, need)
        self.est[view] = ests
        self.lst[view] = lsts
        self.dur[view] = durs
        self.price[view] = prices
        self.offset[view] = self.slice_used + np.cumsum([0] + durs[:-1])
        self.alive[rows] = True

        cursor = self.slice_used + sum(durs)
        self.slice_lo = self._grown(self.slice_lo, cursor)
        self.slice_hi = self._grown(self.slice_hi, cursor)
        self.slice_lo[self.slice_used : cursor] = np.concatenate(lows)
        self.slice_hi[self.slice_used : cursor] = np.concatenate(highs)
        self.slice_used = cursor
        self.size += n
        self.live += n
        return rows

    def remove_batch(self, offer_ids: Iterable[int]) -> np.ndarray:
        """Tombstone offers; their slice data stays readable until compaction."""
        ids = list(offer_ids)
        if not ids:
            return _EMPTY_ROWS
        rows = np.empty(len(ids), dtype=np.int64)
        for i, oid in enumerate(ids):
            row = self._row_of.pop(oid, None)
            if row is None:
                raise AggregationError(f"deleting unknown flex-offer {oid}")
            rows[i] = row
            self._objects[row] = None
        self.alive[rows] = False
        self.live -= len(ids)
        self.dead_slices += int(self.dur[rows].sum())
        return rows

    # ------------------------------------------------------------------
    def slice_indices(self, rows: np.ndarray) -> np.ndarray:
        """Packed-slice indices covered by ``rows`` (order preserved)."""
        lengths = self.dur[rows]
        if not len(lengths):
            return _EMPTY_ROWS
        return np.repeat(self.offset[rows], lengths) + _within(lengths)

    def maybe_compact(self) -> bool:
        """Rebuild the arrays without dead rows once they dominate."""
        if self.dead_slices <= 4096 or self.dead_slices * 2 <= self.slice_used:
            return False
        live_rows = np.flatnonzero(self.alive[: self.size])
        src = self.slice_indices(live_rows)
        for name in ("est", "lst", "dur", "price"):
            column = getattr(self, name)
            packed = column[live_rows]
            column[: len(packed)] = packed
        durations = self.dur[: len(live_rows)]
        self.offset[: len(live_rows)] = np.cumsum(durations) - durations
        self.alive[:] = False
        self.alive[: len(live_rows)] = True
        self.slice_lo[: len(src)] = self.slice_lo[src]
        self.slice_hi[: len(src)] = self.slice_hi[src]
        self._objects = [self._objects[r] for r in live_rows.tolist()]
        self._row_of = {
            offer.offer_id: row for row, offer in enumerate(self._objects)
        }
        self.size = len(live_rows)
        self.live = len(live_rows)
        self.slice_used = int(len(src))
        self.dead_slices = 0
        return True


class GroupArena:
    """One pair of arrays holding every group's summed profile segment.

    Bump allocation with geometric growth; segments freed by group deletion
    (or outgrown and relocated) accrue as *waste* until :meth:`compact`
    rewrites the live segments contiguously.  Keeping all groups in one
    allocation is what lets the pipeline update any number of groups with a
    constant number of NumPy calls per flush.
    """

    __slots__ = ("lo", "hi", "used", "waste")

    def __init__(self, capacity: int = 4096) -> None:
        self.lo = np.zeros(capacity)
        self.hi = np.zeros(capacity)
        self.used = 0
        self.waste = 0

    def alloc(self, need: int) -> int:
        """Reserve a zeroed segment; returns its start offset."""
        if self.used + need > len(self.lo):
            capacity = max(self.used + need, 2 * len(self.lo))
            for name in ("lo", "hi"):
                fresh = np.zeros(capacity)
                old = getattr(self, name)
                fresh[: self.used] = old[: self.used]
                setattr(self, name, fresh)
        start = self.used
        self.used += need
        self.lo[start : self.used] = 0.0
        self.hi[start : self.used] = 0.0
        return start

    def compact(self, states: Iterable["GroupProfileState"]) -> bool:
        """Rewrite live segments contiguously once waste dominates."""
        if self.waste <= 4096 or self.waste * 2 <= self.used:
            return False
        ordered = sorted(states, key=lambda s: s.start)
        new_lo = np.zeros(len(self.lo))
        new_hi = np.zeros(len(self.hi))
        cursor = 0
        for state in ordered:
            span = slice(state.start, state.start + state.cap)
            new_lo[cursor : cursor + state.cap] = self.lo[span]
            new_hi[cursor : cursor + state.cap] = self.hi[span]
            state.start = cursor
            cursor += state.cap
        self.lo = new_lo
        self.hi = new_hi
        self.used = cursor
        self.waste = 0
        return True


class PackedView:
    """One packed update's aggregate, as the runtime's planner and service read it.

    It answers, for its group as of emission: ``offer_id`` (drawn when the
    update was emitted), ``members`` in membership order,
    ``earliest_start``, ``latest_start``, ``duration``,
    ``assignment_before`` (the tightest member deadline, capped at
    ``latest_start``), ``unit_price`` (the members' mean, bit for bit
    ``np.mean``), ``profile`` (the bound rows) and
    ``aggregate`` (the object with exactly these fields, built on first
    use and kept, so one update version builds at most one object).
    ``joined`` is the members the emitting flush admitted to the group, in
    membership order: every member of a group the flush reset, a revision
    (another object under a live id) at the group's end, and a member
    deleted and re-inserted as the object the group held, in its place.
    A consumer that tracks members per group reads only these between two
    emissions, never the whole membership.

    Emission fills the scalars from the group state — members, earliest
    start, duration, and the time-flexibility and deadline minima its
    value counters keep, and its price column — so no walk over the
    member objects runs.  It also copies the group's bound rows off the
    arena, which the group's next flush changes and compaction moves; a
    copy deferred until then would be made all the same.  The rest waits:
    the first reader takes the guarded profile and the mean price, and the
    :class:`~repro.aggregation.aggregator.AggregatedFlexOffer` itself is
    built only for a caller sending the aggregate off the node.
    """

    __slots__ = (
        "offer_id",
        "members",
        "joined",
        "earliest_start",
        "latest_start",
        "duration",
        "assignment_before",
        "_prices",
        "_price",
        "_lo",
        "_hi",
        "_profile",
        "_aggregate",
    )

    def __init__(
        self,
        state: "GroupProfileState",
        arena: GroupArena,
        offer_id: int,
        joined: tuple[FlexOffer, ...] = (),
    ) -> None:
        est = state.est
        latest = est + state.time_flex
        self.offer_id = offer_id
        self.members = tuple(state.members.values())
        self.joined = joined
        self.earliest_start = est
        self.latest_start = latest
        self.duration = state.end - est
        self.assignment_before = _capped_deadline(state.deadline, latest)
        # The state never writes a price column in place (see admit and
        # evict), so the one it holds now stays this emission's.
        self._prices = state.prices
        self._price: float | None = None
        first = state.shift + est
        span = slice(first, first + self.duration)
        self._lo = arena.lo[span].copy()
        self._hi = arena.hi[span].copy()
        self._profile: Profile | None = None
        self._aggregate: AggregatedFlexOffer | None = None

    @property
    def unit_price(self) -> float:
        price = self._price
        if price is None:
            price = self._price = _mean(self._prices)
        return price

    @property
    def profile(self) -> Profile:
        profile = self._profile
        if profile is None:
            lo = self._lo
            # Guard against sub-ulp subtraction residue inverting a slice
            # whose bounds coincide (mirrors the scalar state's snapshot
            # guard).  The copies become the profile's own bound arrays:
            # sums of admitted offers' finite bounds, ordered by the guard.
            profile = self._profile = Profile._from_checked_arrays(
                lo, np.maximum(self._hi, lo)
            )
        return profile

    @property
    def aggregate(self) -> AggregatedFlexOffer:
        built = self._aggregate
        if built is None:
            built = self._aggregate = _assemble(
                self.members,
                self.earliest_start,
                self.latest_start,
                self.assignment_before,
                self.unit_price,
                self.profile,
                self.offer_id,
            )
        return built


class GroupProfileState:
    """Per-group bookkeeping over a :class:`GroupArena` segment.

    ``base`` anchors the segment in time (slice ``k`` of the segment is
    absolute slice ``base + k``), so removals never shift existing slices:
    the member's contribution is subtracted in place and the group's actual
    earliest start / end are tracked through value counters (a removal may
    raise the minimum, which a subtraction cannot undo; the counters make
    re-deriving it O(distinct values) instead of O(profile)).  ``span`` is
    the historical extent ever written, which relocation must preserve —
    slices vacated by removals carry the same (sub-ulp) residue the scalar
    state's lists keep, and parity requires carrying it along.  The least
    member time flexibility and the tightest member deadline (``None``
    while no member has one) are kept the same way.  ``prices`` is the
    members' unit-price column in membership order; it is replaced, never
    written in place, so an emitted view can hold it as is.  A view thus
    reads the aggregate's latest start, deadline and mean price without
    touching a member object.
    """

    __slots__ = (
        "members",
        "prices",
        "est",
        "end",
        "time_flex",
        "deadline",
        "base",
        "start",
        "cap",
        "span",
        "_est_counts",
        "_end_counts",
        "_flex_counts",
        "_due_counts",
    )

    def __init__(self) -> None:
        self.members: dict[int, FlexOffer] = {}
        self.prices = _NO_PRICES
        self.est = 0
        self.end = 0
        self.time_flex = 0
        self.deadline: int | None = None
        self.base = 0
        self.start = 0
        self.cap = 0
        self.span = 0
        self._est_counts: Counter[int] = Counter()
        self._end_counts: Counter[int] = Counter()
        self._flex_counts: Counter[int] = Counter()
        self._due_counts: Counter[int] = Counter()

    # ------------------------------------------------------------------
    def free(self, arena: GroupArena) -> None:
        """Return this group's segment to the arena's waste pool."""
        arena.waste += self.cap
        self.cap = 0

    def reset(self, arena: GroupArena) -> None:
        """Empty the group entirely (scalar parity: arrays start fresh)."""
        self.free(arena)
        self.members.clear()
        self.prices = _NO_PRICES
        self._est_counts.clear()
        self._end_counts.clear()
        self._flex_counts.clear()
        self._due_counts.clear()
        self.est = self.end = self.base = self.start = self.span = 0
        self.time_flex = 0
        self.deadline = None

    def ensure_span(self, arena: GroupArena, first: int, last: int) -> None:
        """Make the segment cover ``[first, last)`` absolute slices."""
        if not self.members:
            need = last - first
            self.base = first
            self.cap = need + max(8, need // 2)
            self.start = arena.alloc(self.cap)
            self.span = need
            return
        new_base = min(self.base, first)
        need = max(self.base + self.span, last) - new_base
        if new_base == self.base and need <= self.cap:
            self.span = max(self.span, need)
            return
        cap = need + max(8, need // 2)
        start = arena.alloc(cap)
        shift = self.base - new_base
        arena.lo[start + shift : start + shift + self.span] = arena.lo[
            self.start : self.start + self.span
        ]
        arena.hi[start + shift : start + shift + self.span] = arena.hi[
            self.start : self.start + self.span
        ]
        arena.waste += self.cap
        self.start, self.cap, self.base, self.span = start, cap, new_base, need

    # ------------------------------------------------------------------
    # bookkeeping (the arena scatters are the pipeline's batched job)
    # ------------------------------------------------------------------
    def admit(
        self,
        offers: Sequence[FlexOffer],
        ests: Sequence[int],
        ends: Sequence[int],
        flexes: Sequence[int],
        prices: np.ndarray,
        first: int,
        last: int,
    ) -> None:
        """Register members after their contributions were scattered in.

        ``ests`` / ``ends`` / ``flexes`` / ``prices`` / ``first`` /
        ``last`` come from the pool columns (the caller has them
        vectorized), so the only per-offer attribute reads here are the id
        and the deadline.  The whole batch is counted at once: one
        ``dict.update`` for the members and one ``Counter.update`` per
        value counter, in membership order.
        """
        fresh = not self.members
        self.members.update({offer.offer_id: offer for offer in offers})
        self._est_counts.update(ests)
        self._end_counts.update(ends)
        self._flex_counts.update(flexes)
        self.prices = np.concatenate((self.prices, prices))
        dues = [
            offer.assignment_before
            for offer in offers
            if offer.assignment_before is not None
        ]
        if dues:
            self._due_counts.update(dues)
            due = min(dues)
            if self.deadline is None or due < self.deadline:
                self.deadline = due
        least_flex = min(flexes)
        if fresh:
            self.est, self.end, self.time_flex = first, last, least_flex
        else:
            if first < self.est:
                self.est = first
            if last > self.end:
                self.end = last
            if least_flex < self.time_flex:
                self.time_flex = least_flex

    def evict(self, offers: Sequence[FlexOffer], positions: Sequence[int]) -> None:
        """Deregister members after their contributions were subtracted;
        ``positions`` are their places in membership order."""
        keep = np.ones(len(self.members), dtype=bool)
        keep[positions] = False
        self.prices = self.prices[keep]
        for offer in offers:
            del self.members[offer.offer_id]
            est = offer.earliest_start
            _discount(self._est_counts, est)
            _discount(self._end_counts, est + offer.duration)
            _discount(self._flex_counts, offer.latest_start - est)
            due = offer.assignment_before
            if due is not None:
                _discount(self._due_counts, due)
        if self.est not in self._est_counts:
            self.est = min(self._est_counts)
        if self.end not in self._end_counts:
            self.end = max(self._end_counts)
        if self.time_flex not in self._flex_counts:
            self.time_flex = min(self._flex_counts)
        if self.deadline is not None and self.deadline not in self._due_counts:
            self.deadline = min(self._due_counts) if self._due_counts else None

    @property
    def shift(self) -> int:
        """Arena offset of absolute slice 0 (segment start minus base)."""
        return self.start - self.base

    def view(
        self, arena: GroupArena, joined: tuple[FlexOffer, ...] = ()
    ) -> PackedView:
        """This group's view under a freshly drawn id, naming ``joined``."""
        return PackedView(self, arena, _next_id(), joined)


def _discount(counts: Counter, value: int) -> None:
    """One value fewer in ``counts``; a value counted zero times goes."""
    left = counts[value] - 1
    if left:
        counts[value] = left
    else:
        del counts[value]


class PackedAggregationPipeline:
    """Columnar counterpart of :class:`AggregationPipeline` (same interface,
    no bin-packer).

    Grouping and the n-to-1 profile sums run against the :class:`PackedPool`
    columns and the shared :class:`GroupArena`.  Updates accumulate until
    :meth:`run`, which applies the **net** batch effect: grid cells for all
    inserts are computed vectorized, all removals land in one subtract sweep
    and all inserts in one add sweep, and the emitted
    :class:`AggregateUpdate` stream carries the same kinds the scalar
    pipeline would emit (sequences compare equal up to emission order; the
    property tests sort by group id).
    """

    def __init__(self, parameters: AggregationParameters) -> None:
        self.parameters = parameters
        self.pool = PackedPool()
        self.arena = GroupArena()
        self._pending: list[FlexOfferUpdate] = []
        #: group id -> profile state
        self._states: dict[str, GroupProfileState] = {}
        self._offer_gid: dict[int, str] = {}
        self._gid_cache: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # accumulation (interface parity with AggregationPipeline)
    # ------------------------------------------------------------------
    def submit(self, update: FlexOfferUpdate) -> None:
        """Queue one flex-offer update (no processing yet)."""
        self._pending.append(update)

    def submit_inserts(self, offers: Iterable[FlexOffer]) -> None:
        """Queue insert updates for many offers."""
        self._pending.extend(FlexOfferUpdate.insert(o) for o in offers)

    def submit_deletes(self, offers: Iterable[FlexOffer]) -> None:
        """Queue delete updates (expiring flex-offers)."""
        self._pending.extend(FlexOfferUpdate.delete(o) for o in offers)

    @property
    def input_count(self) -> int:
        """Number of micro flex-offers currently in the pipeline."""
        return self.pool.live

    @property
    def aggregates(self) -> list[AggregatedFlexOffer]:
        """All currently maintained aggregated flex-offers."""
        return [
            state.view(self.arena).aggregate
            for state in self._states.values()
        ]

    # ------------------------------------------------------------------
    def _gid_for(self, key: np.ndarray, representative: FlexOffer) -> str:
        cache_key = tuple(key.tolist())
        gid = self._gid_cache.get(cache_key)
        if gid is None:
            cell = self.parameters.group_key(representative)
            gid = self._gid_cache[cache_key] = GroupBuilder._group_id(cell)
        return gid

    def run(self) -> list[AggregateUpdate]:
        """Process everything queued; return aggregated flex-offer updates.

        Like the scalar pipeline, the cyclic collector is paused for the
        batch: the update records and views allocated per touched
        group are cycle-free, and collector runs triggered by the allocation
        rate would otherwise distort the maintenance cost.
        """
        with _gc_paused():
            return self._run()

    def _run(self) -> list[AggregateUpdate]:
        pending, self._pending = self._pending, []
        if not pending:
            return []

        # 1) Sequential net-effect scan.  Error semantics match the scalar
        # group-builder: double inserts and unknown deletes raise; an offer
        # inserted and deleted within one flush only *touches* its cell.
        inserts: dict[int, FlexOffer] = {}
        deletes: dict[int, FlexOffer] = {}
        ephemeral: list[FlexOffer] = []
        for update in pending:
            offer = update.offer
            oid = offer.offer_id
            live = oid in self.pool and oid not in deletes
            if update.kind is UpdateKind.DELETED:
                if oid in inserts:
                    ephemeral.append(inserts.pop(oid))
                elif live:
                    deletes[oid] = offer
                else:
                    raise AggregationError(f"deleting unknown flex-offer {oid}")
            else:
                if oid in inserts or live:
                    raise AggregationError(f"flex-offer {oid} inserted twice")
                inserts[oid] = offer

        # A live offer deleted and re-inserted within one flush as the object
        # the pool holds is a membership no-op (the scalar aggregator diffs
        # memberships by identity): it keeps its position and contribution,
        # and its group still emits MODIFIED.  Another object under the id
        # (a revision) is a genuine remove+add, in its old cell or another,
        # so the revision moves to the end of its group like any newcomer.
        retouched: dict[str, set[int]] = {}
        pool = self.pool
        for oid in [oid for oid in inserts if oid in deletes]:
            if inserts[oid] is pool.offer_at(pool.row_of(oid)):
                del inserts[oid], deletes[oid]
                retouched.setdefault(self._offer_gid[oid], set()).add(oid)

        # 2) Tombstone deleted rows (slice data remains readable for the
        # subtract sweeps below) and bucket them by their group.
        del_ids = list(deletes)
        del_rows = self.pool.remove_batch(del_ids)
        dead_row_of = dict(zip(del_ids, del_rows.tolist()))
        removed_by_gid: dict[str, list[int]] = {}
        for oid in del_ids:
            gid = self._offer_gid.pop(oid)
            removed_by_gid.setdefault(gid, []).append(oid)

        # 3) Admit inserted rows; grid cells for the whole batch in one
        # vectorized pass, one canonical key derivation per unique cell, and
        # per-group extents via two reduceat sweeps over the sorted batch.
        new_offers = list(inserts.values())
        new_rows = self.pool.insert_batch(new_offers)
        added_by_gid: dict[str, tuple] = {}
        if len(new_rows):
            ests_new = self.pool.est[new_rows]
            ends_new = ests_new + self.pool.dur[new_rows]
            flexes_new = self.pool.lst[new_rows] - ests_new
            columns = cell_columns(
                self.parameters,
                ests_new,
                flexes_new,
                self.pool.dur[new_rows],
                self.pool.price[new_rows],
            )
            parts, order, starts = partition_cells(columns)
            firsts = np.minimum.reduceat(ests_new[order], starts).tolist()
            lasts = np.maximum.reduceat(ends_new[order], starts).tolist()
            ests_list = ests_new.tolist()
            ends_list = ends_new.tolist()
            flexes_list = flexes_new.tolist()
            offer_gid = self._offer_gid
            for k, part in enumerate(parts):
                positions = part.tolist()
                gid = self._gid_for(columns[:, positions[0]], new_offers[positions[0]])
                offers = [new_offers[i] for i in positions]
                added_by_gid[gid] = (
                    new_rows[part],
                    offers,
                    [ests_list[i] for i in positions],
                    [ends_list[i] for i in positions],
                    [flexes_list[i] for i in positions],
                    firsts[k],
                    lasts[k],
                )
                for offer in offers:
                    offer_gid[offer.offer_id] = gid

        # 4) Cells touched by insert-and-delete-within-the-flush offers emit
        # a MODIFIED update when the group already existed (scalar parity).
        touched: dict[str, None] = {}
        for gid in removed_by_gid:
            touched.setdefault(gid)
        for gid in added_by_gid:
            touched.setdefault(gid)
        for offer in ephemeral:
            touched.setdefault(GroupBuilder._group_id(self.parameters.group_key(offer)))
        for gid in retouched:
            touched.setdefault(gid)

        updates = self._apply(
            touched, removed_by_gid, added_by_gid, dead_row_of, retouched
        )
        self.pool.maybe_compact()
        self.arena.compact(self._states.values())
        return updates

    # ------------------------------------------------------------------
    def _apply(
        self,
        touched: dict[str, None],
        removed_by_gid: dict[str, list[int]],
        added_by_gid: dict[str, tuple],
        dead_row_of: dict[int, int],
        retouched: dict[str, set[int]],
    ) -> list[AggregateUpdate]:
        """One flush over every touched group: two scatter sweeps total.

        Pass 1 settles membership bookkeeping per group and collects every
        member's (rows, arena shift) for the subtract and add sweeps; pass 2
        runs the two ``np.add.at`` sweeps over the whole flush at once (all
        segments live in the same arena arrays, and groups own disjoint
        slots, so per-slot accumulation order still matches the scalar
        remove-then-add per group); pass 3 emits a view per group.
        """
        pool = self.pool
        arena = self.arena
        sub_rows: list[np.ndarray] = []
        sub_shift: list[int] = []
        add_rows: list[np.ndarray] = []
        add_shift: list[int] = []
        emit: list[
            tuple[UpdateKind, str, GroupProfileState, tuple[FlexOffer, ...]]
        ] = []

        for gid in touched:
            removed = removed_by_gid.get(gid)
            added = added_by_gid.get(gid)
            state = self._states.get(gid)
            existed = state is not None
            if existed and removed is not None and len(removed) == len(state.members) and added is None:
                # Group emptied: the DELETED update carries the last
                # aggregate; no subtraction, the segment is simply freed
                # (after pass 3 copied it into the update's view).
                emit.append((UpdateKind.DELETED, gid, state, ()))
                continue
            if state is None:
                if added is None:
                    continue  # an ephemeral touch of a group nobody ever saw
                state = self._states[gid] = GroupProfileState()
            removed_offers = None
            if removed is not None:
                if len(removed) >= len(state.members):
                    # Emptied but repopulated within the flush: fresh arrays,
                    # exactly like the scalar state's reset-on-empty.
                    state.reset(arena)
                else:
                    # Subtract in membership (insertion) order — the order
                    # the scalar aggregator removes in.
                    removed_set = set(removed)
                    positions = [
                        i for i, oid in enumerate(state.members) if oid in removed_set
                    ]
                    members = tuple(state.members.values())
                    removed_offers = [members[i] for i in positions]
                    state.evict(removed_offers, positions)
            if added is not None:
                rows, offers, ests, ends, flexes, first, last = added
                state.ensure_span(arena, first, last)
                state.admit(
                    offers, ests, ends, flexes, pool.price[rows], first, last
                )
            # Shifts are captured only after every geometry change
            # (ensure_span may relocate the segment); phase 2 still applies
            # remove-before-add per arena slot, matching the scalar order.
            if removed_offers:
                sub_rows.append(
                    np.fromiter(
                        (dead_row_of[o.offer_id] for o in removed_offers),
                        dtype=np.int64,
                        count=len(removed_offers),
                    )
                )
                sub_shift.append(state.shift)
            if added is not None:
                add_rows.append(rows)
                add_shift.append(state.shift)
            joined = () if added is None else tuple(added[1])
            back = retouched.get(gid)
            if back:
                # Re-inserted members keep their place, ahead of the admitted.
                joined = tuple(
                    offer for oid, offer in state.members.items() if oid in back
                ) + joined
            kind = UpdateKind.MODIFIED if existed else UpdateKind.CREATED
            emit.append((kind, gid, state, joined))

        # Pass 2: the whole flush in two scatter sweeps.
        for parts, shifts, sign in (
            (sub_rows, sub_shift, -1.0),
            (add_rows, add_shift, 1.0),
        ):
            if not parts:
                continue
            rows = np.concatenate(parts)
            shift = np.repeat(
                np.array(shifts, dtype=np.int64),
                np.fromiter((len(p) for p in parts), dtype=np.int64, count=len(parts)),
            )
            durations = pool.dur[rows]
            idx = np.repeat(pool.est[rows] + shift, durations) + _within(durations)
            src = pool.slice_indices(rows)
            if sign > 0:
                np.add.at(arena.lo, idx, pool.slice_lo[src])
                np.add.at(arena.hi, idx, pool.slice_hi[src])
            else:
                # x += (-v) is bit-identical to the scalar state's x -= v.
                np.add.at(arena.lo, idx, -pool.slice_lo[src])
                np.add.at(arena.hi, idx, -pool.slice_hi[src])

        # Pass 3: emit a view per group (arrays are final now); a DELETED
        # state's segment is freed once its view copied it.
        updates: list[AggregateUpdate] = []
        for kind, gid, state, joined in emit:
            updates.append(AggregateUpdate(kind, gid, state.view(arena, joined)))
            if kind is UpdateKind.DELETED:
                state.free(arena)
                del self._states[gid]
        return updates
