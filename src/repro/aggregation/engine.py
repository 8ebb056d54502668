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
* :class:`PackedAggregationPipeline` — a drop-in replacement for
  :class:`~repro.aggregation.pipeline.AggregationPipeline` (same interface,
  same :class:`~repro.aggregation.updates.AggregateUpdate` stream, the same
  optional bin-packer bounds via the shared first-fit kernel).

The scalar path survives in :mod:`repro.aggregation.reference` as the
correctness oracle; ``tests/test_aggregation_engine.py`` pins the packed
engine's aggregates and update streams identical to it (bit-identical on
exact-value corpora; the live scalar state matches on arbitrary floats
because both apply the same adds and subtracts in the same order).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from ..core.errors import AggregationError
from ..core.flexoffer import FlexOffer, Profile, _next_id
from .aggregator import AggregatedFlexOffer, _finalize_aggregate
from .binpacking import BinPackerBounds, first_fit_bins
from .grouping import GroupBuilder, cell_columns, partition_cells
from .pipeline import _gc_paused
from .thresholds import AggregationParameters
from .updates import AggregateUpdate, DirtySet, FlexOfferUpdate, UpdateKind

__all__ = [
    "PackedPool",
    "GroupArena",
    "GroupProfileState",
    "PackedAggregationPipeline",
]

_EMPTY_ROWS = np.zeros(0, dtype=np.int64)


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
            durs.append(len(profile))
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


class _LazySnapshot:
    """Copy-on-write view of one group's profile span at emission time.

    An emitted :class:`~repro.aggregation.updates.AggregateUpdate` needs the
    group's arrays *as of emission*, but most updates are never materialised
    (streams between scheduling runs, benchmark drains).  The copy is
    deferred: the state resolves its outstanding snapshots the moment it is
    about to mutate again, so untouched snapshots read straight from the
    arena and never pay for the copy.
    """

    __slots__ = ("state", "est", "end", "lo", "hi")

    def __init__(self, state: "GroupProfileState", est: int, end: int) -> None:
        self.state = state
        self.est = est
        self.end = end
        self.lo: np.ndarray | None = None
        self.hi: np.ndarray | None = None

    def resolve(self, arena: GroupArena) -> None:
        if self.lo is not None:
            return
        state = self.state
        view = slice(
            state.start + self.est - state.base, state.start + self.end - state.base
        )
        self.lo = arena.lo[view].copy()
        self.hi = arena.hi[view].copy()


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
    state's lists keep, and parity requires carrying it along.
    """

    __slots__ = (
        "members",
        "est",
        "end",
        "base",
        "start",
        "cap",
        "span",
        "_est_counts",
        "_end_counts",
        "_lazy",
    )

    def __init__(self) -> None:
        self.members: dict[int, FlexOffer] = {}
        self.est = 0
        self.end = 0
        self.base = 0
        self.start = 0
        self.cap = 0
        self.span = 0
        self._est_counts: Counter[int] = Counter()
        self._end_counts: Counter[int] = Counter()
        self._lazy: list[_LazySnapshot] = []

    # ------------------------------------------------------------------
    def _materialize(self, arena: GroupArena) -> None:
        """Resolve outstanding lazy snapshots before the arrays change."""
        if self._lazy:
            for snapshot in self._lazy:
                snapshot.resolve(arena)
            self._lazy.clear()

    def free(self, arena: GroupArena) -> None:
        """Return this group's segment to the arena's waste pool.

        Outstanding lazy snapshots from earlier flushes still point into the
        segment; they are resolved first, or a later arena compaction would
        hand their updates zeroed profiles.
        """
        self._materialize(arena)
        arena.waste += self.cap
        self.cap = 0

    def reset(self, arena: GroupArena) -> None:
        """Empty the group entirely (scalar parity: arrays start fresh)."""
        self._materialize(arena)
        self.free(arena)
        self.members.clear()
        self._est_counts.clear()
        self._end_counts.clear()
        self.est = self.end = self.base = self.start = self.span = 0

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
        first: int,
        last: int,
    ) -> None:
        """Register members after their contributions were scattered in.

        ``ests`` / ``ends`` / ``first`` / ``last`` come from the pool
        columns (the caller has them vectorized), so no per-offer attribute
        chains run here.
        """
        fresh = not self.members
        members = self.members
        est_counts = self._est_counts
        end_counts = self._end_counts
        for offer, est, end in zip(offers, ests, ends):
            members[offer.offer_id] = offer
            est_counts[est] += 1
            end_counts[end] += 1
        if fresh:
            self.est, self.end = first, last
        else:
            if first < self.est:
                self.est = first
            if last > self.end:
                self.end = last

    def evict(self, offers: Iterable[FlexOffer]) -> None:
        """Deregister members after their contributions were subtracted."""
        for offer in offers:
            del self.members[offer.offer_id]
            est = offer.earliest_start
            end = est + offer.duration
            self._est_counts[est] -= 1
            if not self._est_counts[est]:
                del self._est_counts[est]
            self._end_counts[end] -= 1
            if not self._end_counts[end]:
                del self._end_counts[end]
        if self.est not in self._est_counts:
            self.est = min(self._est_counts)
        if self.end not in self._end_counts:
            self.end = max(self._end_counts)

    @property
    def shift(self) -> int:
        """Arena offset of absolute slice 0 (segment start minus base)."""
        return self.start - self.base

    # ------------------------------------------------------------------
    # per-group scatters (the bin-packer path and direct/unit-test use;
    # the plain path batches these across all touched groups instead)
    # ------------------------------------------------------------------
    def insert_members(self, arena: GroupArena, offers: Sequence[FlexOffer]) -> None:
        """Add members' contributions and bookkeeping for one group.

        Values come from the member objects' cached bound arrays — exactly
        what the scalar aggregator adds when the bin-packer hands it a
        (sub-)group membership.
        """
        if not offers:
            return
        self._materialize(arena)
        ests = [o.earliest_start for o in offers]
        ends = [est + o.duration for est, o in zip(ests, offers)]
        first, last = min(ests), max(ends)
        self.ensure_span(arena, first, last)
        shift = self.shift
        for offer, est in zip(offers, ests):
            o = shift + est
            d = offer.duration
            arena.lo[o : o + d] += offer.profile.min_array
            arena.hi[o : o + d] += offer.profile.max_array
        self.admit(offers, ests, ends, first, last)

    def remove_members(self, arena: GroupArena, offers: Sequence[FlexOffer]) -> None:
        """Subtract members' contributions (the objects this state admitted).

        Emptying the group resets the segment entirely, exactly like the
        scalar state.
        """
        if not offers:
            return
        if len(offers) >= len(self.members):
            self.reset(arena)
            return
        self._materialize(arena)
        shift = self.shift
        for offer in offers:
            o = shift + offer.earliest_start
            d = offer.duration
            arena.lo[o : o + d] -= offer.profile.min_array
            arena.hi[o : o + d] -= offer.profile.max_array
        self.evict(offers)

    # ------------------------------------------------------------------
    def snapshot(
        self, arena: GroupArena
    ) -> tuple[tuple[FlexOffer, ...], int, np.ndarray, np.ndarray]:
        """Copy out the live span: (members, est, lo, hi)."""
        members = tuple(self.members.values())
        lo_view = slice(self.start + self.est - self.base, self.start + self.end - self.base)
        return members, self.est, arena.lo[lo_view].copy(), arena.hi[lo_view].copy()


def _deferred_build(state: GroupProfileState, arena: GroupArena, *, eager: bool = False):
    """Snapshot now (copy-on-write), materialise the aggregate lazily.

    The member tuple and extent are captured eagerly (cheap); the array copy
    is deferred through :class:`_LazySnapshot` unless ``eager`` — used when
    the state is about to be dropped (DELETED updates) or the caller builds
    immediately anyway.
    """
    members = tuple(state.members.values())
    snapshot = _LazySnapshot(state, state.est, state.end)
    if eager:
        snapshot.resolve(arena)
    else:
        state._lazy.append(snapshot)
    offer_id = _next_id()
    est = snapshot.est

    def build() -> AggregatedFlexOffer:
        snapshot.resolve(arena)
        lo, hi = snapshot.lo, snapshot.hi
        # Guard against sub-ulp subtraction residue inverting a slice whose
        # bounds coincide (mirrors the scalar state's snapshot guard).  The
        # snapshot's own copies become the profile's bound arrays, so the
        # scheduler's first read does not rebuild them from the objects.
        profile = Profile.from_arrays(lo, np.maximum(hi, lo))
        return _finalize_aggregate(members, est, profile, offer_id)

    return build


class PackedAggregationPipeline:
    """Columnar counterpart of :class:`AggregationPipeline` (same interface).

    Grouping, bin-packing and the n-to-1 profile sums all run against the
    :class:`PackedPool` columns and the shared :class:`GroupArena`.  Updates
    accumulate until :meth:`run`, which applies the **net** batch effect:
    grid cells for all inserts are computed vectorized, all removals land in
    one subtract sweep and all inserts in one add sweep, and the emitted
    :class:`AggregateUpdate` stream carries the same kinds the scalar
    pipeline would emit (sequences compare equal up to emission order; the
    property tests sort by group id).
    """

    def __init__(
        self,
        parameters: AggregationParameters,
        bounds: BinPackerBounds | None = None,
    ) -> None:
        self.parameters = parameters
        self.bounds = bounds
        self.pool = PackedPool()
        self.arena = GroupArena()
        self._pending: list[FlexOfferUpdate] = []
        #: (sub)group id -> profile state
        self._states: dict[str, GroupProfileState] = {}
        self._offer_gid: dict[int, str] = {}
        self._gid_cache: dict[tuple, str] = {}
        # bin-packer bookkeeping (bounds is not None): parent-cell membership
        # and the current packing, as ordered member-id tuples per subgroup.
        self._cell_members: dict[str, dict[int, FlexOffer]] = {}
        self._packings: dict[str, list[tuple[int, ...]]] = {}
        #: Group ids the most recent :meth:`run` created/changed/deleted.
        self.last_dirty = DirtySet()

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

    def contains(self, offer_id: int) -> bool:
        """Whether the pipeline currently holds the offer (flushed state)."""
        return offer_id in self._offer_gid

    @property
    def aggregates(self) -> list[AggregatedFlexOffer]:
        """All currently maintained aggregated flex-offers."""
        return [
            _deferred_build(state, self.arena, eager=True)()
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
        batch: the update records and snapshot closures allocated per touched
        group are cycle-free, and collector runs triggered by the allocation
        rate would otherwise distort the maintenance cost.
        """
        with _gc_paused():
            updates = self._run()
        self.last_dirty = DirtySet.from_updates(updates)
        return updates

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

        # A live offer deleted and re-inserted within the same flush is a
        # membership no-op when it returns to the same cell: the scalar
        # aggregator diffs group memberships **by id**, so the member keeps
        # its position (and its original contribution).  The group is still
        # touched and emits MODIFIED.  A re-insert into a *different* cell is
        # a genuine remove+add across groups.
        retouched: list[str] = []
        retouched_offers: dict[str, list[FlexOffer]] = {}
        for oid in [oid for oid in inserts if oid in deletes]:
            new_gid = GroupBuilder._group_id(
                self.parameters.group_key(inserts[oid])
            )
            if self._offer_gid[oid] == new_gid:
                replacement = inserts.pop(oid)
                del deletes[oid]
                retouched.append(new_gid)
                # The bin-packer layer (like the scalar group-builder) *does*
                # see the replacement object: it weighs and value-compares
                # the current membership, while the profile states keep the
                # originally admitted contribution (aggregator semantics).
                retouched_offers.setdefault(new_gid, []).append(replacement)

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
            columns = cell_columns(
                self.parameters,
                ests_new,
                self.pool.lst[new_rows] - ests_new,
                self.pool.dur[new_rows],
                self.pool.price[new_rows],
            )
            parts, order, starts = partition_cells(columns)
            firsts = np.minimum.reduceat(ests_new[order], starts).tolist()
            lasts = np.maximum.reduceat(ends_new[order], starts).tolist()
            ests_list = ests_new.tolist()
            ends_list = ends_new.tolist()
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

        if self.bounds is None:
            updates = self._apply_plain(
                touched, removed_by_gid, added_by_gid, dead_row_of
            )
        else:
            updates = []
            for gid in touched:
                added = added_by_gid.get(gid)
                self._apply_packed_bins(
                    gid,
                    removed_by_gid.get(gid, []),
                    added[1] if added is not None else [],
                    retouched_offers.get(gid, []),
                    updates,
                )

        self.pool.maybe_compact()
        self.arena.compact(self._states.values())
        return updates

    # ------------------------------------------------------------------
    def _apply_plain(
        self,
        touched: dict[str, None],
        removed_by_gid: dict[str, list[int]],
        added_by_gid: dict[str, tuple],
        dead_row_of: dict[int, int],
    ) -> list[AggregateUpdate]:
        """One flush over plain (un-binned) groups: two scatter sweeps total.

        Pass 1 settles membership bookkeeping per group and collects every
        member's (rows, arena shift) for the subtract and add sweeps; pass 2
        runs the two ``np.add.at`` sweeps over the whole flush at once (all
        segments live in the same arena arrays, and groups own disjoint
        slots, so per-slot accumulation order still matches the scalar
        remove-then-add per group); pass 3 snapshots and emits.
        """
        pool = self.pool
        arena = self.arena
        sub_rows: list[np.ndarray] = []
        sub_shift: list[int] = []
        add_rows: list[np.ndarray] = []
        add_shift: list[int] = []
        emit: list[tuple[UpdateKind, str, GroupProfileState]] = []

        for gid in touched:
            removed = removed_by_gid.get(gid)
            added = added_by_gid.get(gid)
            state = self._states.get(gid)
            existed = state is not None
            if existed and removed is not None and len(removed) == len(state.members) and added is None:
                # Group emptied: the DELETED update carries the last
                # aggregate; no subtraction, the segment is simply freed
                # (after the snapshot in pass 3).
                emit.append((UpdateKind.DELETED, gid, state))
                continue
            if state is None:
                if added is None:
                    continue  # an ephemeral touch of a group nobody ever saw
                state = self._states[gid] = GroupProfileState()
            else:
                # This group's arrays are about to change: resolve any
                # snapshots earlier updates still hold (copy-on-write).
                state._materialize(arena)
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
                    removed_offers = [
                        o for oid, o in state.members.items() if oid in removed_set
                    ]
                    state.evict(removed_offers)
            if added is not None:
                rows, offers, ests, ends, first, last = added
                state.ensure_span(arena, first, last)
                state.admit(offers, ests, ends, first, last)
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
            kind = UpdateKind.MODIFIED if existed else UpdateKind.CREATED
            emit.append((kind, gid, state))

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

        # Pass 3: snapshot and emit (arrays are final now).  DELETED states
        # lose their segment immediately, so their snapshot is eager.
        updates: list[AggregateUpdate] = []
        for kind, gid, state in emit:
            deleted = kind is UpdateKind.DELETED
            updates.append(
                AggregateUpdate(
                    kind, gid, _deferred_build(state, arena, eager=deleted)
                )
            )
            if deleted:
                state.free(arena)
                del self._states[gid]
        return updates

    # ------------------------------------------------------------------
    def _weights(self, offers: Sequence[FlexOffer]) -> list[float]:
        # Weighed the same way the scalar bin-packer does, so packings
        # agree bit-for-bit.
        return [self.bounds.weight(o) for o in offers]

    def _apply_packed_bins(
        self,
        gid: str,
        removed: list[int],
        added: Sequence[FlexOffer],
        retouched: Sequence[FlexOffer],
        updates: list[AggregateUpdate],
    ) -> None:
        members = self._cell_members.get(gid)
        if members is None:
            if not added:
                return
            members = self._cell_members[gid] = {}
        for oid in removed:
            del members[oid]
        for offer in added:
            members[offer.offer_id] = offer
        # Members replaced within the flush: the membership layer tracks the
        # new object (weights, value comparisons), and bins whose values
        # changed re-emit even though their id sets did not.
        changed_ids = set()
        for offer in retouched:
            if members[offer.offer_id] != offer:
                changed_ids.add(offer.offer_id)
            members[offer.offer_id] = offer

        old_packing = self._packings.get(gid, [])
        if not members:
            for index, _ in enumerate(old_packing):
                sub_id = f"{gid}#{index}"
                state = self._states.pop(sub_id)
                updates.append(
                    AggregateUpdate(
                        UpdateKind.DELETED,
                        sub_id,
                        _deferred_build(state, self.arena, eager=True),
                    )
                )
                state.free(self.arena)
            del self._cell_members[gid]
            self._packings.pop(gid, None)
            return

        # Deterministic first-fit in offer-id order (the same kernel the
        # scalar bin-packer runs).
        ordered_ids = sorted(members)
        ordered = [members[oid] for oid in ordered_ids]
        bins = first_fit_bins(
            self._weights(ordered), self.bounds.minimum, self.bounds.maximum
        )
        new_packing = [tuple(ordered_ids[j] for j in b) for b in bins]

        for index, sub_ids in enumerate(new_packing):
            sub_id = f"{gid}#{index}"
            old_ids = old_packing[index] if index < len(old_packing) else None
            if old_ids == sub_ids and changed_ids.isdisjoint(sub_ids):
                continue  # untouched subgroup: no update (scalar parity)
            state = self._states.get(sub_id)
            sub_existed = state is not None
            if state is None:
                state = self._states[sub_id] = GroupProfileState()
            new_set = set(sub_ids)
            evicted = [o for oid, o in state.members.items() if oid not in new_set]
            to_add = [members[oid] for oid in sub_ids if oid not in state.members]
            state.remove_members(self.arena, evicted)
            state.insert_members(self.arena, to_add)
            kind = UpdateKind.MODIFIED if sub_existed else UpdateKind.CREATED
            updates.append(
                AggregateUpdate(kind, sub_id, _deferred_build(state, self.arena))
            )
        for index in range(len(new_packing), len(old_packing)):
            sub_id = f"{gid}#{index}"
            state = self._states.pop(sub_id)
            updates.append(
                AggregateUpdate(
                    UpdateKind.DELETED,
                    sub_id,
                    _deferred_build(state, self.arena, eager=True),
                )
            )
            state.free(self.arena)
        self._packings[gid] = new_packing
