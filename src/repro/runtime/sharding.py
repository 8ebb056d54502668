"""Sharded ingest: partition the offer stream across K aggregation pipelines.

The ROADMAP's path to "millions of prosumers per node": instead of one
pipeline owning every group, the arriving stream is partitioned by the
**hash of the offer's group cell** across ``K`` independent
:class:`~repro.runtime.ingest.FlexOfferIngest` pipelines.  Because routing is
a function of the grid cell, two offers that could ever share a group always
land on the same shard — shard group-id spaces are disjoint by construction,
so "merging pools at scheduling time" is a plain union of the emitted
:class:`~repro.aggregation.updates.AggregateUpdate` streams (the service's
pool dict applies them exactly as in the single-pipeline runtime).

:class:`ShardedFlexOfferIngest` exposes the same interface as a single
ingest (``submit`` / ``retire`` / ``flush`` / ``pending_updates`` /
``batch_full`` / ``input_count``), so :class:`~repro.runtime.service.
BrpRuntimeService` swaps it in via ``AggregationConfig(shards=K)`` without any
other change.  Shards keep independent (smaller) pools and group tables;
each also remains a clean seam for process-level parallelism later.
"""

from __future__ import annotations

from typing import Iterable

from ..aggregation.binpacking import BinPackerBounds
from ..aggregation.pipeline import make_pipeline
from ..aggregation.thresholds import AggregationParameters
from ..aggregation.updates import AggregateUpdate, DirtySet
from ..core.errors import ServiceError
from ..core.flexoffer import FlexOffer
from ..datamgmt.mirabel import LedmsStore
from .ingest import FlexOfferIngest, admission_clip
from .metrics import MetricsRegistry

__all__ = ["ShardedFlexOfferIngest"]


class ShardedFlexOfferIngest:
    """K aggregation pipelines behind the single-ingest interface."""

    def __init__(
        self,
        parameters: AggregationParameters,
        *,
        shards: int = 4,
        bounds: BinPackerBounds | None = None,
        engine: str = "packed",
        store: LedmsStore | None = None,
        metrics: MetricsRegistry | None = None,
        batch_size: int = 64,
        max_duration_slices: int | None = None,
        actor_role: str = "prosumer",
    ) -> None:
        if shards <= 0:
            raise ServiceError(f"shards must be positive, got {shards}")
        if batch_size <= 0:
            raise ServiceError("batch_size must be positive")
        self.parameters = parameters
        self.batch_size = batch_size
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._shard_of_offer: dict[int, int] = {}
        #: Dirty group ids merged across shards by the most recent flush.
        self.last_dirty = DirtySet()
        self.shards = tuple(
            FlexOfferIngest(
                make_pipeline(parameters, bounds, engine=engine),
                store=store,
                metrics=self.metrics,
                batch_size=batch_size,
                max_duration_slices=max_duration_slices,
                actor_role=actor_role,
            )
            for _ in range(shards)
        )

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """Number of independent ingest pipelines."""
        return len(self.shards)

    @property
    def pending_updates(self) -> int:
        """Inserts + deletes queued across all shards since the last flush."""
        return sum(shard.pending_updates for shard in self.shards)

    @property
    def batch_full(self) -> bool:
        """Whether the *total* pending count warrants a pipeline run.

        Keeps batching semantics identical to the single-pipeline ingest:
        the service flushes after ``batch_size`` updates overall, regardless
        of how the hash spread them over shards.
        """
        return self.pending_updates >= self.batch_size

    @property
    def input_count(self) -> int:
        """Micro flex-offers currently live across all shard pools."""
        return sum(shard.input_count for shard in self.shards)

    # ------------------------------------------------------------------
    def shard_of(self, offer: FlexOffer, now: int | None = None) -> int:
        """Deterministic shard index from the offer's group cell.

        The cell is taken *after* :func:`~repro.runtime.ingest.admission_clip`
        (the same clip the ingest stage applies), so the routing cell always
        matches the cell the offer is grouped under.  Cells are tuples of
        numbers, whose Python hash is deterministic across runs (hash
        randomisation only affects strings).
        """
        if now is not None:
            offer = admission_clip(offer, now)
        return hash(self.parameters.group_key(offer)) % len(self.shards)

    def reject_reason(self, offer: FlexOffer, now: int) -> str | None:
        """Why ``offer`` cannot be admitted at ``now`` (None = admissible).

        Admission rules are identical on every shard, so any shard answers.
        """
        return self.shards[0].reject_reason(offer, now)

    def submit(self, offer: FlexOffer, now: int) -> FlexOffer | None:
        """Admit one offer on its home shard; returns the accepted offer."""
        index = self.shard_of(offer, now)
        accepted = self.shards[index].submit(offer, now)
        if accepted is not None:
            # Remember the home shard so retirement skips the cell hash.
            self._shard_of_offer[accepted.offer_id] = index
        return accepted

    def contains(self, offer_id: int) -> bool:
        """Whether any shard currently holds the offer."""
        if offer_id in self._shard_of_offer:
            return True
        return any(shard.contains(offer_id) for shard in self.shards)

    def _home_shard(self, offer_id: int) -> int | None:
        """Membership lookup for offers the routing table no longer covers.

        Hashing the offer's cell again is *not* a valid fallback: submit
        routed by the admission-clipped cell, and re-deriving that clip
        needs the (unknown) submit-time clock — an unclipped re-hash can
        land on a different shard, mis-routing the delete and leaving a
        ghost member in the true home shard.  Asking each shard's pipeline
        is exact regardless of what the admission clip did.
        """
        for index, shard in enumerate(self.shards):
            if shard.contains(offer_id):
                return index
        return None

    def retire(self, offers: Iterable[FlexOffer], now: int, state: str) -> int:
        """Route delete updates to each offer's home shard; returns count.

        Offers no shard knows (never admitted, or already retired) are
        skipped and counted under ``ingest.retire_unknown`` — a delete must
        never be guessed onto a shard that does not hold the offer.
        """
        per_shard: dict[int, list[FlexOffer]] = {}
        unknown = 0
        for offer in offers:
            index = self._shard_of_offer.pop(offer.offer_id, None)
            if index is None:
                index = self._home_shard(offer.offer_id)
            if index is None:
                unknown += 1
                continue
            per_shard.setdefault(index, []).append(offer)
        if unknown:
            self.metrics.counter("ingest.retire_unknown").inc(unknown)
        return sum(
            self.shards[index].retire(batch, now, state)
            for index, batch in per_shard.items()
        )

    def flush(self, now: int) -> list[AggregateUpdate]:
        """Run every shard with pending work; merge the update streams.

        Group ids are disjoint across shards (routing is a function of the
        group cell), so concatenation *is* the pool merge.
        """
        updates: list[AggregateUpdate] = []
        dirty = DirtySet()
        for shard in self.shards:
            if shard.pending_updates:
                updates.extend(shard.flush(now))
                # Shard group-id spaces are disjoint, so the merge is a union.
                dirty = dirty.merged(shard.last_dirty)
        self.last_dirty = dirty
        # Each shard's flush set this gauge to its own pool; report the merged
        # population the way the single-pipeline ingest does.
        self.metrics.gauge("ingest.pool_offers").set(self.input_count)
        return updates
