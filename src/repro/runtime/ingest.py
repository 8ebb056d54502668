"""Ingest stage: validate, batch and feed offers into the incremental pipeline.

First stage of the streaming runtime.  Each arriving flex-offer is validated
against the current simulated time, its lifecycle transition is persisted in
the :class:`~repro.datamgmt.mirabel.LedmsStore` (``submitted`` →
``accepted``/``rejected``), and accepted offers are queued as
:class:`~repro.aggregation.updates.FlexOfferUpdate` inserts on the existing
:class:`~repro.aggregation.pipeline.AggregationPipeline` — the paper's
incremental path, never a from-scratch rebuild.

Batching: the group-builder already accumulates updates until ``run()``;
the ingest stage decides *when* to run, namely once ``batch_size`` updates
are pending (or when the service forces a flush before scheduling).

Store writes follow the same shape: the two admission facts of an offer are
recorded one row at a time as it arrives, while a flush records its whole
batch's ``aggregated`` facts, and a retirement its ``executed``/``expired``/
``withdrawn`` facts, in one column-wise store call each.
"""

from __future__ import annotations

from typing import Iterable

from ..aggregation.pipeline import AggregationPipeline
from ..aggregation.updates import AggregateUpdate, DirtySet, FlexOfferUpdate
from ..core.flexoffer import FlexOffer
from ..datamgmt.mirabel import LedmsStore
from .metrics import MetricsRegistry

__all__ = ["FlexOfferIngest"]


class FlexOfferIngest:
    """Validation + batching front of the incremental aggregation pipeline."""

    def __init__(
        self,
        pipeline: AggregationPipeline,
        *,
        store: LedmsStore | None = None,
        metrics: MetricsRegistry | None = None,
        batch_size: int = 64,
        max_duration_slices: int | None = None,
        actor_role: str = "prosumer",
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.pipeline = pipeline
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.batch_size = batch_size
        self.max_duration_slices = max_duration_slices
        self.actor_role = actor_role
        self._pending = 0
        self._batch: list[FlexOffer] = []
        #: Dirty group ids reported by the most recent :meth:`flush`.
        self.last_dirty = DirtySet()

    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> int:
        """Inserts + deletes queued since the last flush."""
        return self._pending

    @property
    def batch_full(self) -> bool:
        """Whether enough updates accumulated to warrant a pipeline run."""
        return self._pending >= self.batch_size

    @property
    def input_count(self) -> int:
        """Micro flex-offers currently held by the pipeline behind this ingest."""
        return self.pipeline.input_count

    def contains(self, offer_id: int) -> bool:
        """Whether this ingest holds the offer (flushed or awaiting flush)."""
        return self.pipeline.contains(offer_id) or any(
            offer.offer_id == offer_id for offer in self._batch
        )

    # ------------------------------------------------------------------
    def _record(self, offer: FlexOffer, state: str, now: int) -> None:
        if self.store is None:
            return
        self.store.register_actor(offer.owner, self.actor_role)
        self.store.record_offer_event(offer.owner, offer, state, now)

    def _record_all(self, offers: list[FlexOffer], state: str, now: int) -> None:
        """One store call for many offers entering ``state`` at ``now``."""
        if self.store is None or not offers:
            return
        # dict, not set: first-seen order keeps actor ids deterministic.
        for owner in dict.fromkeys(offer.owner for offer in offers):
            self.store.register_actor(owner, self.actor_role)
        self.store.record_offer_events(
            [(offer.owner, offer, state) for offer in offers], now
        )

    def reject_reason(self, offer: FlexOffer, now: int) -> str | None:
        """Why ``offer`` cannot be admitted at ``now`` (None = admissible)."""
        if offer.latest_start < now:
            return "start window already closed"
        if offer.assignment_before is not None and offer.assignment_before <= now:
            return "assignment deadline already passed"
        if (
            self.max_duration_slices is not None
            and offer.duration > self.max_duration_slices
        ):
            return (
                f"profile of {offer.duration} slices exceeds the "
                f"{self.max_duration_slices}-slice admission limit"
            )
        if offer.total_min_energy == 0.0 and offer.total_max_energy == 0.0:
            return "offer carries no energy"
        return None

    def submit(self, offer: FlexOffer, now: int) -> FlexOffer | None:
        """Admit one offer; returns the (possibly clipped) accepted offer.

        Offers whose earliest start already passed but whose window is still
        open are clipped to start no earlier than ``now`` — the remaining
        flexibility is still worth aggregating.  Returns ``None`` when the
        offer was rejected.
        """
        self._record(offer, "submitted", now)
        reason = self.reject_reason(offer, now)
        if reason is not None:
            self.metrics.counter("ingest.rejected").inc()
            self._record(offer, "rejected", now)
            return None
        if offer.earliest_start < now and offer.latest_start >= now:
            offer = offer.with_times(now, offer.latest_start)
        self.pipeline.submit(FlexOfferUpdate.insert(offer))
        self._pending += 1
        self._batch.append(offer)
        self.metrics.counter("ingest.accepted").inc()
        self._record(offer, "accepted", now)
        return offer

    def retire(self, offers: Iterable[FlexOffer], now: int, state: str) -> int:
        """Queue delete updates for offers leaving the pool; returns count.

        ``state`` is the terminal lifecycle state recorded in the store
        (``expired`` for never-scheduled offers, ``executed`` for offers
        whose scheduled window has passed).
        """
        retired = list(offers)
        count = len(retired)
        if count:
            self.pipeline.submit_deletes(retired)
            self._pending += count
            self._record_all(retired, state, now)
            retired_ids = {offer.offer_id for offer in retired}
            # A retired offer may still sit in the unflushed insert batch;
            # drop it so the next flush cannot regress its terminal state
            # back to "aggregated".
            self._batch = [
                o for o in self._batch if o.offer_id not in retired_ids
            ]
            self.metrics.counter("ingest.retired").inc(count)
        return count

    # ------------------------------------------------------------------
    def flush(self, now: int) -> list[AggregateUpdate]:
        """Run the pipeline over the accumulated batch; return its updates."""
        if self._pending == 0:
            self.last_dirty = DirtySet()
            return []
        batch, self._batch = self._batch, []
        self._pending = 0
        updates = self.pipeline.run()
        self.last_dirty = self.pipeline.last_dirty
        self._record_all(batch, "aggregated", now)
        self.metrics.counter("ingest.flushes").inc()
        self.metrics.counter("ingest.aggregate_updates").inc(len(updates))
        self.metrics.gauge("ingest.pool_offers").set(self.pipeline.input_count)
        return updates
