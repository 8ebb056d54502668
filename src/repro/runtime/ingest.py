"""Ingest stage: validate, batch and feed offers into the incremental pipeline.

First stage of the streaming runtime.  Each arriving flex-offer is validated
against the current simulated time, its lifecycle transition is persisted in
the :class:`~repro.datamgmt.mirabel.LedmsStore` (``submitted`` →
``accepted``/``rejected``), and accepted offers are queued as
:class:`~repro.aggregation.updates.FlexOfferUpdate` inserts on the existing
pipeline — the service's
:class:`~repro.aggregation.engine.PackedAggregationPipeline`, the paper's
incremental path, never a from-scratch rebuild.

Batching: the pipeline accumulates updates until ``run()``; the service
decides *when* to run it.  By default the batch waits for a flush the
service makes anyway — before each planning run, in an expiry sweep that
retired offers, and in a drain — so a node folds once per plan, and an
update waits at most until the next plan or the next sweep that retires an
offer.  An optional ``batch_size`` caps the wait: :attr:`~FlexOfferIngest.
batch_full` turns true once that many updates are pending, and the
arrival that filled the batch flushes it.

Store writes follow the same shape: a flush records its whole batch's
``aggregated`` facts, and a retirement of several offers its ``executed``/
``expired``/``withdrawn`` facts, in one column-wise store call each
(:meth:`~repro.datamgmt.mirabel.LedmsStore.record_offer_events`, the actor
of each fact being its offer's owner).  Neither registers an owner: every
offer in those batches entered through :meth:`FlexOfferIngest.submit`,
which did, and a batch with an owner the store never saw raises before
anything is recorded.  An arrival registers its owner and records its two
admission facts as one-row store calls, and a retirement of one offer (a
withdrawal, an update) its one fact; the store checks each fact and
advances the offer's state at once, but holds the fact back (its keys and
the offer) and writes the held facts as one column-wise batch ahead of its
next fact write or fact-table read, and at the latest when this stage
flushes.
"""

from __future__ import annotations

from typing import Iterable

from ..aggregation.pipeline import AggregationPipeline
from ..aggregation.updates import AggregateUpdate, FlexOfferUpdate
from ..core.flexoffer import FlexOffer
from ..datamgmt.mirabel import LedmsStore
from .metrics import MetricsRegistry

__all__ = ["FlexOfferIngest"]


class FlexOfferIngest:
    """Validation + batching front of the incremental aggregation pipeline.

    ``batch_size`` is an optional cap on pending updates (None = no cap:
    the batch waits for the service's next flush; see the module
    docstring).
    """

    def __init__(
        self,
        pipeline: AggregationPipeline,
        *,
        store: LedmsStore,
        metrics: MetricsRegistry | None = None,
        batch_size: int | None = None,
        max_duration_slices: int | None = None,
    ):
        if batch_size is not None and batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.pipeline = pipeline
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.batch_size = batch_size
        self.max_duration_slices = max_duration_slices
        self._pending = 0
        self._batch: list[FlexOffer] = []
        # Touched once per admitted offer, looked up once.
        self._accepted_counter = self.metrics.counter("ingest.accepted")
        self._rejected_counter = self.metrics.counter("ingest.rejected")

    # ------------------------------------------------------------------
    @property
    def pending_updates(self) -> int:
        """Inserts + deletes queued since the last flush."""
        return self._pending

    @property
    def batch_full(self) -> bool:
        """Whether the pending updates reached the cap (never, with none)."""
        cap = self.batch_size
        return cap is not None and self._pending >= cap

    @property
    def input_count(self) -> int:
        """Micro flex-offers currently held by the pipeline behind this ingest."""
        return self.pipeline.input_count

    # ------------------------------------------------------------------
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

    def submit(
        self, offer: FlexOffer, now: int
    ) -> tuple[FlexOffer | None, str | None]:
        """Admit one offer; returns ``(accepted, None)`` or ``(None, reason)``.

        Offers whose earliest start already passed but whose window is still
        open are clipped to start no earlier than ``now`` — the remaining
        flexibility is still worth aggregating; ``accepted`` is that
        (possibly clipped) offer.  A rejection returns the reason this call
        evaluated, so a caller never re-asks :meth:`reject_reason` against a
        clock that may have moved on.
        """
        owner = offer.owner
        record = self.store.record_offer_event
        self.store.register_actor(owner, "prosumer")
        record(owner, offer, "submitted", now)
        reason = self.reject_reason(offer, now)
        if reason is not None:
            self._rejected_counter.inc()
            record(owner, offer, "rejected", now)
            return None, reason
        if offer.earliest_start < now and offer.latest_start >= now:
            offer = offer.with_times(now, offer.latest_start)
        self.pipeline.submit(FlexOfferUpdate.insert(offer))
        self._pending += 1
        self._batch.append(offer)
        self._accepted_counter.inc()
        record(owner, offer, "accepted", now)
        return offer, None

    def retire(self, offers: Iterable[FlexOffer], now: int, state: str) -> int:
        """Queue delete updates for offers leaving the pool; returns count.

        ``state`` is the terminal lifecycle state recorded in the store
        (``expired`` for never-scheduled offers, ``executed`` for offers
        whose scheduled window has passed).  One offer (a withdrawal, an
        update's retirement) is recorded as a held-back one-row fact, a
        batch as one column-wise write.
        """
        retired = list(offers)
        count = len(retired)
        if count:
            # The store checks the facts first: one it refuses (an owner
            # no admission registered, say) leaves the pipeline untouched.
            if count == 1:
                offer = retired[0]
                self.store.record_offer_event(offer.owner, offer, state, now)
            else:
                self.store.record_offer_events(retired, state, now)
            self.pipeline.submit_deletes(retired)
            self._pending += count
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
        """Run the pipeline over the accumulated batch; return its updates.

        The store's held-back admission facts are written first, whether or
        not there is anything to run.
        """
        self.store.flush()
        if self._pending == 0:
            return []
        batch, self._batch = self._batch, []
        self._pending = 0
        updates = self.pipeline.run()
        self.store.record_offer_events(batch, "aggregated", now)
        self.metrics.counter("ingest.flushes").inc()
        self.metrics.counter("ingest.aggregate_updates").inc(len(updates))
        self.metrics.gauge("ingest.pool_offers").set(self.pipeline.input_count)
        return updates
