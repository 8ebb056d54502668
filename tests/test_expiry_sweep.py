"""The due-time expiry sweep against the census walk it replaced.

``BrpRuntimeService._sweep_pool`` checks only the offers whose retirement
could already be due.  :func:`census` is the walk over every live offer
that the sweep used to make; every sweep here — explicit, or inside a
scheduling run — is checked against it: the same offers retired, in the
same order, and the same ``retire`` facts journaled.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ScheduledFlexOffer, flex_offer
from repro.ledger import MemoryEventLog, OfferLedger, project
from repro.runtime import (
    AgeTrigger,
    AnyTrigger,
    BrpRuntimeService,
    CountTrigger,
    IngestConfig,
    SchedulingConfig,
    ServiceConfig,
    SimulatedDriver,
)

pytestmark = pytest.mark.pinned

CONFIG = ServiceConfig(
    ingest=IngestConfig(batch_size=4),
    scheduling=SchedulingConfig(
        horizon_slices=48,
        scheduler_passes=1,
        trigger=AnyTrigger([CountTrigger(10), AgeTrigger(5)]),
        min_run_interval_slices=1.0,
        seed=0,
    ),
)


def census(service):
    """``(executed, expired)`` a sweep at ``service.now`` must retire.

    The retirement conditions applied to every live offer, in live-pool
    order: a scheduled offer executes once its window closed or its
    committed start passed; an unscheduled one expires once its window
    closed or its assignment deadline came.
    """
    now = service.now
    executed, expired = [], []
    for entry in service._live.values():
        offer = entry.offer
        window_closed = offer.latest_start < now
        start = service.committed_start(offer.offer_id)
        if start is not None:
            if window_closed or start < now:
                executed.append(offer)
        elif window_closed or (
            offer.assignment_before is not None
            and offer.assignment_before <= now
        ):
            expired.append(offer)
    return executed, expired


class CensusChecked:
    """Checks every sweep of ``service`` against :func:`census`."""

    def __init__(self, service):
        self.service = service
        self.sweeps = 0
        self.retired = 0
        self._sweep = service._sweep_pool
        self._retire = service.ingest.retire
        self._record_retire = service.ledger.record_retire
        service._sweep_pool = self._checked_sweep
        service.ingest.retire = self._retire_spy
        service.ledger.record_retire = self._record_retire_spy
        self._lists: dict[str, list] = {}
        self._facts: list[list] = []

    def _retire_spy(self, offers, now, state):
        offers = list(offers)
        self._lists[state] = offers
        return self._retire(offers, now, state)

    def _record_retire_spy(self, retirements, *, at):
        self._facts.append(list(retirements))
        return self._record_retire(retirements, at=at)

    def _checked_sweep(self):
        executed, expired = census(self.service)
        self._lists, self._facts = {}, []
        count = self._sweep()
        assert [id(o) for o in self._lists["executed"]] == [id(o) for o in executed]
        assert [id(o) for o in self._lists["expired"]] == [id(o) for o in expired]
        facts = [(o.offer_id, "executed") for o in executed] + [
            (o.offer_id, "expired") for o in expired
        ]
        assert self._facts == ([facts] if facts else [])
        assert count == len(facts)
        self.sweeps += 1
        self.retired += count
        return count


def _draw_offer(data, now, offer_id=None):
    """An offer whose window may open before ``now`` (clipped admission),
    or close before it (rejection), with or without a deadline."""
    earliest = max(0, now + data.draw(st.integers(-3, 8), label="earliest"))
    latest = earliest + data.draw(st.integers(0, 6), label="flex")
    lo = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="lo")
    return flex_offer(
        [(lo, lo + 1.0)] * data.draw(st.integers(1, 3), label="duration"),
        earliest_start=earliest,
        latest_start=latest,
        offer_id=offer_id,
        assignment_before=data.draw(
            st.none() | st.integers(max(0, earliest - 4), latest),
            label="deadline",
        ),
    )


class TestDueTimeSweep:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_retires_what_the_census_retires(self, data):
        """Random submits, updates, withdrawals, local plans, remote
        commits (stale macros included, so some land on replaced
        versions) and sweeps at fractional instants."""
        service = BrpRuntimeService(CONFIG, ledger=OfferLedger(MemoryEventLog()))
        checked = CensusChecked(service)
        published = []  # every aggregate a plan committed, stale ones kept
        service.plan_listeners.append(
            lambda _result: published.extend(service.last_plan_originals)
        )
        operations = st.sampled_from(
            ["submit", "submit", "update", "withdraw", "plan", "remote",
             "sweep", "advance", "advance"]
        )
        for _ in range(data.draw(st.integers(5, 40), label="steps")):
            operation = data.draw(operations, label="operation")
            live = service.live_offer_ids()
            if operation == "submit":
                service.submit(_draw_offer(data, service.now_slice))
            elif operation == "update" and live:
                oid = data.draw(st.sampled_from(live), label="updated")
                service.update(_draw_offer(data, service.now_slice, oid))
            elif operation == "withdraw" and live:
                service.withdraw(data.draw(st.sampled_from(live), label="gone"))
            elif operation == "plan":
                service.maybe_schedule(force=True)
            elif operation == "remote" and published:
                macro = data.draw(st.sampled_from(published), label="macro")
                start = data.draw(
                    st.integers(macro.earliest_start, macro.latest_start),
                    label="start",
                )
                service.apply_remote_schedule(
                    ScheduledFlexOffer(macro, start, macro.profile.min_array)
                )
            elif operation == "sweep":
                service.sweep_expired()
            elif operation == "advance":
                step = data.draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 4.0]))
                service.driver.advance_to(service.now + step)
        service.driver.advance_to(service.now + 20.0)
        service.sweep_expired()
        assert checked.sweeps > 0
        assert service.live_offers == 0  # every window closed by now

    def test_deadline_before_the_window_opens_expires_the_offer(self):
        """An entry falls due at the earlier of its earliest start and its
        deadline: here the deadline, with the window not yet open."""
        service = BrpRuntimeService(CONFIG, ledger=OfferLedger(MemoryEventLog()))
        checked = CensusChecked(service)
        offer = flex_offer(
            [(1.0, 2.0)], earliest_start=10, latest_start=14, assignment_before=6
        )
        service.submit(offer)
        service.driver.advance_to(6.5)
        assert service.sweep_expired() == 1 and checked.retired == 1
        assert service.store.offer_state(offer.offer_id) == "expired"

    def test_projection_restored_start_before_the_clip_retires(self):
        """Projection re-admits a live offer at the current time, clipping
        its window past the start its plan committed; the restored start
        has passed, so the next sweep executes the offer — the due-time
        index keys it by the submitted earliest start, not the clipped one."""
        ledger = OfferLedger(MemoryEventLog())
        service = BrpRuntimeService(CONFIG, ledger=ledger)
        offer = flex_offer([(1.0, 2.0)] * 2, earliest_start=4, latest_start=40)
        service.submit(offer)
        service.maybe_schedule(force=True)
        start = service.committed_start(offer.offer_id)
        assert start is not None and start + 1 <= offer.latest_start

        restored = BrpRuntimeService(
            CONFIG,
            ledger=OfferLedger(MemoryEventLog()),
            driver=SimulatedDriver(start + 0.5),
        )
        checked = CensusChecked(restored)
        project(restored, list(ledger.events()))
        admitted = restored._live[offer.offer_id].offer
        assert admitted.earliest_start == start + 1  # clipped past the start
        assert restored.committed_start(offer.offer_id) == start
        assert restored.sweep_expired() == 1
        assert checked.retired == 1
        assert restored.store.offer_state(offer.offer_id) == "executed"
