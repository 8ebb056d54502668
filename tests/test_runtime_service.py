"""End-to-end tests of the streaming BRP service loop (tiny, deterministic).

The configs here follow the CP-SAT test discipline: fixed seeds, small rates
and short simulated windows so the whole file runs in seconds while still
driving every stage (ingest → incremental aggregation → triggered scheduling
→ disaggregation → expiry) through real traffic.
"""

import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from pins import pin
from repro.aggregation import AggregateUpdate, UpdateKind
from repro.aggregation.pipeline import aggregate_from_scratch
from repro.core import ScheduledFlexOffer, flex_offer
from repro.core.errors import (
    DataManagementError,
    InvalidFlexOfferError,
    ServiceError,
)
from repro.core.flexoffer import rebase_offer_ids
from repro.datamgmt import OFFER_STATES
from repro.ledger import (
    JsonlEventLog,
    MemoryEventLog,
    OfferLedger,
    offer_from_dict,
    offer_to_dict,
)
from repro.obs.tracing import Tracer
from repro.runtime.planning import PlanSession, _fits
from repro.scheduling.engine import OfferConstants
from repro.runtime import (
    AgeTrigger,
    AnyTrigger,
    BrpRuntimeService,
    CountTrigger,
    ImbalanceTrigger,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
)

TINY = ServiceConfig(
    ingest=IngestConfig(batch_size=8),
    scheduling=SchedulingConfig(
        horizon_slices=96,
        scheduler_passes=1,
        trigger=AnyTrigger(
            [CountTrigger(20), AgeTrigger(8), ImbalanceTrigger(400.0)]
        ),
        min_run_interval_slices=2.0,
        seed=0,
    ),
)


def _run(duration=48, rate=30, seed=11, config=TINY, **kwargs):
    service = BrpRuntimeService(config, **kwargs)
    generator = LoadGenerator(rate_per_hour=rate, seed=seed)
    report = service.run_stream(generator.stream(0, duration), duration)
    return service, report


def _offer(est, tf=4, duration=2, lo=1.0, hi=2.0, **kw):
    return flex_offer(
        [(lo, hi)] * duration, earliest_start=est, latest_start=est + tf, **kw
    )


class TestServiceLoop:
    def test_stream_flows_through_all_stages(self):
        service, report = _run()
        assert report.offers_accepted > 0
        assert report.offers_scheduled > 0
        assert report.aggregation_runs > 0
        assert report.scheduling_runs > 0
        assert report.offers_accepted == report.offers_submitted - report.offers_rejected
        # Every accepted offer ends up scheduled, expired, or still live.
        assert (
            report.offers_scheduled + report.offers_expired
            >= report.offers_accepted - service.live_offers
        )

    def test_incremental_pool_maintained(self):
        service, report = _run()
        # The pool's micro-offer count matches the live, unretired set.
        assert report.pool_offers == service.live_offers
        assert report.pool_aggregates == len(service.session.groups)
        assert report.pool_aggregates <= report.pool_offers

    def test_store_records_full_lifecycle(self):
        service, report = _run()
        counts = service.store.state_counts()
        assert counts["scheduled"] + counts["executed"] == report.offers_scheduled
        assert counts["expired"] == report.offers_expired
        tracked = sum(counts.values())
        assert tracked == report.offers_accepted

    def test_deterministic_for_fixed_seed(self):
        _, first = _run(duration=36, seed=5)
        _, second = _run(duration=36, seed=5)
        assert first.offers_accepted == second.offers_accepted
        assert first.offers_scheduled == second.offers_scheduled
        assert first.scheduling_runs == second.scheduling_runs
        assert first.trigger_fires == second.trigger_fires
        assert first.latency_slices_p95 == second.latency_slices_p95

    def test_different_seed_different_stream(self):
        _, first = _run(duration=36, seed=5)
        _, second = _run(duration=36, seed=6)
        assert first.offers_accepted != second.offers_accepted

    def test_latency_bounded_by_age_trigger(self):
        # With a horizon wide enough that every arriving offer's window fits
        # immediately, the age trigger (8 slices) plus the cooldown bounds
        # end-to-end latency; a narrow horizon instead defers far-out offers.
        config = ServiceConfig(
            ingest=IngestConfig(batch_size=8),
            scheduling=SchedulingConfig(
                horizon_slices=240,
                scheduler_passes=1,
                trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
                min_run_interval_slices=2.0,
            ),
        )
        service, report = _run(duration=96, config=config)
        assert 0 < report.latency_slices_p95 <= 16

    def test_report_text_mentions_key_metrics(self):
        _, report = _run(duration=24)
        text = report.as_text()
        assert "offers/sec" in text
        assert "p95" in text
        assert "scheduling runs" in text


JOURNAL_ID_BASE = 23 * 10**9
"""Above any id the suite has minted, so ids minted afterwards stay unique."""


def _replanning_digests(ledger=None):
    """(plans digest, ``scheduled``-facts digest) of one default-config run.

    Offer ids come from a process-global counter, so every id is replaced
    by the offer's arrival rank before it is hashed.
    """
    service = BrpRuntimeService(ServiceConfig(), ledger=ledger)
    costs = []
    service.plan_listeners.append(lambda result: costs.append(result.cost))
    rank = {}

    def arrivals():
        generator = LoadGenerator(rate_per_hour=200.0, seed=3)
        for at, offer in generator.stream(0.0, 24.0):
            rank[offer.offer_id] = len(rank)
            yield at, offer

    report = service.run_stream(arrivals(), 24.0)
    assert report.scheduling_runs >= 20 and len(costs) >= 20
    assert any(
        np.any(
            (group.view.aggregate.min_array < 0)
            & (group.view.aggregate.max_array > 0)
        )
        for group in service.session.groups.values()
    )  # the four-candidate kernel path planned something
    latency = service.metrics.histogram("latency.e2e_slices")
    plans = hashlib.sha256(struct.pack(f"<{len(costs)}d", *costs))
    for oid, start in sorted(
        (rank[oid], start) for oid, start in service.committed_starts().items()
    ):
        plans.update(struct.pack("<qq", oid, start))
    plans.update(struct.pack("<qdd", latency.count, latency.p50, latency.p95))
    facts = hashlib.sha256()
    if ledger is not None:
        for event in ledger.events():
            if event["kind"] == "scheduled":
                facts.update(
                    struct.pack(
                        "<qqd", rank[event["offer_id"]], event["start"], event["at"]
                    )
                )
    return plans.hexdigest(), facts.hexdigest()


@pytest.mark.pinned
class TestReplanningPinned:
    """Tier-1 pin for "plans bit-identical": a change to the planner, the
    kernel or the commit walk that moves one committed bit fails here."""

    def test_replanning_bits_pinned(self):
        plans, _ = _replanning_digests()
        pin("service.replanning.plans", plans)

    def test_replanning_bits_pinned_with_ledger(self):
        plans, facts = _replanning_digests(OfferLedger(MemoryEventLog()))
        pin("service.replanning.plans", plans)
        pin("service.replanning.scheduled_facts", facts)

    def test_replanning_journal_bytes_pinned(self, tmp_path):
        """The JSONL twin of the test above: not one journal byte moves."""
        rebase_offer_ids(JOURNAL_ID_BASE)
        log = JsonlEventLog(tmp_path / "led", fsync="never")
        plans, _ = _replanning_digests(OfferLedger(log))
        log.close()
        journal = hashlib.sha256()
        for segment in log.segments():
            journal.update(segment.read_bytes())
        pin("service.replanning.plans", plans)
        pin("service.replanning.journal", journal.hexdigest())


CHURN_ID_BASE = 24 * 10**9
"""Above :data:`JOURNAL_ID_BASE`'s band, so the two pins mint disjoint ids."""


def _churn_journal(directory):
    """Journal one short churn-shaped run; the ledger and its facts.

    Duplicated and reordered arrivals (a reordered offer can arrive after
    its earliest start and be admitted clipped), window-narrowing updates
    and withdrawals half a slice after chosen arrivals, one back-dated
    submission admitted clipped and then updated to no energy (a rejected
    replace), one submission that carries no energy and one that expires
    unplanned — every kind of fact a journaling node writes.
    """
    rebase_offer_ids(CHURN_ID_BASE)
    ledger = OfferLedger(JsonlEventLog(directory, fsync="never"))
    service = BrpRuntimeService(TINY, ledger=ledger)
    duration = 24.0
    arrivals = [
        (at, offer)
        for at, offer in LoadGenerator(rate_per_hour=40.0, seed=9).hostile_stream(
            0.0, duration, duplicate_rate=0.3, reorder_window=2.0, seed=9
        )
        if at < duration
    ]
    backdated = _offer(9, tf=6)
    empty = _offer(9, lo=0.0, hi=0.0, offer_id=backdated.offer_id)
    service.driver.schedule_at(11.0, lambda: service.update(empty))
    arrivals += [
        (5.25, _offer(200, tf=2, assignment_before=20)),  # beyond the horizon
        (10.25, backdated),
        (12.5, _offer(14, lo=0.0, hi=0.0)),
    ]
    arrivals.sort(key=lambda arrival: arrival[0])
    seen: set[int] = set()
    for at, offer in arrivals:
        if offer.offer_id in seen or at + 0.5 >= duration:
            continue
        seen.add(offer.offer_id)
        if len(seen) % 4 == 0 and offer.latest_start > offer.earliest_start:
            revised = offer.with_times(offer.earliest_start, offer.latest_start - 1)
            service.driver.schedule_at(
                at + 0.5, lambda revised=revised: service.update(revised)
            )
        elif len(seen) % 5 == 1:
            service.driver.schedule_at(
                at + 0.5, lambda oid=offer.offer_id: service.withdraw(oid)
            )
    service.run_stream(iter(arrivals), duration)
    ledger.close()
    return ledger, list(ledger.events())


@pytest.mark.pinned
class TestChurnJournalPinned:
    def test_churn_journal_bytes_pinned(self, tmp_path):
        """Not one byte of a duplicate, reverse, replace, withdraw,
        dead-letter, retire or clipped-admission fact moves."""
        ledger, events = _churn_journal(tmp_path / "led")
        kinds = {event["kind"] for event in events}
        assert {
            "submit", "duplicate", "reverse", "replace", "withdraw",
            "dead_letter", "scheduled", "retire",
        } <= kinds
        assert any(
            "accepted_offer" in event and event["accepted_offer"] != event["offer"]
            for event in events
        )  # a clipped admission
        journal = hashlib.sha256()
        for segment in ledger.log.segments():
            journal.update(segment.read_bytes())
        pin("service.churn.journal", journal.hexdigest())


STORE_ID_BASE = 25 * 10**9
"""Above :data:`CHURN_ID_BASE`'s band, so the three pins mint disjoint ids."""


def _store_facts_run():
    """One seeded stream with rejections, an update, a withdrawal and
    expiries; the service that ran it."""
    rebase_offer_ids(STORE_ID_BASE)
    service = BrpRuntimeService(TINY)
    duration = 36.0
    arrivals = list(LoadGenerator(rate_per_hour=40.0, seed=13).stream(0.0, duration))
    revised = _offer(30, tf=3)
    service.driver.schedule_at(
        7.5, lambda: service.update(_offer(30, tf=1, offer_id=revised.offer_id))
    )
    withdrawn = _offer(40, tf=4)
    service.driver.schedule_at(9.5, lambda: service.withdraw(withdrawn.offer_id))
    arrivals += [
        (3.25, revised),
        (4.25, withdrawn),
        (5.25, _offer(200, tf=2, assignment_before=20)),  # beyond the horizon
        (6.25, _offer(2, tf=3)),  # window already closed
        (8.25, _offer(14, lo=0.0, hi=0.0)),  # no energy
    ]
    arrivals.sort(key=lambda arrival: arrival[0])
    service.run_stream(iter(arrivals), duration)
    return service


@pytest.mark.pinned
class TestStoreFactsPinned:
    def test_store_facts_pinned(self):
        """Holding admission facts back moves no fact row, no row order and
        no per-offer state."""
        store = _store_facts_run().store
        counts = store.state_counts()
        assert all(
            counts[state] for state in ("rejected", "withdrawn", "expired", "executed")
        )
        facts = store.schema.facts["flexoffer_event"]
        digest = hashlib.sha256()
        for name in facts.columns:
            digest.update(name.encode())
            digest.update(facts.column(name).tobytes())
        for offer_id, state in store._offer_states.items():
            digest.update(struct.pack("<q", offer_id) + state.encode())
        pin("service.store_facts", digest.hexdigest())


CLIPPED_ID_BASE = 26 * 10**9
"""The clipped-admission stream's band, above :data:`STORE_ID_BASE`'s."""

#: Every reason :meth:`FlexOfferIngest.reject_reason` can give, as prefixes.
REJECT_REASONS = (
    "start window already closed",
    "assignment deadline already passed",
    "profile of 40 slices exceeds",
    "offer carries no energy",
)


def _clipped_admissions_run(*, write_through=False, traced=False):
    """A seeded stream in which some offers arrive after their earliest
    start (and are admitted clipped), every reject reason occurs, one live
    offer is updated and one withdrawn.

    ``write_through`` makes the store write each one-row fact as a
    one-offer :meth:`~LedmsStore.record_offer_events` batch, the oracle of
    ``test_held_back_facts_match_write_through``.  Returns the service, the
    store's subscriber calls and the reject reasons in arrival order.
    """
    rebase_offer_ids(CLIPPED_ID_BASE)
    service = BrpRuntimeService(
        replace(TINY, ingest=replace(TINY.ingest, max_duration_slices=32)),
        tracer=Tracer() if traced else None,
    )
    store = service.store
    if write_through:
        def record_offer_event(actor, offer, state, now):
            assert actor == offer.owner
            store.record_offer_events([offer], state, now)

        store.record_offer_event = record_offer_event
    calls = []
    store.subscribe(lambda *args: calls.append(args))
    reasons = []
    submit = service.ingest.submit

    def spied_submit(offer, now):
        accepted, reason = submit(offer, now)
        if reason is not None:
            reasons.append(reason)
        return accepted, reason

    service.ingest.submit = spied_submit

    duration = 36.0
    arrivals = list(LoadGenerator(rate_per_hour=40.0, seed=17).stream(0.0, duration))
    rng = np.random.default_rng(17)
    for _ in range(16):
        at = float(rng.uniform(2.0, 32.0))
        est = int(at) - int(rng.integers(1, 3))
        late = flex_offer(
            [(0.5, 1.5)] * int(rng.integers(1, 6)),
            earliest_start=est,
            latest_start=est + int(rng.integers(3, 9)),
            owner=f"late-{int(rng.integers(0, 3))}",
        )
        arrivals.append((at, late))
    revised = _offer(30, tf=3)
    service.driver.schedule_at(
        7.5, lambda: service.update(_offer(30, tf=1, offer_id=revised.offer_id))
    )
    withdrawn = _offer(40, tf=4)
    service.driver.schedule_at(9.5, lambda: service.withdraw(withdrawn.offer_id))
    arrivals += [
        (3.25, revised),
        (4.25, withdrawn),
        (6.25, _offer(2, tf=3)),  # window already closed
        (7.25, _offer(5, tf=10, assignment_before=6)),  # deadline passed
        (8.25, _offer(14, lo=0.0, hi=0.0)),  # no energy
        (10.25, _offer(20, duration=40)),  # over the length limit
    ]
    arrivals.sort(key=lambda arrival: arrival[0])
    service.run_stream(iter(arrivals), duration)
    return service, calls, reasons


def _fact_bytes(store):
    facts = store.schema.facts["flexoffer_event"]
    return {name: facts.column(name).tobytes() for name in facts.columns}


class TestClippedAdmissionFacts:
    def test_held_back_facts_match_write_through_at_service_level(self):
        held, held_calls, reasons = _clipped_admissions_run()
        through, through_calls, through_reasons = _clipped_admissions_run(
            write_through=True
        )
        # The stream does what it is meant to: every reject reason, and
        # accepted rows whose time flexibility the clock clipped.
        assert reasons == through_reasons
        for prefix in REJECT_REASONS:
            assert any(reason.startswith(prefix) for reason in reasons), prefix
        facts = held.store.schema.facts["flexoffer_event"]
        submitted = OFFER_STATES.index("submitted")
        accepted = OFFER_STATES.index("accepted")
        flex_at = {}
        clipped = 0
        for key, state, flex in zip(
            facts.column("offer_key"),
            facts.column("offer_state_id"),
            facts.column("time_flexibility"),
        ):
            if state == submitted:
                flex_at[key] = flex
            elif state == accepted and flex < flex_at[key]:
                clipped += 1
        assert clipped >= 5
        assert held.store.state_counts()["withdrawn"] >= 1

        assert _fact_bytes(held.store) == _fact_bytes(through.store)
        for name, dimension in held.store.schema.dimensions.items():
            assert list(dimension) == list(through.store.schema.dimensions[name])
        assert list(held.store._offer_states.items()) == list(
            through.store._offer_states.items()
        )
        assert held_calls == through_calls

    def test_tracing_leaves_the_same_fact_bytes(self):
        untraced, untraced_calls, _ = _clipped_admissions_run()
        traced, traced_calls, _ = _clipped_admissions_run(traced=True)
        assert traced.tracer.enabled
        assert _fact_bytes(traced.store) == _fact_bytes(untraced.store)
        assert traced_calls == untraced_calls


class TestSchedulingIntegration:
    def test_warm_start_used_on_rescheduling(self):
        service, _ = _run(duration=48)
        assert service.metrics.counter("schedule.warm_started").value > 0

    def test_scheduled_members_respect_their_bounds(self):
        service, _ = _run(duration=48)
        schedule = service.last_schedule
        assert schedule is not None
        # Validity of member assignments is enforced by ScheduledFlexOffer's
        # own invariants during disaggregation; re-check the aggregates here.
        for assignment in schedule:
            offer = assignment.offer
            assert offer.earliest_start <= assignment.start <= offer.latest_start
            for energy, constraint in zip(assignment.energies, offer.profile):
                assert constraint.contains(energy)

    def test_manual_submit_and_forced_run(self):
        service = BrpRuntimeService(TINY)
        for i in range(6):
            assert service.submit(_offer(10 + i, tf=6))
        service.run_aggregation()
        result = service.maybe_schedule(force=True)
        assert result is not None
        assert len(service.committed_starts()) == 6

    def test_past_earliest_start_still_schedulable(self):
        # An offer whose earliest start passed while it waited must not be
        # stranded: the window is clipped to "now" and it still schedules.
        service = BrpRuntimeService(TINY)
        service.submit(_offer(2, tf=20))
        service.run_aggregation()
        service.driver.advance_to(10)  # earliest_start=2 is now past
        result = service.maybe_schedule(force=True)
        assert result is not None
        assert len(service.committed_starts()) == 1
        schedule = service.last_schedule
        assert schedule.assignments[0].start >= 10

    def test_empty_pool_schedule_is_counted_not_run(self):
        service = BrpRuntimeService(TINY)
        result = service.maybe_schedule(force=True)
        assert result is None
        assert service.metrics.counter("schedule.empty_runs").value == 1


class TestNonFiniteBounds:
    @pytest.mark.parametrize(
        "lo, hi", [(float("nan"), 1.0), (0.0, float("inf"))], ids=["nan", "inf"]
    )
    def test_a_poisoned_offer_never_reaches_the_service(self, lo, hi):
        """A non-finite bound used to be admitted, and every scheduling run
        after it raised; neither the constructor nor a journaled record can
        now hand the service such an offer, and planning goes on."""
        service = BrpRuntimeService(TINY, ledger=OfferLedger(MemoryEventLog()))
        with pytest.raises(InvalidFlexOfferError, match="finite"):
            _offer(4, tf=8, lo=lo, hi=hi)
        record = offer_to_dict(_offer(4, tf=8))
        record["bounds"] = [[lo, hi]] * 2
        with pytest.raises(DataManagementError, match="malformed offer record"):
            offer_from_dict(json.loads(json.dumps(record)))
        good = _offer(4, tf=8)
        assert service.submit(good)
        assert service.maybe_schedule(force=True) is not None
        assert service.committed_start(good.offer_id) is not None


class TestUpdateRidesTheNextFlush:
    """An update queues its replace in the ingest batch like an arrival:
    it forces no flush, and the next flush holds the revision in place of
    the member, with the bounds a from-scratch aggregation gives."""

    CONFIG = ServiceConfig(
        ingest=IngestConfig(batch_size=8),
        scheduling=SchedulingConfig(
            horizon_slices=96,
            scheduler_passes=1,
            trigger=CountTrigger(10**9),
            seed=0,
        ),
    )

    @pytest.mark.parametrize("journaled", [False, True])
    def test_update_costs_no_flush_and_the_next_flush_holds_the_revision(
        self, journaled
    ):
        ledger = OfferLedger(MemoryEventLog()) if journaled else None
        service = BrpRuntimeService(self.CONFIG, ledger=ledger)
        offers = [
            service.submit(_offer(20, tf=6, lo=1.0 + k, hi=2.0 + k))
            for k in range(3)
        ]
        service.run_aggregation()
        (gid,) = service.session.groups
        flushes = service.metrics.counter("ingest.flushes")
        before = flushes.value

        target = offers[1]
        # One slice narrower: the same grid cell under the runtime's tolerances.
        revised = target.with_times(target.earliest_start, target.latest_start - 1)
        assert service.update(revised).offer is revised
        assert flushes.value == before
        assert service.session.groups[gid].view.members == tuple(offers)

        service.run_aggregation()
        assert flushes.value == before + 1
        assert list(service.session.groups) == [gid]
        view = service.session.groups[gid].view
        live = [offers[0], offers[2], revised]
        assert view.members == tuple(live) and view.joined == (revised,)
        assert view.members[-1] is revised
        (scratch,) = aggregate_from_scratch(
            live, service.ingest.pipeline.parameters
        )
        assert (view.earliest_start, view.latest_start) == (
            scratch.earliest_start,
            scratch.latest_start,
        )
        assert view.profile.min_array.tolist() == scratch.profile.min_array.tolist()
        assert view.profile.max_array.tolist() == scratch.profile.max_array.tolist()
        # The revision plans and commits like any newcomer.
        service.maybe_schedule(force=True)
        start = service.committed_start(revised.offer_id)
        assert revised.earliest_start <= start <= revised.latest_start


class TestFoldOncePerPlan:
    """With no batch cap (the default) a node folds its ingest batch only
    where the service already flushes: in a planning run, at most once, in
    an expiry sweep that retired offers, and in the drain.  No arrival
    folds, and a plan leaves nothing waiting."""

    def test_default_config_folds_once_per_plan(self):
        service = BrpRuntimeService(ServiceConfig())
        assert service.config.ingest.batch_size is None
        contexts: list[str] = []
        folds: list[tuple[str, ...]] = []  # where each fold happened
        plans: list[tuple[int, int]] = []  # (folds it made, updates left)
        retiring_sweeps = 0  # outside a plan or the drain

        def within(label, method):
            def wrapped(*args):
                contexts.append(label)
                try:
                    return method(*args)
                finally:
                    contexts.pop()

            return wrapped

        flush, sweep, plan = (
            service.ingest.flush, service.sweep_expired, service.run_scheduling
        )

        def recording_flush(now):
            if service.ingest.pending_updates:
                folds.append(tuple(contexts))
            return flush(now)

        def sweep_expired():
            nonlocal retiring_sweeps
            retired = sweep()
            if retired and not {"plan", "drain"} & set(contexts):
                retiring_sweeps += 1
            return retired

        def run_scheduling():
            before = len(folds)
            try:
                return within("plan", plan)()
            finally:
                plans.append((len(folds) - before, service.ingest.pending_updates))

        service.ingest.flush = recording_flush
        service.sweep_expired = within("sweep", sweep_expired)
        service.drain = within("drain", service.drain)
        service.run_scheduling = run_scheduling
        generator = LoadGenerator(rate_per_hour=400.0, seed=42)
        service.run_stream(generator.stream(0, 48), 48)

        flushes = service.metrics.counter("ingest.flushes").value
        runs = service.metrics.counter("schedule.runs").value
        assert len(folds) == flushes > 0 and len(plans) == runs > 0
        # No arrival folds (under a 64 cap, arrivals on this stream do):
        # each fold is a plan's, the drain's or a retiring sweep's.
        assert all(folds)
        assert all(made <= 1 and left == 0 for made, left in plans)
        outside = [where for where in folds if not {"plan", "drain"} & set(where)]
        assert all(where == ("sweep",) for where in outside)
        assert len(outside) == retiring_sweeps
        assert flushes <= runs + retiring_sweeps + 1  # + the drain's


class TestArrivalBuildsNoSubmitResult:
    """The arrival loop calls :meth:`BrpRuntimeService.submit`, which builds
    a :class:`~repro.runtime.SubmitResult` only when a ledger records the
    outcome (to journal it and to deflect duplicates)."""

    def _counted_run(self, monkeypatch, **kwargs):
        from repro.runtime import service as service_module

        real = service_module.SubmitResult
        built = []

        def counting(*args, **kw):
            result = real(*args, **kw)
            built.append(result)
            return result

        monkeypatch.setattr(service_module, "SubmitResult", counting)
        service, report = _run(duration=24, **kwargs)
        return service, report, built

    def test_without_a_ledger_no_arrival_builds_one(self, monkeypatch):
        service, report, built = self._counted_run(monkeypatch)
        assert report.offers_submitted > 10 and report.offers_accepted > 0
        assert built == []

    def test_a_recording_ledger_builds_one_per_submission(self, monkeypatch):
        ledger = OfferLedger(MemoryEventLog())
        service, report, built = self._counted_run(monkeypatch, ledger=ledger)
        assert len(built) == report.offers_submitted > 10
        assert sum(result.accepted for result in built) == report.offers_accepted

    def test_both_front_doors_leave_the_same_run(self):
        """Admitting through :meth:`submit` (no result built) and through
        :meth:`submit_fact` leaves the same books, plans and store."""
        plain, plain_report = _run(duration=24)
        facts = BrpRuntimeService(TINY)
        facts.submit = lambda offer, sid=None: facts.submit_fact(offer, sid).offer
        generator = LoadGenerator(rate_per_hour=30, seed=11)
        facts_report = facts.run_stream(generator.stream(0, 24), 24)
        for field in ("offers_submitted", "offers_accepted", "offers_rejected",
                      "scheduling_runs", "offers_scheduled"):
            assert getattr(plain_report, field) == getattr(facts_report, field)
        assert plain.store.state_counts() == facts.store.state_counts()
        assert list(plain.committed_starts().values()) == list(
            facts.committed_starts().values()
        )


class TestStaleRemoteSchedule:
    def test_remote_schedule_skips_a_member_edited_since_publication(self):
        """A macro published before an ``update`` holds the *previous*
        version of the member; committing it would place the live offer
        outside its (now narrower) start window."""
        ledger = OfferLedger(MemoryEventLog())
        service = BrpRuntimeService(TINY, ledger=ledger)
        offer = _offer(10, tf=10)
        oid = offer.offer_id
        service.submit(offer)
        service.maybe_schedule(force=True)
        (macro,) = service.last_plan_originals
        assert macro.latest_start == 20 and service.committed_start(oid) is not None

        service.update(_offer(10, tf=2, offer_id=oid))

        def scheduled_facts():
            return [e for e in ledger.events() if e["kind"] == "scheduled"]

        facts = scheduled_facts()
        stale = ScheduledFlexOffer(macro, 20, macro.profile.min_array)
        assert service.apply_remote_schedule(stale) == 0
        assert service.committed_start(oid) is None
        assert not service.is_scheduled(oid)
        assert scheduled_facts() == facts

        service.maybe_schedule(force=True)
        assert 10 <= service.committed_start(oid) <= 12
        facts = scheduled_facts()
        assert service.apply_remote_schedule(stale) == 0
        assert 10 <= service.committed_start(oid) <= 12
        assert scheduled_facts() == facts
        # The macro built from the live version still commits.
        (fresh,) = service.last_plan_originals
        current = ScheduledFlexOffer(fresh, 12, fresh.profile.min_array)
        assert service.apply_remote_schedule(current) == 1
        assert service.committed_start(oid) == 12


class TestExpiry:
    def test_unscheduled_offers_expire(self):
        config = ServiceConfig(
            ingest=IngestConfig(batch_size=8),
            scheduling=SchedulingConfig(
                horizon_slices=96,
                scheduler_passes=1,
                # Triggers that never fire: offers age out unscheduled.
                trigger=CountTrigger(10_000),
                min_run_interval_slices=2.0,
            ),
        )
        service = BrpRuntimeService(config)
        service.submit(_offer(2, tf=2))
        service.driver.advance_to(10)
        retired = service.sweep_expired()
        assert retired == 1
        report = service.report(duration_slices=10, wall_seconds=0.1)
        assert report.offers_expired == 1
        assert report.pool_offers == 0

    def test_scheduled_offers_execute(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(4, tf=2))
        service.run_aggregation()
        service.maybe_schedule(force=True)
        service.driver.advance_to(20)
        service.sweep_expired()
        counts = service.store.state_counts()
        assert counts["executed"] == 1
        assert service.live_offers == 0

    def test_begun_offer_not_replanned(self):
        # Once an offer's committed start passes, re-planning must not move
        # it: the next scheduling run retires it as executed first.
        service = BrpRuntimeService(TINY)
        service.submit(_offer(4, tf=20))
        service.run_aggregation()
        service.maybe_schedule(force=True)
        ((oid, committed),) = service.committed_starts().items()
        service.driver.advance_to(committed + 1)
        result = service.maybe_schedule(force=True)
        assert result is None  # pool emptied by the pre-run sweep
        assert service.store.offer_state(oid) == "executed"
        assert service.live_offers == 0

    def test_scheduled_set_pruned_but_total_kept(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(4, tf=2))
        service.run_aggregation()
        service.maybe_schedule(force=True)
        assert len(service.committed_starts()) == 1
        service.driver.advance_to(20)
        service.sweep_expired()
        # The live tracking set is bounded; the report total is cumulative.
        assert len(service.committed_starts()) == 0
        report = service.report(duration_slices=20, wall_seconds=0.1)
        assert report.offers_scheduled == 1

    def test_expiry_before_flush_keeps_terminal_state(self):
        # An offer retired while its insert still sits in the unflushed
        # batch must stay "expired" — the flush may not regress it to
        # "aggregated" (and the pipeline must not crash on the
        # insert+delete pair cancelling within one run).
        config = ServiceConfig(
            ingest=IngestConfig(batch_size=1000),  # never auto-flush
            scheduling=SchedulingConfig(
                horizon_slices=96,
                scheduler_passes=1,
                trigger=CountTrigger(10_000),
            ),
        )
        service = BrpRuntimeService(config)
        service.submit(_offer(2, tf=2))
        (offer_id,) = service.live_offer_ids()
        service.driver.advance_to(10)
        service.sweep_expired()
        service.run_aggregation()
        assert service.store.offer_state(offer_id) == "expired"
        assert service.ingest.pipeline.input_count == 0

    def test_withdrawn_offers_leave_the_due_index_under_churn(self):
        """Churn (a TSO's macros come and go) cannot grow the sweep's due
        index past the live pool, and the survivors still retire."""
        service = BrpRuntimeService(TINY)
        for _ in range(10):
            admitted = service.submit_many([_offer(40) for _ in range(30)])
            service.withdraw_many(result.offer_id for result in admitted[1:])
        assert service.live_offers == 10
        assert len(service._due_heap) <= 2 * service.live_offers + 64
        service.driver.advance_to(60)
        assert service.sweep_expired() == 10


class TestAssignmentDeadline:
    def test_aggregate_past_assignment_deadline_not_scheduled(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(10, tf=20, assignment_before=12))
        service.run_aggregation()
        service.driver.advance_to(14)  # deadline passed, window open
        result = service.maybe_schedule(force=True)
        assert result is None  # only ineligible work → empty run
        assert len(service.committed_starts()) == 0

    def test_deadline_passed_offer_expires_despite_open_window(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(10, tf=20, assignment_before=12))
        service.run_aggregation()
        service.driver.advance_to(14)
        service.sweep_expired()
        counts = service.store.state_counts()
        assert counts["expired"] == 1
        assert service.live_offers == 0


class TestStrandedMembers:
    """``schedule.stranded_members`` counts the members a planning run
    cannot place because their group, not they, stopped being plannable."""

    def test_group_closing_between_two_runs_counts_its_open_member(self):
        service = BrpRuntimeService(
            ServiceConfig(
                scheduling=SchedulingConfig(
                    horizon_slices=2,
                    scheduler_passes=1,
                    trigger=CountTrigger(10_000),
                )
            )
        )
        # One start-aligned group: earliest 2, tightest flexibility 2, so
        # its window is [2, 4], while b's own window runs to 5 and a's to 8
        # (a's deadline is 5).
        a = _offer(2, tf=6, assignment_before=5)
        b = _offer(3, tf=2)
        service.submit_many([a, b])
        service.driver.advance_to(1.0)
        # The run over [1, 3) drops the group for the horizon: nothing is
        # stranded, the group is still plannable.
        assert service.maybe_schedule(force=True) is None
        assert len(service.session.groups) == 1
        stranded = service.metrics.counter("schedule.stranded_members")
        assert stranded.value == 0
        service.driver.advance_to(4.5)  # the next run starts at slice 5
        assert service.maybe_schedule(force=True) is None
        # Both are live and unscheduled; only b is still plannable itself.
        assert service.live_offers == 2
        assert service.committed_starts() == {}
        assert stranded.value == 1

    def test_seeded_stream_strands_nothing(self):
        service, report = _run()
        assert report.scheduling_runs > 0
        assert service.metrics.as_dict()["schedule.stranded_members"] == 0


class TestRunStreamValidation:
    def test_zero_report_every_rejected(self):
        service = BrpRuntimeService(TINY)
        with pytest.raises(ServiceError):
            service.run_stream([], 10, report_every=0)

    def test_sequential_windows_do_not_lose_boundary_arrival(self):
        # Discovering the window closed requires pulling one arrival beyond
        # it; a follow-up run_stream on the same iterator must replay that
        # lookahead instead of dropping it.
        def arrivals():
            yield 1.0, _offer(10, tf=6)
            yield 15.0, _offer(25, tf=6)
            yield 21.0, _offer(30, tf=6)

        service = BrpRuntimeService(TINY)
        stream = arrivals()
        first = service.run_stream(stream, 10)
        assert first.offers_accepted == 1
        second = service.run_stream(stream, 10)  # window [10, 20)
        assert second.offers_accepted == 2
        third = service.run_stream(stream, 10)  # window [20, 30)
        assert third.offers_accepted == 3

    def test_lazy_arrival_consumption(self):
        # run_stream must pull arrivals one at a time, not drain the
        # iterator up front.
        pulled = []

        def arrivals():
            for i in range(5):
                pulled.append(i)
                yield float(i), _offer(10 + i, tf=6)

        service = BrpRuntimeService(TINY)
        iterator = arrivals()
        service.driver.schedule_at(0.5, lambda: pulled.append("mid"))

        # Prime the stream but stop the clock after the first arrival: only
        # the consumed prefix may have been pulled.
        report = service.run_stream(iterator, 2.5)
        assert report.offers_accepted == 3  # t=0, 1, 2 inside the window
        assert pulled[0] == 0
        assert "mid" in pulled
        # The generator was never drained past the first out-of-window item.
        assert pulled.index("mid") < len(pulled) - 1


class TestConfigValidation:
    def test_invalid_config_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig.from_dict({"ingest": {"batch_size": 0}})
        with pytest.raises(ServiceError):
            ServiceConfig.from_dict({"scheduling": {"horizon_slices": -1}})
        with pytest.raises(ServiceError):
            ServiceConfig.from_dict({"scheduling": {"scheduler_passes": 0}})


class TestNetForecastWindow:
    def test_provided_forecast_is_windowed(self):
        from repro.core.timeseries import TimeSeries
        from repro.runtime.planning import net_forecast_window

        series = TimeSeries(0, np.arange(200, dtype=float))
        window = net_forecast_window(series, 10, 106)
        assert window.start == 10
        assert window.values[0] == 10.0
        # Beyond the provided series the forecast falls back to zero.
        window = net_forecast_window(series, 150, 246)
        assert window.values[49] == 199.0
        assert window.values[50] == 0.0
        # No forecast at all: all-zero window.
        assert net_forecast_window(None, 0, 8).values.sum() == 0.0


class TestPlanSession:
    def test_nothing_kept_for_an_all_new_pool(self):
        session = PlanSession()
        session.absorb(AggregateUpdate(UpdateKind.CREATED, "a", _offer(2)))
        assert session.plan_window(0, 96) is not None
        assert [
            session.metrics.counter(name).value
            for name in (
                "schedule.warm_started",
                "delta.reused_placements",
                "delta.replaced_placements",
            )
        ] == [0, 0, 1]
        assert session.groups["a"].placement is not None and not session.dirty

    def test_a_dirty_group_is_re_placed(self):
        session = PlanSession()
        session.absorb(AggregateUpdate(UpdateKind.CREATED, "a", _offer(2)))
        reused = session.metrics.counter("delta.reused_placements")
        session.plan_window(0, 96)
        session.plan_window(0, 96)
        assert reused.value == 1
        session.dirty.add("a")
        session.plan_window(0, 96)
        assert reused.value == 1

    def test_kept_placement_needs_its_duration(self):
        shrunk = OfferConstants.from_offer(_offer(2, duration=2), 0)
        assert not _fits(None, shrunk)
        assert not _fits((3, np.array([1.5, 1.5, 1.5])), shrunk)
        assert _fits((3, np.array([1.5, 1.5])), shrunk)

    def test_kept_placement_must_fit_window_and_bounds(self):
        consts = OfferConstants.from_offer(_offer(6, tf=4, lo=1.0, hi=2.0), 0)
        for start, energies in (
            (5, [1.0, 1.0]),  # before the window
            (11, [1.0, 1.0]),  # after it
            (6, [1.0, 2.5]),  # above the bounds
            (10, [0.5, 2.0]),  # below them
        ):
            assert not _fits((start, np.array(energies)), consts)
        for start in (6, 10):
            assert _fits((start, np.array([1.0, 2.0])), consts)

    def test_absorb_accumulates_dirt_and_evicts_deleted(self):
        session = PlanSession()
        for gid in ("gone", "kept"):
            session.absorb(AggregateUpdate(UpdateKind.CREATED, gid, _offer(2)))
        session.plan_window(0, 96)
        kept = session.groups["kept"]
        view, consts = kept.view, kept.consts
        for kind, gid in (
            (UpdateKind.CREATED, "new"),
            (UpdateKind.MODIFIED, "kept"),
            (UpdateKind.DELETED, "gone"),
        ):
            assert (session.absorb(AggregateUpdate(kind, gid, view)) is None) == (
                gid == "gone"
            )
        assert session.dirty == {"new", "kept", "gone"}
        assert set(session.groups) == {"kept", "new"}
        # Named again with the same view: the record keeps what it carried.
        assert session.groups["kept"] is kept and kept.consts is consts
        assert kept.placement is not None
        # A new view: the constants go, and the commitment no longer stands.
        kept.plan = 1
        session.absorb(AggregateUpdate(UpdateKind.MODIFIED, "kept", _offer(3)))
        assert (kept.consts, kept.plan) == (None, -1)
        assert kept.placement is not None


class TestPlanWindowAtBothTiers:
    """One planning pass, two callers: a BRP's and a TSO's session agree."""

    START, END = 10, 106

    def _tiers(self):
        from repro.core.timeseries import TimeSeries
        from repro.runtime import TsoConfig

        forecast = TimeSeries(0, np.linspace(-6.0, 6.0, 80))
        brp = BrpRuntimeService(
            ServiceConfig.from_dict(
                {"scheduling": {"scheduler_passes": 1, "seed": 3}}
            ),
            net_forecast=forecast,
        )
        tso = BrpRuntimeService(
            TsoConfig.from_dict(
                {"scheduling": {"scheduler_passes": 1, "seed": 3}}
            ),
            net_forecast=forecast,
            name="tso",
        )
        problems = {}
        for tier in (brp, tso):
            # Rebind plan on the instance, the way the e2e harness's span
            # recorder does: plan_window must reach it through self.plan.
            seen = problems[tier.name] = []
            inner = tier.session.plan

            def spy(problem, *args, _inner=inner, _seen=seen, **kwargs):
                _seen.append(problem)
                return _inner(problem, *args, **kwargs)

            tier.session.plan = spy
        return brp, tso, problems

    def _candidates(self):
        """One single-offer group per window, as the packed engine's views:
        what a flush hands a session's book."""
        from repro.aggregation import (
            AggregationParameters,
            PackedAggregationPipeline,
            PackedView,
        )

        windows = [(4, 30), (12, 40), (20, 60), (2, 8), (50, 90)]
        candidates = []
        for i, (est, lst) in enumerate(windows):
            pipeline = PackedAggregationPipeline(AggregationParameters(0, 0))
            pipeline.submit_inserts([_offer(est, tf=lst - est, duration=3)])
            (update,) = pipeline.run()
            assert isinstance(update.view, PackedView)
            assert (update.view.earliest_start, update.view.latest_start) == (
                est,
                lst,
            )
            candidates.append((f"k{i}", update.view))
        return candidates

    def test_same_candidates_same_problem_same_plan(self):
        brp, tso, problems = self._tiers()
        candidates = self._candidates()
        clipped = candidates[0][1].aggregate  # earliest_start 4 < START, open
        closed = candidates[3][1].aggregate  # latest_start 8 < START
        for tier in (brp, tso):
            for key, view in candidates:
                tier.session.absorb(AggregateUpdate(UpdateKind.CREATED, key, view))
        # Cold run, then an unchanged re-run that keeps every placement.
        for _ in range(2):
            ours, theirs = (
                tier.session.plan_window(self.START, self.END)
                for tier in (brp, tso)
            )
            for plan in (ours, theirs):
                assert [g.key for g in plan.groups] == ["k0", "k1", "k2", "k4"]
                assert closed not in plan.originals
                # Scheduled on the clipped window, returned unclipped.
                assert plan.originals[0] is clipped
                assert clipped.earliest_start < self.START
                scheduled = plan.schedule.assignments[0].offer
                assert scheduled.earliest_start == self.START
            assert ours.result.cost == theirs.result.cost
            assert [(a.start, a.energies) for a in ours.schedule] == [
                (a.start, a.energies) for a in theirs.schedule
            ]
        # Nothing eligible: no plan, and the planner is never reached.
        for tier in (brp, tso):
            assert tier.session.plan_window(500, 596) is None
        assert len(problems[brp.name]) == len(problems[tso.name]) == 2
        for ours, theirs in zip(problems[brp.name], problems[tso.name]):
            assert ours.net_forecast.start == theirs.net_forecast.start
            assert ours.net_forecast.start == self.START
            assert ours.market is theirs.market  # one cached flat market
            for field in ("shortage_penalty", "surplus_penalty"):
                assert np.array_equal(
                    getattr(ours, field), getattr(theirs, field)
                )
            assert ours.net_forecast.values.any()
            assert np.array_equal(
                ours.net_forecast.values, theirs.net_forecast.values
            )

        counters, tso_counters = (
            {
                name: instrument.value
                for name, instrument in tier.metrics.items()
                if name.startswith("delta.")
            }
            for tier in (brp, tso)
        )
        assert counters == tso_counters == {
            "delta.reused_placements": 4,
            "delta.replaced_placements": 4,
        }


class TestKeptPlacementsService:
    def _config(self):
        return ServiceConfig(
            ingest=IngestConfig(batch_size=8),
            scheduling=SchedulingConfig(
                scheduler_passes=1,
                trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
                min_run_interval_slices=0.0,
                seed=0,
            ),
        )

    @staticmethod
    def _counts(service):
        return [
            service.metrics.counter(name).value
            for name in (
                "schedule.warm_started",
                "delta.reused_placements",
                "delta.replaced_placements",
            )
        ]

    def test_clean_rerun_reuses_every_group(self):
        service = BrpRuntimeService(self._config())
        # Spread starts widely so aggregation builds several groups.
        for est in (8, 16, 24, 32, 40, 48, 56, 64):
            for duration in (1, 3):
                assert service.submit(_offer(est, tf=6, duration=duration))
        service.run_aggregation()
        first = service.maybe_schedule(force=True)
        assert first is not None
        n_groups = len(service.session.groups)
        assert n_groups > 1
        # A first run places everything and keeps nothing.
        assert self._counts(service) == [0, 0, n_groups]
        # Nothing changed since: the re-run keeps every placement.
        second = service.maybe_schedule(force=True)
        assert self._counts(service) == [1, n_groups, n_groups]
        assert np.array_equal(second.solution.starts, first.solution.starts)
        assert second.cost == first.cost
        # One new offer dirties only the group it lands in.
        assert service.submit(_offer(70, tf=6))
        service.run_aggregation()
        assert service.maybe_schedule(force=True) is not None
        warm, reused, replaced = self._counts(service)
        assert warm == 2
        assert reused >= 2 * n_groups - 1
        assert n_groups + 1 <= replaced <= n_groups + 2

    def test_streamed_run_matches_invariants(self):
        service, report = _run(duration=48, config=self._config())
        assert report.offers_accepted > 0
        warm, reused, replaced = self._counts(service)
        planned = service.metrics.counter("schedule.runs").value - (
            service.metrics.counter("schedule.empty_runs").value
        )
        assert 0 < warm < planned and reused > 0
        assert reused + replaced >= planned
        schedule = service.last_schedule
        assert schedule is not None
        for assignment in schedule:
            offer = assignment.offer
            assert offer.earliest_start <= assignment.start <= offer.latest_start
            for energy, constraint in zip(assignment.energies, offer.profile):
                assert constraint.contains(energy)

    def test_schedule_run_seconds_alias_tracks_stage_timer(self):
        service, _ = _run(duration=48, config=self._config())
        runs = service.metrics.histogram("schedule.run_seconds").count
        stage = service.metrics.histogram(
            "stage.wall_seconds", labels={"brp": service.name, "stage": "schedule"}
        )
        assert runs > 0 and stage.count == runs
