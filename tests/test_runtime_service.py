"""End-to-end tests of the streaming BRP service loop (tiny, deterministic).

The configs here follow the CP-SAT test discipline: fixed seeds, small rates
and short simulated windows so the whole file runs in seconds while still
driving every stage (ingest → incremental aggregation → triggered scheduling
→ disaggregation → expiry) through real traffic.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.aggregation import DirtySet
from repro.core import ScheduledFlexOffer, flex_offer
from repro.core.errors import ServiceError
from repro.core.flexoffer import rebase_offer_ids
from repro.ledger import JsonlEventLog, MemoryEventLog, OfferLedger
from repro.runtime.planning import PlanSession
from repro.runtime import (
    AgeTrigger,
    ServiceConfig,
    AnyTrigger,
    BrpRuntimeService,
    CountTrigger,
    ImbalanceTrigger,
    LoadGenerator,
)

TINY = ServiceConfig.from_flat(
    batch_size=8,
    horizon_slices=96,
    scheduler_passes=1,
    trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8), ImbalanceTrigger(400.0)]),
    min_run_interval_slices=2.0,
    seed=0,
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
        assert report.pool_aggregates == len(service.pool)
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
        config = ServiceConfig.from_flat(
            batch_size=8,
            horizon_slices=240,
            scheduler_passes=1,
            trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
            min_run_interval_slices=2.0,
        )
        service, report = _run(duration=96, config=config)
        assert 0 < report.latency_slices_p95 <= 16

    def test_report_text_mentions_key_metrics(self):
        _, report = _run(duration=24)
        text = report.as_text()
        assert "offers/sec" in text
        assert "p95" in text
        assert "scheduling runs" in text


REPLANNING_SHA256 = (
    "1c38d55a8357a772feff7afb994aef0669f79600f1ecb30bdcf500b2ba2584e9"
)
"""Plan costs, committed starts and commit latencies of
:func:`_replanning_digests`' stream."""

REPLANNING_SCHEDULED_FACTS_SHA256 = (
    "b51408f3c2576e6a57031321b3971625da75845057e88e26a4a3cd41ab57551f"
)
"""The ``scheduled`` facts the same stream journals, in order."""

REPLANNING_JOURNAL_SHA256 = (
    "ec3cbc6f8e321e1d8afc2f08d857934e52ee6ddef4d0c5e817687d7eee7fc8ca"
)
"""Every byte the same stream journals to JSONL segments, with offer ids
minted from :data:`JOURNAL_ID_BASE` (recorded on 3b56d78, the commit before
the journal was group-committed: one ``append`` call per fact)."""

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
        np.any((update.aggregate.min_array < 0) & (update.aggregate.max_array > 0))
        for update in service.pool.values()
    )  # the four-candidate kernel path planned something
    latency = service.metrics.histogram("latency.e2e_slices")
    plans = hashlib.sha256(struct.pack(f"<{len(costs)}d", *costs))
    for oid, start in sorted(
        (rank[oid], start) for oid, start in service._committed_start.items()
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


class TestReplanningPinned:
    """Tier-1 pin for "plans bit-identical": a change to the planner, the
    kernel or the commit walk that moves one committed bit fails here."""

    def test_replanning_bits_pinned(self):
        plans, _ = _replanning_digests()
        assert plans == REPLANNING_SHA256

    def test_replanning_bits_pinned_with_ledger(self):
        plans, facts = _replanning_digests(OfferLedger(MemoryEventLog()))
        assert plans == REPLANNING_SHA256
        assert facts == REPLANNING_SCHEDULED_FACTS_SHA256

    def test_replanning_journal_bytes_pinned(self, tmp_path):
        """The JSONL twin of the test above: not one journal byte moves."""
        rebase_offer_ids(JOURNAL_ID_BASE)
        log = JsonlEventLog(tmp_path / "led", fsync="never")
        plans, _ = _replanning_digests(OfferLedger(log))
        log.close()
        journal = hashlib.sha256()
        for segment in log.segments():
            journal.update(segment.read_bytes())
        assert plans == REPLANNING_SHA256
        assert journal.hexdigest() == REPLANNING_JOURNAL_SHA256


CHURN_JOURNAL_SHA256 = (
    "097bef9f5e48461d8a05621a49e9546a5da67b4b32a6b43c8e00d6869f6a983d"
)
"""Every byte :func:`_churn_journal`'s run journals to JSONL segments, with
offer ids minted from :data:`CHURN_ID_BASE` (recorded on d215ec7, the
commit before a submission's offer was rendered once for its content key
and its fact)."""

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
        assert journal.hexdigest() == CHURN_JOURNAL_SHA256


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
        assert len(service._scheduled) == 6

    def test_past_earliest_start_still_schedulable(self):
        # An offer whose earliest start passed while it waited must not be
        # stranded: the window is clipped to "now" and it still schedules.
        service = BrpRuntimeService(TINY)
        service.submit(_offer(2, tf=20))
        service.run_aggregation()
        service.driver.queue.clock.advance_to(10)  # earliest_start=2 is now past
        result = service.maybe_schedule(force=True)
        assert result is not None
        assert len(service._scheduled) == 1
        schedule = service.last_schedule
        assert schedule.assignments[0].start >= 10

    def test_empty_pool_schedule_is_counted_not_run(self):
        service = BrpRuntimeService(TINY)
        result = service.maybe_schedule(force=True)
        assert result is None
        assert service.metrics.counter("schedule.empty_runs").value == 1


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
        stale = ScheduledFlexOffer(macro, 20, macro.profile.min_energies())
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
        current = ScheduledFlexOffer(fresh, 12, fresh.profile.min_energies())
        assert service.apply_remote_schedule(current) == 1
        assert service.committed_start(oid) == 12


class TestExpiry:
    def test_unscheduled_offers_expire(self):
        config = ServiceConfig.from_flat(
            batch_size=8,
            horizon_slices=96,
            scheduler_passes=1,
            # Triggers that never fire: offers age out unscheduled.
            trigger=CountTrigger(10_000),
            min_run_interval_slices=2.0,
        )
        service = BrpRuntimeService(config)
        service.submit(_offer(2, tf=2))
        service.driver.queue.clock.advance_to(10)
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
        service.driver.queue.clock.advance_to(20)
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
        (oid,) = list(service._scheduled)
        committed = service._committed_start[oid]
        service.driver.queue.clock.advance_to(committed + 1)
        result = service.maybe_schedule(force=True)
        assert result is None  # pool emptied by the pre-run sweep
        assert service.store.offer_state(oid) == "executed"
        assert service.live_offers == 0

    def test_scheduled_set_pruned_but_total_kept(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(4, tf=2))
        service.run_aggregation()
        service.maybe_schedule(force=True)
        assert len(service._scheduled) == 1
        service.driver.queue.clock.advance_to(20)
        service.sweep_expired()
        # The live tracking set is bounded; the report total is cumulative.
        assert len(service._scheduled) == 0
        report = service.report(duration_slices=20, wall_seconds=0.1)
        assert report.offers_scheduled == 1

    def test_expiry_before_flush_keeps_terminal_state(self):
        # An offer retired while its insert still sits in the unflushed
        # batch must stay "expired" — the flush may not regress it to
        # "aggregated" (and the pipeline must not crash on the
        # insert+delete pair cancelling within one run).
        config = ServiceConfig.from_flat(
            batch_size=1000,  # never auto-flush
            horizon_slices=96,
            scheduler_passes=1,
            trigger=CountTrigger(10_000),
        )
        service = BrpRuntimeService(config)
        service.submit(_offer(2, tf=2))
        (offer_id,) = list(service._live)
        service.driver.queue.clock.advance_to(10)
        service.sweep_expired()
        service.run_aggregation()
        assert service.store.offer_state(offer_id) == "expired"
        assert service.ingest.pipeline.input_count == 0


class TestAssignmentDeadline:
    def test_aggregate_past_assignment_deadline_not_scheduled(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(10, tf=20, assignment_before=12))
        service.run_aggregation()
        service.driver.queue.clock.advance_to(14)  # deadline passed, window open
        result = service.maybe_schedule(force=True)
        assert result is None  # only ineligible work → empty run
        assert len(service._scheduled) == 0

    def test_deadline_passed_offer_expires_despite_open_window(self):
        service = BrpRuntimeService(TINY)
        service.submit(_offer(10, tf=20, assignment_before=12))
        service.run_aggregation()
        service.driver.queue.clock.advance_to(14)
        service.sweep_expired()
        counts = service.store.state_counts()
        assert counts["expired"] == 1
        assert service.live_offers == 0


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
        service.driver.queue.schedule_at(0.5, lambda: pulled.append("mid"))

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
            ServiceConfig.from_flat(batch_size=0)
        with pytest.raises(ServiceError):
            ServiceConfig.from_flat(horizon_slices=-1)
        with pytest.raises(ServiceError):
            ServiceConfig.from_flat(scheduler_passes=0)
        with pytest.raises(ServiceError):
            ServiceConfig.from_flat(expiry_sweep_interval=0)


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
    def test_warm_candidate_none_for_all_new_pool(self):
        session = PlanSession()
        assert session.warm_candidate([("a", _offer(2))]) is None

    def test_warm_candidate_duration_mismatch_falls_back_to_default(self):
        session = PlanSession()
        session.warm["a"] = (3, np.array([1.5, 1.5, 1.5]))
        shrunk = _offer(2, duration=2)
        # A lone mismatched prior leaves no warm content at all.
        assert session.warm_candidate([("a", shrunk)]) is None
        # Next to a usable prior, the mismatch falls back to the
        # earliest-start / minimum-energy default placement.
        session.warm["b"] = (4, np.array([1.2, 1.2]))
        candidate = session.warm_candidate(
            [("a", shrunk), ("b", _offer(2, duration=2))]
        )
        assert candidate is not None
        assert candidate.starts[0] == shrunk.earliest_start
        assert np.array_equal(
            candidate.energies[0], shrunk.profile.min_energies()
        )
        assert candidate.starts[1] == 4
        assert np.array_equal(candidate.energies[1], [1.2, 1.2])

    def test_warm_candidate_clips_into_current_window_and_bounds(self):
        session = PlanSession()
        offer = _offer(6, tf=4, duration=2, lo=1.0, hi=2.0)
        session.warm["a"] = (0, np.array([9.0, 9.0]))
        candidate = session.warm_candidate([("a", offer)])
        assert candidate.starts[0] == offer.earliest_start  # clipped up
        assert np.array_equal(candidate.energies[0], [2.0, 2.0])
        session.warm["a"] = (30, np.array([0.0, 0.0]))
        candidate = session.warm_candidate([("a", offer)])
        assert candidate.starts[0] == offer.latest_start  # clipped down
        assert np.array_equal(candidate.energies[0], [1.0, 1.0])

    def test_absorb_accumulates_dirt_and_evicts_deleted(self):
        session = PlanSession()
        session.warm["gone"] = (0, np.array([1.0]))
        session.warm["kept"] = (2, np.array([1.0]))
        session.absorb(
            DirtySet(
                created=frozenset({"new"}),
                changed=frozenset({"kept"}),
                deleted=frozenset({"gone"}),
            )
        )
        assert session.dirty == {"new", "kept", "gone"}
        assert "gone" not in session.warm and "kept" in session.warm


class TestPlanWindowAtBothTiers:
    """One planning pass, two callers: a BRP's and a TSO's session agree."""

    START, END = 10, 106

    def _tiers(self, scheduler):
        from repro.core.timeseries import TimeSeries
        from repro.node import MessageBus
        from repro.runtime import (
            BusAdapter,
            SimulatedDriver,
            TsoConfig,
            TsoRuntimeService,
        )

        forecast = TimeSeries(0, np.linspace(-6.0, 6.0, 80))
        brp = BrpRuntimeService(
            ServiceConfig.from_flat(
                scheduler=scheduler, scheduler_passes=1, seed=3
            ),
            net_forecast=forecast,
        )
        tso = TsoRuntimeService(
            TsoConfig(scheduler=scheduler, scheduler_passes=1, seed=3),
            adapter=BusAdapter(MessageBus(), SimulatedDriver()),
            net_forecast=forecast,
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
        from repro.aggregation import aggregate_group

        windows = [(4, 30), (12, 40), (20, 60), (2, 8), (50, 90)]
        return [
            (f"k{i}", aggregate_group([_offer(est, tf=lst - est, duration=3)]))
            for i, (est, lst) in enumerate(windows)
        ]

    @pytest.mark.parametrize("scheduler", ["greedy", "delta"])
    def test_same_candidates_same_problem_same_plan(self, scheduler):
        brp, tso, problems = self._tiers(scheduler)
        candidates = self._candidates()
        clipped = candidates[0][1]  # earliest_start 4 < START, window open
        closed = candidates[3][1]  # latest_start 8 < START
        # Cold run, then an unchanged re-run (warm start / pure delta pass).
        for _ in range(2):
            ours, theirs = (
                tier.session.plan_window(candidates, self.START, self.END)
                for tier in (brp, tso)
            )
            for plan in (ours, theirs):
                assert plan.keys == ("k0", "k1", "k2", "k4")
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
            assert tier.session.plan_window(candidates, 500, 596) is None
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
        assert counters == tso_counters
        if scheduler == "delta":
            assert counters["delta.full_fallbacks"] == 1
            assert counters["delta.runs"] == 1
            assert counters["delta.reused_placements"] == 4
        else:
            assert counters == {}


class TestDeltaSchedulerService:
    def _config(self):
        return ServiceConfig.from_flat(
            batch_size=8,
            scheduler="delta",
            scheduler_passes=1,
            trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
            min_run_interval_slices=0.0,
            seed=0,
        )

    def test_clean_rerun_reuses_every_group(self):
        service = BrpRuntimeService(self._config())
        # Spread starts widely so aggregation builds several groups; one
        # later insert then dirties a small fraction of the pool (below the
        # scheduler's full-pass fallback threshold).
        for est in (8, 16, 24, 32, 40, 48, 56, 64):
            for duration in (1, 3):
                assert service.submit(_offer(est, tf=6, duration=duration))
        service.run_aggregation()
        assert service.maybe_schedule(force=True) is not None
        assert service.session.last_mode == "full"
        n_groups = len(service.session.warm)
        assert n_groups > 0
        # Nothing changed since: the re-run is a pure delta pass.
        assert service.maybe_schedule(force=True) is not None
        assert service.session.last_mode == "delta"
        assert service.session.last_reused == n_groups
        assert service.session.last_replaced == 0
        # One new offer dirties only the group it lands in.
        assert service.submit(_offer(70, tf=6))
        service.run_aggregation()
        assert service.maybe_schedule(force=True) is not None
        assert service.session.last_mode == "delta"
        assert service.session.last_replaced >= 1
        assert service.session.last_reused >= n_groups - 1
        assert service.metrics.counter("delta.runs").value == 2
        assert service.metrics.counter("delta.full_fallbacks").value == 1
        assert service.metrics.counter("delta.reused_placements").value > 0

    def test_streamed_delta_run_matches_invariants(self):
        service, report = _run(duration=48, config=self._config())
        assert report.offers_accepted > 0
        runs = service.metrics.counter("delta.runs").value
        fallbacks = service.metrics.counter("delta.full_fallbacks").value
        assert runs + fallbacks == service.metrics.counter("schedule.runs").value
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
