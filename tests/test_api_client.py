"""The LedmsClient facade: typed operations, hooks, sessions, restart.

Covers the request/response surface (submit/update/withdraw/query/plan),
the lifecycle hooks, the per-prosumer session scoping, and
``LedmsClient.resume`` rebuilding a live pool from store lifecycle facts —
including a mid-stream restart round-trip to the same pool state.
"""

import pytest

from repro.api import LedmsClient, OfferView, PlanView, SubmitResult
from repro.api.config import IngestConfig, SchedulingConfig, ServiceConfig
from repro.core import flex_offer
from repro.core.errors import ServiceError
from repro.runtime import LoadGenerator
from repro.runtime.triggers import AgeTrigger, AnyTrigger, CountTrigger


def _config(batch=4) -> ServiceConfig:
    return ServiceConfig(
        ingest=IngestConfig(batch_size=batch),
        scheduling=SchedulingConfig(
            horizon_slices=96,
            scheduler_passes=1,
            trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
            min_run_interval_slices=2.0,
        ),
    )


def _offer(est, tf=6, duration=2, lo=1.0, hi=2.0, **kw):
    return flex_offer(
        [(lo, hi)] * duration, earliest_start=est, latest_start=est + tf, **kw
    )


def _member_sets(service):
    """The pool's aggregates as member-id sets (pipeline-instance agnostic)."""
    return {
        frozenset(m.offer_id for m in update.aggregate.members)
        for update in service.pool.values()
    }


class TestOperations:
    def test_submit_returns_typed_result(self):
        client = LedmsClient(_config())
        result = client.submit(_offer(10))
        assert isinstance(result, SubmitResult)
        assert result and result.accepted
        assert result.offer is not None
        assert result.reason is None

    def test_rejection_carries_reason(self):
        client = LedmsClient(_config())
        result = client.submit(_offer(5, lo=0.0, hi=0.0))  # carries no energy
        assert not result
        assert "energy" in result.reason

    def test_query_offer_lifecycle(self):
        client = LedmsClient(_config())
        oid = client.submit(_offer(10)).offer_id
        view = client.query_offer(oid)
        assert isinstance(view, OfferView)
        assert view.live and not view.scheduled
        assert view.state == "accepted"
        assert view.offer is not None
        missing = client.query_offer(999_999_999)
        assert not missing.live and missing.state is None

    def test_withdraw_removes_from_pool(self):
        client = LedmsClient(_config())
        oid = client.submit(_offer(10)).offer_id
        assert client.withdraw(oid)
        client.service.run_aggregation()
        assert client.query_offer(oid).state == "withdrawn"
        assert not client.query_offer(oid).live
        # Terminal offers drop their retained object (memory bound on long
        # streams); the lifecycle state stays queryable.
        assert client.query_offer(oid).offer is None
        assert client.service.ingest.input_count == 0
        assert not client.withdraw(oid)  # already gone

    def test_update_replaces_offer_in_place(self):
        client = LedmsClient(_config())
        first = _offer(10, lo=1.0, hi=2.0)
        client.submit(first)
        revised = _offer(12, lo=2.0, hi=3.0, offer_id=first.offer_id)
        result = client.update(revised)
        assert result.accepted
        assert result.offer_id == first.offer_id
        client.service.run_aggregation()
        assert client.service.ingest.input_count == 1
        view = client.query_offer(first.offer_id)
        assert view.live
        assert view.offer.earliest_start == 12

    def test_rejected_update_leaves_original_intact(self):
        # A failed update must be side-effect free: the inadmissible
        # revision is rejected *before* the live offer is withdrawn.
        client = LedmsClient(_config())
        original = _offer(10)
        client.submit(original)
        bad = _offer(12, lo=0.0, hi=0.0, offer_id=original.offer_id)
        result = client.update(bad)
        assert not result.accepted
        assert "energy" in result.reason
        view = client.query_offer(original.offer_id)
        assert view.live
        assert view.offer.earliest_start == 10  # untouched

    def test_max_duration_admission_limit_enforced(self):
        # Regression: the configured limit must reach the ingest stage.
        config = ServiceConfig(
            ingest=IngestConfig(batch_size=4, max_duration_slices=4),
        )
        client = LedmsClient(config)
        result = client.submit(_offer(10, duration=8))
        assert not result.accepted
        assert "admission limit" in result.reason
        assert client.submit(_offer(10, duration=2)).accepted

    def test_update_of_unknown_offer_degrades_to_submit(self):
        client = LedmsClient(_config())
        result = client.update(_offer(10))
        assert result.accepted
        assert client.live_offers == 1

    def test_schedule_now_and_current_plan(self):
        client = LedmsClient(_config())
        assert client.current_plan() is None
        ids = [client.submit(_offer(8 + i)).offer_id for i in range(4)]
        plan = client.schedule_now()
        assert isinstance(plan, PlanView)
        assert plan is client.current_plan()
        assert plan.aggregates >= 1
        assert sum(a.members for a in plan.assignments) == len(ids)
        assert plan.scheduled_offers == len(ids)
        for oid in ids:
            view = client.query_offer(oid)
            assert view.scheduled and view.committed_start is not None

    def test_metrics_snapshot(self):
        client = LedmsClient(_config())
        client.submit(_offer(10))
        snapshot = client.metrics()
        assert snapshot["ingest.accepted"] == 1.0

    def test_run_stream_delegates(self):
        client = LedmsClient(_config())
        generator = LoadGenerator(rate_per_hour=30, seed=11)
        report = client.run_stream(generator.stream(0, 24), 24)
        assert report.offers_accepted > 0
        assert report.offers_scheduled > 0


class TestHooks:
    def test_on_plan_committed_fires_with_view(self):
        client = LedmsClient(_config())
        plans = []
        client.on_plan_committed(plans.append)
        for i in range(4):
            client.submit(_offer(8 + i))
        client.schedule_now()
        assert len(plans) == 1
        assert isinstance(plans[0], PlanView)
        assert plans[0].aggregates >= 1

    def test_on_offer_state_change_sees_lifecycle(self):
        client = LedmsClient(_config())
        events = []
        client.on_offer_state_change(lambda oid, state, now: events.append(state))
        oid = client.submit(_offer(10)).offer_id
        client.withdraw(oid)
        assert events[:2] == ["submitted", "accepted"]
        assert events[-1] == "withdrawn"


class TestSession:
    def test_session_stamps_owner(self):
        client = LedmsClient(_config())
        session = client.session("prosumer-7")
        result = session.submit(_offer(10, owner="someone-else"))
        assert result.accepted
        assert result.offer.owner == "prosumer-7"
        assert session.live_count == 1
        (view,) = session.offers()
        assert view.live

    def test_session_cannot_touch_foreign_offers(self):
        client = LedmsClient(_config())
        foreign = client.submit(_offer(10)).offer_id
        session = client.session("prosumer-7")
        with pytest.raises(ServiceError):
            session.withdraw(foreign)
        with pytest.raises(ServiceError):
            session.update(_offer(11, offer_id=foreign))

    def test_empty_owner_rejected(self):
        with pytest.raises(ServiceError):
            LedmsClient(_config()).session("")


class TestResume:
    def test_resume_round_trips_pool_state(self):
        # Controlled future-window offers: the resumed pool must regroup to
        # exactly the same aggregates (same member sets) as the original.
        client = LedmsClient(_config())
        for i in range(10):
            client.submit(_offer(20 + 2 * i, tf=8, owner=f"p{i % 3}"))
        client.service.run_aggregation()
        original_members = _member_sets(client.service)
        original_live = sorted(client.service._live)
        assert original_members

        resumed = LedmsClient.resume(client.store, _config())
        resumed.service.run_aggregation()
        assert sorted(resumed.service._live) == original_live
        assert resumed.service.ingest.input_count == len(original_live)
        assert _member_sets(resumed.service) == original_members

    def test_resume_mid_stream_restart(self):
        # Drive a real Poisson stream, "crash", resume from the store: the
        # live population carries over one-to-one and the node keeps
        # serving (clock starts at the store's last event time).
        client = LedmsClient(_config(batch=8))
        generator = LoadGenerator(rate_per_hour=40, seed=3)
        client.run_stream(generator.stream(0, 24), 24)
        live_before = sorted(client.service._live)
        assert live_before  # stream left live offers behind

        resumed = LedmsClient.resume(client.store, _config(batch=8))
        assert resumed.now == client.store.last_event_time
        assert sorted(resumed.service._live) == live_before
        assert resumed.service.ingest.input_count == len(live_before)
        # The resumed node schedules the inherited pool.
        plan = resumed.schedule_now()
        assert plan is not None and plan.aggregates >= 1

    def test_resume_includes_scheduled_offers(self):
        client = LedmsClient(_config())
        oid = client.submit(_offer(20, tf=8)).offer_id
        client.schedule_now()
        assert client.query_offer(oid).state == "scheduled"
        resumed = LedmsClient.resume(client.store, _config())
        assert oid in resumed.service._live
        # Re-admitted: scheduling state is rebuilt by the next plan.
        assert resumed.query_offer(oid).state in ("accepted", "aggregated")

    def test_resume_rejects_rewound_driver(self):
        from repro.runtime import SimulatedDriver

        client = LedmsClient(_config())
        client.submit(_offer(20, tf=8))
        client.driver.queue.clock.advance_to(10)
        client.submit(_offer(30, tf=8))  # records events at t=10
        with pytest.raises(ServiceError):
            LedmsClient.resume(client.store, _config(), driver=SimulatedDriver(0.0))
        # Anchored at (or after) the last event time is fine.
        resumed = LedmsClient.resume(
            client.store, _config(), driver=SimulatedDriver(10.0)
        )
        assert resumed.live_offers == 2

    def test_resume_excludes_terminal_offers(self):
        client = LedmsClient(_config())
        kept = client.submit(_offer(20, tf=8)).offer_id
        gone = client.submit(_offer(21, tf=8)).offer_id
        client.withdraw(gone)
        resumed = LedmsClient.resume(client.store, _config())
        assert kept in resumed.service._live
        assert gone not in resumed.service._live
