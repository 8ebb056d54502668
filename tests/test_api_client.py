"""The LedmsClient facade: typed operations, hooks, sessions.

Covers the request/response surface (submit/update/withdraw/query/plan),
the one result type it shares with the service, the lifecycle hooks and the
per-prosumer session scoping.  Recovery (``resume_from_ledger``) is covered
in ``tests/test_ledger.py``.
"""

import struct

import pytest

from repro.api import (
    IngestConfig,
    LedmsClient,
    OfferLedger,
    OfferView,
    PlanView,
    SchedulingConfig,
    ServiceConfig,
    SubmitResult,
)
from repro.core import flex_offer
from repro.core.errors import ServiceError
from repro.runtime import BrpRuntimeService, LoadGenerator
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

    def test_service_and_facade_share_one_result_type(self):
        client = LedmsClient(_config(), ledger=OfferLedger())
        service = client.service
        offer = _offer(10)
        fresh = [
            service.submit_fact(_offer(10)),
            service.update(_offer(11)),
            client.submit(offer),
            client.update(_offer(12, offer_id=offer.offer_id)),
        ]
        assert all(type(r) is SubmitResult and r and not r.duplicate for r in fresh)
        bad = _offer(5, lo=0.0, hi=0.0)
        rejected = client.submit(bad)
        # A deflected duplicate carries the originally recorded outcome.
        for first, again in ((fresh[2], client.submit(offer)),
                             (rejected, service.submit_fact(bad))):
            assert type(again) is SubmitResult and again.duplicate
            assert (again.accepted, again.offer_id, again.reason) == (
                first.accepted, first.offer_id, first.reason
            )
        # Without a ledger the reason still comes from where it is decided.
        bare = BrpRuntimeService(_config()).submit_fact(bad)
        assert not bare and "energy" in bare.reason and not bare.duplicate

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


class TestPlanViewFromColumns:
    def test_plan_view_equals_the_scheduled_objects_derivation(self):
        """The plan hook reads the plan's columns and views.  On a seeded
        run every ``PlanView`` is, bit for bit, what the scheduled
        aggregate objects give (built here, after the fact, on demand)."""
        client = LedmsClient(_config())
        compared = []

        def derive(assignments):
            return [
                (
                    aggregate_id,
                    type(start),
                    start,
                    struct.pack("<d", total_energy),
                    members,
                )
                for aggregate_id, start, total_energy, members in assignments
            ]

        def check(view):
            old = [
                (
                    scheduled.offer.offer_id,
                    int(scheduled.start),
                    float(sum(scheduled.energies)),
                    len(getattr(scheduled.offer, "members", ()) or ()) or 1,
                )
                for scheduled in client.service.last_schedule
            ]
            new = [
                (a.aggregate_id, a.start, a.total_energy, a.members)
                for a in view.assignments
            ]
            compared.append(derive(new) == derive(old))

        client.on_plan_committed(check)
        generator = LoadGenerator(rate_per_hour=30, seed=11)
        client.run_stream(generator.stream(0, 48), 48)
        assert len(compared) > 1 and all(compared)


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
