"""Per-group commitments against the per-member walk they replaced.

A service commits a plan by writing one start shift per aggregation group
(in the group's record in the planner's book); a member's committed start
is its earliest start plus its group's shift.  :class:`CommitOracle`
keeps, beside a service, a copy of the per-member walk the shifts
replaced: every plan re-commits
every live member of every re-placed view, a view whose placement the
previous plan already committed is skipped, and a remote schedule commits
its members and forgets that skip.  After every plan listener call, every
remote schedule and every restored commitment it asserts that the
service's committed starts, its first-commit count, its ``scheduled``
store rows (in order) and its ``disaggregate.assignments`` counter equal
the walk's — and, at the end, that the journal lists exactly the starts
the walk changed.
"""

from functools import partial

from repro.api import (
    ClusterConfig,
    ClusterRuntime,
    IngestConfig,
    SchedulingConfig,
    ServiceConfig,
    TsoConfig,
)
from repro.core import flex_offer
from repro.ledger import MemoryEventLog, OfferLedger
from repro.ledger.replay import project
from repro.obs import Tracer
from repro.runtime import (
    BrpRuntimeService,
    CountTrigger,
    LoadGenerator,
    SimulatedDriver,
)
from repro.runtime.triggers import AgeTrigger, AnyTrigger

SMALL = ServiceConfig(
    ingest=IngestConfig(batch_size=4),
    scheduling=SchedulingConfig(
        horizon_slices=96,
        scheduler_passes=1,
        trigger=AnyTrigger([CountTrigger(20), AgeTrigger(8)]),
        min_run_interval_slices=2.0,
    ),
)
TINY = ServiceConfig(
    scheduling=SchedulingConfig(scheduler_passes=1, horizon_slices=96),
    ingest=IngestConfig(batch_size=8),
)
TINY_TSO = TsoConfig(
    scheduling=SchedulingConfig(
        scheduler_passes=1, horizon_slices=96, trigger=CountTrigger(1),
        min_run_interval_slices=2.0,
    )
)


class CommitOracle:
    """The per-member commit walk, run beside ``service`` and compared."""

    def __init__(self, service: BrpRuntimeService) -> None:
        self.service = service
        self.starts: dict = {}  # live entry (by identity) -> committed start
        self.cache: dict = {}  # view id -> (start, energies) of the last plan
        self.first = service.scheduled_total
        self.rows: list[int] = []
        self.seen_rows: list[int] = []
        self.journal: list[tuple[int, int]] = []
        self.assignments = 0
        self.checks = {"plan": 0, "remote": 0, "restore": 0}
        service.store.subscribe(self._on_state)
        # First in line: the walk must see the plan before any listener
        # reacts to it.
        service.plan_listeners.insert(0, self._on_plan)
        remote, restore = service.apply_remote_schedule, service.restore_commitment

        def apply_remote_schedule(scheduled):
            committed = remote(scheduled)
            self._on_remote(scheduled, committed)
            return committed

        def restore_commitment(offer_id, start):
            restored = restore(offer_id, start)
            if restored:
                entry = service._live[offer_id]
                if entry not in self.starts:
                    self.first += 1
                self.starts[entry] = start
                self.rows.append(offer_id)
            self.check("restore")
            return restored

        service.apply_remote_schedule = apply_remote_schedule
        service.restore_commitment = restore_commitment

    # -- the walk ---------------------------------------------------------
    def _commit(self, members, delta: int, newly: list[int]) -> int:
        live = self.service._live
        led = self.service.ledger
        journaling = led is not None and led.recording
        committed = 0
        for member in members:
            entry = live.get(member.offer_id)
            if entry is None or entry.offer is not member:
                continue
            committed += 1
            start = member.earliest_start + delta
            if journaling and self.starts.get(entry) != start:
                self.journal.append((member.offer_id, start))
            if entry not in self.starts:
                self.first += 1
                newly.append(member.offer_id)
            self.starts[entry] = start
        return committed

    def _on_plan(self, result) -> None:
        plan = self.service.last_plan
        assert plan.result is result
        solution = result.solution
        fresh, newly = {}, []
        for view, start, energies in zip(
            plan.views, solution.starts.tolist(), solution.energies
        ):
            fresh[view.offer_id] = (start, energies)
            prior = self.cache.get(view.offer_id)
            if (
                prior is not None
                and prior[0] == start
                and prior[1].tolist() == energies.tolist()
            ):
                continue
            self._commit(view.members, start - view.earliest_start, newly)
            self.assignments += len(view.members)
        self.cache = fresh
        self.rows += newly
        self.check("plan")

    def _on_remote(self, scheduled, committed: int) -> None:
        aggregate = scheduled.offer
        newly: list[int] = []
        delta = scheduled.start - aggregate.earliest_start
        assert self._commit(aggregate.members, delta, newly) == committed
        self.rows += newly
        self.cache.pop(aggregate.offer_id, None)
        self.check("remote")

    def _on_state(self, offer_id: int, state: str, now: int) -> None:
        if state == "scheduled":
            self.seen_rows.append(offer_id)

    # -- the comparison ---------------------------------------------------
    def check(self, where: str) -> None:
        service = self.service
        expected = {
            oid: self.starts[entry]
            for oid, entry in service._live.items()
            if entry in self.starts
        }
        assert service.committed_starts() == expected, where
        assert service.scheduled_total == self.first, where
        assert self.seen_rows == self.rows, where
        assert (
            service.metrics.counter("disaggregate.assignments").value
            == self.assignments
        ), where
        self.checks[where] += 1

    def check_journal(self, skip: int = 0) -> None:
        """The journal's ``scheduled`` facts after the first ``skip``."""
        facts = [
            (event["offer_id"], event["start"])
            for event in self.service.ledger.events()
            if event["kind"] == "scheduled"
        ]
        assert facts[skip:] == self.journal


def _offer(est, tf=6, duration=2, lo=1.0, hi=2.0, **kw):
    return flex_offer(
        [(lo, hi)] * duration, earliest_start=est, latest_start=est + tf, **kw
    )


def _close_window_mid_update(service, revision):
    """Reject ``revision`` once its previous version has left the pool, so
    :meth:`BrpRuntimeService.update` reinstates the previous version."""
    admissible = service.ingest.reject_reason
    key = (revision.offer_id, revision.earliest_start)

    def reject_reason(offer, now):
        if (offer.offer_id, offer.earliest_start) == key and not service.is_live(
            offer.offer_id
        ):
            return "start window already closed"
        return admissible(offer, now)

    service.ingest.reject_reason = reject_reason


def _churn(service, seed: int, duration: float) -> None:
    """Arm a seeded stream whose offers are duplicated, withdrawn, updated
    and once reinstated after a rejected update."""
    stream = LoadGenerator(rate_per_hour=120, seed=seed).stream(0.0, duration)
    for index, (at, offer) in enumerate(stream):
        oid, est = offer.offer_id, offer.earliest_start
        revised = _offer(est + 1, tf=offer.latest_start - est, offer_id=oid)
        if index == 4:
            _close_window_mid_update(service, revised)
        follow_up = {
            0: partial(service.submit, offer),
            1: partial(service.withdraw, oid),
            2: partial(service.update, revised),
            3: partial(service.update, _offer(est, lo=0.0, hi=0.0, offer_id=oid)),
        }.get(2 if index == 4 else index % 7)
        service.driver.schedule_at(at, partial(service.submit, offer))
        if follow_up is not None:
            service.driver.schedule_at(at + 0.25, follow_up)


# ----------------------------------------------------------------------
class TestCommitOracle:
    def test_seeded_brp_stream(self):
        service = BrpRuntimeService(ServiceConfig())
        oracle = CommitOracle(service)
        stream = LoadGenerator(rate_per_hour=400, seed=42).stream(0.0, 48.0)
        service.run_stream(stream, 48.0)
        assert oracle.checks["plan"] > 20
        assert service.metrics.counter("disaggregate.unchanged_skipped").value > 0
        assert service.scheduled_total > 200

    def test_churn_stream_with_updates_and_a_reinstatement(self):
        service = BrpRuntimeService(SMALL, ledger=OfferLedger(MemoryEventLog()))
        oracle = CommitOracle(service)
        _churn(service, seed=5, duration=36.0)
        service.open_window((), 36.0)
        service.driver.run_until(36.0)
        service.drain(36.0)
        replaces = [
            event for event in service.ledger.events() if event["kind"] == "replace"
        ]
        # Accepted updates, a rejected one, and the reinstated one.
        assert {(e["accepted"], "reverses" in e) for e in replaces} == {
            (True, True), (False, False), (False, True),
        }
        assert oracle.checks["plan"] > 5
        oracle.check_journal()
        assert oracle.journal

    def test_two_brp_cluster_with_remote_commits(self):
        cluster = ClusterRuntime(ClusterConfig.uniform(2, TINY, tso=TINY_TSO))
        oracles = [CommitOracle(c.service) for c in cluster.clients.values()]
        tso_oracle = CommitOracle(cluster.tso)
        streams = {
            name: LoadGenerator(rate_per_hour=30.0, seed=11 + index).stream(
                0.0, 48.0
            )
            for index, name in enumerate(cluster.clients)
        }
        report = cluster.run(streams, 48.0)
        assert report.remote_commits > 0
        assert all(oracle.checks["remote"] > 0 for oracle in oracles)
        assert all(oracle.checks["plan"] > 0 for oracle in oracles)
        assert tso_oracle.checks["plan"] > 0

    def test_projection_recovery_rebinds_restored_starts(self):
        log = MemoryEventLog()
        original = BrpRuntimeService(SMALL, ledger=OfferLedger(log))
        CommitOracle(original)
        original.run_stream(
            LoadGenerator(rate_per_hour=60, seed=3).stream(0.0, 40.0), 40.0
        )
        events = list(log.replay())
        skip = sum(event["kind"] == "scheduled" for event in events)
        now = original.now
        fresh = BrpRuntimeService(
            SMALL, driver=SimulatedDriver(now), ledger=OfferLedger(log)
        )
        oracle = CommitOracle(fresh)
        stats = project(fresh, events)
        assert stats.committed_restored > 0
        assert oracle.checks["restore"] == stats.committed_restored
        assert fresh.committed_starts() == original.committed_starts()
        # Later plans rebind every restored member to its group's cell.
        fresh.run_stream(
            LoadGenerator(rate_per_hour=60, seed=4).stream(now, now + 24.0), 24.0
        )
        assert oracle.checks["plan"] > 0
        oracle.check_journal(skip)

    def test_restore_on_a_bound_member_detaches_it_until_the_next_commit(self):
        service = BrpRuntimeService(SMALL)
        oracle = CommitOracle(service)
        offers = [_offer(10, tf=8) for _ in range(3)]
        for offer in offers:
            service.submit(offer)
        service.maybe_schedule(force=True)
        bound = offers[1].offer_id
        moved = service.committed_start(bound) + 1
        assert service.restore_commitment(bound, moved)
        assert service.committed_start(bound) == moved
        # A new member changes the group, so the next plan re-commits it
        # and the restored member rejoins the cell's shift.
        service.submit(_offer(10, tf=8))
        service.maybe_schedule(force=True)
        assert oracle.checks == {"plan": 2, "restore": 1, "remote": 0}

    def test_offer_withdrawn_and_resubmitted_within_one_flush(self):
        service = BrpRuntimeService(SMALL)
        oracle = CommitOracle(service)
        offers = [_offer(10, tf=8) for _ in range(3)]
        for offer in offers:
            service.submit(offer)
        service.maybe_schedule(force=True)
        # The group keeps the member in place; its new entry is a newcomer.
        service.withdraw(offers[0].offer_id)
        assert service.submit(offers[0]) is offers[0]
        service.submit(_offer(10, tf=8))
        assert service.committed_start(offers[0].offer_id) is None
        service.maybe_schedule(force=True)
        assert service.committed_start(offers[0].offer_id) is not None
        assert oracle.checks["plan"] == 2

    def test_group_empties_and_is_recreated_under_the_same_id(self):
        service = BrpRuntimeService(SMALL)
        oracle = CommitOracle(service)
        first = [_offer(10, tf=8) for _ in range(3)]
        for offer in first:
            service.submit(offer)
        service.maybe_schedule(force=True)
        ((gid, group),) = service.session.groups.items()
        assert group.plan > 0
        # Every member leaves: the group's DELETED update drops its record.
        service.withdraw_many(offer.offer_id for offer in first)
        service.run_aggregation()
        assert gid not in service.session.groups
        # Same cell, fresh members: the group comes back under its id.
        second = [_offer(10, tf=8, lo=2.0, hi=4.0) for _ in range(2)]
        for offer in second:
            service.submit(offer)
        service.maybe_schedule(force=True)
        assert list(service.session.groups) == [gid]
        assert service.session.groups[gid] is not group
        assert set(service.committed_starts()) == {o.offer_id for o in second}
        # Emptied and refilled inside one flush: the group resets in place.
        service.withdraw_many(offer.offer_id for offer in second)
        for offer in [_offer(10, tf=8) for _ in range(2)]:
            service.submit(offer)
        service.maybe_schedule(force=True)
        assert list(service.session.groups) == [gid]
        assert oracle.checks["plan"] == 3
        assert len(service.committed_starts()) == 2


def test_a_brp_run_binds_only_first_commitments():
    service = BrpRuntimeService(ServiceConfig())
    bound = 0
    commit = service._disaggregate

    def waiting():
        """Live entries waiting in the book's records to bind."""
        live = service._live
        return sum(
            live.get(entry.offer.offer_id) is entry
            for group in service.session.groups.values()
            for entry in group.waiting
        )

    def counting(plan):
        nonlocal bound
        before = waiting()
        commit(plan)
        bound += before - waiting()

    service._disaggregate = counting
    stream = LoadGenerator(rate_per_hour=400, seed=42).stream(0.0, 48.0)
    service.run_stream(stream, 48.0)
    assignments = service.metrics.counter("disaggregate.assignments").value
    # No remote schedule and no restore: every bind is a first commitment,
    # while the walk it replaced touched every member of every re-plan.
    assert bound == service.scheduled_total > 0
    assert assignments > 10 * bound


def test_a_traced_run_commits_the_same_starts():
    # With a tracer on, each pass also walks its views for trace output.
    service = BrpRuntimeService(ServiceConfig(), tracer=Tracer())
    oracle = CommitOracle(service)
    service.run_stream(
        LoadGenerator(rate_per_hour=200, seed=7).stream(0.0, 24.0), 24.0
    )
    assert oracle.checks["plan"] > 0
