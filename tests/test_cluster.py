"""Multi-node cluster runtime: bus adapter, TSO tier, outage degradation.

Tiny deterministic workloads (fixed seeds, short simulated windows) drive
the whole level-3 path: per-BRP streaming services over the shared
simulated driver, macro snapshots over the bus, TSO re-aggregation and
system-wide scheduling, and scheduled macros disaggregating back down to
prosumer micro-offer commitments.
"""

import hashlib
import struct
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from pins import pin
from repro.api import (
    BrpHost,
    ClusterConfig,
    ClusterRuntime,
    IngestConfig,
    LedmsClient,
    SchedulingConfig,
    ServiceConfig,
    TsoConfig,
)
from repro.aggregation import AggregatedFlexOffer, PackedView
from repro.aggregation.aggregator import _finalize_aggregate
from repro.core import Profile, flex_offer
from repro.core.errors import CommunicationError, ServiceError
from repro.core.schedule import ScheduledFlexOffer
from repro.ledger import MemoryEventLog, OfferLedger
from repro.node import Message, MessageType
from repro.obs import NullTracer
from repro.runtime import (
    BrpRuntimeService,
    BusAdapter,
    CountTrigger,
    LoadGenerator,
    MetricsRegistry,
    SimulatedDriver,
    aggregate_registries,
)
from repro.runtime.planning import PlanSession
from repro.scheduling import RandomizedGreedyScheduler

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

TINY = ServiceConfig(
    scheduling=SchedulingConfig(scheduler_passes=1, horizon_slices=96),
    ingest=IngestConfig(batch_size=8),
)
TINY_TSO = TsoConfig.from_flat(
    scheduler_passes=1, horizon_slices=96, trigger=CountTrigger(1),
    min_run_interval_slices=2.0,
)


def _cluster(brps=2, config=TINY, tso=TINY_TSO):
    return ClusterRuntime(ClusterConfig.uniform(brps, config, tso=tso))


def _streams(cluster, duration, rate=30.0, seed=11, stride=1):
    return {
        name: LoadGenerator(
            rate_per_hour=rate, seed=seed + index * stride
        ).stream(0.0, duration)
        for index, name in enumerate(cluster.clients)
    }


def _cluster_plans_digest() -> str:
    """sha256 of one seeded 2-BRP cluster run's plans.

    In order: each TSO plan's cost, each BRP's plan costs (BRPs by name),
    the remote commit count, then each BRP's committed starts.  Offer ids
    come from a process-global counter, so every id is replaced by the
    offer's arrival rank in its BRP's stream before it is hashed.
    """
    cluster = _cluster(brps=2)
    tso_costs: list[float] = []
    plan_window = cluster.tso.session.plan_window

    def recording_plan_window(*args, **kwargs):
        plan = plan_window(*args, **kwargs)
        if plan is not None:
            tso_costs.append(plan.result.cost)
        return plan

    cluster.tso.session.plan_window = recording_plan_window
    brp_costs: dict[str, list[float]] = {name: [] for name in cluster.clients}
    for name, client in cluster.clients.items():
        client.service.plan_listeners.append(
            lambda result, costs=brp_costs[name]: costs.append(result.cost)
        )
    rank: dict[str, dict[int, int]] = {name: {} for name in cluster.clients}

    def ranked(name, stream):
        for at, offer in stream:
            rank[name][offer.offer_id] = len(rank[name])
            yield at, offer

    duration = 48.0
    streams = _streams(cluster, duration)
    report = cluster.run(
        {name: ranked(name, stream) for name, stream in streams.items()},
        duration,
    )
    assert len(tso_costs) >= 5 and report.remote_commits > 0
    digest = hashlib.sha256(struct.pack(f"<{len(tso_costs)}d", *tso_costs))
    for name in sorted(brp_costs):
        costs = brp_costs[name]
        digest.update(struct.pack(f"<{len(costs)}d", *costs))
    digest.update(struct.pack("<q", report.remote_commits))
    for name, starts in sorted(cluster.committed_starts.items()):
        for oid, start in sorted(
            (rank[name][oid], start) for oid, start in starts.items()
        ):
            digest.update(struct.pack("<qq", oid, start))
    return digest.hexdigest()


# ----------------------------------------------------------------------
class TestBusBestEffort:
    def test_try_send_unknown_recipient_drops_instead_of_raising(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(driver)
        adapter.register("a", lambda m: None)
        assert adapter.send("a", "ghost", MessageType.MEASUREMENT, 1, 0) is False
        assert adapter.dropped == 1
        driver.run_until(driver.now)
        assert adapter.dropped == 1
        assert adapter.delivered == 0

    def test_try_send_unreachable_recipient_drops_at_send_time(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(driver)
        adapter.register("a", lambda m: None)
        adapter.set_unreachable("a")
        assert adapter.send("x", "a", MessageType.MEASUREMENT, 1, 0) is False
        assert adapter.dropped == 1
        adapter.set_unreachable("a", False)
        assert adapter.send("x", "a", MessageType.MEASUREMENT, 1, 0) is True
        driver.run_until(driver.now)
        assert adapter.delivered == 1


class TestBusAdapter:
    def test_messages_deliver_on_the_driver_loop(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(driver)
        received = []
        adapter.register("node", received.append)
        assert adapter.send("peer", "node", MessageType.MEASUREMENT, 41, 0)
        # Queued, not delivered: delivery is a driver event.
        assert received == []
        driver.run_until(driver.now)
        assert [m.payload for m in received] == [41]
        assert adapter.delivered == 1

    def test_unreachable_node_degrades_to_dropped(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(driver)
        adapter.register("node", lambda m: None)
        adapter.set_unreachable("node")
        assert not adapter.send("peer", "node", MessageType.MEASUREMENT, 1, 0)
        driver.run_until(driver.now)
        assert adapter.dropped == 1
        assert adapter.delivered == 0


# ----------------------------------------------------------------------
class TestClusterConfig:
    def test_uniform_names_and_validation(self):
        config = ClusterConfig.uniform(3, TINY)
        assert sorted(config.brps) == ["brp-0", "brp-1", "brp-2"]
        with pytest.raises(ServiceError):
            ClusterConfig.uniform(0)
        with pytest.raises(ServiceError):
            ClusterConfig(brps={})
        with pytest.raises(ServiceError):
            ClusterConfig(brps={"tso": TINY})

    def test_from_dict_sections_and_defaults(self):
        config = ClusterConfig.from_dict(
            {
                "brps": {
                    "north": {},
                    "south": {"scheduling": {"horizon_slices": 48}},
                },
                "defaults": {"ingest": {"batch_size": 16}},
                "tso": {
                    "scheduling": {
                        "trigger": {"kind": "count", "threshold": 3},
                        "horizon_slices": 96,
                    },
                    "ingest": {"max_duration_slices": 12},
                    "scheduler_passes": 1,
                },
            }
        )
        assert sorted(config.brps) == ["north", "south"]
        assert config.brps["north"].ingest.batch_size == 16
        assert config.brps["north"].scheduling.horizon_slices == 192
        assert config.brps["south"].ingest.batch_size == 16
        assert config.brps["south"].scheduling.horizon_slices == 48
        tso = config.tso.scheduling
        assert tso.trigger == CountTrigger(3)
        assert (tso.horizon_slices, tso.scheduler_passes) == (96, 1)
        assert tso.min_run_interval_slices == 4.0  # the TSO default
        assert config.tso.ingest.max_duration_slices == 12
        assert config.brps["north"].ingest.max_duration_slices is None

    def test_tso_defaults_are_a_count_trigger_and_a_longer_cooldown(self):
        tso = TsoConfig().scheduling
        assert tso.trigger == CountTrigger(2)
        assert tso.min_run_interval_slices == 4.0

    def test_old_tso_key_fails_naming_its_replacement(self):
        with pytest.raises(ServiceError, match=r"known fields: .*\btrigger\b(,|$)"):
            ClusterConfig.from_dict({"tso": {"trigger_refreshes": 3}})

    def test_brp_section_is_layered_over_defaults(self):
        # A BRP's own field wins over ``defaults`` even when one gives it
        # flat and the other in its section.
        config = ClusterConfig.from_dict(
            {
                "brps": {
                    "north": {
                        "horizon_slices": 96,
                        "trigger": {"kind": "count", "threshold": 7},
                    },
                    "south": {},
                },
                "defaults": {
                    "scheduling": {
                        "horizon_slices": 48,
                        "trigger": {"kind": "count", "threshold": 3},
                    },
                },
            }
        )
        north, south = config.brps["north"], config.brps["south"]
        assert north.scheduling.horizon_slices == 96
        assert north.scheduling.trigger == CountTrigger(7)
        assert south.scheduling.horizon_slices == 48
        assert south.scheduling.trigger == CountTrigger(3)

    def test_from_dict_integer_brps(self):
        config = ClusterConfig.from_dict({"brps": 4})
        assert len(config.brps) == 4

    def test_from_dict_layers_over_a_base_config(self):
        """A base config (the CLI's flag-derived one) underlies the file."""
        base = ServiceConfig.from_flat(batch_size=8, scheduler_passes=3)
        config = ClusterConfig.from_dict(
            {
                "brps": {
                    "north": {},
                    "south": {"ingest": {"batch_size": 16}},
                },
            },
            base=base,
        )
        # Unmentioned fields keep the base values, not built-in defaults.
        assert config.brps["north"].ingest.batch_size == 8
        assert config.brps["north"].scheduling.scheduler_passes == 3
        # File sections still win where they speak.
        assert config.brps["south"].ingest.batch_size == 16
        assert config.brps["south"].scheduling.scheduler_passes == 3
        uniform = ClusterConfig.from_dict({"brps": 2}, base=base)
        assert uniform.brps["brp-0"].ingest.batch_size == 8

    def test_from_dict_rejects_unknown_keys_and_bad_specs(self):
        with pytest.raises(ServiceError):
            ClusterConfig.from_dict({"brp": 2})
        with pytest.raises(ServiceError):
            ClusterConfig.from_dict({"brps": 0})
        with pytest.raises(ServiceError):
            ClusterConfig.from_dict({"brps": True})
        with pytest.raises(ServiceError):
            ClusterConfig.from_dict({"tso": {"scheduler": "bogus"}})
        # Node names are bus addresses and metric labels: a number failed
        # mid-run, and an empty BRP name ran unnamed.
        for data in (
            {"brps": 2, "tso_name": 5},
            {"brps": 2, "tso_name": ""},
            {"brps": {"": {}}},
        ):
            with pytest.raises(ServiceError, match="non-empty strings"):
                ClusterConfig.from_dict(data)
        with pytest.raises(ServiceError, match="non-empty strings"):
            ClusterConfig(brps={7: ServiceConfig()})


# ----------------------------------------------------------------------
class RecordingUplink:
    """The ``send``/``register`` surface a :class:`BrpHost` wires to."""

    def __init__(self):
        self.sent = []
        self.handlers = {}

    def send(self, sender, recipient, type_, payload, now, *, detail=None):
        self.sent.append((sender, recipient, type_, payload))
        return True

    def register(self, name, handler):
        self.handlers[name] = handler


class TestBrpHost:
    def _hosted(self, duration=24.0):
        driver = SimulatedDriver()
        uplink = RecordingUplink()
        host = BrpHost(
            {"north": TINY, "south": TINY},
            driver=driver,
            uplink=uplink,
            tso_name="tso",
            tracer=NullTracer(),
        )
        plans = []
        host.clients["north"].on_plan_committed(plans.append)
        # "south" has no stream: its window still opens (sweeps, drain).
        stream = LoadGenerator(rate_per_hour=30.0, seed=11).stream(0.0, duration)
        host.open({"north": stream}, duration)
        driver.run_until(duration)
        host.drain(duration)
        return host, uplink, plans

    def test_publishes_a_snapshot_after_each_committed_plan(self):
        host, uplink, plans = self._hosted()
        assert plans and len(uplink.sent) == len(plans)
        assert {(s, r, t) for s, r, t, _ in uplink.sent} == {
            ("north", "tso", MessageType.MACRO_FLEX_OFFER)
        }
        service = host.clients["north"].service
        assert uplink.sent[-1][3] == service.last_plan_originals
        assert set(uplink.handlers) == {"north", "south"}

    def test_applies_a_returned_schedule_and_rejects_other_messages(self):
        host, uplink, _ = self._hosted()
        service = host.clients["north"].service
        macro = max(uplink.sent[-1][3], key=lambda m: m.latest_start)
        live = [m.offer_id for m in macro.members if service.is_live(m.offer_id)]
        assert live, "the final snapshot holds no live member"
        scheduled = ScheduledFlexOffer(
            macro, macro.latest_start, macro.profile.min_array
        )
        uplink.handlers["north"](
            Message(
                "tso", "north", MessageType.SCHEDULED_MACRO_FLEX_OFFER,
                scheduled, 24,
            )
        )
        shift = macro.latest_start - macro.earliest_start
        by_id = {m.offer_id: m for m in macro.members}
        for offer_id in live:
            assert service.committed_start(offer_id) == (
                by_id[offer_id].earliest_start + shift
            )
        assert service.metrics.counter("cluster.remote_commits").value == len(live)
        with pytest.raises(CommunicationError, match="north: unexpected"):
            uplink.handlers["north"](
                Message("tso", "north", MessageType.MACRO_FLEX_OFFER, (), 24)
            )

    def test_results_match_what_the_clients_report(self):
        host, _, _ = self._hosted()
        results = host.results(24.0, 1.5)
        assert set(results) == {"north", "south"}
        for name, client in host.clients.items():
            report, metrics, committed, accepted = results[name]
            assert (report.duration_slices, report.wall_seconds) == (24.0, 1.5)
            assert report.state_counts == client.store.state_counts()
            assert metrics is client.service.metrics
            assert committed == {
                oid: client.query_offer(oid).committed_start for oid in committed
            }
            assert len(accepted) == report.offers_accepted
            assert all(
                client.query_offer(oid).state not in (None, "submitted", "rejected")
                for oid in accepted
            )
        assert results["north"].report.offers_accepted > 0
        assert results["north"].committed_starts
        assert results["south"].report.offers_submitted == 0


# ----------------------------------------------------------------------
class TestClusterRuntime:
    def test_four_brp_tso_plan_roundtrips_to_micro_offers(self):
        """The acceptance-criterion run: 4 BRPs + TSO over the bus adapter.

        In simulated time, a committed TSO-level plan's disaggregated
        per-BRP schedules must round-trip all the way to prosumer
        micro-offer commitments, inside each offer's own window.
        """
        cluster = _cluster(brps=4)
        duration = 48.0
        report = cluster.run(_streams(cluster, duration), duration)

        assert report.brp_count == 4
        assert report.offers_accepted > 0
        # A committed TSO-level plan exists and flowed back down.
        assert report.tso_scheduling_runs > 0
        assert np.isfinite(report.tso_plan_cost)
        assert report.tso_macros_returned > 0
        assert report.remote_commits > 0
        assert report.bus_dropped == 0
        # Snapshots from every BRP reached the TSO.
        assert report.tso_macro_snapshots >= report.brp_count

        # Round trip: remote plans committed member starts inside each
        # micro offer's own admissible window on every BRP.
        remote_brps = 0
        for client in cluster.clients.values():
            service = client.service
            commits = service.metrics.counter("cluster.remote_commits").value
            if commits:
                remote_brps += 1
            checked = 0
            for offer_id, start in service.committed_starts().items():
                offer = service.store.offer(offer_id)
                assert offer.earliest_start <= start <= offer.latest_start
                checked += 1
            assert service.scheduled_total > 0 or checked == 0
        assert remote_brps == 4

    def test_cluster_run_is_deterministic(self):
        def run():
            cluster = _cluster(brps=2)
            report = cluster.run(_streams(cluster, 36.0), 36.0)
            # Offer ids are allocated from a process-global counter, so two
            # runs in one process see different absolute ids; compare the
            # id-independent shape of the committed state instead.
            starts = {
                name: sorted(client.service.committed_starts().values())
                for name, client in cluster.clients.items()
            }
            return (
                report.offers_accepted,
                report.offers_scheduled,
                report.tso_scheduling_runs,
                report.remote_commits,
                report.bus_delivered,
                starts,
            )

        assert run() == run()

    @pytest.mark.pinned
    def test_cluster_plans_pinned(self):
        """Tier-1 pin for "plans bit-identical" at the TSO tier: every plan
        cost of both tiers, the remote commit count and each BRP's committed
        starts of one seeded 2-BRP run."""
        pin("cluster.plans", _cluster_plans_digest())

    def test_unreachable_brp_degrades_gracefully_mid_stream(self):
        """One BRP lost mid-stream: its TSO traffic drops, the rest plan on."""
        cluster = _cluster(brps=3)
        duration = 48.0
        down = sorted(cluster.clients)[0]
        # Schedule the outage on the shared driver, mid-window.
        cluster.driver.schedule_at(
            duration / 2, lambda: cluster.set_unreachable(down)
        )
        report = cluster.run(_streams(cluster, duration), duration)

        # The cluster still commits TSO plans and micro schedules...
        assert report.tso_scheduling_runs > 0
        assert report.remote_commits > 0
        # ...while traffic to the dead BRP was dropped, never raised.
        assert report.bus_dropped > 0
        # The dead node kept running locally (its own plans still commit).
        assert report.brp_reports[down].offers_accepted > 0
        # Reachable BRPs kept receiving remote plans.
        alive = [name for name in cluster.clients if name != down]
        alive_commits = sum(
            cluster.clients[name]
            .service.metrics.counter("cluster.remote_commits")
            .value
            for name in alive
        )
        assert alive_commits > 0

    def test_consecutive_windows_replay_the_held_lookahead(self):
        """The arrival pulled to discover a closed window is not lost."""
        cluster = _cluster(brps=1)
        (name,) = cluster.clients
        offers = [
            flex_offer([(1.0, 2.0)] * 2, earliest_start=6, latest_start=40),
            flex_offer([(1.0, 2.0)] * 2, earliest_start=16, latest_start=40),
        ]
        arrivals = iter([(5.0, offers[0]), (15.0, offers[1])])
        # First window ends at 10: the t=15 arrival is pulled as lookahead.
        cluster.run({name: arrivals}, 10.0)
        report = cluster.run({name: arrivals}, 10.0)
        # Both offers were admitted across the two windows — the lookahead
        # was held and replayed, not dropped.
        assert report.offers_accepted == 2

    def test_rejects_streams_for_unknown_brps(self):
        cluster = _cluster(brps=2)
        with pytest.raises(ServiceError):
            cluster.run({"ghost": iter(())}, 8.0)

    def test_cluster_metrics_aggregate_counters_and_latency(self):
        cluster = _cluster(brps=2)
        duration = 36.0
        report = cluster.run(_streams(cluster, duration), duration)
        merged = cluster.metrics()
        per_brp = sum(
            client.service.metrics.counter("ingest.accepted").value
            for client in cluster.clients.values()
        )
        assert merged.counter("ingest.accepted").value == per_brp
        assert merged.counter("ingest.accepted").value == report.offers_accepted
        merged_latency = merged.histogram("latency.e2e_slices")
        assert merged_latency.count == sum(
            client.service.metrics.histogram("latency.e2e_slices").count
            for client in cluster.clients.values()
        )
        assert report.latency_slices_p95 == merged_latency.p95
        # The TSO's registry joins under its own prefix: its macro
        # latencies never pool into the BRPs' offer latencies.
        tso_latency = cluster.tso.metrics.histogram("latency.e2e_slices")
        assert tso_latency.count > 0
        assert merged.histogram("tso.latency.e2e_slices").count == (
            tso_latency.count
        )
        # The planning-side instrument names both tiers emit on this run
        # (each tier counts its kept and re-placed placements).
        planning = ("schedule.", "delta.", "trigger.", "stage.wall_seconds")
        assert {
            name
            for name, _ in merged.items()
            if name.startswith(planning + tuple("tso." + p for p in planning))
        } == {
            "delta.replaced_placements",
            "delta.reused_placements",
            "schedule.empty_runs",
            "schedule.last_cost",
            "schedule.last_offers",
            "schedule.run_seconds",
            "schedule.runs",
            "schedule.unique_scheduled",
            "schedule.warm_started",
            "trigger.AgeTrigger",
            "trigger.ImbalanceTrigger",
            'stage.wall_seconds{brp="brp-0",stage="aggregate"}',
            'stage.wall_seconds{brp="brp-0",stage="disaggregate"}',
            'stage.wall_seconds{brp="brp-0",stage="schedule"}',
            'stage.wall_seconds{brp="brp-0",stage="sweep"}',
            'stage.wall_seconds{brp="brp-1",stage="aggregate"}',
            'stage.wall_seconds{brp="brp-1",stage="disaggregate"}',
            'stage.wall_seconds{brp="brp-1",stage="schedule"}',
            'stage.wall_seconds{brp="brp-1",stage="sweep"}',
            "tso.delta.replaced_placements",
            "tso.delta.reused_placements",
            "tso.schedule.last_cost",
            "tso.schedule.last_offers",
            "tso.schedule.run_seconds",
            "tso.schedule.runs",
            "tso.schedule.unique_scheduled",
            "tso.schedule.warm_started",
            "tso.trigger.CountTrigger",
            'tso.stage.wall_seconds{brp="tso",stage="aggregate"}',
            'tso.stage.wall_seconds{brp="tso",stage="disaggregate"}',
            'tso.stage.wall_seconds{brp="tso",stage="schedule"}',
            'tso.stage.wall_seconds{brp="tso",stage="sweep"}',
        }


# ----------------------------------------------------------------------
@pytest.mark.pinned
class TestAggregatesStayArrays:
    def test_no_aggregate_builds_its_constraints_in_the_window(
        self, monkeypatch
    ):
        """Pin: the runtime reads an aggregate's profile as its two bound
        arrays only.  Over a seeded BRP run and a seeded 2-BRP cluster run,
        every planned candidate is the packed engine's view with an
        array-form profile, every aggregate built from one (the BRPs'
        uplinked macros, the TSO's supers for the downlink) holds that same
        profile, and no array-form profile (the macros under a super
        included) derives its constraint objects."""
        derived = []
        constraints = Profile._constraints

        def recording(profile):
            if profile._items is None:
                derived.append(profile)
            return constraints(profile)

        monkeypatch.setattr(Profile, "_constraints", recording)
        planned = []

        def watch(session):
            plan_window = session.plan_window

            def recording_plan_window(candidates, *args, **kwargs):
                candidates = list(candidates)
                planned.extend(view for _, view in candidates)
                return plan_window(candidates, *args, **kwargs)

            session.plan_window = recording_plan_window

        service = BrpRuntimeService(TINY)
        watch(service.session)
        stream = LoadGenerator(rate_per_hour=30.0, seed=11).stream(0.0, 48.0)
        service.run_stream(stream, 48.0)
        brp_planned = len(planned)
        cluster = _cluster(brps=2)
        watch(cluster.tso.session)
        for client in cluster.clients.values():
            watch(client.service.session)
        report = cluster.run(_streams(cluster, 48.0), 48.0)

        assert brp_planned > 0 and len(planned) > brp_planned
        assert report.tso_scheduling_runs > 0 and report.remote_commits > 0
        assert all(isinstance(view, PackedView) for view in planned)
        assert all(view.profile._items is None for view in planned)
        built = [view for view in planned if view._aggregate is not None]
        assert built
        assert all(
            isinstance(view.aggregate, AggregatedFlexOffer)
            and view.aggregate.profile is view.profile
            for view in built
        )
        assert derived == []


class TestWhereAggregatesAreBuilt:
    """An aggregate object is built only where one leaves the node."""

    @staticmethod
    def _count_builds(monkeypatch) -> list:
        built = []
        post_init = AggregatedFlexOffer.__post_init__

        def counting(aggregate):
            built.append(aggregate)
            post_init(aggregate)

        monkeypatch.setattr(AggregatedFlexOffer, "__post_init__", counting)
        return built

    def test_a_brp_plans_and_commits_without_one(self, monkeypatch):
        """A seeded single-BRP run — planning, commits and the facade's
        plan hook included — constructs no aggregate object at all."""
        built = self._count_builds(monkeypatch)
        client = LedmsClient(TINY)
        plans = []
        client.on_plan_committed(plans.append)
        stream = LoadGenerator(rate_per_hour=30.0, seed=11).stream(0.0, 48.0)
        report = client.run_stream(stream, 48.0)
        assert len(plans) > 1 and report.offers_scheduled > 0
        assert built == []

    def test_uplink_payloads_are_the_eager_build(self):
        """What a BRP sends up is real aggregate objects, each equal — bit
        for bit — to the member walk's build around its bound rows."""
        cluster = _cluster(brps=2)
        payloads = []
        send = cluster.adapter.send

        def recording_send(sender, recipient, type_, payload, *args, **kwargs):
            if type_ is MessageType.MACRO_FLEX_OFFER:
                payloads.extend(payload)
            return send(sender, recipient, type_, payload, *args, **kwargs)

        cluster.adapter.send = recording_send
        report = cluster.run(_streams(cluster, 48.0), 48.0)
        assert payloads and report.remote_commits > 0
        def fields(aggregate):
            return (
                aggregate.offer_id,
                aggregate.earliest_start,
                aggregate.latest_start,
                aggregate.creation_time,
                aggregate.assignment_before,
                struct.pack("<d", aggregate.unit_price),
                aggregate.owner,
                aggregate.offsets,
                tuple(map(id, aggregate.members)),
            )

        for macro in payloads:
            assert isinstance(macro, AggregatedFlexOffer)
            assert macro.profile._items is None
            eager = _finalize_aggregate(
                macro.members, macro.earliest_start, macro.profile, macro.offer_id
            )
            assert fields(macro) == fields(eager)


class TestMicroProfilesStayArrays:
    """The runtime reads a micro offer's profile as its two bound arrays:
    no path builds the constraint tuple of an offer it holds."""

    @staticmethod
    def _tuples_held(service) -> list:
        live = list(service._live.values())
        assert live
        return [e.offer for e in live if e.offer.profile._items is not None]

    def test_a_seeded_brp_stream(self):
        client = LedmsClient(TINY)
        stream = LoadGenerator(rate_per_hour=60.0, seed=11).stream(0.0, 48.0)
        report = client.run_stream(stream, 48.0)
        assert report.offers_scheduled > 0
        assert self._tuples_held(client.service) == []

    def test_a_journaled_churn_stream(self):
        """Duplicates, withdrawals and window-narrowing updates, each
        journaled to a recording ledger, build no constraint tuple."""
        service = BrpRuntimeService(TINY, ledger=OfferLedger(MemoryEventLog()))
        stream = LoadGenerator(rate_per_hour=120.0, seed=5).stream(0.0, 36.0)
        for index, (at, offer) in enumerate(stream):
            follow_up = {
                0: partial(service.submit, offer),
                1: partial(service.withdraw, offer.offer_id),
                2: partial(
                    service.update,
                    offer.with_times(offer.earliest_start, offer.latest_start - 1),
                ),
            }.get(index % 5)
            service.driver.schedule_at(at, partial(service.submit, offer))
            if follow_up is not None:
                service.driver.schedule_at(at + 0.25, follow_up)
        service.open_window((), 36.0)
        service.driver.run_until(36.0)
        service.drain(36.0)
        kinds = {event["kind"] for event in service.ledger.events()}
        assert {"submit", "replace", "withdraw", "scheduled"} <= kinds
        assert self._tuples_held(service) == []


# ----------------------------------------------------------------------
def _macro(earliest, latest, bounds=((1.0, 2.0),) * 2):
    from repro.aggregation import aggregate_group

    return aggregate_group(
        [flex_offer(list(bounds), earliest_start=earliest, latest_start=latest)]
    )


class TestTsoSeams:
    """The two cluster seams around the TSO service: snapshots up, plans down."""

    def _cluster(self, **tso_flat):
        tso = TsoConfig.from_flat(
            scheduler_passes=1, horizon_slices=96, **tso_flat
        )
        return _cluster(brps=2, tso=tso)

    def _send(self, cluster, brp, macros):
        cluster.adapter.send(
            brp, cluster.config.tso_name, MessageType.MACRO_FLEX_OFFER,
            tuple(macros), cluster.driver.now,
        )
        cluster.driver.run_until(cluster.driver.now)

    def test_one_snapshot_is_one_admission_and_one_run(self):
        cluster = self._cluster(
            trigger=CountTrigger(1), min_run_interval_slices=0.0
        )
        macros = [_macro(4 + i, 20 + i) for i in range(5)]
        self._send(cluster, "brp-0", macros)
        tso = cluster.tso
        # A count-1 trigger asked per macro would have run five times.
        assert tso.metrics.counter("schedule.runs").value == 1
        assert tso.metrics.counter("ingest.accepted").value == len(macros)
        assert tso.scheduled_total == len(macros)
        planned = {
            macro.offer_id
            for original in tso.last_plan_originals
            for macro in original.members
        }
        assert planned == {macro.offer_id for macro in macros}
        report = cluster.report(duration_slices=0.0, wall_seconds=0.0)
        assert report.tso_scheduling_runs == 1
        assert report.tso_macro_snapshots == 1
        assert report.tso_macros_returned == len(macros)

    def test_returned_macro_is_the_object_its_brp_sent(self):
        cluster = self._cluster(
            trigger=CountTrigger(1), min_run_interval_slices=0.0
        )
        cluster.driver.run_until(6.0)
        sent = _macro(4, 20)  # admitted at slice 6: the TSO clips its copy
        returned = []
        cluster.clients["brp-0"].service.apply_remote_schedule = returned.append
        self._send(cluster, "brp-0", [sent])
        assert [scheduled.offer for scheduled in returned] == [sent]
        assert returned[0].start >= 6

    def test_second_snapshot_replaces_the_first_and_spares_the_other_brp(self):
        cluster = self._cluster(trigger=CountTrigger(10**6))
        tso = cluster.tso
        macro_1, macro_2 = _macro(4, 10), _macro(4, 10)
        macro_b = _macro(40, 60, bounds=((0.5, 1.5),) * 3)
        self._send(cluster, "brp-0", [macro_1])
        self._send(cluster, "brp-1", [macro_b])
        self._send(cluster, "brp-0", [macro_2])
        # brp-0's second snapshot replaced its first, not accumulated with it.
        assert tso.live_offer_ids() == sorted(
            [macro_2.offer_id, macro_b.offer_id]
        )
        assert tso.metrics.counter("runtime.offers_withdrawn").value == 1
        # brp-1's macro was admitted once, and an unchanged re-send admits
        # nothing.
        assert tso.metrics.counter("ingest.accepted").value == 3
        self._send(cluster, "brp-1", [macro_b])
        assert tso.metrics.counter("ingest.accepted").value == 3
        # The same id with a changed window is withdrawn and re-admitted.
        narrowed = macro_b.with_times(40, 50)
        self._send(cluster, "brp-1", [narrowed])
        assert tso.metrics.counter("runtime.offers_withdrawn").value == 2
        assert tso.metrics.counter("ingest.accepted").value == 4
        assert tso.live_offer_ids() == sorted(
            [macro_2.offer_id, macro_b.offer_id]
        )
        assert tso.metrics.counter("cluster.macro_snapshots").value == 5

    def test_rejects_unexpected_message_types(self):
        cluster = self._cluster()
        cluster.adapter.send(
            "x", cluster.config.tso_name, MessageType.MEASUREMENT, 1, 0
        )
        with pytest.raises(CommunicationError):
            cluster.driver.run_until(cluster.driver.now)


class TestMetricsMerge:
    def test_metrics_registry_merge_is_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(3)
        b.counter("x").inc(4)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        merged = aggregate_registries([a, b])
        assert merged.counter("x").value == 7
        assert merged.histogram("h").count == 2
        assert merged.histogram("h").total == pytest.approx(4.0)

    def test_histogram_merge_stays_fair_past_reservoir_saturation(self):
        """Pooled quantiles must weight saturated sources by population."""
        from repro.runtime import Histogram

        fast = Histogram("h", reservoir_size=100)
        slow = Histogram("h", reservoir_size=100)
        for _ in range(1000):
            fast.observe(1.0)
        for _ in range(1000):
            slow.observe(20.0)
        merged = Histogram("h", reservoir_size=100)
        merged.merge_with(fast)
        merged.merge_with(slow)
        assert merged.count == 2000
        assert merged.total == pytest.approx(21000.0)
        # Equal populations: each source holds half the merged reservoir,
        # so both tails are visible — not ~93% of whichever merged first.
        assert merged.quantile(0.25) == 1.0
        assert merged.quantile(0.75) == 20.0


class TestKeptPlacementQuality:
    @pytest.fixture
    def workloads(self):
        saved = sys.path[:]
        sys.path.insert(0, str(E2E))
        try:
            import workloads
        finally:
            sys.path[:] = saved
        return workloads

    def test_kept_placements_cost_what_a_full_replan_does(
        self, workloads, tmp_path, monkeypatch
    ):
        """On every planning run of a ``cluster_k2``-shaped smoke run, at
        both tiers, the plan that keeps clean placements costs within 1e-3
        relative of a full two-pass greedy over the same problem: on the
        runtime's flat two-row market the cost hardly depends on where the
        kept offers sit."""
        prepared = workloads.prepare(
            workloads.WORKLOADS["cluster_k2"], 42, True, tmp_path
        )
        plan = PlanSession.plan
        gaps = []
        kept_runs = 0

        def judged(session, problem, keys):
            nonlocal kept_runs
            before = session.metrics.counter("delta.reused_placements").value
            result = plan(session, problem, keys)
            kept_runs += (
                session.metrics.counter("delta.reused_placements").value
                > before
            )
            full = RandomizedGreedyScheduler().schedule(
                problem, max_passes=2, rng=np.random.default_rng(0)
            )
            gaps.append(abs(result.cost - full.cost) / abs(full.cost))
            return result

        monkeypatch.setattr(PlanSession, "plan", judged)
        prepared.replay()
        assert len(gaps) > 20 and kept_runs > len(gaps) // 2
        assert max(gaps) <= 1e-3
