"""Multi-node cluster runtime: bus adapter, TSO tier, outage degradation.

Tiny deterministic workloads (fixed seeds, short simulated windows) drive
the whole level-3 path: per-BRP streaming services over the shared
simulated driver, macro snapshots over the bus, TSO re-aggregation and
system-wide scheduling, and scheduled macros disaggregating back down to
prosumer micro-offer commitments.
"""

import numpy as np
import pytest

from repro.api import (
    BrpHost,
    ClusterConfig,
    ClusterRuntime,
    IngestConfig,
    SchedulingConfig,
    ServiceConfig,
    TsoConfig,
)
from repro.core import flex_offer
from repro.core.errors import CommunicationError, ServiceError
from repro.core.schedule import ScheduledFlexOffer
from repro.node import Message, MessageBus, MessageType
from repro.obs import NullTracer
from repro.runtime import (
    BusAdapter,
    LoadGenerator,
    MetricsRegistry,
    SimulatedDriver,
    TsoRuntimeService,
    aggregate_registries,
)

TINY = ServiceConfig(
    scheduling=SchedulingConfig(scheduler_passes=1, horizon_slices=96),
    ingest=IngestConfig(batch_size=8),
)
TINY_TSO = TsoConfig(
    scheduler_passes=1, horizon_slices=96, trigger_refreshes=1,
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


# ----------------------------------------------------------------------
class TestBusBestEffort:
    def test_try_send_unknown_recipient_drops_instead_of_raising(self):
        bus = MessageBus()
        bus.register("a", lambda m: None)
        message = Message("a", "ghost", MessageType.MEASUREMENT, 1, 0)
        assert bus.try_send(message) is False
        assert bus.dropped == 1
        assert bus.pending == 0

    def test_try_send_unreachable_recipient_drops_at_send_time(self):
        bus = MessageBus()
        bus.register("a", lambda m: None)
        bus.set_unreachable("a")
        assert bus.is_reachable("a") is False
        message = Message("x", "a", MessageType.MEASUREMENT, 1, 0)
        assert bus.try_send(message) is False
        assert bus.dropped == 1
        bus.set_unreachable("a", False)
        assert bus.is_reachable("a") is True
        assert bus.try_send(message) is True
        assert bus.dispatch_all() == 1

    def test_strict_send_still_raises(self):
        bus = MessageBus()
        with pytest.raises(CommunicationError):
            bus.send(Message("x", "ghost", MessageType.MEASUREMENT, 1, 0))


class TestBusAdapter:
    def test_messages_deliver_on_the_driver_loop(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(MessageBus(), driver)
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
        adapter = BusAdapter(MessageBus(), driver)
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
                "tso": {"trigger_refreshes": 3},
            }
        )
        assert sorted(config.brps) == ["north", "south"]
        assert config.brps["north"].ingest.batch_size == 16
        assert config.brps["north"].scheduling.horizon_slices == 192
        assert config.brps["south"].ingest.batch_size == 16
        assert config.brps["south"].scheduling.horizon_slices == 48
        assert config.tso.trigger_refreshes == 3

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
            macro, macro.latest_start, macro.profile.min_energies()
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
            for offer_id, offer in service._live.items():
                start = service.committed_start(offer_id)
                if start is None:
                    continue
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
                name: sorted(
                    start
                    for oid in client.service._live
                    if (start := client.service.committed_start(oid))
                    is not None
                )
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
        # The planning-side instrument names both tiers emit on this run
        # (greedy at both tiers, so no delta.* counter may appear).
        assert {
            name
            for name, _ in merged.items()
            if name.startswith(
                ("schedule.", "tso.", "delta.", "trigger.", "stage.wall_seconds")
            )
        } == {
            "schedule.empty_runs",
            "schedule.last_cost",
            "schedule.last_offers",
            "schedule.run_seconds",
            "schedule.runs",
            "schedule.unique_scheduled",
            "schedule.warm_started",
            "trigger.AgeTrigger",
            "trigger.ImbalanceTrigger",
            "tso.last_cost",
            "tso.macro_pool",
            "tso.macro_snapshots",
            "tso.macros_received",
            "tso.macros_returned",
            "tso.refresh_wait_slices",
            "tso.run_seconds",
            "tso.runs",
            'stage.wall_seconds{brp="brp-0",stage="aggregate"}',
            'stage.wall_seconds{brp="brp-0",stage="disaggregate"}',
            'stage.wall_seconds{brp="brp-0",stage="schedule"}',
            'stage.wall_seconds{brp="brp-0",stage="sweep"}',
            'stage.wall_seconds{brp="brp-1",stage="aggregate"}',
            'stage.wall_seconds{brp="brp-1",stage="disaggregate"}',
            'stage.wall_seconds{brp="brp-1",stage="schedule"}',
            'stage.wall_seconds{brp="brp-1",stage="sweep"}',
            'stage.wall_seconds{brp="tso",stage="schedule"}',
        }


# ----------------------------------------------------------------------
class TestTsoRuntimeService:
    def _tso(self, **kwargs):
        driver = SimulatedDriver()
        adapter = BusAdapter(MessageBus(), driver)
        tso = TsoRuntimeService(
            TsoConfig(trigger_refreshes=2, min_run_interval_slices=0.0),
            adapter=adapter,
            **kwargs,
        )
        return tso, adapter, driver

    def test_snapshot_replaces_previous_macros(self):
        from repro.aggregation import aggregate_group

        tso, adapter, driver = self._tso()
        offer_a = flex_offer([(1.0, 2.0)] * 2, earliest_start=4, latest_start=10)
        offer_b = flex_offer([(1.0, 2.0)] * 2, earliest_start=4, latest_start=10)
        macro_1 = aggregate_group([offer_a])
        macro_2 = aggregate_group([offer_b])
        tso.receive_snapshot("brp-0", (macro_1,))
        assert tso.macro_count == 1
        tso.receive_snapshot("brp-0", (macro_2,))
        # The second snapshot replaced the first, not accumulated with it.
        assert tso.macro_count == 1
        assert tso._macro_home == {macro_2.offer_id: "brp-0"}

    def test_snapshot_refresh_dirties_only_the_senders_keys(self):
        from repro.aggregation import aggregate_group

        tso, adapter, driver = self._tso()
        macro_a = aggregate_group(
            [flex_offer([(1.0, 2.0)] * 2, earliest_start=4, latest_start=10)]
        )
        macro_b = aggregate_group(
            [flex_offer([(0.5, 1.5)] * 3, earliest_start=40, latest_start=60)]
        )
        tso.receive_snapshot("brp-0", (macro_a,))
        tso.receive_snapshot("brp-1", (macro_b,))
        tso.maybe_schedule(force=True)
        assert not tso.session.dirty  # drained by the run
        keys_b = set(tso._keys_by_brp["brp-1"])
        assert keys_b
        # A refreshed snapshot from brp-0 dirties its previous plan keys
        # and nothing of brp-1's.
        replacement = aggregate_group(
            [flex_offer([(1.0, 2.0)] * 2, earliest_start=5, latest_start=11)]
        )
        tso.receive_snapshot("brp-0", (replacement,))
        assert tso.session.dirty
        assert tso.session.dirty.isdisjoint(keys_b)

    def test_adaptive_cooldown_tightens_after_long_waits(self):
        from repro.aggregation import aggregate_group

        driver = SimulatedDriver()
        adapter = BusAdapter(MessageBus(), driver)
        tso = TsoRuntimeService(
            TsoConfig(
                trigger_refreshes=3,
                min_run_interval_slices=4.0,
                target_p95_slices=2.0,
            ),
            adapter=adapter,
        )
        assert tso._cooldown is not None
        macro = aggregate_group(
            [flex_offer([(1.0, 2.0)] * 2, earliest_start=4, latest_start=30)]
        )
        tso.receive_snapshot("brp-0", (macro,))
        driver.run_until(20.0)  # the snapshot waits 20 slices before a run
        tso.run_scheduling()
        assert tso._cooldown.trigger_refreshes == 2
        assert tso._cooldown.min_run_interval_slices == 2.0
        assert (
            tso.metrics.counter("trigger.adaptive_adjustments").value == 1
        )
        # The gate reads the tuned values, not the static config.
        assert tso.config.trigger_refreshes == 3

    def test_rejects_unexpected_message_types(self):
        tso, adapter, driver = self._tso()
        adapter.send("x", tso.name, MessageType.MEASUREMENT, 1, 0)
        with pytest.raises(CommunicationError):
            driver.run_until(driver.now)

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
