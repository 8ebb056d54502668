"""Fault injection: hostile streams, crash/replay property, bus resilience.

The crash/replay property is the tentpole: killing a node at a random
instant and resuming from its ledger must be indistinguishable from never
having crashed — bit-identical state under simulated-time re-execution,
zero-loss under wall-clock projection.  The stream transforms and the bus
retry/park/replay path get direct deterministic coverage.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    IngestConfig,
    LedmsClient,
    MemoryEventLog,
    OfferLedger,
    SchedulingConfig,
    ServiceConfig,
)
from repro.core import flex_offer
from repro.core.errors import ServiceError
from repro.node import MessageType
from repro.obs import Tracer
from repro.runtime import (
    BrpRuntimeService,
    BusAdapter,
    BusConfig,
    ClusterConfig,
    ClusterRuntime,
    LoadGenerator,
    SimulatedDriver,
    WallClockDriver,
    apply_outages,
    continue_stream,
    duplicate_stream,
    parse_outage,
    remaining_arrivals,
    reorder_stream,
    run_stream_with_crash,
    state_fingerprint,
)
from repro.runtime.cluster import PARK_LIMIT
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


def _arrivals(n=10, spacing=1.0):
    return [(i * spacing, _offer(int(i * spacing) + 4)) for i in range(n)]


# ----------------------------------------------------------------------
class TestDuplicateStream:
    def test_reemits_same_objects_in_nondecreasing_time(self):
        arrivals = _arrivals(40)
        out = list(duplicate_stream(arrivals, 0.5, seed=1))
        assert len(out) > len(arrivals)
        times = [t for t, _ in out]
        assert times == sorted(times)
        originals = {id(o) for _, o in arrivals}
        assert all(id(o) in originals for _, o in out)  # same objects, not copies

    def test_rate_zero_is_identity(self):
        arrivals = _arrivals(10)
        assert list(duplicate_stream(arrivals, 0.0)) == arrivals

    def test_validation(self):
        with pytest.raises(ServiceError):
            list(duplicate_stream(_arrivals(2), 1.5))
        with pytest.raises(ServiceError):
            list(duplicate_stream(_arrivals(2), 0.5, delay_slices=0))


class TestReorderStream:
    def test_window_zero_is_identity(self):
        arrivals = _arrivals(10)
        assert list(reorder_stream(arrivals, 0.0)) == arrivals

    def test_preserves_times_and_offer_multiset(self):
        arrivals = _arrivals(60, spacing=0.5)
        out = list(reorder_stream(arrivals, 4.0, seed=2))
        assert [t for t, _ in out] == [t for t, _ in arrivals]
        assert sorted(o.offer_id for _, o in out) == sorted(
            o.offer_id for _, o in arrivals
        )
        assert [o.offer_id for _, o in out] != [o.offer_id for _, o in arrivals]

    def test_negative_window_raises(self):
        with pytest.raises(ServiceError):
            list(reorder_stream(_arrivals(2), -1.0))


class TestOutageSpecs:
    def test_parse_valid_spec(self):
        assert parse_outage("brp-1:20:36.5") == ("brp-1", 20.0, 36.5)

    @pytest.mark.parametrize(
        "spec", ["nonsense", "brp-1:20", ":20:36", "brp-1:x:36", "brp-1:36:20"]
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ServiceError):
            parse_outage(spec)

    def test_apply_rejects_unknown_brp(self):
        cluster = ClusterRuntime(ClusterConfig.uniform(2, _config()))
        with pytest.raises(ServiceError):
            apply_outages(cluster, [parse_outage("brp-9:1:2")])


# ----------------------------------------------------------------------
class TestBusResilience:
    def test_config_validation(self):
        with pytest.raises(ServiceError):
            BusConfig(max_retries=-1)

    @pytest.mark.parametrize(
        "name", ["retry_backoff_slices", "backoff_factor", "park_limit"]
    )
    def test_bus_section_takes_only_max_retries(self, name):
        """The backoff and the park bound are constants: a config file
        that still sets them fails loudly instead of being ignored."""
        with pytest.raises(ServiceError, match=name):
            ClusterConfig.from_dict({"brps": {"a": {}}, "bus": {name: 1}})

    @pytest.mark.parametrize("max_retries", [0, 2])
    def test_recipient_down_at_pump_drops_once(self, max_retries):
        """Down between ``send`` and the pump: one drop, traced once."""
        driver = SimulatedDriver()
        tracer = Tracer()
        adapter = BusAdapter(
            driver, tracer=tracer, bus_config=BusConfig(max_retries=max_retries)
        )
        received = []
        adapter.register("node", received.append)
        assert adapter.send("peer", "node", MessageType.MEASUREMENT, 7, 0)
        adapter.set_unreachable("node")
        driver.run_until(driver.now + 10)
        drops = [
            e for e in tracer.events
            if e["event"] == "bus" and e["action"] == "drop"
        ]
        assert adapter.dropped == len(drops) == 1
        assert adapter.retries == max_retries
        adapter.set_unreachable("node", False)
        driver.run_until(driver.now + 1)
        # Only a retried message was parked, so only it comes back.
        assert [m.payload for m in received] == ([7] if max_retries else [])

    def test_retry_exhaust_park_then_replay_on_recovery(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(driver, bus_config=BusConfig(max_retries=2))
        received = []
        adapter.register("node", received.append)
        adapter.set_unreachable("node")
        assert not adapter.send("peer", "node", MessageType.MEASUREMENT, 7, 0)
        driver.run_until(driver.now + 10)  # backoff 1 + 2 slices, then exhaust
        assert adapter.retries == 2
        assert adapter.pending_retries == 0
        assert adapter.parked == 1
        assert adapter.dropped == 1
        assert received == []
        adapter.set_unreachable("node", False)
        driver.run_until(driver.now + 1)
        assert [m.payload for m in received] == [7]
        assert adapter.replayed == 1
        assert adapter.parked == 0
        assert adapter.delivered == 1

    def test_park_queue_is_bounded(self):
        driver = SimulatedDriver()
        adapter = BusAdapter(driver, bus_config=BusConfig(max_retries=1))
        adapter.register("node", lambda m: None)
        adapter.set_unreachable("node")
        for payload in range(PARK_LIMIT + 3):
            adapter.send("peer", "node", MessageType.MEASUREMENT, payload, 0)
        driver.run_until(driver.now + 5)
        assert adapter.parked == PARK_LIMIT  # oldest evicted, bound holds

    def test_outage_storm_loses_no_committed_schedules(self):
        config = ClusterConfig.uniform(
            3, _config(batch=8), bus=BusConfig(max_retries=3)
        )
        cluster = ClusterRuntime(config)
        apply_outages(cluster, [parse_outage("brp-1:20:36")])
        duration = 96.0
        streams = {
            name: LoadGenerator(rate_per_hour=30, seed=11 + i).stream(
                0.0, duration
            )
            for i, name in enumerate(cluster.clients)
        }
        report = cluster.run(streams, duration)
        assert report.bus_retries > 0
        assert report.bus_replayed > 0
        # Recovery replayed everything it parked: nothing still stranded.
        assert report.bus_parked == 0
        # The downed BRP's committed schedules survived the outage.
        brp1 = cluster.clients["brp-1"].service
        assert brp1.scheduled_total > 0

    def test_report_counts_every_message_still_held_at_window_end(self):
        """An outage past the window's end: what the trace never saw
        delivered is what the report says the bus still holds."""
        tracer = Tracer(capacity=100_000)
        cluster = ClusterRuntime(
            ClusterConfig.uniform(
                2, _config(batch=8), bus=BusConfig(max_retries=2)
            ),
            tracer=tracer,
        )
        apply_outages(cluster, [parse_outage("brp-1:10:30")])
        duration = 24.0
        streams = {
            name: LoadGenerator(rate_per_hour=20, seed=1 + i).stream(
                0.0, duration
            )
            for i, name in enumerate(cluster.clients)
        }
        report = cluster.run(streams, duration)
        bus_events = [
            e for e in tracer.events if e["event"] in ("bus", "bus_retry")
        ]
        seen = {e["message_id"] for e in bus_events}
        delivered = {
            e["message_id"] for e in bus_events if e.get("action") == "deliver"
        }
        drops = [e for e in bus_events if e.get("action") == "drop"]
        assert cluster.adapter.pending_retries > 0  # some still wait
        assert report.bus_parked == len(seen - delivered) > 0
        assert report.bus_dropped == len(drops)


# ----------------------------------------------------------------------
DURATION = 48.0
_CACHE: dict = {}


def _hostile_fixture():
    """One hostile stream + its uninterrupted baseline, computed once."""
    if not _CACHE:
        stream = list(
            LoadGenerator(rate_per_hour=40, seed=3).stream(0.0, DURATION)
        )
        arrivals = list(duplicate_stream(stream, 0.1, seed=7))
        client = LedmsClient(_config(), ledger=OfferLedger(MemoryEventLog()))
        client.run_stream(iter(arrivals), DURATION)
        _CACHE["arrivals"] = arrivals
        _CACHE["baseline"] = state_fingerprint(client)
    return _CACHE["arrivals"], _CACHE["baseline"]


class TestCrashReplay:
    @settings(max_examples=6, deadline=None)
    @given(crash=st.floats(min_value=4.0, max_value=44.0))
    def test_crash_resume_matches_uninterrupted_run(self, crash):
        """Crash-kill at a random instant, replay, finish: bit-identical."""
        arrivals, baseline = _hostile_fixture()
        log = MemoryEventLog()
        client = LedmsClient(_config(), ledger=OfferLedger(log))
        assert (
            run_stream_with_crash(client, iter(arrivals), DURATION, crash)
            is None
        )
        resumed = LedmsClient.resume_from_ledger(log, _config())
        assert resumed.last_replay.mode == "reexecute"
        tail = remaining_arrivals(arrivals, resumed.service.now)
        continue_stream(resumed, tail, DURATION)
        assert state_fingerprint(resumed) == baseline

    def test_every_loop_closes_its_window_through_service_drain(self, monkeypatch):
        """run_stream, replay's run_drain and continue_stream share one drain."""
        arrivals, _ = _hostile_fixture()
        ends = []
        drain = BrpRuntimeService.drain

        def counted(service, end):
            ends.append(end)
            return drain(service, end)

        monkeypatch.setattr(BrpRuntimeService, "drain", counted)
        log = MemoryEventLog()
        client = LedmsClient(_config(), ledger=OfferLedger(log))
        client.run_stream(iter(arrivals), DURATION)
        assert ends == [DURATION]
        LedmsClient.resume_from_ledger(log, _config())  # replays run_drain
        assert ends == [DURATION] * 2

        cut_short = MemoryEventLog()
        victim = LedmsClient(_config(), ledger=OfferLedger(cut_short))
        run_stream_with_crash(victim, iter(arrivals), DURATION, 20.0)
        resumed = LedmsClient.resume_from_ledger(cut_short, _config())
        assert ends == [DURATION] * 2  # no journaled drain to replay
        tail = remaining_arrivals(arrivals, resumed.service.now)
        continue_stream(resumed, tail, DURATION)
        assert ends == [DURATION] * 3

    def test_crash_outside_window_returns_report(self):
        arrivals, _ = _hostile_fixture()
        client = LedmsClient(_config(), ledger=OfferLedger(MemoryEventLog()))
        report = run_stream_with_crash(
            client, iter(arrivals), DURATION, DURATION + 100.0
        )
        assert report is not None
        assert report.offers_accepted > 0


class FakeClock:
    """Injectable monotonic clock: ``sleep`` advances fake time exactly."""

    def __init__(self, start: float = 0.0):
        self.t = float(start)

    def monotonic(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.t += seconds


def _wall_driver(clock: FakeClock, start: float = 0.0) -> WallClockDriver:
    return WallClockDriver(
        slices_per_second=1.0,
        start=start,
        monotonic=clock.monotonic,
        sleep=clock.sleep,
        max_wait_seconds=1e9,
    )


class TestWallClockCrashProjection:
    def test_projection_resume_is_zero_loss(self):
        """Wall-clock crash recovery: nothing accepted or committed is lost."""
        arrivals, _ = _hostile_fixture()
        clock = FakeClock()
        log = MemoryEventLog()
        client = LedmsClient(
            _config(),
            driver=_wall_driver(clock),
            ledger=OfferLedger(log),
        )
        crash = 24.0
        assert (
            run_stream_with_crash(client, iter(arrivals), DURATION, crash)
            is None
        )
        last = max(float(e["at"]) for e in log.replay())
        # The replacement process restarts on a fresh wall clock anchored
        # where the dead one stopped; projection folds the log into it.
        resumed = LedmsClient.resume_from_ledger(
            log,
            _config(),
            driver=_wall_driver(FakeClock(), start=last),
        )
        assert resumed.last_replay.mode == "project"
        assert resumed.service.live_offer_ids() == client.service.live_offer_ids()
        assert (
            resumed.service.committed_starts() == client.service.committed_starts()
        )
        assert resumed.dead_letters() == client.dead_letters()
        # The resumed node finishes the interrupted window cleanly.
        tail = remaining_arrivals(arrivals, last)
        report = continue_stream(resumed, tail, DURATION)
        assert report.offers_accepted > 0
