"""Time drivers: simulated/wall-clock equivalence and the thread-safe inbox.

Wall-clock behaviour is tested against a *fake* monotonic clock injected
into :class:`WallClockDriver` — every test here is deterministic and never
sleeps for real.  Times in the equivalence scenarios are dyadic rationals
(multiples of 1/4), which double-precision floats represent and add
exactly, so the fake-clock run hits every event at bit-identical times to
the simulated run.
"""

import threading

import pytest

from repro.core import flex_offer
from repro.core.errors import ServiceError
from repro.ledger import MemoryEventLog, OfferLedger
from repro.runtime import (
    BrpRuntimeService,
    ServiceConfig,
    SimulatedDriver,
    TimeDriver,
    WallClockDriver,
)
from repro.runtime.config import IngestConfig, SchedulingConfig
from repro.runtime.triggers import AgeTrigger, AnyTrigger, CountTrigger


class FakeClock:
    """Injectable monotonic clock: ``sleep`` advances fake time exactly."""

    def __init__(self, start: float = 0.0):
        self.t = float(start)
        self.sleeps = 0

    def monotonic(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.sleeps += 1
        self.t += seconds


def fake_driver(clock: FakeClock, **kwargs) -> WallClockDriver:
    kwargs.setdefault("slices_per_second", 1.0)
    kwargs.setdefault("max_wait_seconds", 1e9)
    return WallClockDriver(
        monotonic=clock.monotonic, sleep=clock.sleep, **kwargs
    )


def _config() -> ServiceConfig:
    return ServiceConfig(
        ingest=IngestConfig(batch_size=4),
        scheduling=SchedulingConfig(
            horizon_slices=96,
            scheduler_passes=1,
            trigger=AnyTrigger([CountTrigger(3), AgeTrigger(4)]),
            min_run_interval_slices=1.0,
        ),
    )


def _offer(est, tf=6, duration=2):
    return flex_offer([(1.0, 2.0)] * duration, earliest_start=est,
                      latest_start=est + tf)


#: Dyadic arrival times -> exactly representable, exactly summable floats.
ARRIVALS = [(0.25, 10), (1.5, 12), (2.75, 14), (4.25, 16), (6.5, 18), (8.75, 20)]


def _stream():
    return [(t, _offer(est)) for t, est in ARRIVALS]


class TestProtocol:
    def test_both_drivers_satisfy_protocol(self):
        assert isinstance(SimulatedDriver(), TimeDriver)
        assert isinstance(fake_driver(FakeClock()), TimeDriver)

    def test_invalid_construction_rejected(self):
        with pytest.raises(ServiceError):
            WallClockDriver(slices_per_second=0)
        with pytest.raises(ServiceError):
            WallClockDriver(max_wait_seconds=0)


class TestWallClockDriver:
    def test_events_fire_in_time_order(self):
        clock = FakeClock()
        driver = fake_driver(clock)
        seen = []
        driver.schedule_at(3.0, lambda: seen.append(("b", driver.now)))
        driver.schedule_at(1.0, lambda: seen.append(("a", driver.now)))
        driver.schedule_at(5.0, lambda: seen.append(("c", driver.now)))
        driver.run_until(10.0)
        assert [name for name, _ in seen] == ["a", "b", "c"]
        assert [t for _, t in seen] == [1.0, 3.0, 5.0]
        assert driver.now >= 10.0
        assert driver.processed == 3

    def test_slices_per_second_scales_time(self):
        clock = FakeClock()
        driver = fake_driver(clock, slices_per_second=4.0)
        driver.run_until(10.0)  # 10 slices at 4 slices/sec = 2.5 wall seconds
        assert clock.t == pytest.approx(2.5)

    def test_late_schedule_runs_asap_instead_of_raising(self):
        clock = FakeClock()
        driver = fake_driver(clock)
        driver.run_until(5.0)
        seen = []
        driver.schedule_at(1.0, lambda: seen.append(driver.now))  # in the past
        driver.run_until(6.0)
        assert seen and seen[0] >= 5.0

    def test_timers_beyond_end_stay_queued(self):
        clock = FakeClock()
        driver = fake_driver(clock)
        seen = []
        driver.schedule_at(7.0, lambda: seen.append(driver.now))
        driver.run_until(5.0)
        assert seen == []
        driver.run_until(10.0)
        assert seen == [7.0]


class TestInbox:
    def test_posted_work_runs_on_loop(self):
        clock = FakeClock()
        driver = fake_driver(clock)
        seen = []
        driver.post(lambda: seen.append("first"))
        driver.schedule_at(2.0, lambda: driver.post(lambda: seen.append("mid")))
        driver.run_until(4.0)
        assert seen == ["first", "mid"]

    def test_cross_thread_post(self):
        # Mechanical thread-safety: producers on foreign threads enqueue,
        # the loop thread drains in FIFO order.  The producer is joined
        # before the loop runs, keeping the test deterministic.
        clock = FakeClock()
        driver = fake_driver(clock)
        seen = []

        def producer():
            for i in range(50):
                driver.post(lambda i=i: seen.append(i))

        thread = threading.Thread(target=producer)
        thread.start()
        thread.join()
        driver.run_until(1.0)
        assert seen == list(range(50))
        assert driver.processed == 50

    def test_real_wait_interrupted_by_post(self):
        # Default (event-based) wait: a post from another thread wakes the
        # loop immediately, so the pending work runs long before the
        # 5-second timer horizon.  Bounded real time (< ~50 ms), no fake.
        driver = WallClockDriver(slices_per_second=1.0)
        seen = []
        timer = threading.Timer(0.01, lambda: driver.post(lambda: seen.append(driver.now)))
        timer.start()
        driver.run_until(0.05)
        timer.cancel()
        assert seen  # posted callback ran within the 50 ms window


class TestServiceEquivalence:
    def _run(self, driver):
        service = BrpRuntimeService(_config(), driver=driver)
        return service, service.run_stream(_stream(), 12.0)

    def test_wallclock_matches_simulated_bit_for_bit(self):
        _, simulated = self._run(SimulatedDriver())
        _, wallclock = self._run(fake_driver(FakeClock()))
        assert wallclock.offers_submitted == simulated.offers_submitted
        assert wallclock.offers_accepted == simulated.offers_accepted
        assert wallclock.offers_scheduled == simulated.offers_scheduled
        assert wallclock.offers_executed == simulated.offers_executed
        assert wallclock.offers_expired == simulated.offers_expired
        assert wallclock.scheduling_runs == simulated.scheduling_runs
        assert wallclock.aggregation_runs == simulated.aggregation_runs
        assert wallclock.trigger_fires == simulated.trigger_fires
        # Dyadic times are exact under both clocks: even the simulated-time
        # latency quantiles agree bit for bit.
        assert wallclock.latency_slices_p50 == simulated.latency_slices_p50
        assert wallclock.latency_slices_p95 == simulated.latency_slices_p95

    def test_wallclock_service_processes_posted_arrivals(self):
        clock = FakeClock()
        driver = fake_driver(clock)
        service = BrpRuntimeService(_config(), driver=driver)
        for t, offer in _stream():
            driver.schedule_at(
                t, lambda offer=offer: service.submit(offer)
            )
        driver.post(lambda: service.submit(_offer(9, tf=8)))
        driver.run_until(12.0)
        assert service.metrics.counter("ingest.accepted").value == len(ARRIVALS) + 1
        assert service.live_offers > 0
        assert clock.sleeps > 0  # time really advanced through the fake

    def test_service_without_queue_attr_under_wallclock(self):
        service = BrpRuntimeService(_config(), driver=fake_driver(FakeClock()))
        # Moving time by hand is a simulated-driver detail, not protocol.
        assert not hasattr(service.driver, "advance_to")
        assert service.now == 0.0

    def test_rejection_reason_is_the_one_evaluated(self):
        """Wall time that ticks on right after the admission check cannot
        change the reason the result, the store and the dead letter carry."""
        clock = FakeClock()
        driver = fake_driver(clock)
        service = BrpRuntimeService(
            _config(), driver=driver, ledger=OfferLedger(MemoryEventLog())
        )
        assert service.now == 0.0  # anchors the driver at fake time 0
        clock.t = 10.0
        check = service.ingest.reject_reason

        def check_then_tick(offer, now):
            reason = check(offer, now)
            clock.t += 5.0  # past the offer's latest start
            return reason

        service.ingest.reject_reason = check_then_tick
        offer = flex_offer(
            [(1.0, 2.0)], earliest_start=8, latest_start=12, assignment_before=10
        )
        result = service.submit_fact(offer)
        assert not result.accepted
        assert result.reason == "assignment deadline already passed"
        assert check(offer, service.now_slice) == "start window already closed"
        (letter,) = service.ledger.dead_letters()
        assert letter.reason == result.reason
        assert service.store.offer_state(offer.offer_id) == "rejected"
