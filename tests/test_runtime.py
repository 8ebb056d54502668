"""Unit tests for the streaming runtime building blocks.

The simulated driver, metrics registry, trigger policies, the ingest stage and
the Poisson load generator — the service loop itself is covered end-to-end
in ``test_runtime_service.py``.
"""

import math

import numpy as np
import pytest

from repro.aggregation import (
    AggregationParameters,
    AggregationPipeline,
    UpdateKind,
)
from repro.core import flex_offer
from repro.core.errors import DataManagementError, ServiceError
from repro.core.timebase import DEFAULT_AXIS
from repro.datamgmt import LedmsStore
from repro.runtime import (
    AdaptiveTrigger,
    AgeTrigger,
    AnyTrigger,
    ClockError,
    CountTrigger,
    FlexOfferIngest,
    ImbalanceTrigger,
    LoadGenerator,
    MetricsRegistry,
    SimulatedDriver,
    TriggerContext,
)


def _offer(est, tf=4, duration=2, lo=1.0, hi=2.0, **kw):
    return flex_offer(
        [(lo, hi)] * duration, earliest_start=est, latest_start=est + tf, **kw
    )


class TestClock:
    def test_advance_monotonic(self):
        driver = SimulatedDriver()
        driver.advance_to(3.5)
        assert driver.now == 3.5
        with pytest.raises(ClockError):
            driver.advance_to(2.0)
        driver.schedule_at(4.0, lambda: None)
        with pytest.raises(ClockError):  # would skip the pending event
            driver.advance_to(5.0)

    def test_events_run_in_time_order(self):
        driver = SimulatedDriver()
        seen = []
        driver.schedule_at(5, lambda: seen.append(("c", driver.now)))
        driver.schedule_at(1, lambda: seen.append(("a", driver.now)))
        driver.schedule_at(3, lambda: seen.append(("b", driver.now)))
        assert driver.run_until(10) == 3
        assert seen == [("a", 1.0), ("b", 3.0), ("c", 5.0)]
        assert driver.processed == 3

    def test_equal_times_run_fifo(self):
        driver = SimulatedDriver()
        seen = []
        for tag in "abc":
            driver.schedule_at(2, lambda tag=tag: seen.append(tag))
        driver.post(lambda: seen.append("posted"))  # at now = 0
        driver.run_until(2)
        assert seen == ["posted", "a", "b", "c"]

    def test_run_until_stops_and_advances_clock(self):
        driver = SimulatedDriver()
        seen = []
        driver.schedule_at(1, lambda: seen.append(1))
        driver.schedule_at(10, lambda: seen.append(10))
        assert driver.run_until(5) == 1
        assert seen == [1]
        assert driver.now == 5.0
        assert driver.run_until(10) == 1 and seen == [1, 10]

    def test_handlers_may_reschedule(self):
        driver = SimulatedDriver()
        seen = []

        def tick():
            seen.append(driver.now)
            if driver.now < 3:
                driver.schedule_at(driver.now + 1, tick)

        driver.schedule_at(1, tick)
        driver.run_until(10)
        assert seen == [1.0, 2.0, 3.0]

    def test_cannot_schedule_in_the_past(self):
        driver = SimulatedDriver(5.0)
        with pytest.raises(ClockError):
            driver.schedule_at(4, lambda: None)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_is_rejected(self, time):
        """A NaN passed the old ``time < now`` guard, reached the heap root
        and stopped ``run_until`` for good."""
        driver = SimulatedDriver()
        with pytest.raises(ClockError):
            driver.schedule_at(time, lambda: None)
        seen = []
        driver.schedule_at(1.0, lambda: seen.append(1.0))
        assert driver.run_until(2.0) == 1 and seen == [1.0]


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ServiceError):
            counter.inc(-1)

    def test_gauge_up_and_down(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3

    def test_histogram_exact_quantiles(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.count == 100
        assert histogram.mean == pytest.approx(50.5)
        assert histogram.p50 == pytest.approx(50.5)
        assert histogram.p95 == pytest.approx(95.05)

    def test_histogram_reservoir_bounds_memory(self):
        histogram = MetricsRegistry().histogram("h", reservoir_size=64)
        for value in range(1000):
            histogram.observe(value)
        assert histogram.count == 1000
        assert len(histogram._values) == 64
        # Sampled quantile stays in the observed range.
        assert 0 <= histogram.p50 <= 999

    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(ServiceError):
            registry.gauge("a")

    def test_render_and_dict(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h").observe(1.0)
        snapshot = registry.as_dict()
        assert snapshot["c"] == 2
        assert snapshot["h"]["count"] == 1
        assert "c: 2" in registry.render()


class TestTriggers:
    def _context(self, **kw):
        defaults = dict(
            now=0.0,
            offers_since_last_run=0,
            oldest_unscheduled_age=0.0,
            unscheduled_energy_kwh=0.0,
        )
        defaults.update(kw)
        return TriggerContext(**defaults)

    def test_count_trigger(self):
        trigger = CountTrigger(10)
        assert not trigger.should_fire(self._context(offers_since_last_run=9))
        assert trigger.should_fire(self._context(offers_since_last_run=10))

    def test_age_trigger(self):
        trigger = AgeTrigger(8)
        assert not trigger.should_fire(self._context(oldest_unscheduled_age=7.9))
        assert trigger.should_fire(self._context(oldest_unscheduled_age=8.0))

    def test_imbalance_trigger(self):
        trigger = ImbalanceTrigger(100.0)
        assert not trigger.should_fire(self._context(unscheduled_energy_kwh=99))
        assert trigger.should_fire(self._context(unscheduled_energy_kwh=100))

    def test_any_trigger_composite(self):
        trigger = AnyTrigger([CountTrigger(10), AgeTrigger(8)])
        context = self._context(offers_since_last_run=3, oldest_unscheduled_age=9)
        assert trigger.should_fire(context)
        assert trigger.fired_names(context) == ["AgeTrigger"]
        assert not trigger.should_fire(self._context())

    def test_fired_names_order_is_construction_order(self):
        policies = [AgeTrigger(8), CountTrigger(10), ImbalanceTrigger(50.0)]
        context = self._context(
            offers_since_last_run=10,
            oldest_unscheduled_age=9,
            unscheduled_energy_kwh=60.0,
        )
        assert AnyTrigger(policies).fired_names(context) == [
            "AgeTrigger", "CountTrigger", "ImbalanceTrigger",
        ]
        assert AnyTrigger(list(reversed(policies))).fired_names(context) == [
            "ImbalanceTrigger", "CountTrigger", "AgeTrigger",
        ]

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ServiceError):
            CountTrigger(0)
        with pytest.raises(ServiceError):
            AgeTrigger(-1)
        with pytest.raises(ServiceError):
            ImbalanceTrigger(0)
        with pytest.raises(ServiceError):
            AnyTrigger([])


class TestIngest:
    def _ingest(self, batch_size=4, store=None):
        pipeline = AggregationPipeline(
            AggregationParameters(8, 8, name="test")
        )
        if store is None:
            store = LedmsStore(DEFAULT_AXIS)
        return FlexOfferIngest(pipeline, store=store, batch_size=batch_size)

    @pytest.mark.parametrize("cap", [None, 1, 2, 5])
    def test_accepts_and_batches(self, cap):
        """A cap of ``k`` fills the batch at ``k`` pending updates, so a
        caller that flushes a full batch (the service) never holds more
        than ``k``; with no cap the batch waits for an explicit flush."""
        ingest = self._ingest(batch_size=cap)
        flushed = 0
        for k in range(7):
            assert ingest.submit(_offer(10 + k), now=0)[0] is not None
            pending = ingest.pending_updates
            assert ingest.batch_full == (cap is not None and pending >= cap)
            if cap is not None:
                assert pending <= cap
            if ingest.batch_full:
                assert ingest.flush(now=0)
                flushed += 1
        assert flushed == (0 if cap is None else 7 // cap)
        assert ingest.pending_updates == (7 if cap is None else 7 % cap)
        ingest.flush(now=0)
        assert ingest.pending_updates == 0
        assert ingest.pipeline.input_count == 7

    def test_rejects_closed_window(self):
        ingest = self._ingest()
        assert ingest.submit(_offer(5, tf=2), now=10) == (
            None, "start window already closed"
        )
        assert ingest.metrics.counter("ingest.rejected").value == 1

    def test_rejects_zero_energy(self):
        ingest = self._ingest()
        offer = _offer(10, lo=0.0, hi=0.0)
        assert ingest.submit(offer, now=0) == (None, "offer carries no energy")

    def test_clips_partially_passed_window(self):
        ingest = self._ingest()
        accepted, reason = ingest.submit(_offer(5, tf=10), now=8)
        assert accepted is not None and reason is None
        assert accepted.earliest_start == 8
        assert accepted.latest_start == 15

    def test_lifecycle_recorded_in_store(self):
        store = LedmsStore(DEFAULT_AXIS)
        ingest = self._ingest(store=store)
        offer, _ = ingest.submit(_offer(10), now=0)
        assert store.offer_state(offer.offer_id) == "accepted"
        ingest.flush(now=0)
        assert store.offer_state(offer.offer_id) == "aggregated"
        ingest.retire([offer], now=20, state="expired")
        assert store.offer_state(offer.offer_id) == "expired"
        counts = store.state_counts()
        assert counts["expired"] == 1

    def test_flush_returns_the_flush_updates(self):
        ingest = self._ingest(batch_size=1)
        offer, _ = ingest.submit(_offer(10), now=0)
        (created,) = ingest.flush(now=0)
        assert created.kind is UpdateKind.CREATED
        ingest.retire([offer], now=20, state="expired")
        (deleted,) = ingest.flush(now=20)
        assert (deleted.kind, deleted.group_id) == (
            UpdateKind.DELETED, created.group_id
        )
        assert ingest.flush(now=21) == []  # nothing pending

    def test_retirement_with_an_unregistered_owner_records_nothing(self):
        """Flushes and retirements register no owner (every offer in their
        batches entered through :meth:`FlexOfferIngest.submit`, which did),
        so a batch carrying an owner the store never saw raises — and
        leaves the store, the pending count and the pipeline as they were."""
        store = LedmsStore(DEFAULT_AXIS)
        ingest = self._ingest(store=store)
        offer, _ = ingest.submit(_offer(10, owner="known"), now=0)
        ingest.flush(now=0)
        stranger = _offer(12, owner="stranger")
        facts = len(store.schema.facts["flexoffer_event"])
        with pytest.raises(DataManagementError):
            ingest.retire([offer, stranger], now=20, state="expired")
        assert len(store.schema.facts["flexoffer_event"]) == facts
        assert store.offer_state(offer.offer_id) == "aggregated"
        assert store.offers_in_state("aggregated") == [offer.offer_id]
        assert store.offer_state(stranger.offer_id) is None
        assert ingest.pending_updates == 0
        assert ingest.flush(now=20) == []
        assert ingest.pipeline.input_count == 1

    def test_retire_flows_deletes_through_pipeline(self):
        ingest = self._ingest(batch_size=1)
        offer, _ = ingest.submit(_offer(10), now=0)
        ingest.flush(now=0)
        assert ingest.pipeline.input_count == 1
        ingest.retire([offer], now=20, state="expired")
        ingest.flush(now=20)
        assert ingest.pipeline.input_count == 0


class TestLoadGenerator:
    def test_deterministic_stream(self):
        first = list(LoadGenerator(rate_per_hour=30, seed=7).stream(0, 48))
        second = list(LoadGenerator(rate_per_hour=30, seed=7).stream(0, 48))
        assert len(first) == len(second) > 0
        for (t1, o1), (t2, o2) in zip(first, second):
            assert t1 == t2
            assert o1.earliest_start == o2.earliest_start
            assert o1.profile == o2.profile

    def test_arrivals_increasing_within_window(self):
        events = list(LoadGenerator(rate_per_hour=60, seed=1).stream(10, 48))
        times = [t for t, _ in events]
        assert times == sorted(times)
        assert all(10 <= t < 58 for t in times)

    def test_offers_ingestible_on_arrival(self):
        for t, offer in LoadGenerator(rate_per_hour=40, seed=3).stream(0, 96):
            assert offer.creation_time <= offer.earliest_start
            assert offer.earliest_start > t

    def test_rate_scales_volume(self):
        slow = LoadGenerator(rate_per_hour=10, seed=5).offers(0, 24 * 4)
        fast = LoadGenerator(rate_per_hour=100, seed=5).offers(0, 24 * 4)
        assert len(fast) > 5 * len(slow)

    def test_invalid_rate_rejected(self):
        # An infinite rate made every gap 0.0, so the stream never ended.
        for rate in (0, math.nan, math.inf, -math.inf):
            with pytest.raises(ServiceError, match="rate_per_hour must be finite"):
                LoadGenerator(rate_per_hour=rate)

    @pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0])
    def test_bad_duration_rejected_before_any_arrival(self, duration):
        # A NaN window used to be empty and an infinite one never ended.
        generator = LoadGenerator(rate_per_hour=20, seed=1)
        with pytest.raises(ServiceError, match="duration_slices must be finite"):
            generator.stream(0, duration)

    def test_explicit_rng_wins_over_seed(self):
        rng = np.random.default_rng(123)
        a = LoadGenerator(rate_per_hour=20, seed=0, rng=rng).offers(0, 48)
        b = LoadGenerator(rate_per_hour=20, seed=0, rng=np.random.default_rng(123)).offers(0, 48)
        assert [o.earliest_start for o in a] == [o.earliest_start for o in b]


class TestAdaptiveTrigger:
    def _latency(self, metrics, *values):
        histogram = metrics.histogram("latency.e2e_slices")
        for value in values:
            histogram.observe(value)

    def test_validation(self):
        with pytest.raises(ServiceError):
            AdaptiveTrigger(0.0)

    def test_fires_on_count_or_age(self):
        trigger = AdaptiveTrigger(40.0)  # starts at 200 offers / 16 slices
        fire = TriggerContext(
            now=0.0,
            offers_since_last_run=200,
            oldest_unscheduled_age=0.0,
            unscheduled_energy_kwh=0.0,
        )
        aged = TriggerContext(
            now=0.0,
            offers_since_last_run=0,
            oldest_unscheduled_age=16.0,
            unscheduled_energy_kwh=0.0,
        )
        wait = TriggerContext(
            now=0.0,
            offers_since_last_run=199,
            oldest_unscheduled_age=15.9,
            unscheduled_energy_kwh=1e9,  # imbalance is not part of the rule
        )
        assert trigger.should_fire(fire)
        assert trigger.should_fire(aged)
        assert not trigger.should_fire(wait)

    def test_age_starts_inside_a_tight_targets_band(self):
        # Runs before the first feedback: an age limit of 16 slices would
        # make the first offers wait past a 6-slice target.
        assert AdaptiveTrigger(6.0).max_age_slices == pytest.approx(4.2)
        assert AdaptiveTrigger(40.0).max_age_slices == 16.0

    def test_tightens_when_p95_above_target(self):
        trigger = AdaptiveTrigger(40.0)
        metrics = MetricsRegistry()
        self._latency(metrics, *[50.0] * 20)
        record = trigger.observe(metrics)
        assert record is not None and record["direction"] == "tighten"
        assert trigger.count_threshold == 100
        assert trigger.max_age_slices == 8.0
        assert record["count_threshold"] == {"old": 200, "new": 100}
        assert record["max_age_slices"] == {"old": 16.0, "new": 8.0}

    def test_stale_histogram_is_not_acted_on(self):
        trigger = AdaptiveTrigger(40.0)
        metrics = MetricsRegistry()
        assert trigger.observe(metrics) is None  # no observations at all
        self._latency(metrics, 50.0)
        assert trigger.observe(metrics) is not None
        # No new observations since: the cumulative histogram is stale.
        assert trigger.observe(metrics) is None
        assert trigger.count_threshold == 100

    def test_in_band_p95_leaves_thresholds_alone(self):
        trigger = AdaptiveTrigger(40.0)
        metrics = MetricsRegistry()
        self._latency(metrics, 32.0)  # between RELAX_MARGIN*target and target
        assert trigger.observe(metrics) is None
        assert trigger.count_threshold == 200

    def test_relax_is_capped_at_the_rails(self):
        trigger = AdaptiveTrigger(40.0)
        metrics = MetricsRegistry()
        self._latency(metrics, 1.0)
        record = trigger.observe(metrics)
        assert record["direction"] == "relax"
        assert trigger.count_threshold == 240
        assert trigger.max_age_slices == pytest.approx(19.2)
        for _ in range(50):
            self._latency(metrics, 1.0)
            if trigger.observe(metrics) is None:
                break
        assert trigger.count_threshold == 4096
        assert trigger.max_age_slices == 64.0
        self._latency(metrics, 1.0)
        assert trigger.observe(metrics) is None  # pinned at the rails
        assert trigger.count_threshold == 4096

    def test_tighten_is_floored_at_the_minimums(self):
        trigger = AdaptiveTrigger(2.0)
        metrics = MetricsRegistry()
        for _ in range(50):
            self._latency(metrics, 50.0)
            if trigger.observe(metrics) is None:
                break
        assert trigger.count_threshold == 8
        assert trigger.max_age_slices == 1.0
        self._latency(metrics, 50.0)
        assert trigger.observe(metrics) is None  # pinned at the floors
