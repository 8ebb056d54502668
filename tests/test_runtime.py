"""Unit tests for the streaming runtime building blocks.

The simulated driver, metrics registry, trigger policies, the ingest stage and
the Poisson load generator — the service loop itself is covered end-to-end
in ``test_runtime_service.py``.
"""

import numpy as np
import pytest

from repro.aggregation import (
    AggregationParameters,
    AggregationPipeline,
    UpdateKind,
)
from repro.core import flex_offer
from repro.core.errors import ServiceError
from repro.core.timebase import DEFAULT_AXIS
from repro.datamgmt import LedmsStore
from repro.runtime import (
    AdaptiveCooldown,
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

    def test_accepts_and_batches(self):
        ingest = self._ingest(batch_size=2)
        assert ingest.submit(_offer(10), now=0)[0] is not None
        assert not ingest.batch_full
        assert ingest.submit(_offer(11), now=0)[0] is not None
        assert ingest.batch_full
        updates = ingest.flush(now=0)
        assert updates and ingest.pending_updates == 0
        assert ingest.pipeline.input_count == 2

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
        with pytest.raises(ServiceError):
            LoadGenerator(rate_per_hour=0)

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
        with pytest.raises(ServiceError):
            AdaptiveTrigger(8.0, count_threshold=0)
        with pytest.raises(ServiceError):
            AdaptiveTrigger(8.0, min_count=10, max_count=5)
        with pytest.raises(ServiceError):
            AdaptiveTrigger(8.0, tighten_factor=1.0)
        with pytest.raises(ServiceError):
            AdaptiveTrigger(8.0, relax_factor=0.9)
        with pytest.raises(ServiceError):
            AdaptiveTrigger(8.0, relax_margin=1.5)

    def test_fires_on_count_or_age(self):
        trigger = AdaptiveTrigger(8.0, count_threshold=10, max_age_slices=4.0)
        fire = TriggerContext(
            now=0.0,
            offers_since_last_run=10,
            oldest_unscheduled_age=0.0,
            unscheduled_energy_kwh=0.0,
        )
        wait = TriggerContext(
            now=0.0,
            offers_since_last_run=9,
            oldest_unscheduled_age=3.9,
            unscheduled_energy_kwh=1e9,  # imbalance is not part of the rule
        )
        assert trigger.should_fire(fire)
        assert not trigger.should_fire(wait)

    def test_tightens_when_p95_above_target(self):
        trigger = AdaptiveTrigger(10.0, count_threshold=100, max_age_slices=8.0)
        metrics = MetricsRegistry()
        self._latency(metrics, *[50.0] * 20)
        record = trigger.observe(metrics)
        assert record is not None and record["direction"] == "tighten"
        assert trigger.count_threshold == 50
        assert trigger.max_age_slices == 4.0
        assert record["count_threshold"] == {"old": 100, "new": 50}
        assert record["max_age_slices"] == {"old": 8.0, "new": 4.0}

    def test_stale_histogram_is_not_acted_on(self):
        trigger = AdaptiveTrigger(10.0, count_threshold=100, max_age_slices=8.0)
        metrics = MetricsRegistry()
        assert trigger.observe(metrics) is None  # no observations at all
        self._latency(metrics, 50.0)
        assert trigger.observe(metrics) is not None
        # No new observations since: the cumulative histogram is stale.
        assert trigger.observe(metrics) is None
        assert trigger.count_threshold == 50

    def test_in_band_p95_leaves_thresholds_alone(self):
        trigger = AdaptiveTrigger(10.0, count_threshold=100, max_age_slices=8.0)
        metrics = MetricsRegistry()
        self._latency(metrics, 8.0)  # between relax_margin*target and target
        assert trigger.observe(metrics) is None
        assert trigger.count_threshold == 100

    def test_relax_is_capped_at_the_rails(self):
        trigger = AdaptiveTrigger(
            10.0,
            count_threshold=100,
            max_age_slices=8.0,
            max_count=130,
            max_age_cap=10.0,
        )
        metrics = MetricsRegistry()
        self._latency(metrics, 1.0)
        record = trigger.observe(metrics)
        assert record["direction"] == "relax"
        assert trigger.count_threshold == 120
        assert trigger.max_age_slices == pytest.approx(9.6)
        self._latency(metrics, 1.0)
        assert trigger.observe(metrics) is not None
        assert trigger.count_threshold == 130
        assert trigger.max_age_slices == 10.0
        self._latency(metrics, 1.0)
        assert trigger.observe(metrics) is None  # pinned at the rails
        assert trigger.count_threshold == 130

    def test_tighten_is_floored_at_the_minimums(self):
        trigger = AdaptiveTrigger(
            2.0,
            count_threshold=20,
            max_age_slices=3.0,
            min_count=8,
            min_age_slices=1.0,
        )
        metrics = MetricsRegistry()
        for _ in range(4):
            self._latency(metrics, 50.0)
            if trigger.observe(metrics) is None:
                break
        assert trigger.count_threshold == 8
        assert trigger.max_age_slices == 1.0
        self._latency(metrics, 50.0)
        assert trigger.observe(metrics) is None  # pinned at the floors


class TestAdaptiveCooldown:
    def _waits(self, metrics, *values):
        histogram = metrics.histogram("tso.refresh_wait_slices")
        for value in values:
            histogram.observe(value)

    def test_validation(self):
        with pytest.raises(ServiceError):
            AdaptiveCooldown(0.0, trigger_refreshes=2, min_run_interval_slices=1.0)
        with pytest.raises(ServiceError):
            AdaptiveCooldown(4.0, trigger_refreshes=0, min_run_interval_slices=1.0)
        with pytest.raises(ServiceError):
            AdaptiveCooldown(4.0, trigger_refreshes=2, min_run_interval_slices=-1.0)

    def test_tighten_reduces_refreshes_and_snaps_small_intervals(self):
        cooldown = AdaptiveCooldown(
            4.0, trigger_refreshes=3, min_run_interval_slices=0.4
        )
        metrics = MetricsRegistry()
        self._waits(metrics, 20.0)
        record = cooldown.observe(metrics)
        assert record["direction"] == "tighten"
        assert cooldown.trigger_refreshes == 2
        # 0.4 * 0.5 < 0.25: snaps to "no cooldown" instead of asymptoting.
        assert cooldown.min_run_interval_slices == 0.0
        self._waits(metrics, 20.0)
        assert cooldown.observe(metrics) is not None
        assert cooldown.trigger_refreshes == 1
        self._waits(metrics, 20.0)
        assert cooldown.observe(metrics) is None  # fully tight already

    def test_relax_recovers_toward_configured_rails_only(self):
        cooldown = AdaptiveCooldown(
            10.0, trigger_refreshes=3, min_run_interval_slices=2.0
        )
        tight = MetricsRegistry()
        self._waits(tight, 50.0)
        assert cooldown.observe(tight)["direction"] == "tighten"
        assert (cooldown.trigger_refreshes, cooldown.min_run_interval_slices) == (2, 1.0)
        relaxed = MetricsRegistry()
        self._waits(relaxed, 1.0, 1.0)
        assert cooldown.observe(relaxed)["direction"] == "relax"
        assert cooldown.trigger_refreshes == 3  # back at the configured rail
        assert cooldown.min_run_interval_slices == pytest.approx(1.2)
        self._waits(relaxed, 1.0)
        record = cooldown.observe(relaxed)
        assert record["trigger_refreshes"] == {"old": 3, "new": 3}
        assert cooldown.min_run_interval_slices == pytest.approx(1.44)

    def test_stale_histogram_is_not_acted_on(self):
        cooldown = AdaptiveCooldown(
            4.0, trigger_refreshes=2, min_run_interval_slices=1.0
        )
        metrics = MetricsRegistry()
        assert cooldown.observe(metrics) is None
        self._waits(metrics, 20.0)
        assert cooldown.observe(metrics) is not None
        assert cooldown.observe(metrics) is None  # no new waits since
