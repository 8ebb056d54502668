"""Tests for the message bus, the device models and Fig. 1's balancing day."""

import numpy as np
import pytest

from pins import pin
from repro.core import ScheduledFlexOffer
from repro.core.errors import CommunicationError
from repro.core.timebase import DEFAULT_AXIS
from repro.experiments.balancing import (
    ScenarioConfig,
    draw_scenario,
    executions,
    fallback_execution,
    plan_day,
    prosumer_day,
    run_balancing,
)
from repro.node import (
    BaseLoad,
    EVCharger,
    Message,
    MessageType,
    MicroCHP,
    SolarPanel,
    WashingMachine,
    default_household,
)
from repro.runtime import BusAdapter, SimulatedDriver

AXIS = DEFAULT_AXIS
PER_DAY = AXIS.slices_per_day


class TestMessageBus:
    """The simulated network, through :class:`BusAdapter`'s public surface."""

    def _bus(self):
        driver = SimulatedDriver()
        return BusAdapter(driver), driver

    def test_fifo_delivery(self):
        bus, driver = self._bus()
        received = []
        bus.register("a", received.append)
        bus.register("b", lambda m: None)
        assert bus.send("b", "a", MessageType.MEASUREMENT, 1, 0)
        assert bus.send("b", "a", MessageType.MEASUREMENT, 2, 0)
        assert received == []
        driver.run_until(driver.now)
        assert [m.payload for m in received] == [1, 2]
        assert bus.delivered == 2

    def test_message_id_and_trace_are_keyword_only(self):
        with pytest.raises(TypeError):
            Message("a", "b", MessageType.MEASUREMENT, {}, 0, 7, object())

    def test_unknown_recipient(self):
        """An unknown recipient drops instead of raising."""
        bus, driver = self._bus()
        bus.register("a", lambda m: None)
        assert not bus.send("a", "ghost", MessageType.MEASUREMENT, 1, 0)
        driver.run_until(driver.now)
        assert bus.dropped == 1
        assert bus.delivered == 0

    def test_duplicate_registration(self):
        bus, _ = self._bus()
        bus.register("a", lambda m: None)
        with pytest.raises(CommunicationError):
            bus.register("a", lambda m: None)

    def test_handlers_can_enqueue_more(self):
        bus, driver = self._bus()
        log = []

        def relay(message):
            log.append(message.payload)
            if message.payload < 3:
                bus.send("a", "a", MessageType.MEASUREMENT, message.payload + 1, 0)

        bus.register("a", relay)
        bus.send("a", "a", MessageType.MEASUREMENT, 1, 0)
        driver.run_until(driver.now)
        assert log == [1, 2, 3]
        assert bus.delivered == 3

    def test_unreachable_nodes_drop_messages(self):
        """A recipient that goes down after queueing is dropped at dispatch."""
        bus, driver = self._bus()
        bus.register("a", lambda m: None)
        assert bus.send("x", "a", MessageType.MEASUREMENT, 1, 0)
        bus.set_unreachable("a")
        driver.run_until(driver.now)
        assert bus.dropped == 1
        assert bus.delivered == 0
        bus.set_unreachable("a", False)
        assert bus.send("x", "a", MessageType.MEASUREMENT, 1, 0)
        driver.run_until(driver.now)
        assert bus.delivered == 1


class TestDevices:
    def test_base_load_positive_with_configured_mean(self):
        rng = np.random.default_rng(0)
        device = BaseLoad(AXIS, mean_kwh_per_day=6.0)
        profile = device.baseline(0, rng)
        assert profile.min() >= 0
        assert profile.sum() == pytest.approx(6.0, rel=0.5)

    def test_solar_produces_at_midday_only(self):
        rng = np.random.default_rng(1)
        profile = SolarPanel(AXIS).baseline(0, rng)
        assert profile.max() <= 0  # production is negative
        assert profile[: PER_DAY // 6].sum() == pytest.approx(0.0, abs=0.05)
        midday = abs(profile[PER_DAY // 2 - 4 : PER_DAY // 2 + 4]).sum()
        assert midday > 0

    def test_ev_offer_fits_overnight_window(self):
        rng = np.random.default_rng(2)
        offers = EVCharger(AXIS, use_probability=1.0).flex_offers(0, rng)
        assert len(offers) == 1
        offer = offers[0]
        per_hour = AXIS.slices_per_hour
        assert offer.earliest_start >= 20 * per_hour
        assert offer.latest_end <= (24 + 7) * per_hour
        assert offer.time_flexibility > 0
        assert offer.total_min_energy > 0  # consumption

    def test_washing_machine_fixed_energy(self):
        rng = np.random.default_rng(3)
        offers = WashingMachine(AXIS, run_probability=1.0).flex_offers(0, rng)
        offer = offers[0]
        assert offer.total_energy_flexibility == pytest.approx(0.0)
        assert offer.total_min_energy == pytest.approx(1.2)

    def test_chp_offers_production(self):
        rng = np.random.default_rng(4)
        offers = MicroCHP(AXIS, run_probability=1.0).flex_offers(0, rng)
        offer = offers[0]
        assert not offer.is_consumption
        assert offer.total_max_energy < 0

    def test_default_household_always_has_base_load(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            devices = default_household(AXIS, rng)
            assert any(isinstance(d, BaseLoad) for d in devices)


class TestProsumerDay:
    """One household's day and what its offers actually run."""

    def _offers(self, *devices, horizon=144, seed=0):
        devices = devices or (BaseLoad(AXIS), EVCharger(AXIS, use_probability=1.0))
        config = ScenarioConfig(horizon_slices=horizon)
        return prosumer_day("p1", list(devices), config, np.random.default_rng(seed))

    def _ev_and_washer(self):
        _, offers = self._offers(
            EVCharger(AXIS, use_probability=1.0),
            WashingMachine(AXIS, run_probability=1.0),
        )
        return offers

    def test_prosumer_day_draws_offers_and_baseline(self):
        baseline, offers = self._offers()
        assert len(baseline) == 144
        assert [offer.owner for offer in offers] == ["p1"]

    def test_fallback_execution_when_no_schedule_arrives(self):
        _, offers = self._offers()
        (run,) = executions(offers, {}, set())
        assert run.start == offers[0].earliest_start
        assert run.energies == offers[0].profile.max_energies()

    def test_schedule_overrides_fallback(self):
        _, (offer,) = self._offers()
        scheduled = ScheduledFlexOffer.at_minimum(offer, start=offer.latest_start)
        assert executions([offer], {offer.offer_id: scheduled}, set()) == [scheduled]

    def test_production_fallback_runs_at_full_output(self):
        _, (offer,) = self._offers(MicroCHP(AXIS, run_probability=1.0), seed=1)
        assert fallback_execution(offer).energies == offer.profile.min_energies()

    def test_realized_load_includes_flex(self):
        config = ScenarioConfig(seed=1, n_brps=1, prosumers_per_brp=6)
        baselines = draw_scenario(config).baselines.values()
        report = run_balancing(config=config, verbose=False)
        assert report.demand_before.sum() > sum(b.sum() for b in baselines) > 0

    def test_rejected_offers_do_not_run(self):
        """A BRP-rejected offer has no contract: no fallback execution."""
        _, offers = self._offers()
        assert executions(offers, {}, {offers[0].offer_id}) == []

    def test_rejected_offer_leaves_other_executions_intact(self):
        first, second = self._ev_and_washer()
        runs = executions([first, second], {}, {first.offer_id})
        assert [run.offer.offer_id for run in runs] == [second.offer_id]

    def test_unreachable_prosumer_runs_every_offer_on_the_open_contract(self):
        """Cut off, it hears neither its schedules nor its rejections."""
        first, second = self._ev_and_washer()
        plan = {first.offer_id: ScheduledFlexOffer.at_minimum(first)}
        runs = executions([first, second], plan, {second.offer_id}, reachable=False)
        assert runs == [fallback_execution(first), fallback_execution(second)]

    def test_prosumer_day_with_horizon_shorter_than_a_day(self):
        """A horizon below slices_per_day keeps the overlapping baseline."""
        baseline, _ = self._offers(horizon=PER_DAY // 2)
        full, _ = self._offers(horizon=PER_DAY)
        np.testing.assert_array_equal(baseline, full[: PER_DAY // 2])


def _report(**overrides):
    return run_balancing(config=ScenarioConfig(seed=3, **overrides), verbose=False)


def _before(r):
    """A seed-3 day's numbers before planning, the same in every variant."""
    return [
        r.peak_demand_before, r.imbalance_before, r.res_utilization_before,
        r.offers_submitted, r.offers_accepted, r.aggregate_count, r.compensation_eur,
    ]


def _after(r):
    return [
        r.peak_demand_after, r.imbalance_after, r.res_utilization_after,
        r.offers_scheduled, r.schedules_undelivered,
    ]


class TestBalancingDay:
    @pytest.mark.pinned
    def test_balancing_improves(self):
        report = _report()
        pin("fig1.seed3.before", _before(report))
        pin("fig1.seed3.local", _after(report))
        assert report.offers_scheduled == report.offers_submitted
        assert report.peak_demand_after < report.peak_demand_before
        assert report.imbalance_after < report.imbalance_before
        assert report.res_utilization_after >= report.res_utilization_before

    @pytest.mark.pinned
    def test_tso_path_schedules_everything(self):
        report = _report(use_tso=True)
        pin("fig1.seed3.before", _before(report))
        pin("fig1.seed3.tso", _after(report))
        assert report.offers_scheduled == report.offers_submitted
        assert report.imbalance_after < report.imbalance_before

    @pytest.mark.pinned
    def test_outage_falls_back_gracefully(self):
        """Unreachable prosumers lose their schedules but the day completes —
        the paper's graceful-degradation claim."""
        down = frozenset({"prosumer-0-0", "prosumer-1-3"})
        report = _report(unreachable_prosumers=down)
        pin("fig1.seed3.before", _before(report))
        pin("fig1.seed3.outage", _after(report))
        assert report.offers_scheduled < report.offers_submitted
        assert report.imbalance_after < report.imbalance_before  # still helps

    def test_deterministic_under_seed(self):
        a = run_balancing(config=ScenarioConfig(seed=11), verbose=False)
        b = run_balancing(config=ScenarioConfig(seed=11), verbose=False)
        assert a.imbalance_after == b.imbalance_after
        assert a.offers_submitted == b.offers_submitted

    @pytest.mark.parametrize("use_tso", [False, True], ids=["local", "tso"])
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_fig1_holds(self, seed, use_tso):
        report = run_balancing(
            config=ScenarioConfig(seed=seed, use_tso=use_tso), verbose=False
        )
        assert report.offers_scheduled == report.offers_accepted
        assert report.peak_demand_after < report.peak_demand_before
        assert report.imbalance_after < report.imbalance_before
        assert report.res_utilization_after >= report.res_utilization_before

    @pytest.mark.parametrize("use_tso", [False, True], ids=["local", "tso"])
    def test_dispatch_follows_the_runtime_commitments(self, use_tso):
        """Every dispatched schedule starts where the runtime committed the
        offer — under a TSO, where its remote schedule moved it."""
        config = ScenarioConfig(seed=3, use_tso=use_tso)
        scenario = draw_scenario(config)
        plan = plan_day(scenario, config)
        moved = 0
        for brp, client in plan.clients.items():
            service = client.service
            starts = [planned.start for planned in service.last_schedule]
            local = {  # the BRP's own last plan, member by member
                member.offer_id: member.earliest_start + start - macro.earliest_start
                for start, macro in zip(starts, service.last_plan_originals)
                for member in macro.members
            }
            for offer in scenario.agreed[brp]:
                oid = offer.offer_id
                if use_tso:
                    committed = plan.cluster.committed_starts[brp][oid]
                else:
                    committed = client.query_offer(oid).committed_start
                assert plan.schedules[oid].start == committed
                moved += local[oid] != committed
        assert (moved > 0) == use_tso

    @pytest.mark.parametrize("horizon, use_tso", [(96, False), (96, True), (48, True)])
    def test_short_horizon_falls_back(self, horizon, use_tso):
        """Offers that cannot finish inside the planning window stay
        unplanned and run on the open contract; the day completes."""
        config = ScenarioConfig(seed=3, horizon_slices=horizon, use_tso=use_tso)
        scenario = draw_scenario(config)
        plan = plan_day(scenario, config)
        end = config.day_start + 1 + horizon  # the window opens a slice later
        offers = [offer for day in scenario.offers.values() for offer in day]
        late = [offer for offer in offers if offer.latest_end > end]
        assert late and plan.schedules
        for offer in late:
            assert offer.offer_id not in plan.schedules
            (run,) = executions([offer], plan.schedules, scenario.rejected)
            assert run == fallback_execution(offer)
        report = run_balancing(config=config, verbose=False)
        assert report.offers_scheduled == len(plan.schedules) < len(offers)


class TestBrpNegotiation:
    def test_compensation_accumulates(self):
        report = _report()
        assert report.compensation_eur > 0  # every accepted offer was priced
        assert report.compensation_eur < report.offers_accepted * 2.0


class TestHeatPump:
    def test_two_anchored_blocks_with_shift(self):
        from repro.node import HeatPump

        rng = np.random.default_rng(8)
        pump = HeatPump(AXIS)
        offers = pump.flex_offers(0, rng)
        assert len(offers) == 2
        per_hour = AXIS.slices_per_hour
        morning, evening = sorted(offers, key=lambda o: o.earliest_start)
        assert 5 * per_hour <= morning.earliest_start < 6 * per_hour
        assert 16 * per_hour <= evening.earliest_start < 17 * per_hour
        for offer in offers:
            assert offer.time_flexibility == 3 * per_hour
            assert offer.total_energy_flexibility > 0

    def test_standby_baseline(self):
        from repro.node import HeatPump

        rng = np.random.default_rng(8)
        profile = HeatPump(AXIS).baseline(0, rng)
        assert (profile > 0).all()
        assert profile.sum() == pytest.approx(0.05 * 24, rel=1e-6)
