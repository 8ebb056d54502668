"""Tests for the synthetic workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timebase import TimeAxis
from repro.datagen import (
    CalendarModel,
    DayType,
    DemandModel,
    FlexOfferDatasetSpec,
    PowerCurve,
    TemperatureModel,
    WindFarmModel,
    WindSpeedModel,
    generate_flexoffer_dataset,
    household_archetypes,
    nrel_style_wind,
    paper_dataset,
    sample_archetype_offer,
    uk_style_demand,
)
from repro.datagen.demand import HALF_HOURLY
from repro.core.timebase import DEFAULT_AXIS


class TestCalendar:
    def setup_method(self):
        self.axis = TimeAxis(30)
        self.cal = CalendarModel(self.axis)

    def test_epoch_monday_is_workday(self):
        assert self.cal.day_type(0) == DayType.WORKDAY

    def test_weekend_classification(self):
        per_day = self.axis.slices_per_day
        assert self.cal.day_type(5 * per_day) == DayType.SATURDAY
        assert self.cal.day_type(6 * per_day) == DayType.SUNDAY

    def test_holiday_dominates(self):
        # epoch 2010-01-04; New Year 2011 is a Saturday
        slice_ny = self.axis.to_slice(__import__("datetime").datetime(2011, 1, 1))
        assert self.cal.day_type(slice_ny) == DayType.HOLIDAY


class TestWeather:
    def test_temperature_seasonal_swing(self):
        axis = TimeAxis(30)
        model = TemperatureModel(axis)
        rng = np.random.default_rng(0)
        year = model.generate(0, 365 * axis.slices_per_day, rng)
        per_day = axis.slices_per_day
        january = year.values[: 31 * per_day].mean()
        july = year.values[181 * per_day : 212 * per_day].mean()
        assert july > january + 5  # summers are warmer

    def test_wind_speed_non_negative(self):
        axis = TimeAxis(30)
        speeds = WindSpeedModel(axis).generate(0, 5000, np.random.default_rng(1))
        assert speeds.values.min() >= 0

    def test_reproducible_with_seed(self):
        axis = TimeAxis(30)
        a = TemperatureModel(axis).generate(0, 100, np.random.default_rng(3))
        b = TemperatureModel(axis).generate(0, 100, np.random.default_rng(3))
        assert a == b


class TestDemand:
    def test_demand_positive_and_scaled(self):
        demand = uk_style_demand(7)
        assert demand.values.min() > 0
        assert 500 < demand.mean() < 2500

    def test_daily_seasonality_dominates(self):
        """Autocorrelation at the daily lag should be strong."""
        demand = uk_style_demand(28).values
        per_day = HALF_HOURLY.slices_per_day
        x = demand - demand.mean()
        r_day = np.corrcoef(x[:-per_day], x[per_day:])[0, 1]
        assert r_day > 0.8

    def test_weekend_reduction(self):
        demand = uk_style_demand(28)
        per_day = HALF_HOURLY.slices_per_day
        days = demand.values.reshape(28, per_day).mean(axis=1)
        weekdays = np.mean([days[i] for i in range(28) if i % 7 < 5])
        weekends = np.mean([days[i] for i in range(28) if i % 7 >= 5])
        assert weekends < weekdays

    def test_evening_peak_shape(self):
        demand = uk_style_demand(14)
        per_day = HALF_HOURLY.slices_per_day
        profile = demand.values.reshape(14, per_day).mean(axis=0)
        evening = profile[int(0.70 * per_day) : int(0.85 * per_day)].max()
        night = profile[: int(0.2 * per_day)].mean()
        assert evening > 1.2 * night

    def test_return_temperature(self):
        model = DemandModel()
        demand, temp = model.generate(
            0, 100, np.random.default_rng(0), return_temperature=True
        )
        assert len(demand) == len(temp) == 100


class TestWind:
    def test_power_curve_regions(self):
        curve = PowerCurve(cut_in=3, rated_speed=12, cut_out=25, rated_power=2)
        speeds = np.array([0.0, 2.9, 3.0, 7.5, 12.0, 20.0, 25.0, 30.0])
        power = curve.power(speeds)
        assert power[0] == 0 and power[1] == 0  # below cut-in
        assert power[2] == 0  # exactly cut-in: ramp starts at zero
        assert 0 < power[3] < 2
        assert power[4] == pytest.approx(2)
        assert power[5] == pytest.approx(2)  # rated region
        assert power[6] == 0 and power[7] == 0  # cut-out

    def test_power_curve_validation(self):
        with pytest.raises(ValueError):
            PowerCurve(cut_in=10, rated_speed=5)
        with pytest.raises(ValueError):
            PowerCurve(rated_power=0)

    def test_wind_supply_bounded_by_rated(self):
        farm = WindFarmModel(axis=TimeAxis(30))
        supply = farm.generate(0, 2000, np.random.default_rng(5))
        cap = farm.n_turbines * farm.curve.rated_power * 0.5  # MWh per 30 min
        assert supply.values.min() >= 0
        assert supply.values.max() <= cap + 1e-9

    def test_wind_is_less_predictable_than_demand(self):
        """The property behind Fig. 4(b): daily-lag autocorrelation of wind
        is much weaker than demand's."""
        per_day = HALF_HOURLY.slices_per_day
        demand = uk_style_demand(28).values
        wind = nrel_style_wind(28).values
        def lag_corr(x, lag):
            x = x - x.mean()
            return np.corrcoef(x[:-lag], x[lag:])[0, 1]
        assert lag_corr(wind, per_day) < lag_corr(demand, per_day) - 0.3


class TestFlexOfferDataset:
    def test_deterministic_given_seed(self):
        a = paper_dataset(200, seed=9)
        b = paper_dataset(200, seed=9)
        assert [o.earliest_start for o in a] == [o.earliest_start for o in b]
        assert [o.time_flexibility for o in a] == [o.time_flexibility for o in b]

    def test_counts_and_validity(self):
        offers = paper_dataset(500)
        assert len(offers) == 500
        for o in offers:
            assert o.latest_start >= o.earliest_start
            assert o.duration >= 1

    def test_contains_duplicates_for_compression(self):
        """Many offers must share (start-after, time-flex) pairs, otherwise
        P0 aggregation could not compress at all."""
        offers = paper_dataset(5000, n_days=2)
        pairs = {(o.earliest_start, o.time_flexibility) for o in offers}
        assert len(pairs) < len(offers) / 2

    def test_mix_includes_production(self):
        offers = paper_dataset(5000)
        assert any(not o.is_consumption for o in offers)
        assert any(o.is_consumption for o in offers)

    def test_owner_labels_from_archetypes(self):
        offers = paper_dataset(2000)
        owners = {o.owner for o in offers}
        assert "ev_charger" in owners
        assert "washing_machine" in owners

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 10_000))
    def test_any_spec_generates_valid_offers(self, n, seed):
        offers = generate_flexoffer_dataset(
            FlexOfferDatasetSpec(n_offers=n, n_days=3, seed=seed)
        )
        assert len(offers) == n
        for o in offers:
            assert o.earliest_start >= 0
            assert o.total_max_energy >= o.total_min_energy


class TestSeedDeterminismAudit:
    """Every generator must be reproducible from an explicit rng/seed.

    No module-level global RNG may be involved anywhere in ``datagen`` —
    streaming load generators and benchmarks depend on it.
    """

    def test_no_module_level_rng_in_datagen(self):
        import inspect

        import repro.datagen.calendar
        import repro.datagen.demand
        import repro.datagen.flexoffers
        import repro.datagen.weather
        import repro.datagen.wind

        for module in (
            repro.datagen.calendar,
            repro.datagen.demand,
            repro.datagen.flexoffers,
            repro.datagen.weather,
            repro.datagen.wind,
        ):
            source = inspect.getsource(module)
            # Global numpy RNG calls would break reproducibility; every
            # draw must go through an explicit Generator or seed.
            assert "np.random.seed" not in source
            assert "np.random.rand" not in source
            assert "random.random()" not in source
            for obj in vars(module).values():
                assert not isinstance(obj, np.random.Generator), (
                    f"{module.__name__} holds a module-level Generator"
                )

    def test_flexoffer_dataset_accepts_explicit_rng(self):
        spec = FlexOfferDatasetSpec(n_offers=50, n_days=2, seed=0)
        from_seed = generate_flexoffer_dataset(
            FlexOfferDatasetSpec(n_offers=50, n_days=2, seed=123)
        )
        from_rng = generate_flexoffer_dataset(spec, np.random.default_rng(123))
        assert [o.earliest_start for o in from_seed] == [
            o.earliest_start for o in from_rng
        ]
        assert [o.profile for o in from_seed] == [o.profile for o in from_rng]

    def test_demand_and_wind_accept_explicit_rng(self):
        d1 = uk_style_demand(2, seed=999)
        d2 = uk_style_demand(2, seed=0, rng=np.random.default_rng(999))
        np.testing.assert_array_equal(d1.values, d2.values)
        w1 = nrel_style_wind(2, seed=999)
        w2 = nrel_style_wind(2, seed=0, rng=np.random.default_rng(999))
        np.testing.assert_array_equal(w1.values, w2.values)

    def test_sample_archetype_offer_deterministic(self):
        archetype = household_archetypes(DEFAULT_AXIS)[0]
        a = sample_archetype_offer(
            archetype, np.random.default_rng(7), not_before=100
        )
        b = sample_archetype_offer(
            archetype, np.random.default_rng(7), not_before=100
        )
        assert a.earliest_start == b.earliest_start
        assert a.latest_start == b.latest_start
        assert a.profile == b.profile

    def test_sample_archetype_offer_respects_not_before(self):
        rng = np.random.default_rng(3)
        archetype = household_archetypes(DEFAULT_AXIS)[1]
        for _ in range(50):
            offer = sample_archetype_offer(archetype, rng, not_before=500)
            assert offer.earliest_start >= 500
            assert offer.creation_time <= offer.earliest_start
