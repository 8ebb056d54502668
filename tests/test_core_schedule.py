"""Unit tests for scheduled flex-offers and schedules."""

import numpy as np
import pytest

from repro.core import (
    EnergyConstraint,
    InvalidScheduleError,
    Schedule,
    ScheduledFlexOffer,
    flex_offer,
)
from repro.core.schedule import outside_bounds, sum_profiles


@pytest.fixture
def offer():
    return flex_offer([(1, 2), (0, 4)], earliest_start=10, latest_start=14)


class TestScheduledFlexOffer:
    def test_valid_assignment(self, offer):
        s = ScheduledFlexOffer(offer, 12, (1.5, 2.0))
        assert s.end == 14
        assert s.total_energy == 3.5
        assert s.start_offset == 2

    def test_start_too_early(self, offer):
        with pytest.raises(InvalidScheduleError):
            ScheduledFlexOffer(offer, 9, (1.5, 2.0))

    def test_start_too_late(self, offer):
        with pytest.raises(InvalidScheduleError):
            ScheduledFlexOffer(offer, 15, (1.5, 2.0))

    def test_wrong_energy_count(self, offer):
        with pytest.raises(InvalidScheduleError):
            ScheduledFlexOffer(offer, 10, (1.5,))

    def test_energy_out_of_bounds(self, offer):
        with pytest.raises(InvalidScheduleError):
            ScheduledFlexOffer(offer, 10, (2.5, 2.0))

    @pytest.mark.parametrize("warm", [False, True])
    def test_nan_energy_rejected_cold_and_warm(self, warm):
        """``nan`` is inside no bounds: the check over the profile's bound
        arrays names the first bad slice, with its bounds as floats, whether
        or not the constraint tuple was built (warm) — and never builds it."""
        offer = flex_offer([(1, 2), (1, 2)], earliest_start=0, latest_start=0)
        if warm:
            assert offer.profile[0] == EnergyConstraint(1, 2)  # builds the tuple
        items = offer.profile._items
        assert (items is not None) is warm
        with pytest.raises(
            InvalidScheduleError, match=r"energy nan outside \[1\.0, 2\.0\] in slice 0"
        ):
            ScheduledFlexOffer(offer, 0, (float("nan"), 1.5))
        with pytest.raises(InvalidScheduleError, match="in slice 1"):
            ScheduledFlexOffer(offer, 0, (1.5, float("nan")))
        assert offer.profile._items is items

    def test_outside_bounds_is_the_constraint_rule(self):
        values = np.array([1.0 - 2e-9, 1.0 - 5e-10, 2.0 + 5e-10, np.nan, np.inf])
        lo, hi = np.full(5, 1.0), np.full(5, 2.0)
        constraint = EnergyConstraint(1.0, 2.0)
        assert outside_bounds(values, lo, hi).tolist() == [
            not constraint.contains(v) for v in values.tolist()
        ] == [True, False, False, True, True]

    def test_as_series(self, offer):
        s = ScheduledFlexOffer(offer, 11, (1.0, 3.0))
        ts = s.as_series()
        assert ts.start == 11
        assert list(ts.values) == [1.0, 3.0]

    def test_at_minimum(self, offer):
        s = ScheduledFlexOffer.at_minimum(offer)
        assert s.start == offer.earliest_start
        assert s.energies == (1, 0)

    def test_at_fraction_bounds(self, offer):
        lo = ScheduledFlexOffer.at_fraction(offer, 0.0)
        hi = ScheduledFlexOffer.at_fraction(offer, 1.0)
        assert lo.energies == (1, 0)
        assert hi.energies == (2, 4)

    def test_at_fraction_rejects_out_of_range(self, offer):
        with pytest.raises(InvalidScheduleError):
            ScheduledFlexOffer.at_fraction(offer, 1.5)


class TestSchedule:
    def test_flex_energy_series_within_horizon(self, offer):
        sched = Schedule(horizon_start=10, horizon_length=6)
        sched.add(ScheduledFlexOffer(offer, 12, (1.0, 4.0)))
        series = sched.flex_energy_series()
        assert series.start == 10
        assert list(series.values) == [0, 0, 1.0, 4.0, 0, 0]

    def test_truncates_outside_horizon(self, offer):
        sched = Schedule(horizon_start=10, horizon_length=4)
        sched.add(ScheduledFlexOffer(offer, 13, (1.0, 4.0)))
        assert list(sched.flex_energy_series().values) == [0, 0, 0, 1.0]

    def test_total_flex_energy(self, offer):
        sched = Schedule(horizon_start=0, horizon_length=20)
        sched.add(ScheduledFlexOffer(offer, 10, (1.0, 0.0)))
        sched.add(ScheduledFlexOffer(offer, 11, (2.0, 4.0)))
        assert sched.total_flex_energy() == 7.0
        assert len(sched) == 2

    def test_rejects_empty_horizon(self):
        with pytest.raises(InvalidScheduleError):
            Schedule(horizon_start=0, horizon_length=0)


class TestSumProfiles:
    def test_sums_over_union(self, offer):
        a = ScheduledFlexOffer(offer, 10, (1.0, 1.0))
        b = ScheduledFlexOffer(offer, 12, (2.0, 2.0))
        total = sum_profiles([a, b])
        assert total.start == 10
        assert list(total.values) == [1.0, 1.0, 2.0, 2.0]

    def test_rejects_empty(self):
        with pytest.raises(InvalidScheduleError):
            sum_profiles([])
