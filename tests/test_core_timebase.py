"""Unit tests for the discrete time axis."""

from datetime import datetime

import pytest

from repro.core.timebase import DEFAULT_AXIS, TimeAxis


class TestTimeAxisConstruction:
    def test_default_resolution_is_15_minutes(self):
        assert DEFAULT_AXIS.resolution_minutes == 15

    def test_rejects_non_positive_resolution(self):
        with pytest.raises(ValueError):
            TimeAxis(resolution_minutes=0)

    def test_rejects_resolution_not_dividing_a_day(self):
        with pytest.raises(ValueError):
            TimeAxis(resolution_minutes=7)

    @pytest.mark.parametrize("minutes,per_day", [(15, 96), (30, 48), (60, 24)])
    def test_slices_per_day(self, minutes, per_day):
        assert TimeAxis(minutes).slices_per_day == per_day

    def test_slices_per_week(self):
        assert TimeAxis(30).slices_per_week == 7 * 48

    def test_slices_per_hour(self):
        assert TimeAxis(15).slices_per_hour == 4


class TestConversions:
    def test_epoch_is_slice_zero(self):
        axis = TimeAxis(15, epoch=datetime(2010, 1, 4))
        assert axis.to_slice(datetime(2010, 1, 4)) == 0
        assert axis.to_datetime(0) == datetime(2010, 1, 4)

    def test_round_trip(self):
        axis = TimeAxis(15)
        for s in [0, 1, 95, 96, 1000]:
            assert axis.to_slice(axis.to_datetime(s)) == s

    def test_to_slice_floors_within_slice(self):
        axis = TimeAxis(15, epoch=datetime(2010, 1, 4))
        assert axis.to_slice(datetime(2010, 1, 4, 0, 14)) == 0
        assert axis.to_slice(datetime(2010, 1, 4, 0, 15)) == 1

    def test_hour_of_day(self):
        axis = TimeAxis(15)
        assert axis.hour_of_day(0) == 0
        assert axis.hour_of_day(4) == 1
        assert axis.hour_of_day(95) == 23
        assert axis.hour_of_day(96) == 0  # wraps to next day

    def test_slice_of_day_wraps(self):
        axis = TimeAxis(15)
        assert axis.slice_of_day(96) == 0
        assert axis.slice_of_day(100) == 4

    def test_day_of_week_starts_monday_at_epoch(self):
        axis = TimeAxis(15, epoch=datetime(2010, 1, 4))  # a Monday
        assert axis.day_of_week(0) == 0
        assert axis.day_of_week(96) == 1
        assert axis.day_of_week(96 * 7) == 0

    def test_day_index(self):
        axis = TimeAxis(15)
        assert axis.day_index(95) == 0
        assert axis.day_index(96) == 1

