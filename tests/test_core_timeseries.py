"""Unit tests for the slice-indexed time-series substrate."""

import numpy as np
import pytest

from repro.core import TimeSeries, TimeSeriesError, align_union, zeros


class TestConstruction:
    def test_basic(self):
        ts = TimeSeries(5, [1, 2, 3])
        assert ts.start == 5
        assert ts.end == 8
        assert len(ts) == 3

    def test_rejects_2d_values(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(0, [[1, 2], [3, 4]])

    def test_zeros(self):
        ts = zeros(3, 4)
        assert ts.start == 3 and len(ts) == 4
        assert ts.total() == 0

    def test_values_are_float64(self):
        assert TimeSeries(0, [1, 2]).values.dtype == np.float64


class TestAccess:
    def test_at_absolute_index(self):
        ts = TimeSeries(10, [1.0, 2.0, 3.0])
        assert ts.at(10) == 1.0
        assert ts.at(12) == 3.0

    def test_at_out_of_range(self):
        ts = TimeSeries(10, [1.0])
        with pytest.raises(TimeSeriesError):
            ts.at(9)
        with pytest.raises(TimeSeriesError):
            ts.at(11)

    def test_window(self):
        ts = TimeSeries(0, range(10))
        w = ts.window(3, 6)
        assert w.start == 3
        assert list(w.values) == [3, 4, 5]

    def test_window_out_of_cover(self):
        ts = TimeSeries(5, [1, 2])
        with pytest.raises(TimeSeriesError):
            ts.window(4, 6)

    def test_covers(self):
        ts = TimeSeries(5, [1, 2, 3])
        assert ts.covers(5, 8)
        assert ts.covers(6, 7)
        assert not ts.covers(4, 8)
        assert not ts.covers(5, 9)

    def test_first_last_split(self):
        ts = TimeSeries(0, range(6))
        assert list(ts.first(2).values) == [0, 1]
        last = ts.last(2)
        assert last.start == 4 and list(last.values) == [4, 5]
        a, b = ts.split(4)
        assert a.end == 4 and b.start == 4


class TestArithmetic:
    def test_aligned_addition(self):
        s = TimeSeries(2, [1, 2]) + TimeSeries(2, [10, 20])
        assert list(s.values) == [11, 22]
        assert s.start == 2

    def test_misaligned_addition_raises(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(0, [1, 2]) + TimeSeries(1, [1, 2])

    def test_length_mismatch_raises(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(0, [1, 2]) + TimeSeries(0, [1, 2, 3])

    def test_scalar_ops(self):
        ts = TimeSeries(0, [1, 2]) * 2 + 1
        assert list(ts.values) == [3, 5]

    def test_subtraction_and_negation(self):
        d = TimeSeries(0, [3, 3]) - TimeSeries(0, [1, 2])
        assert list(d.values) == [2, 1]
        assert list((-d).values) == [-2, -1]

    def test_equality(self):
        assert TimeSeries(0, [1, 2]) == TimeSeries(0, [1, 2])
        assert TimeSeries(0, [1, 2]) != TimeSeries(1, [1, 2])


class TestTransforms:
    def test_shifted(self):
        ts = TimeSeries(0, [1]).shifted(5)
        assert ts.start == 5

    def test_extended(self):
        ts = TimeSeries(0, [1, 2]).extended(TimeSeries(2, [3]))
        assert list(ts.values) == [1, 2, 3]

    def test_extended_requires_contiguity(self):
        with pytest.raises(TimeSeriesError):
            TimeSeries(0, [1, 2]).extended(TimeSeries(3, [3]))

    def test_map(self):
        ts = TimeSeries(0, [1, -2]).map(np.abs)
        assert list(ts.values) == [1, 2]



class TestStatistics:
    def test_total_mean_peak(self):
        ts = TimeSeries(0, [1, 2, 3])
        assert ts.total() == 6
        assert ts.mean() == 2
        assert ts.peak() == 3

    def test_absolute(self):
        assert list(TimeSeries(0, [-1, 2]).absolute().values) == [1, 2]


class TestAlignUnion:
    def test_pads_to_union(self):
        a = TimeSeries(0, [1, 1])
        b = TimeSeries(3, [2])
        pa, pb = align_union([a, b])
        assert pa.start == pb.start == 0
        assert len(pa) == len(pb) == 4
        assert list(pa.values) == [1, 1, 0, 0]
        assert list(pb.values) == [0, 0, 0, 2]

    def test_empty_input(self):
        assert align_union([]) == []

    def test_sum_after_align(self):
        parts = align_union([TimeSeries(0, [1]), TimeSeries(2, [5])])
        total = parts[0] + parts[1]
        assert list(total.values) == [1, 0, 5]
