"""Unit tests for flex-offers, profiles and energy constraints."""

import numpy as np
import pytest

from repro.core import (
    EnergyConstraint,
    FlexOffer,
    InvalidFlexOfferError,
    Profile,
    flex_offer,
)


class TestEnergyConstraint:
    def test_flexibility_width(self):
        c = EnergyConstraint(2.0, 5.0)
        assert c.energy_flexibility == 3.0

    def test_rejects_inverted_bounds(self):
        with pytest.raises(InvalidFlexOfferError):
            EnergyConstraint(5.0, 2.0)

    def test_fixed_amount_allowed(self):
        c = EnergyConstraint(3.0, 3.0)
        assert c.energy_flexibility == 0.0

    def test_negative_production_bounds(self):
        c = EnergyConstraint(-5.0, -2.0)
        assert c.energy_flexibility == 3.0

    def test_contains_with_tolerance(self):
        c = EnergyConstraint(1.0, 2.0)
        assert c.contains(1.0)
        assert c.contains(2.0)
        assert c.contains(2.0 + 1e-12)
        assert not c.contains(2.1)

    def test_clamp(self):
        c = EnergyConstraint(1.0, 2.0)
        assert c.clamp(0.0) == 1.0
        assert c.clamp(3.0) == 2.0
        assert c.clamp(1.5) == 1.5

    def test_addition_sums_bounds(self):
        s = EnergyConstraint(1, 2) + EnergyConstraint(3, 5)
        assert (s.min_energy, s.max_energy) == (4, 7)

    def test_scaled(self):
        c = EnergyConstraint(1, 2).scaled(2.5)
        assert (c.min_energy, c.max_energy) == (2.5, 5.0)

    def test_scaled_rejects_negative_factor(self):
        with pytest.raises(InvalidFlexOfferError):
            EnergyConstraint(1, 2).scaled(-1)


class TestProfile:
    def test_from_bounds(self):
        p = Profile.from_bounds([(1, 2), (3, 4)])
        assert p.duration == 2
        assert p.total_min_energy == 4
        assert p.total_max_energy == 6

    def test_constant(self):
        p = Profile.constant(3, 0.5, 1.0)
        assert p.duration == 3
        assert p.total_energy_flexibility == pytest.approx(1.5)

    def test_empty_profile_rejected(self):
        with pytest.raises(InvalidFlexOfferError):
            Profile([])

    def test_non_constraint_elements_rejected(self):
        with pytest.raises(InvalidFlexOfferError):
            Profile([(1, 2)])  # raw tuple, not EnergyConstraint

    def test_min_max_energy_tuples(self):
        p = Profile.from_bounds([(1, 2), (3, 4)])
        assert p.min_energies() == (1, 3)
        assert p.max_energies() == (2, 4)

    def test_constant_rejects_zero_slices(self):
        with pytest.raises(InvalidFlexOfferError):
            Profile.constant(0, 1, 2)

    def test_from_arrays_equals_from_bounds(self):
        lo = np.array([1.0, -2.0, 0.0, 3.5])
        hi = np.array([2.0, -2.0, 4.0, 3.75])
        p = Profile.from_arrays(lo, hi)
        assert p == Profile.from_bounds(zip(lo.tolist(), hi.tolist()))
        assert all(type(s) is EnergyConstraint for s in p)
        assert all(type(s.min_energy) is float for s in p)

    def test_from_arrays_seeds_the_array_caches(self):
        lo, hi = np.array([1.0, -2.0]), np.array([2.0, -1.0])
        p = Profile.from_arrays(lo, hi)
        assert p.min_array is lo and p.max_array is hi  # no fromiter copy
        assert not lo.flags.writeable and not hi.flags.writeable
        with pytest.raises(ValueError):
            p.min_array[0] = 0.0

    def test_from_arrays_still_validates(self):
        with pytest.raises(InvalidFlexOfferError):
            Profile.from_arrays(np.array([1.0, 3.0]), np.array([2.0, 2.5]))
        with pytest.raises(InvalidFlexOfferError):
            Profile.from_arrays(np.zeros(0), np.zeros(0))
        with pytest.raises(InvalidFlexOfferError):
            Profile.from_arrays(np.zeros(2), np.ones(3))
        with pytest.raises(InvalidFlexOfferError):
            Profile.from_arrays(np.zeros(2, dtype=np.int64), np.ones(2))


class TestFlexOffer:
    def test_time_flexibility(self):
        fo = flex_offer([(1, 2)], earliest_start=10, latest_start=30)
        assert fo.time_flexibility == 20

    def test_zero_time_flexibility_allowed(self):
        fo = flex_offer([(1, 2)], earliest_start=10, latest_start=10)
        assert fo.time_flexibility == 0

    def test_rejects_inverted_start_window(self):
        with pytest.raises(InvalidFlexOfferError):
            flex_offer([(1, 2)], earliest_start=30, latest_start=10)

    def test_rejects_start_before_creation(self):
        with pytest.raises(InvalidFlexOfferError):
            flex_offer([(1, 2)], earliest_start=5, latest_start=10, creation_time=6)

    def test_rejects_deadline_after_latest_start(self):
        with pytest.raises(InvalidFlexOfferError):
            flex_offer(
                [(1, 2)], earliest_start=5, latest_start=10, assignment_before=11
            )

    def test_ends(self):
        fo = flex_offer([(1, 2), (1, 2)], earliest_start=10, latest_start=20)
        assert fo.earliest_end == 12
        assert fo.latest_end == 22

    def test_totals(self):
        fo = flex_offer([(1, 2), (3, 5)], earliest_start=0, latest_start=0)
        assert fo.total_min_energy == 4
        assert fo.total_max_energy == 7
        assert fo.total_energy_flexibility == 3

    def test_consumption_vs_production(self):
        cons = flex_offer([(1, 2)], earliest_start=0, latest_start=0)
        prod = flex_offer([(-2, -1)], earliest_start=0, latest_start=0)
        assert cons.is_consumption
        assert not prod.is_consumption

    def test_start_times_enumeration(self):
        fo = flex_offer([(1, 2)], earliest_start=3, latest_start=6)
        assert list(fo.start_times()) == [3, 4, 5, 6]

    def test_assignment_flexibility_uses_deadline(self):
        fo = flex_offer(
            [(1, 2)], earliest_start=10, latest_start=20, assignment_before=15
        )
        assert fo.assignment_flexibility(now=5) == 10
        assert fo.assignment_flexibility(now=15) == 0
        assert fo.assignment_flexibility(now=20) == 0  # never negative

    def test_assignment_flexibility_defaults_to_latest_start(self):
        fo = flex_offer([(1, 2)], earliest_start=10, latest_start=20)
        assert fo.assignment_flexibility(now=5) == 15

    def test_unique_auto_ids(self):
        a = flex_offer([(1, 2)], earliest_start=0, latest_start=0)
        b = flex_offer([(1, 2)], earliest_start=0, latest_start=0)
        assert a.offer_id != b.offer_id

    def test_with_times_keeps_identity(self):
        fo = flex_offer([(1, 2)], earliest_start=0, latest_start=5)
        moved = fo.with_times(2, 4)
        assert moved.offer_id == fo.offer_id
        assert (moved.earliest_start, moved.latest_start) == (2, 4)

    def test_profile_coerced_from_iterable(self):
        fo = FlexOffer(
            profile=Profile.from_bounds([(1, 2)]),
            earliest_start=0,
            latest_start=1,
        )
        assert isinstance(fo.profile, Profile)
