"""Unit tests for flex-offers, profiles and energy constraints."""

import gc
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @settings(max_examples=80, deadline=None)
    @given(
        bounds=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
            min_size=1,
            max_size=48,
        )
    )
    def test_from_arrays_is_from_bounds_exactly(self, bounds):
        """Both fast paths build the constraints the constructor builds,
        down to the sign of a zero, for any valid pair of columns."""
        lo = np.array([b[0] for b in bounds])
        hi = lo + np.array([b[1] for b in bounds])
        pairs = list(zip(lo.tolist(), hi.tolist()))
        built = Profile(EnergyConstraint(a, b) for a, b in pairs)

        def bits(profile):
            assert all(type(s) is EnergyConstraint for s in profile)
            assert all(type(s.min_energy) is float for s in profile)
            return np.array([(s.min_energy, s.max_energy) for s in profile]).tobytes()

        for fast in (Profile.from_arrays(lo, hi), Profile.from_bounds(pairs)):
            assert fast == built
            assert bits(fast) == bits(built)

    def test_inverted_slice_raises_the_constraint_error(self):
        """Both fast paths name the first inverted slice exactly as
        ``EnergyConstraint`` does; a ``nan`` bound fails all three alike."""
        lo = [1.0, 3.0, 5.5, 7.0]
        hi = [2.0, 2.5, 5.0, 8.0]  # slices 1 and 2 inverted
        with pytest.raises(InvalidFlexOfferError) as want:
            EnergyConstraint(lo[1], hi[1])
        with pytest.raises(InvalidFlexOfferError) as by_pairs:
            Profile.from_bounds(zip(lo, hi))
        with pytest.raises(InvalidFlexOfferError) as by_arrays:
            Profile.from_arrays(np.array(lo), np.array(hi))
        assert str(by_pairs.value) == str(by_arrays.value) == str(want.value)
        assert str(want.value) == "max_energy 2.5 < min_energy 3.0"
        nan = [(1.0, 2.0), (1.0, float("nan")), (float("nan"), 2.0)]
        for build in (
            lambda: EnergyConstraint(*nan[1]),
            lambda: Profile.from_bounds(nan),
            lambda: Profile.from_arrays(*map(np.array, zip(*nan))),
        ):
            with pytest.raises(InvalidFlexOfferError, match="max_energy nan$"):
                build()


FORM_BOUNDS = [(1.0, 2.0), (-2.5, -0.5), (0.1, 0.7), (-0.0, 0.0), (3.0, 3.0)]


def _forms():
    """The same bounds as an item-form and an array-form profile."""
    lo = np.array([b[0] for b in FORM_BOUNDS])
    hi = np.array([b[1] for b in FORM_BOUNDS])
    return Profile.from_bounds(FORM_BOUNDS), Profile.from_arrays(lo, hi)


def _has_dict(profile) -> bool:
    """Whether the instance dict exists (reading ``__dict__`` would make it)."""
    return any(type(r) is dict for r in gc.get_referents(profile))


@pytest.mark.pinned
class TestProfileForms:
    """One surface over the constraint tuple and over the bound arrays."""

    def test_equal_and_hash_equal_across_forms_and_to_the_tuple(self):
        item, array = _forms()
        plain = tuple(EnergyConstraint(a, b) for a, b in FORM_BOUNDS)
        assert item == array == plain and plain == array and array == item
        assert hash(item) == hash(array) == hash(plain)
        assert {item: "x"}[array] == "x"
        assert array != Profile.from_bounds(FORM_BOUNDS[:-1])
        assert array != list(plain) and array != plain[:-1]

    def test_sequence_surface(self):
        item, array = _forms()
        plain = tuple(EnergyConstraint(a, b) for a, b in FORM_BOUNDS)
        for profile in (item, array):
            assert len(profile) == profile.duration == len(plain)
            assert list(profile) == list(plain)
            assert profile[1] == plain[1] and profile[-1] == plain[-1]
            assert profile[1:4] == plain[1:4] and type(profile[1:4]) is tuple
            assert plain[2] in profile
            assert repr(profile) == repr(plain)

    def test_pickle_round_trip_keeps_the_form(self):
        item, array = _forms()
        for profile in (item, array):
            back = pickle.loads(pickle.dumps(profile))
            assert type(back) is Profile
            assert (back._items is None) is (profile._items is None)
            assert not back.min_array.flags.writeable
            assert back.min_array.tobytes() == profile.min_array.tobytes()
            assert back == profile

    def test_bound_views_are_the_same_bits_in_both_forms(self):
        item, array = _forms()
        lo, hi = (np.array(column) for column in zip(*FORM_BOUNDS))
        for profile in (item, array):
            assert np.array(profile.min_energies()).tobytes() == lo.tobytes()
            assert np.array(profile.max_energies()).tobytes() == hi.tobytes()
            assert all(type(v) is float for v in profile.min_energies())
            assert profile.min_array.tobytes() == lo.tobytes()
            assert profile.max_array.tobytes() == hi.tobytes()
        for total in (
            "total_min_energy", "total_max_energy", "total_energy_flexibility"
        ):
            assert struct.pack("d", getattr(item, total)) == struct.pack(
                "d", getattr(array, total)
            )

    def test_array_form_builds_no_constraint_until_one_is_read(self):
        lo, hi = np.array([1.0, -2.0, 0.5]), np.array([2.0, -1.0, 0.5])
        profile = Profile.from_arrays(lo, hi)
        profile.min_energies(), profile.max_energies()
        profile.total_min_energy, profile.total_energy_flexibility
        assert len(profile) == 3 and profile.bounds_cached
        assert profile._items is None
        assert profile[0] == EnergyConstraint(1.0, 2.0)
        assert profile._items is not None
        assert profile.min_array is lo and profile.max_array is hi

    def test_item_form_has_no_dict_until_a_rare_cache_is_written(self):
        """Duration, bound arrays and totals live in slots: the reads every
        micro offer makes on the runtime path create no instance dict."""
        profile = Profile.from_bounds(FORM_BOUNDS)
        profile.duration, profile.total_min_energy, profile.total_max_energy
        profile.min_array, profile.max_array
        assert profile.bounds_cached and not _has_dict(profile)
        profile.min_energies()
        assert _has_dict(profile)

    def test_inverted_slice_message_is_the_same_in_both_forms(self):
        lo, hi = [0.0, 4.0, 1.0], [1.0, 3.5, 0.0]
        with pytest.raises(InvalidFlexOfferError) as by_pairs:
            Profile.from_bounds(zip(lo, hi))
        with pytest.raises(InvalidFlexOfferError) as by_arrays:
            Profile.from_arrays(np.array(lo), np.array(hi))
        assert str(by_pairs.value) == str(by_arrays.value)
        assert str(by_arrays.value) == "max_energy 3.5 < min_energy 4.0"


NON_FINITE = [
    (float("nan"), 1.0),
    (0.0, float("nan")),
    (0.0, float("inf")),
    (float("-inf"), 0.0),
    (float("inf"), float("inf")),
    (float("-inf"), float("-inf")),
]


@pytest.mark.pinned
class TestFiniteBounds:
    """One rule wherever bounds enter: both finite, ``min <= max``."""

    @pytest.mark.parametrize("pair", NON_FINITE, ids=str)
    def test_non_finite_bound_rejected_on_every_path(self, pair):
        bounds = [(1.0, 2.0), pair]
        lo, hi = (np.array(column) for column in zip(*bounds))
        builds = (
            lambda: EnergyConstraint(*pair),
            lambda: Profile.from_bounds(bounds),
            lambda: Profile.from_arrays(lo, hi),
            lambda: flex_offer(bounds, earliest_start=0, latest_start=2),
        )
        for build in builds:
            with pytest.raises(InvalidFlexOfferError, match="must be finite"):
                build()

    def test_the_largest_finite_bounds_are_admitted(self):
        big = float(np.finfo(float).max)
        bounds = [(-big, big), (1.0, 2.0)]
        lo, hi = (np.array(column) for column in zip(*bounds))
        assert Profile.from_arrays(lo, hi) == Profile.from_bounds(bounds)


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
