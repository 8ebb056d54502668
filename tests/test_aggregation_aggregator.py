"""Unit + property tests for the n-to-1 aggregator and disaggregation.

The central property is the paper's *disaggregation requirement*: every
schedule of an aggregate must map back to valid schedules of all members with
exactly the same per-slice total energy.  ``ScheduledFlexOffer`` validates
its constraints eagerly, so a successful round-trip is itself the proof.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScheduledFlexOffer, flex_offer
from repro.core.errors import AggregationError, DisaggregationError
from repro.core.schedule import sum_profiles
from repro.aggregation import (
    AggregatedFlexOffer,
    NToOneAggregator,
    UpdateKind,
    aggregate_group,
    disaggregate,
)
from repro.aggregation.updates import GroupUpdate


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
def offers_strategy(max_offers=6, max_duration=4):
    """Random small flex-offer groups with mixed consumption/production."""
    bound = st.floats(
        min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
    )
    slice_st = st.tuples(bound, bound).map(lambda t: (min(t), max(t)))
    profile_st = st.lists(slice_st, min_size=1, max_size=max_duration)
    offer_st = st.builds(
        lambda bounds, est, tf: flex_offer(
            bounds, earliest_start=est, latest_start=est + tf
        ),
        profile_st,
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=12),
    )
    return st.lists(offer_st, min_size=1, max_size=max_offers)


# ----------------------------------------------------------------------
# unit tests
# ----------------------------------------------------------------------
class TestAggregateGroup:
    def test_single_offer_aggregate_mirrors_offer(self):
        fo = flex_offer([(1, 2), (3, 4)], earliest_start=5, latest_start=9)
        agg = aggregate_group([fo])
        assert agg.earliest_start == 5
        assert agg.time_flexibility == 4
        assert agg.profile.min_array.tolist() == [1, 3]
        assert agg.member_count == 1
        assert agg.time_flexibility_loss == 0

    def test_empty_group_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_group([])

    def test_energy_sums_with_offsets(self):
        a = flex_offer([(1, 2), (1, 2)], earliest_start=10, latest_start=20)
        b = flex_offer([(2, 3)], earliest_start=11, latest_start=18)
        agg = aggregate_group([a, b])
        assert agg.earliest_start == 10
        assert agg.duration == 2  # b overlaps a's second slice
        assert agg.profile.min_array.tolist() == [1, 3]
        assert agg.profile.max_array.tolist() == [2, 5]

    def test_profile_extends_for_late_members(self):
        a = flex_offer([(1, 1)], earliest_start=0, latest_start=5)
        b = flex_offer([(1, 1)], earliest_start=3, latest_start=8)
        agg = aggregate_group([a, b])
        assert agg.duration == 4  # offsets 0 and 3, each 1 slice long
        assert agg.offsets == (0, 3)

    def test_time_flexibility_is_minimum(self):
        a = flex_offer([(1, 1)], earliest_start=0, latest_start=10)
        b = flex_offer([(1, 1)], earliest_start=2, latest_start=5)
        agg = aggregate_group([a, b])
        assert agg.time_flexibility == 3
        assert agg.time_flexibility_loss == (10 - 3) + (3 - 3)

    def test_assignment_deadline_is_earliest(self):
        a = flex_offer(
            [(1, 1)], earliest_start=5, latest_start=10, assignment_before=9
        )
        b = flex_offer(
            [(1, 1)], earliest_start=5, latest_start=10, assignment_before=7
        )
        agg = aggregate_group([a, b])
        assert agg.assignment_before == 7

    def test_deadline_capped_by_reduced_latest_start_and_creation_is_earliest(self):
        a = flex_offer([(1, 1)], earliest_start=5, latest_start=12, creation_time=3)
        b = flex_offer(
            [(1, 1)], earliest_start=6, latest_start=8,
            assignment_before=8, creation_time=1,
        )
        c = flex_offer([(1, 1)], earliest_start=5, latest_start=11, creation_time=4)
        agg = aggregate_group([a, b, c])
        assert (agg.earliest_start, agg.latest_start) == (5, 7)
        assert agg.assignment_before == 7  # member deadline 8 > latest start 7
        assert agg.creation_time == 1
        assert agg.offsets == (0, 1, 0)
        assert aggregate_group([a, c]).assignment_before is None

    def test_finalize_rejects_no_members(self):
        """The packed engine reaches ``_finalize_aggregate`` directly."""
        from repro.aggregation.aggregator import _finalize_aggregate

        profile = flex_offer([(1, 1)], earliest_start=0, latest_start=0).profile
        with pytest.raises(AggregationError, match="no members"):
            _finalize_aggregate((), 0, profile, 1)

    def test_unit_price_is_mean(self):
        a = flex_offer([(1, 1)], earliest_start=0, latest_start=0, unit_price=0.1)
        b = flex_offer([(1, 1)], earliest_start=0, latest_start=0, unit_price=0.3)
        assert aggregate_group([a, b]).unit_price == pytest.approx(0.2)

    @settings(max_examples=80, deadline=None)
    @given(
        prices=st.lists(
            st.one_of(st.floats(0.0, 1e3), st.integers(0, 10**6)),
            min_size=1,
            max_size=300,
        )
    )
    def test_unit_price_has_the_bits_of_np_mean(self, prices):
        """Past 8 members ``np.mean`` sums pairwise; the price keeps that."""
        from repro.aggregation.aggregator import _finalize_aggregate

        members = tuple(
            flex_offer([(1, 1)], earliest_start=0, latest_start=0, unit_price=p)
            for p in prices
        )
        aggregate = _finalize_aggregate(members, 0, members[0].profile, 1)
        assert type(aggregate.unit_price) is float
        assert struct.pack("<d", aggregate.unit_price) == struct.pack(
            "<d", float(np.mean(prices))
        )

    def test_members_offsets_length_guard(self):
        fo = flex_offer([(1, 1)], earliest_start=0, latest_start=0)
        with pytest.raises(AggregationError):
            AggregatedFlexOffer(
                profile=fo.profile,
                earliest_start=0,
                latest_start=0,
                members=(fo,),
                offsets=(0, 1),
            )


class TestDisaggregation:
    def test_round_trip_energy_conservation(self):
        offers = [
            flex_offer([(1, 2), (1, 2)], earliest_start=10, latest_start=20),
            flex_offer([(2, 3), (0, 1)], earliest_start=12, latest_start=18),
        ]
        agg = aggregate_group(offers)
        scheduled = ScheduledFlexOffer.at_fraction(agg, 0.7, start=agg.earliest_start + 3)
        parts = disaggregate(scheduled)
        assert len(parts) == 2
        total = sum_profiles(parts)
        assert total.start == scheduled.start
        for got, want in zip(total.values, scheduled.energies):
            assert got == pytest.approx(want)

    def test_member_starts_shift_by_delta(self):
        offers = [
            flex_offer([(1, 1)], earliest_start=10, latest_start=20),
            flex_offer([(1, 1)], earliest_start=14, latest_start=19),
        ]
        agg = aggregate_group(offers)
        scheduled = ScheduledFlexOffer.at_minimum(agg, start=agg.earliest_start + 2)
        parts = disaggregate(scheduled)
        assert parts[0].start == 12
        assert parts[1].start == 16

    def test_rejects_plain_flexoffer(self):
        fo = flex_offer([(1, 1)], earliest_start=0, latest_start=0)
        with pytest.raises(DisaggregationError):
            disaggregate(ScheduledFlexOffer.at_minimum(fo))

    def test_fixed_slice_energy_must_match(self):
        offers = [flex_offer([(2, 2)], earliest_start=0, latest_start=0)]
        agg = aggregate_group(offers)
        good = ScheduledFlexOffer(agg, 0, (2.0,))
        assert disaggregate(good)[0].energies == (2.0,)


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(offers=offers_strategy(), delta_u=st.floats(0, 1), frac=st.floats(0, 1))
def test_disaggregation_requirement_holds(offers, delta_u, frac):
    """Any admissible aggregate schedule disaggregates into valid member
    schedules whose slice-wise sum equals the aggregate schedule."""
    agg = aggregate_group(offers)
    delta = round(delta_u * agg.time_flexibility)
    start = agg.earliest_start + delta
    scheduled = ScheduledFlexOffer.at_fraction(agg, frac, start=start)

    parts = disaggregate(scheduled)  # constructor validates every part

    assert len(parts) == len(offers)
    total = sum_profiles(parts)
    assert total.start == scheduled.start
    assert len(total) == agg.duration
    for got, want in zip(total.values, scheduled.energies):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


@settings(max_examples=120, deadline=None)
@given(offers=offers_strategy())
def test_aggregate_invariants(offers):
    """Structural invariants of the conservative aggregation."""
    agg = aggregate_group(offers)
    assert agg.time_flexibility == min(o.time_flexibility for o in offers)
    assert agg.earliest_start == min(o.earliest_start for o in offers)
    assert agg.duration >= max(o.duration for o in offers)
    assert agg.time_flexibility_loss >= 0
    assert agg.total_min_energy == pytest.approx(
        sum(o.total_min_energy for o in offers)
    )
    assert agg.total_max_energy == pytest.approx(
        sum(o.total_max_energy for o in offers)
    )


# ----------------------------------------------------------------------
# incremental aggregator maintenance
# ----------------------------------------------------------------------
class TestNToOneAggregator:
    def _upd(self, kind, gid, offers):
        return GroupUpdate(kind, gid, tuple(offers))

    def test_create_modify_delete_cycle(self):
        agg = NToOneAggregator()
        a = flex_offer([(1, 1)], earliest_start=0, latest_start=4)
        b = flex_offer([(1, 1)], earliest_start=0, latest_start=6)

        created = agg.process([self._upd(UpdateKind.CREATED, "g", [a])])
        assert [u.kind for u in created] == [UpdateKind.CREATED]
        assert agg.aggregate_count == 1

        modified = agg.process([self._upd(UpdateKind.MODIFIED, "g", [a, b])])
        assert [u.kind for u in modified] == [UpdateKind.MODIFIED]
        assert modified[0].aggregate.member_count == 2

        deleted = agg.process([self._upd(UpdateKind.DELETED, "g", [])])
        assert [u.kind for u in deleted] == [UpdateKind.DELETED]
        assert deleted[0].aggregate.member_count == 2  # the removed aggregate
        assert agg.aggregate_count == 0

    def test_delete_unknown_group_raises(self):
        agg = NToOneAggregator()
        with pytest.raises(AggregationError):
            agg.process([self._upd(UpdateKind.DELETED, "nope", [])])

    def test_rebuild_replaces_state(self):
        agg = NToOneAggregator()
        a = flex_offer([(1, 1)], earliest_start=0, latest_start=4)
        agg.process([self._upd(UpdateKind.CREATED, "g", [a])])
        agg.rebuild({"h": (a,)})
        assert agg.aggregate_count == 1
        assert [u.member_count for u in agg.aggregates()] == [1]


@settings(max_examples=60, deadline=None)
@given(
    offers=offers_strategy(max_offers=6),
    split=st.integers(1, 5),
    delta_u=st.floats(0, 1),
    frac=st.floats(0, 1),
)
def test_nested_disaggregation_conserves_energy(offers, split, delta_u, frac):
    """The TSO path: aggregates of aggregates disaggregate twice into valid
    micro schedules whose slice-wise sum equals the super-schedule."""
    k = min(split, len(offers))
    macro_a = aggregate_group(offers[:k])
    groups = [macro_a]
    if offers[k:]:
        groups.append(aggregate_group(offers[k:]))
    super_aggregate = aggregate_group(groups)

    delta = round(delta_u * super_aggregate.time_flexibility)
    scheduled = ScheduledFlexOffer.at_fraction(
        super_aggregate, frac, start=super_aggregate.earliest_start + delta
    )

    micro = []
    for scheduled_macro in disaggregate(scheduled):
        micro.extend(disaggregate(scheduled_macro))  # validates every micro

    assert len(micro) == len(offers)
    total = sum_profiles(micro)
    assert total.start == scheduled.start
    for got, want in zip(total.values, scheduled.energies):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)
