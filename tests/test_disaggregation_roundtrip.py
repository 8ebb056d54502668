"""Disaggregation round-trip: random population → aggregate → schedule → members.

The paper's *disaggregation requirement*: any schedule of an aggregated
flex-offer must map back to valid schedules of every member.  This test
drives the full chain on a random offer population — aggregation pipeline,
greedy scheduler over the aggregates, disaggregation — and checks every
member assignment against its *original* offer: start window, per-slice
energy bounds, total-energy bounds, and exact energy conservation per
aggregate.
"""

import numpy as np
import pytest

from repro.aggregation import AggregationParameters, AggregationPipeline
from repro.aggregation.aggregator import _slice_fractions, disaggregate
from repro.core.timeseries import TimeSeries
from repro.datagen import FlexOfferDatasetSpec, generate_flexoffer_dataset
from repro.scheduling import Market, RandomizedGreedyScheduler, SchedulingProblem

N_OFFERS = 300
SEED = 1234


@pytest.fixture(scope="module")
def roundtrip():
    """Run the chain once; individual tests assert different invariants."""
    offers = generate_flexoffer_dataset(
        FlexOfferDatasetSpec(n_offers=N_OFFERS, n_days=2, seed=SEED)
    )
    original = {o.offer_id: o for o in offers}

    pipeline = AggregationPipeline(
        AggregationParameters(
            start_after_tolerance=8, time_flexibility_tolerance=8, name="rt"
        )
    )
    pipeline.submit_inserts(offers)
    pipeline.run()
    aggregates = pipeline.aggregates

    horizon_start = 0
    horizon_end = max(a.latest_start + a.duration for a in aggregates) + 1
    horizon = horizon_end - horizon_start
    rng = np.random.default_rng(SEED)
    problem = SchedulingProblem(
        net_forecast=TimeSeries(
            horizon_start, rng.normal(0.0, 5.0, size=horizon)
        ),
        offers=tuple(aggregates),
        market=Market.flat(horizon),
    )
    result = RandomizedGreedyScheduler().schedule(
        problem, max_passes=2, rng=rng
    )
    schedule = problem.to_schedule(result.solution)

    members = [m for assignment in schedule for m in disaggregate(assignment)]
    return original, aggregates, schedule, members


class TestDisaggregationRoundTrip:
    def test_every_offer_comes_back_exactly_once(self, roundtrip):
        original, _, _, members = roundtrip
        assert sorted(m.offer.offer_id for m in members) == sorted(original)

    def test_member_starts_respect_original_windows(self, roundtrip):
        original, _, _, members = roundtrip
        for member in members:
            offer = original[member.offer.offer_id]
            assert offer.earliest_start <= member.start <= offer.latest_start

    def test_member_energies_respect_original_slice_bounds(self, roundtrip):
        original, _, _, members = roundtrip
        for member in members:
            offer = original[member.offer.offer_id]
            assert len(member.energies) == offer.duration
            for energy, constraint in zip(member.energies, offer.profile):
                assert constraint.contains(energy)

    def test_member_total_energy_within_original_bounds(self, roundtrip):
        original, _, _, members = roundtrip
        for member in members:
            offer = original[member.offer.offer_id]
            total = member.total_energy
            assert (
                offer.total_min_energy - 1e-6
                <= total
                <= offer.total_max_energy + 1e-6
            )

    def test_aggregate_energy_conserved_per_slice(self, roundtrip):
        _, _, schedule, _ = roundtrip
        for assignment in schedule:
            members = disaggregate(assignment)
            horizon_start = min(m.start for m in members)
            horizon_end = max(m.end for m in members)
            total = np.zeros(horizon_end - horizon_start)
            for m in members:
                total[m.start - horizon_start : m.end - horizon_start] += (
                    np.asarray(m.energies)
                )
            scheduled = np.zeros(horizon_end - horizon_start)
            scheduled[
                assignment.start - horizon_start : assignment.end - horizon_start
            ] += np.asarray(assignment.energies)
            np.testing.assert_allclose(total, scheduled, atol=1e-6)

    def test_member_energies_are_the_per_constraint_arithmetic(self, roundtrip):
        """Bit for bit what ``min + f * flexibility`` per constraint gives:
        the array expression runs the same IEEE operations."""
        _, _, schedule, _ = roundtrip
        for assignment in schedule:
            aggregate = assignment.offer
            fractions = _slice_fractions(aggregate, assignment.energies).tolist()
            want = [
                tuple(
                    c.min_energy + fractions[offset + k] * c.energy_flexibility
                    for k, c in enumerate(member.profile)
                )
                for member, offset in zip(aggregate.members, aggregate.offsets)
            ]
            got = [m.energies for m in disaggregate(assignment)]
            assert [[v.hex() for v in e] for e in got] == [
                [v.hex() for v in e] for e in want
            ]

    def test_aggregate_shift_propagates_to_members(self, roundtrip):
        original, _, schedule, _ = roundtrip
        for assignment in schedule:
            delta = assignment.start - assignment.offer.earliest_start
            for member in disaggregate(assignment):
                offer = original[member.offer.offer_id]
                assert member.start - offer.earliest_start == delta
