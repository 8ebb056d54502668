"""Columnar aggregation engine vs the scalar reference oracle.

The central property: on any update stream, the packed engine's aggregates
and ``AggregateUpdate`` sequences are identical to the scalar pipelines'.
The corpus uses dyadic-rational energies (multiples of 1/8), for which float
addition and subtraction are exact, so "identical" means **bit-identical**
even though the packed engine maintains group profiles by subtraction where
the reference oracle rebuilds from the remaining members.  A separate test
pins packed ≡ (live) scalar on arbitrary floats: both paths apply the same
adds and subtracts in the same order, so they agree to the last bit with no
exactness assumption.
"""

import numpy as np
import pytest

from repro.aggregation import (
    AggregationParameters,
    BinPackerBounds,
    FlexOfferUpdate,
    GroupProfileState,
    PackedPool,
    UpdateKind,
    make_pipeline,
)
from repro.aggregation.reference import reference_aggregate_group
from repro.core import flex_offer
from repro.core.errors import AggregationError
from repro.core.flexoffer import Profile
from repro.runtime import BrpRuntimeService, LoadGenerator, ServiceConfig


# ----------------------------------------------------------------------
# scenario machinery
# ----------------------------------------------------------------------
def _dyadic(rng, n, spread=8.0):
    """Floats that are exact under reassociation (multiples of 1/8)."""
    return rng.integers(-int(spread * 8), int(spread * 8), size=n) / 8.0


def _random_offer(rng):
    duration = int(rng.integers(1, 5))
    a = _dyadic(rng, duration)
    b = _dyadic(rng, duration)
    bounds = list(zip(np.minimum(a, b), np.maximum(a, b)))
    est = int(rng.integers(0, 40))
    tf = int(rng.integers(0, 12))
    deadline = (
        int(rng.integers(est, est + tf + 1)) if tf and rng.random() < 0.3 else None
    )
    return flex_offer(
        bounds,
        earliest_start=est,
        latest_start=est + tf,
        assignment_before=deadline,
        unit_price=float(rng.integers(0, 8)) / 8.0,
    )


def _aggregate_summary(aggregate):
    return (
        aggregate.earliest_start,
        aggregate.latest_start,
        aggregate.creation_time,
        -1 if aggregate.assignment_before is None else aggregate.assignment_before,
        aggregate.unit_price,
        aggregate.profile.min_energies(),
        aggregate.profile.max_energies(),
        tuple(m.offer_id for m in aggregate.members),
        aggregate.offsets,
    )


def _pool_summary(pipeline):
    return sorted(_aggregate_summary(a) for a in pipeline.aggregates)


def _updates_summary(updates):
    return sorted(
        (u.group_id, u.kind.value, _aggregate_summary(u.aggregate))
        for u in updates
    )


def _run_scenario(seed, *, engines=("reference", "scalar", "packed"), bounds=None):
    """Feed one random mixed insert/update/delete stream to every engine."""
    rng = np.random.default_rng(seed)
    parameters = AggregationParameters(
        start_after_tolerance=int(rng.integers(0, 9)),
        time_flexibility_tolerance=int(rng.integers(0, 9)),
        name="prop",
    )
    pipelines = {name: make_pipeline(parameters, bounds, engine=name) for name in engines}
    live = []
    for _ in range(int(rng.integers(2, 7))):
        inserts = [_random_offer(rng) for _ in range(int(rng.integers(0, 7)))]
        n_del = int(rng.integers(0, min(4, len(live)) + 1))
        deletes = [live.pop(int(rng.integers(len(live)))) for _ in range(n_del)]
        live.extend(inserts)
        # Occasionally delete-and-reinsert a live offer within one flush
        # (the withdrawal-then-return path) — membership is unchanged but
        # the group must still emit a MODIFIED update.
        churn = []
        if live and rng.random() < 0.3:
            churn = [live[int(rng.integers(len(live)))]]

        per_engine = {}
        for name, pipeline in pipelines.items():
            pipeline.submit_inserts(inserts)
            pipeline.submit_deletes(deletes)
            for offer in churn:
                pipeline.submit(FlexOfferUpdate.delete(offer))
                pipeline.submit(FlexOfferUpdate.insert(offer))
            per_engine[name] = _updates_summary(pipeline.run())

        first = per_engine[engines[0]]
        for name in engines[1:]:
            assert per_engine[name] == first, (seed, name)
        pools = {name: _pool_summary(p) for name, p in pipelines.items()}
        for name in engines[1:]:
            assert pools[name] == pools[engines[0]], (seed, name)
    counts = {p.input_count for p in pipelines.values()}
    assert counts == {len(live)}


# ----------------------------------------------------------------------
# the headline property: 200+ random pools, all engines bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", range(8))
def test_packed_matches_reference_on_random_streams(block):
    """25 scenarios per block × 8 blocks = 200 random pools."""
    for seed in range(block * 25, block * 25 + 25):
        _run_scenario(seed)


@pytest.mark.parametrize("property_name", ["count", "energy", "time_flexibility"])
def test_packed_matches_scalar_with_binpacker(property_name):
    bounds = BinPackerBounds(property_name, minimum=0.0, maximum=6.0)
    for seed in range(40):
        _run_scenario(seed, engines=("scalar", "packed"), bounds=bounds)


def test_packed_matches_scalar_on_arbitrary_floats():
    """No dyadic crutch: live scalar and packed apply identical op sequences."""
    rng = np.random.default_rng(7)
    parameters = AggregationParameters(4, 4, name="float")
    scalar = make_pipeline(parameters, engine="scalar")
    packed = make_pipeline(parameters, engine="packed")
    live = []
    for _ in range(12):
        inserts = []
        for _ in range(int(rng.integers(0, 6))):
            duration = int(rng.integers(1, 5))
            a = rng.normal(size=duration)
            b = rng.normal(size=duration)
            inserts.append(
                flex_offer(
                    list(zip(np.minimum(a, b), np.maximum(a, b))),
                    earliest_start=int(rng.integers(0, 30)),
                    latest_start=int(rng.integers(0, 30)) + 35,
                )
            )
        n_del = int(rng.integers(0, min(3, len(live)) + 1))
        deletes = [live.pop(int(rng.integers(len(live)))) for _ in range(n_del)]
        live.extend(inserts)
        for p in (scalar, packed):
            p.submit_inserts(inserts)
            p.submit_deletes(deletes)
            p.run()
        assert _pool_summary(scalar) == _pool_summary(packed)  # bit-exact


# ----------------------------------------------------------------------
# error semantics parity
# ----------------------------------------------------------------------
class TestPackedErrorSemantics:
    def _pipe(self):
        return make_pipeline(AggregationParameters(0, 0), engine="packed")

    def test_double_insert_raises(self):
        pipe = self._pipe()
        fo = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        pipe.submit_inserts([fo])
        pipe.run()
        pipe.submit_inserts([fo])
        with pytest.raises(AggregationError):
            pipe.run()

    def test_delete_unknown_raises(self):
        pipe = self._pipe()
        with pytest.raises(AggregationError):
            pipe.submit_deletes([flex_offer([(1, 2)], earliest_start=0, latest_start=4)])
            pipe.run()

    def test_insert_and_delete_same_flush_emits_nothing(self):
        pipe = self._pipe()
        fo = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        pipe.submit_inserts([fo])
        pipe.submit_deletes([fo])
        assert pipe.run() == []
        assert pipe.input_count == 0


# ----------------------------------------------------------------------
# packed pool mechanics
# ----------------------------------------------------------------------
class TestPackedPool:
    def test_insert_remove_roundtrip(self):
        pool = PackedPool(capacity=2)
        offers = [
            flex_offer([(1, 2)] * (i % 3 + 1), earliest_start=i, latest_start=i + 4)
            for i in range(10)
        ]
        rows = pool.insert_batch(offers)
        assert pool.live == 10
        assert list(pool.est[rows]) == [o.earliest_start for o in offers]
        idx = pool.slice_indices(rows[:2])
        assert len(idx) == offers[0].duration + offers[1].duration
        pool.remove_batch([offers[0].offer_id, offers[3].offer_id])
        assert pool.live == 8
        assert offers[0].offer_id not in pool
        with pytest.raises(AggregationError):
            pool.remove_batch([offers[0].offer_id])

    def test_compaction_preserves_live_rows(self):
        pool = PackedPool(capacity=2)
        keep, drop = [], []
        for i in range(1200):
            offer = flex_offer(
                [(float(i), float(i) + 1.0)] * 6,
                earliest_start=i % 50,
                latest_start=i % 50 + 3,
            )
            (keep if i % 3 == 0 else drop).append(offer)
        pool.insert_batch(keep[:100] + drop)
        pool.insert_batch(keep[100:])
        pool.remove_batch([o.offer_id for o in drop])
        assert pool.maybe_compact()
        assert pool.live == len(keep) == pool.size
        assert pool.dead_slices == 0
        for offer in keep:
            row = pool.row_of(offer.offer_id)
            assert pool.offer_at(row) is offer
            assert pool.est[row] == offer.earliest_start
            start = pool.offset[row]
            got = pool.slice_lo[start : start + pool.dur[row]]
            assert got.tolist() == list(offer.profile.min_energies())

    def test_group_state_tracks_est_and_end_through_removals(self):
        from repro.aggregation import GroupArena

        arena = GroupArena()
        early = flex_offer([(1, 1)] * 2, earliest_start=5, latest_start=9)
        late = flex_offer([(2, 3)] * 6, earliest_start=8, latest_start=12)
        state = GroupProfileState()
        state.insert_members(arena, [early, late])
        assert (state.est, state.end) == (5, 14)
        state.remove_members(arena, [early])
        assert (state.est, state.end) == (8, 14)
        members, est, lo, hi = state.snapshot(arena)
        assert members == (late,)
        assert est == 8
        assert lo.tolist() == [2.0] * 6
        assert hi.tolist() == [3.0] * 6


# ----------------------------------------------------------------------
# live scalar state: subtract-based removal equals the rebuild oracle
# ----------------------------------------------------------------------
def test_scalar_group_state_removal_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(50):
        offers = [_random_offer(rng) for _ in range(int(rng.integers(2, 8)))]
        from repro.aggregation.aggregator import _GroupState

        state = _GroupState()
        for offer in offers:
            state.add(offer)
        removed = offers.pop(int(rng.integers(len(offers))))
        state.remove(removed.offer_id)
        got = state.build(offer_id=1)
        want = reference_aggregate_group(offers, offer_id=1)
        assert _aggregate_summary(got)[:-2] == _aggregate_summary(want)[:-2]
        assert got.profile == want.profile


# ----------------------------------------------------------------------
# profile caching (satellite)
# ----------------------------------------------------------------------
class TestProfileCaches:
    def test_tuples_cached(self):
        profile = Profile.from_bounds([(1.0, 2.0), (3.0, 4.0)])
        assert profile.min_energies() is profile.min_energies()
        assert profile.max_energies() is profile.max_energies()
        assert profile.min_energies() == (1.0, 3.0)

    def test_arrays_cached_and_readonly(self):
        profile = Profile.from_bounds([(1.0, 2.0), (3.0, 4.0)])
        assert profile.min_array is profile.min_array
        assert not profile.min_array.flags.writeable
        assert profile.max_array.tolist() == [2.0, 4.0]

    def test_flexoffer_delegates(self):
        fo = flex_offer([(1, 2), (3, 4)], earliest_start=0, latest_start=2)
        assert fo.min_array is fo.profile.min_array
        assert fo.max_array.tolist() == [2.0, 4.0]


# ----------------------------------------------------------------------
# the service loop is engine-independent
# ----------------------------------------------------------------------
def test_runtime_service_equivalent_across_engines():
    # The full service loop must behave identically (simulated-time
    # semantics) whether aggregation runs scalar or packed.
    reports = []
    for engine in ("scalar", "packed"):
        service = BrpRuntimeService(
            ServiceConfig.from_flat(batch_size=16, seed=5, engine=engine)
        )
        generator = LoadGenerator(rate_per_hour=40.0, seed=5)
        reports.append(service.run_stream(generator.stream(0.0, 96.0), 96.0))
    baseline, report = reports
    assert report.offers_accepted == baseline.offers_accepted
    assert report.offers_scheduled == baseline.offers_scheduled
    assert report.offers_expired == baseline.offers_expired
    assert report.pool_aggregates == baseline.pool_aggregates
    assert report.pool_offers == baseline.pool_offers
    assert report.latency_slices_p50 == baseline.latency_slices_p50
    assert report.latency_slices_p95 == baseline.latency_slices_p95
