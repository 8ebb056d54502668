"""Tests for group-builder, bin-packer, thresholds and the full pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flex_offer
from repro.core.errors import AggregationError
from repro.aggregation import (
    P0,
    P1,
    P2,
    P3,
    AggregationParameters,
    AggregationPipeline,
    BinPacker,
    BinPackerBounds,
    FlexOfferUpdate,
    GroupBuilder,
    UpdateKind,
    aggregate_from_scratch,
    evaluate_aggregation,
    paper_combinations,
)
from repro.aggregation.updates import GroupUpdate


def _offer(est, tf, duration=2, lo=1.0, hi=2.0, **kw):
    return flex_offer(
        [(lo, hi)] * duration, earliest_start=est, latest_start=est + tf, **kw
    )


class TestAggregationParameters:
    def test_paper_combinations_names(self):
        assert [p.name for p in paper_combinations()] == ["P0", "P1", "P2", "P3"]

    def test_zero_tolerance_separates_values(self):
        assert P0.group_key(_offer(10, 4)) != P0.group_key(_offer(11, 4))
        assert P0.group_key(_offer(10, 4)) != P0.group_key(_offer(10, 5))
        assert P0.group_key(_offer(10, 4)) == P0.group_key(_offer(10, 4))

    def test_tolerance_widens_cells(self):
        p = AggregationParameters(start_after_tolerance=4)
        assert p.group_key(_offer(10, 0)) == p.group_key(_offer(13, 0))

    def test_none_disables_attribute(self):
        p = AggregationParameters(None, None)
        assert p.compatible(_offer(0, 0), _offer(500, 12))

    def test_cell_deviation_bounded_by_tolerance(self):
        p = AggregationParameters(start_after_tolerance=4, time_flexibility_tolerance=2)
        a, b = _offer(10, 4), _offer(14, 6)
        if p.compatible(a, b):
            assert abs(a.earliest_start - b.earliest_start) <= 4
            assert abs(a.time_flexibility - b.time_flexibility) <= 2

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AggregationParameters(start_after_tolerance=-1)

    def test_duration_tolerance_key(self):
        p = AggregationParameters(None, None, duration_tolerance=0)
        assert not p.compatible(_offer(0, 0, duration=2), _offer(0, 0, duration=3))


class TestGroupBuilder:
    def test_accumulate_then_flush(self):
        gb = GroupBuilder(P0)
        gb.accumulate(FlexOfferUpdate.insert(_offer(10, 4)))
        assert gb.pending_count == 1
        assert gb.group_count == 0  # nothing processed yet
        updates = gb.flush()
        assert gb.pending_count == 0
        assert [u.kind for u in updates] == [UpdateKind.CREATED]
        assert gb.offer_count == 1

    def test_same_cell_modifies_group(self):
        gb = GroupBuilder(P0)
        gb.accumulate(FlexOfferUpdate.insert(_offer(10, 4)))
        gb.flush()
        gb.accumulate(FlexOfferUpdate.insert(_offer(10, 4)))
        updates = gb.flush()
        assert [u.kind for u in updates] == [UpdateKind.MODIFIED]
        assert updates[0].size == 2

    def test_delete_last_member_deletes_group(self):
        gb = GroupBuilder(P0)
        fo = _offer(10, 4)
        gb.accumulate(FlexOfferUpdate.insert(fo))
        gb.flush()
        gb.accumulate(FlexOfferUpdate.delete(fo))
        updates = gb.flush()
        assert [u.kind for u in updates] == [UpdateKind.DELETED]
        assert gb.group_count == 0

    def test_insert_and_delete_same_flush_emits_nothing(self):
        # A group created and emptied within one flush was never visible to
        # downstream components, so no update may be emitted for it (a
        # DELETED here would crash the n-to-1 aggregator on an unknown group).
        gb = GroupBuilder(P0)
        fo = _offer(10, 4)
        gb.accumulate(FlexOfferUpdate.insert(fo))
        gb.accumulate(FlexOfferUpdate.delete(fo))
        assert gb.flush() == []
        assert gb.group_count == 0
        assert gb.offer_count == 0

    def test_empty_and_repopulate_same_flush_is_modification(self):
        gb = GroupBuilder(P0)
        first = _offer(10, 4)
        gb.accumulate(FlexOfferUpdate.insert(first))
        gb.flush()
        replacement = _offer(10, 4)
        gb.accumulate(FlexOfferUpdate.delete(first))
        gb.accumulate(FlexOfferUpdate.insert(replacement))
        updates = gb.flush()
        assert [u.kind for u in updates] == [UpdateKind.MODIFIED]
        assert updates[0].offers == (replacement,)

    def test_delete_unknown_offer_raises(self):
        gb = GroupBuilder(P0)
        gb.accumulate(FlexOfferUpdate.delete(_offer(10, 4)))
        with pytest.raises(AggregationError):
            gb.flush()

    def test_double_insert_raises(self):
        gb = GroupBuilder(P0)
        fo = _offer(10, 4)
        gb.accumulate_all([FlexOfferUpdate.insert(fo), FlexOfferUpdate.insert(fo)])
        with pytest.raises(AggregationError):
            gb.flush()

    def test_groups_snapshot(self):
        gb = GroupBuilder(P0)
        gb.accumulate_all(
            FlexOfferUpdate.insert(o) for o in [_offer(10, 4), _offer(20, 4)]
        )
        gb.flush()
        groups = gb.groups()
        assert len(groups) == 2
        assert all(len(v) == 1 for v in groups.values())


class TestBinPacker:
    def _group(self, n, gid="g"):
        return GroupUpdate(
            UpdateKind.CREATED, gid, tuple(_offer(10, 4) for _ in range(n))
        )

    def test_count_bound_splits_group(self):
        packer = BinPacker(BinPackerBounds("count", maximum=3))
        updates = packer.process([self._group(8)])
        sizes = sorted(u.size for u in updates)
        assert sum(sizes) == 8
        assert max(sizes) <= 3
        assert packer.subgroup_count == 3

    def test_undersized_tail_merged_when_possible(self):
        packer = BinPacker(BinPackerBounds("count", minimum=2, maximum=4))
        updates = packer.process([self._group(5)])
        sizes = sorted(u.size for u in updates)
        assert sizes == [2, 3] or sizes == [1, 4]  # tail below min is folded
        assert min(sizes) >= 2

    def test_energy_bound(self):
        # each offer has max 2.0 kWh/slice * 2 slices = 4 kWh
        packer = BinPacker(BinPackerBounds("energy", maximum=8.0))
        updates = packer.process([self._group(5)])
        assert all(u.size <= 2 for u in updates)

    def test_modification_reemits_changed_bins_only(self):
        packer = BinPacker(BinPackerBounds("count", maximum=2))
        offers = [_offer(10, 4) for _ in range(4)]
        packer.process([GroupUpdate(UpdateKind.CREATED, "g", tuple(offers))])
        # drop one offer: second bin shrinks, first is unchanged
        updates = packer.process(
            [GroupUpdate(UpdateKind.MODIFIED, "g", tuple(offers[:3]))]
        )
        changed = {u.group_id: u.kind for u in updates}
        assert "g#1" in changed
        assert "g#0" not in changed

    def test_group_delete_removes_all_bins(self):
        packer = BinPacker(BinPackerBounds("count", maximum=2))
        packer.process([self._group(4)])
        updates = packer.process([GroupUpdate(UpdateKind.DELETED, "g", ())])
        assert {u.kind for u in updates} == {UpdateKind.DELETED}
        assert packer.subgroup_count == 0

    def test_unknown_property_rejected(self):
        with pytest.raises(AggregationError):
            BinPackerBounds("weirdness")

    def test_inverted_bounds_rejected(self):
        with pytest.raises(AggregationError):
            BinPackerBounds("count", minimum=5, maximum=2)


class TestPipeline:
    def test_identical_offers_collapse_to_one(self):
        offers = [_offer(10, 8) for _ in range(100)]
        aggregates = aggregate_from_scratch(offers, P0)
        assert len(aggregates) == 1
        assert aggregates[0].member_count == 100

    def test_binpacker_limits_collapse(self):
        offers = [_offer(10, 8) for _ in range(100)]
        aggregates = aggregate_from_scratch(
            offers, P0, BinPackerBounds("count", maximum=10)
        )
        assert len(aggregates) == 10

    def test_p0_has_zero_flexibility_loss(self):
        offers = [_offer(10, 8) for _ in range(10)] + [_offer(12, 6) for _ in range(10)]
        quality = evaluate_aggregation(aggregate_from_scratch(offers, P0))
        assert quality.total_time_flexibility_loss == 0
        assert quality.input_count == 20

    def test_incremental_matches_from_scratch(self):
        offers = [_offer(est, tf) for est in range(0, 30, 3) for tf in (2, 5, 9)]
        batch = {
            (a.earliest_start, a.time_flexibility, a.member_count)
            for a in aggregate_from_scratch(offers, P3)
        }
        pipe = AggregationPipeline(P3)
        for o in offers:  # insert one at a time with a run per insert
            pipe.submit_inserts([o])
            pipe.run()
        incremental = {
            (a.earliest_start, a.time_flexibility, a.member_count)
            for a in pipe.aggregates
        }
        assert batch == incremental

    def test_delete_shrinks_pool(self):
        offers = [_offer(10, 8) for _ in range(5)]
        pipe = AggregationPipeline(P0)
        pipe.submit_inserts(offers)
        pipe.run()
        pipe.submit_deletes(offers[:2])
        pipe.run()
        assert pipe.input_count == 3
        assert pipe.aggregates[0].member_count == 3

    def test_updates_stream_kinds(self):
        pipe = AggregationPipeline(P0)
        fo = _offer(10, 8)
        pipe.submit_inserts([fo])
        created = pipe.run()
        assert [u.kind for u in created] == [UpdateKind.CREATED]
        pipe.submit_deletes([fo])
        deleted = pipe.run()
        assert [u.kind for u in deleted] == [UpdateKind.DELETED]

    def test_add_remove_readd_incremental_lifecycle(self):
        """An offer added, removed, and re-added flows incrementally.

        Each phase runs the pipeline separately (no batching effects) and
        must emit the right update kind while keeping a co-grouped sibling's
        aggregate membership consistent throughout.
        """
        pipe = AggregationPipeline(P0)
        sibling = _offer(10, 8)
        volatile = _offer(10, 8)

        pipe.submit_inserts([sibling])
        first = pipe.run()
        assert [u.kind for u in first] == [UpdateKind.CREATED]
        gid = first[0].group_id
        assert first[0].aggregate.member_count == 1

        # Add: same cell, so the existing group is modified, not recreated.
        pipe.submit_inserts([volatile])
        added = pipe.run()
        assert [(u.kind, u.group_id) for u in added] == [
            (UpdateKind.MODIFIED, gid)
        ]
        assert added[0].aggregate.member_count == 2

        # Remove: back to one member; the group survives.
        pipe.submit_deletes([volatile])
        removed = pipe.run()
        assert [(u.kind, u.group_id) for u in removed] == [
            (UpdateKind.MODIFIED, gid)
        ]
        assert removed[0].aggregate.member_count == 1
        assert removed[0].aggregate.members[0].offer_id == sibling.offer_id

        # Re-add the same offer (identity may return after a withdrawal).
        pipe.submit_inserts([volatile])
        readded = pipe.run()
        assert [(u.kind, u.group_id) for u in readded] == [
            (UpdateKind.MODIFIED, gid)
        ]
        assert readded[0].aggregate.member_count == 2
        assert pipe.input_count == 2

        # The maintained aggregate equals a from-scratch rebuild.
        rebuilt = aggregate_from_scratch([sibling, volatile], P0)
        maintained = pipe.aggregates
        assert len(rebuilt) == len(maintained) == 1
        assert rebuilt[0].profile == maintained[0].profile
        assert rebuilt[0].earliest_start == maintained[0].earliest_start
        assert rebuilt[0].time_flexibility == maintained[0].time_flexibility

    def test_add_remove_readd_last_member_recreates_group(self):
        pipe = AggregationPipeline(P0)
        fo = _offer(10, 8)
        pipe.submit_inserts([fo])
        assert [u.kind for u in pipe.run()] == [UpdateKind.CREATED]
        pipe.submit_deletes([fo])
        assert [u.kind for u in pipe.run()] == [UpdateKind.DELETED]
        assert pipe.input_count == 0
        pipe.submit_inserts([fo])
        recreated = pipe.run()
        assert [u.kind for u in recreated] == [UpdateKind.CREATED]
        assert recreated[0].aggregate.member_count == 1


@settings(max_examples=60, deadline=None)
@given(
    ests=st.lists(st.integers(0, 40), min_size=1, max_size=40),
    tol=st.integers(0, 6),
)
def test_group_members_deviate_at_most_tolerance(ests, tol):
    """Grid grouping never mixes offers whose start-after times differ by
    more than the tolerance."""
    params = AggregationParameters(start_after_tolerance=tol, name="t")
    offers = [_offer(est, 4) for est in ests]
    for agg in aggregate_from_scratch(offers, params):
        starts = [m.earliest_start for m in agg.members]
        assert max(starts) - min(starts) <= tol


@settings(max_examples=60, deadline=None)
@given(ests=st.lists(st.integers(0, 20), min_size=1, max_size=30))
def test_compression_accounting(ests):
    """Member counts across aggregates always sum to the input count."""
    offers = [_offer(est, 4) for est in ests]
    aggs = aggregate_from_scratch(offers, P2)
    quality = evaluate_aggregation(aggs)
    assert quality.input_count == len(offers)
    assert quality.aggregate_count == len(aggs)
    assert quality.compression_ratio == pytest.approx(len(offers) / len(aggs))


class TestPriceAwareGrouping:
    """Price flexibility as a grouping criterion (§4 research direction)."""

    def test_exact_price_separates_tariffs(self):
        params = AggregationParameters(
            None, None, unit_price_tolerance=0.0, name="price"
        )
        cheap = _offer(10, 4)
        dear = flex_offer(
            [(1.0, 2.0)] * 2, earliest_start=10, latest_start=14, unit_price=0.5
        )
        assert not params.compatible(cheap, dear)
        assert params.compatible(cheap, _offer(99, 7))  # price-only grouping

    def test_price_tolerance_band(self):
        params = AggregationParameters(None, None, unit_price_tolerance=0.1)
        a = flex_offer([(1, 2)], earliest_start=0, latest_start=0, unit_price=0.02)
        b = flex_offer([(1, 2)], earliest_start=0, latest_start=0, unit_price=0.08)
        c = flex_offer([(1, 2)], earliest_start=0, latest_start=0, unit_price=0.15)
        assert params.compatible(a, b)
        assert not params.compatible(a, c)

    def test_negative_price_tolerance_rejected(self):
        with pytest.raises(ValueError):
            AggregationParameters(unit_price_tolerance=-0.1)
