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

import struct
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import (
    AggregationParameters,
    AggregationPipeline,
    BinPackerBounds,
    FlexOfferUpdate,
    PackedPool,
    UpdateKind,
    make_pipeline,
)
from repro.aggregation.pipeline import aggregate_from_scratch
from repro.aggregation import aggregator as aggregation_aggregator
from repro.aggregation import engine as aggregation_engine
from repro.aggregation.aggregator import _finalize_aggregate
from repro.aggregation.reference import ReferenceAggregator, reference_aggregate_group
from repro.core import flex_offer
from repro.core.errors import AggregationError
from repro.core.flexoffer import Profile
from repro.core.flexoffer import _next_id as next_id
from repro.runtime import (
    BrpRuntimeService,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
)


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
        tuple(aggregate.profile.min_array.tolist()),
        tuple(aggregate.profile.max_array.tolist()),
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


def _binpacking_pipeline(name, parameters, bounds):
    """The scalar or reference pipeline with the bin-packer on."""
    pipeline = AggregationPipeline(parameters, bounds)
    if name == "reference":
        pipeline.aggregator = ReferenceAggregator()
    return pipeline


def _run_scenario(seed, *, engines=("reference", "scalar", "packed"), bounds=None):
    """Feed one random mixed insert/update/delete stream to every engine."""
    rng = np.random.default_rng(seed)
    parameters = AggregationParameters(
        start_after_tolerance=int(rng.integers(0, 9)),
        time_flexibility_tolerance=int(rng.integers(0, 9)),
        name="prop",
    )
    pipelines = {
        name: make_pipeline(parameters, engine=name)
        if bounds is None
        else _binpacking_pipeline(name, parameters, bounds)
        for name in engines
    }
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
        # Occasionally revise a live offer within one flush: a different
        # object under the same id (the update path), which replaces the
        # held member, in its old cell or in another.
        revisions = []
        if live and rng.random() < 0.5:
            k = int(rng.integers(len(live)))
            live[k] = _revised(live[k])
            revisions = [live[k]]

        per_engine = {}
        for name, pipeline in pipelines.items():
            pipeline.submit_inserts(inserts)
            pipeline.submit_deletes(deletes)
            for offer in churn:
                pipeline.submit(FlexOfferUpdate.delete(offer))
                pipeline.submit(FlexOfferUpdate.insert(offer))
            for offer in revisions:
                pipeline.submit(FlexOfferUpdate.delete(offer))
                pipeline.submit(FlexOfferUpdate.insert(offer))
            per_engine[name] = _updates_summary(pipeline.run())

        first = per_engine[engines[0]]
        for name in engines[1:]:
            assert per_engine[name] == first, (seed, name)
        pools = {name: _pool_summary(p) for name, p in pipelines.items()}
        for name in engines[1:]:
            assert pools[name] == pools[engines[0]], (seed, name)
        for name, pipeline in pipelines.items():
            _assert_holds_live(pipeline, live, parameters, bounds, (seed, name))
    counts = {p.input_count for p in pipelines.values()}
    assert counts == {len(live)}


def _revised(offer):
    """A revision of ``offer``: same id, window narrowed by one slice, or
    the price moved when the window or a deadline forbids narrowing."""
    latest = offer.latest_start - 1
    deadline = offer.assignment_before
    if latest >= offer.earliest_start and (deadline is None or deadline <= latest):
        return offer.with_times(offer.earliest_start, latest)
    return replace(offer, unit_price=offer.unit_price + 0.125)


def _by_membership(aggregates):
    return {
        frozenset(m.offer_id for m in a.members): (
            a.earliest_start,
            tuple(a.profile.min_array.tolist()),
            tuple(a.profile.max_array.tolist()),
        )
        for a in aggregates
    }


def _assert_holds_live(pipeline, live, parameters, bounds, label):
    """Every live offer's current object is the member held, and (without
    a bin-packer, whose sub-groups depend on arrival order) the pool is a
    from-scratch aggregation of the live set: same memberships, same
    bounds."""
    current = {offer.offer_id: offer for offer in live}
    aggregates = pipeline.aggregates
    held = [m for a in aggregates for m in a.members]
    assert len(held) == len(current), label
    assert all(current[m.offer_id] is m for m in held), label
    if bounds is None:
        scratch = aggregate_from_scratch(live, parameters) if live else []
        assert _by_membership(aggregates) == _by_membership(scratch), label


# ----------------------------------------------------------------------
# the headline property: 200+ random pools, all engines bit-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("block", range(8))
def test_packed_matches_reference_on_random_streams(block):
    """25 scenarios per block × 8 blocks = 200 random pools."""
    for seed in range(block * 25, block * 25 + 25):
        _run_scenario(seed)


@pytest.mark.parametrize("property_name", ["count", "energy", "time_flexibility"])
def test_reference_matches_scalar_with_binpacker(property_name):
    """The two bin-packing engines emit the same sub-group aggregates."""
    bounds = BinPackerBounds(property_name, minimum=0.0, maximum=6.0)
    for seed in range(40):
        _run_scenario(seed, engines=("reference", "scalar"), bounds=bounds)


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


def test_packed_views_name_the_members_each_flush_joined():
    pipe = make_pipeline(AggregationParameters(0, 0), engine="packed")

    def offers(n):
        return [flex_offer([(1, 2)], earliest_start=0, latest_start=4) for _ in range(n)]

    def flush():
        (update,) = pipe.run()
        return update

    a, b, c = offers(3)
    pipe.submit_inserts([a, b])
    assert flush().view.joined == (a, b)
    # A later flush names only its newcomers, after the kept members.
    pipe.submit_inserts([c])
    pipe.submit_deletes([a])
    update = flush()
    assert update.view.members == (b, c) and update.view.joined == (c,)
    # A member deleted and re-inserted as the very object the group holds
    # keeps its place, and counts as joined.
    pipe.submit_deletes([b])
    pipe.submit_inserts([b])
    update = flush()
    assert update.view.members == (b, c) and update.view.joined == (b,)
    # A revision (a different object under the same id) replaces the
    # member: the old object leaves, the new one joins at the end.
    d, b_again = offers(1)[0], replace(b)
    pipe.submit_deletes([b])
    pipe.submit_inserts([b_again, d])
    update = flush()
    assert update.view.members == (c, b_again, d)
    assert update.view.joined == (b_again, d)
    # Emptied and refilled in one flush: every member joined.
    e = offers(1)[0]
    pipe.submit_deletes([b_again, c, d])
    pipe.submit_inserts([e])
    update = flush()
    assert update.kind is UpdateKind.MODIFIED and update.view.joined == (e,)
    # A deleted group names nobody.
    pipe.submit_deletes([e])
    update = flush()
    assert update.kind is UpdateKind.DELETED and update.view.joined == ()


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
            assert got.tolist() == offer.profile.min_array.tolist()

    def test_group_state_tracks_est_and_end_through_removals(self):
        pipe = make_pipeline(AggregationParameters(8, 8), engine="packed")
        early = flex_offer([(1, 1)] * 2, earliest_start=5, latest_start=9)
        late = flex_offer([(2, 3)] * 6, earliest_start=8, latest_start=12)
        pipe.submit_inserts([early, late])
        (created,) = pipe.run()
        both = created.aggregate
        assert (both.earliest_start, both.earliest_start + both.duration) == (5, 14)
        pipe.submit_deletes([early])
        (update,) = pipe.run()
        assert update.kind is UpdateKind.MODIFIED
        aggregate = update.aggregate
        assert aggregate.members == (late,)
        assert (aggregate.earliest_start, aggregate.earliest_start + aggregate.duration) == (8, 14)
        assert aggregate.profile.min_array.tolist() == [2.0] * 6
        assert aggregate.profile.max_array.tolist() == [3.0] * 6


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
# the service's own stream, replayed through the oracles
# ----------------------------------------------------------------------
def _dyadic_stream(stream):
    """The stream with every bound rounded to a multiple of 1/64 kWh, so
    group sums are exact and the rebuild-on-remove reference oracle has no
    subtraction residue to differ by."""
    for at, offer in stream:
        bounds = [
            (round(c.min_energy * 64) / 64, round(c.max_energy * 64) / 64)
            for c in offer.profile
        ]
        yield at, replace(offer, profile=Profile.from_bounds(bounds))


class _FlushRecorder:
    """Passes a service's pipeline calls through, recording each flush:
    the flex-offer updates handed in since the last run, and the run's
    aggregate updates with the ids it drew."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.pending: list = []
        self.flushes: list = []

    def submit(self, update):
        self.pending.append(update)
        self.pipeline.submit(update)

    def submit_deletes(self, offers):
        offers = list(offers)
        self.pending.extend(FlexOfferUpdate.delete(o) for o in offers)
        self.pipeline.submit_deletes(offers)

    def run(self):
        draws: list[int] = []

        def recording_next_id():
            draws.append(next_id())
            return draws[-1]

        with patch.object(aggregation_engine, "_next_id", recording_next_id):
            updates = self.pipeline.run()
        self.flushes.append((self.pending, updates, draws))
        self.pending = []
        return updates

    @property
    def input_count(self):
        return self.pipeline.input_count


def _recorded_service_flushes(dyadic):
    """The flushes a seeded service hands its (packed) pipeline, and the
    offers the pipeline holds at the end."""
    service = BrpRuntimeService(ServiceConfig(
        ingest=IngestConfig(batch_size=16), scheduling=SchedulingConfig(seed=5)
    ))
    packed = service.ingest.pipeline
    assert isinstance(packed, aggregation_engine.PackedAggregationPipeline)
    recorder = service.ingest.pipeline = _FlushRecorder(packed)
    stream = LoadGenerator(rate_per_hour=40.0, seed=5).stream(0.0, 96.0)
    if dyadic:
        stream = _dyadic_stream(stream)
    assert service.run_stream(stream, 96.0).offers_scheduled
    return recorder.flushes, packed.input_count


def _by_group(updates, fields):
    """One flush's updates sorted by group id: (group id, kind, fields)."""
    return sorted((u.group_id, u.kind.value, fields(u)) for u in updates)


def test_runtime_service_equivalent_across_engines():
    """The runtime aggregates with the packed engine only.  Replay what a
    seeded service handed it, flush by flush, through the scalar oracle
    (and, on a dyadic copy of the stream, through the rebuild-on-remove
    reference too).  Every flush must emit the same updates: kind, group
    id, window, deadline, bit-equal price and bound rows, and members,
    each update under the one ``_next_id()`` draw made at its emission.
    Emission order may differ between engines, so flushes compare by
    group id.  The reference oracle rebuilds on removal, so it joins on
    exact (dyadic) energies only."""
    parameters = ServiceConfig().aggregation.parameters
    for oracles, dyadic in ((("scalar",), False), (("scalar", "reference"), True)):
        flushes, live = _recorded_service_flushes(dyadic)
        assert len(flushes) > 10 and live
        # Executed offers retire through the pipeline as deletes.
        handed = {u.kind for submitted, _, _ in flushes for u in submitted}
        assert handed == {UpdateKind.CREATED, UpdateKind.DELETED}
        emitted = {u.kind for _, updates, _ in flushes for u in updates}
        assert emitted == set(UpdateKind)
        for name in oracles:
            pipeline = make_pipeline(parameters, engine=name)
            for submitted, packed, packed_draws in flushes:
                assert packed_draws == [u.view.offer_id for u in packed]
                for update in submitted:
                    pipeline.submit(update)
                draws: list[int] = []

                def recording_next_id(draws=draws):
                    draws.append(next_id())
                    return draws[-1]

                with patch.object(
                    aggregation_aggregator, "_next_id", recording_next_id
                ):
                    replayed = pipeline.run()
                assert draws == [u.view.offer_id for u in replayed], name
                assert _by_group(
                    replayed, lambda u: _aggregate_fields(u.aggregate)[1:]
                ) == _by_group(packed, lambda u: _view_fields(u.view)[1:]), name
            assert pipeline.input_count == live, name


# ----------------------------------------------------------------------
# every engine's views are the fields of the aggregate it would build
# ----------------------------------------------------------------------
def _view_fields(view):
    """What the planner and the service read of one view, bit for bit."""
    profile = view.profile
    return (
        view.offer_id,
        view.earliest_start,
        view.latest_start,
        view.duration,
        view.assignment_before,
        struct.pack("<d", view.unit_price),
        profile.min_array.tobytes(),
        profile.max_array.tobytes(),
        tuple(m.offer_id for m in view.members),
    )


def _aggregate_fields(aggregate):
    return (
        aggregate.offer_id,
        aggregate.earliest_start,
        aggregate.latest_start,
        aggregate.duration,
        aggregate.assignment_before,
        struct.pack("<d", aggregate.unit_price),
        aggregate.min_array.tobytes(),
        aggregate.max_array.tobytes(),
        tuple(m.offer_id for m in aggregate.members),
    )


@st.composite
def _stream_offers(draw, dyadic):
    duration = draw(st.integers(1, 4))
    if dyadic:
        energy = st.integers(-16, 16).map(lambda k: k / 8.0)
    else:
        energy = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    bounds = []
    for _ in range(duration):
        a = draw(energy)
        # Slices whose bounds coincide are where subtraction residue can
        # invert a group's summed bounds (the max(hi, lo) guard).
        b = a if draw(st.booleans()) else draw(energy)
        bounds.append((min(a, b), max(a, b)))
    est = draw(st.integers(0, 12))
    latest = est + draw(st.integers(0, 6))
    return flex_offer(
        bounds,
        earliest_start=est,
        latest_start=latest,
        assignment_before=draw(st.none() | st.integers(est, latest)),
        unit_price=draw(energy.map(abs)),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_engine_emits_views_of_the_aggregate_it_would_build(data):
    """Streams of inserts, deletes, in-flush churn and emptied-and-refilled
    groups through all three engines.  Every packed view equals, field for
    field and bit for bit, both the aggregate its update builds and the
    one the member walk (``_finalize_aggregate``) builds around its bound
    rows, and the aggregate the scalar and reference oracles' updates
    build for the same group; each flush draws exactly one id per update,
    in emission order, and reading views or building aggregates draws
    none.  Packed and scalar agree bit for bit on any floats (same adds
    and subtracts in the same order); the reference oracle, which rebuilds
    on removal, joins them on dyadic energies."""
    dyadic = data.draw(st.booleans(), label="dyadic")
    parameters = AggregationParameters(
        start_after_tolerance=data.draw(st.integers(0, 8)),
        time_flexibility_tolerance=data.draw(st.integers(0, 8)),
        name="views",
    )
    engines = ("packed", "scalar", "reference") if dyadic else ("packed", "scalar")
    pipelines = {name: make_pipeline(parameters, engine=name) for name in engines}
    draws: list[int] = []

    def recording_next_id():
        draws.append(next_id())
        return draws[-1]

    live: list = []
    with patch.object(aggregation_engine, "_next_id", recording_next_id), patch.object(
        aggregation_aggregator, "_next_id", recording_next_id
    ):
        for _ in range(data.draw(st.integers(1, 6), label="flushes")):
            inserts = data.draw(st.lists(_stream_offers(dyadic), max_size=6))
            if live and data.draw(st.booleans(), label="empty everything"):
                deletes, live = live, []
            else:
                picks = data.draw(st.sets(st.integers(0, max(len(live) - 1, 0))))
                deletes = [o for i, o in enumerate(live) if i in picks]
                live = [o for i, o in enumerate(live) if i not in picks]
            churn = live[:1] if live and data.draw(st.booleans()) else []
            live.extend(inserts)
            per_engine = {}
            for name, pipeline in pipelines.items():
                pipeline.submit_deletes(deletes)
                pipeline.submit_inserts(inserts)
                for offer in churn:
                    pipeline.submit(FlexOfferUpdate.delete(offer))
                    pipeline.submit(FlexOfferUpdate.insert(offer))
                del draws[:]
                updates = pipeline.run()
                assert draws == [u.view.offer_id for u in updates], name
                rows = []
                for update in updates:
                    # A packed view answers every field from its columns;
                    # an oracle's view answers its id and its aggregate.
                    source = update.view if name == "packed" else update.aggregate
                    fields = _view_fields(source)
                    assert fields[0] == update.view.offer_id, name
                    walked = _finalize_aggregate(
                        source.members,
                        source.earliest_start,
                        source.profile,
                        source.offer_id,
                    )
                    assert _aggregate_fields(update.aggregate) == fields, name
                    assert _aggregate_fields(walked) == fields, name
                    assert update.aggregate is update.view.aggregate
                    rows.append((update.group_id, update.kind, fields[1:]))
                assert draws == [u.view.offer_id for u in updates], name
                per_engine[name] = sorted(rows, key=lambda row: row[0])
            for name in engines[1:]:
                assert per_engine[name] == per_engine["packed"], name


def _fold_at_cap(history, parameters, cap):
    """Replay ``history`` through the packed engine, folding where the
    service folds: after an arrival once ``cap`` updates wait (never with
    no cap), in a sweep that retired offers, and at the plan ending each
    step.  Returns what each plan reads: every group's member ids, the ids
    it joined since the last plan that are still its members (first join
    first: the service binds each once), its window, price and bound rows,
    and the dirty groups."""
    pipeline = make_pipeline(parameters, engine="packed")
    pool, joined, dirty = {}, {}, set()
    pending = 0

    def fold():
        nonlocal pending
        pending = 0
        for update in pipeline.run():
            gid = update.group_id
            dirty.add(gid)
            if update.kind is UpdateKind.DELETED:
                del pool[gid]
                joined.pop(gid, None)
                continue
            pool[gid] = update.view
            joined.setdefault(gid, []).extend(update.view.joined)

    plans = []
    for step in history:
        for kind, old, new in step:
            if old is not None:
                pipeline.submit(FlexOfferUpdate.delete(old))
                pending += 1
            if kind == "sweep":
                fold()
            elif new is not None:
                pipeline.submit(FlexOfferUpdate.insert(new))
                pending += 1
                if cap is not None and pending >= cap:
                    fold()
        fold()
        plan = {}
        for gid, view in pool.items():
            held = {m.offer_id: m for m in view.members}
            newcomers = dict.fromkeys(
                o.offer_id for o in joined.get(gid, ()) if held.get(o.offer_id) is o
            )
            plan[gid] = (
                tuple(held),
                tuple(newcomers),
                (view.earliest_start, view.latest_start, view.assignment_before),
                view.unit_price,
                view.profile.min_array,
                view.profile.max_array,
            )
        plans.append((plan, dirty & set(pool)))
        joined.clear()
        dirty.clear()
    return plans


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_plan_reads_the_same_pool_whatever_the_batch_cap(data):
    """Arrivals, withdrawals, revisions and sweeps, with a plan after each
    step.  Folding with no cap, or with a cap of 1, 8 or 64 updates, gives
    every plan the same groups with the same members in the same order,
    the same newcomers in the same order and the same dirty groups; the
    bound rows agree within 1e-9 (another fold cadence adds and subtracts
    in another order).

    Left out: a withdrawn offer re-admitted as the very same object.  Its
    place and its place among the newcomers depend on whether a fold fell
    between its first admission and its return (inside one fold it keeps
    its place; across folds it joins again).  The service re-admits an
    object it held only when a revision fails its second admission check
    (the clock moved between the two checks: a wall-clock driver), or when
    a caller withdraws an offer and submits the same object again."""
    parameters = AggregationParameters(
        start_after_tolerance=data.draw(st.integers(0, 8)),
        time_flexibility_tolerance=data.draw(st.integers(0, 8)),
        name="cadence",
    )
    live: list = []
    history = []
    for _ in range(data.draw(st.integers(1, 5), label="plans")):
        step = []
        for _ in range(data.draw(st.integers(0, 24), label="actions")):
            kind = data.draw(
                st.sampled_from(["arrive"] * 4 + ["withdraw", "revise", "sweep"])
            )
            if kind == "arrive" or not live:
                offer = data.draw(_stream_offers(False))
                live.append(offer)
                step.append(("arrive", None, offer))
                continue
            k = data.draw(st.integers(0, len(live) - 1))
            old = live[k]
            if kind == "revise":
                live[k] = _revised(old)
                step.append((kind, old, live[k]))
            else:
                del live[k]
                step.append((kind, old, None))
        history.append(step)

    uncapped = _fold_at_cap(history, parameters, None)
    for cap in (1, 8, 64):
        capped = _fold_at_cap(history, parameters, cap)
        assert len(capped) == len(uncapped)
        for (plan, dirty), (want, want_dirty) in zip(capped, uncapped):
            assert dirty == want_dirty, cap
            assert plan.keys() == want.keys(), cap
            for gid, (*fields, lo, hi) in plan.items():
                *want_fields, want_lo, want_hi = want[gid]
                assert fields == want_fields, (cap, gid)
                np.testing.assert_allclose(lo, want_lo, rtol=0, atol=1e-9)
                np.testing.assert_allclose(hi, want_hi, rtol=0, atol=1e-9)


def test_views_guard_an_inverted_residue_slice():
    """(1.95 + 2.37) - 2.37 > (1.95 + 2.43) - 2.43: removing the second
    member leaves a slice whose lower bound sums above its upper one.
    The packed view and the scalar aggregate both raise ``hi`` to ``lo``
    there."""
    parameters = AggregationParameters(0, 0, name="residue")
    fixed = flex_offer([(1.95, 1.95)], earliest_start=4, latest_start=8)
    loose = flex_offer([(2.37, 2.43)], earliest_start=4, latest_start=8)
    rows = {}
    for engine in ("packed", "scalar"):
        pipeline = make_pipeline(parameters, engine=engine)
        pipeline.submit_inserts([fixed, loose])
        pipeline.run()
        pipeline.submit_deletes([loose])
        (update,) = pipeline.run()
        source = update.view if engine == "packed" else update.aggregate
        profile = source.profile
        rows[engine] = (profile.min_array.tolist(), profile.max_array.tolist())
    residue = (1.95 + 2.37) - 2.37
    assert residue > (1.95 + 2.43) - 2.43
    assert rows["packed"] == rows["scalar"] == ([residue], [residue])


def test_view_price_is_the_pairwise_mean_in_membership_order():
    """Past eight members ``np.mean`` sums pairwise, so no running or
    sequential sum has its bits.  The packed view's price and the
    oracles' aggregate prices must have them."""
    rng = np.random.default_rng(3)
    parameters = AggregationParameters(0, 0, name="prices")
    offers = [
        flex_offer(
            [(1.0, 2.0)],
            earliest_start=4,
            latest_start=8,
            unit_price=float(rng.uniform(0.0, 1.0)),
        )
        for _ in range(300)
    ]
    kept = offers[:5] + offers[9:]
    want = np.mean([o.unit_price for o in kept])
    # These prices tell the pairwise mean from a sequential one.
    assert sum(o.unit_price for o in kept) / len(kept) != want
    for engine in ("packed", "scalar", "reference"):
        pipeline = make_pipeline(parameters, engine=engine)
        pipeline.submit_inserts(offers)
        pipeline.run()
        pipeline.submit_deletes(offers[5:9])
        (update,) = pipeline.run()
        source = update.view if engine == "packed" else update.aggregate
        assert [m.offer_id for m in source.members] == [o.offer_id for o in kept]
        assert struct.pack("<d", source.unit_price) == struct.pack("<d", want)
