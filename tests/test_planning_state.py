"""A planning session's carried group state is a cache, never an answer.

:class:`~repro.runtime.planning.PlanSession` keeps each pool group's offer
constants and kept-placement verdict from one run to the next and rebuilds
them only when the group's view object changed or its clip moved.  The
property below drives one long-lived session through a pool history —
groups added, revised (a new view, sometimes over the same profile and
window) and deleted, keys dirtied without a new view, the horizon start
advancing so that groups clip and close — and at every run compares its
``plan_window`` with a fresh session's, handed records holding the same
views and placements, the same ``dirty`` set and rng state: a rebuild with
nothing carried.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.updates import AggregateUpdate, UpdateKind
from repro.core import TimeSeries, flex_offer
from repro.runtime.planning import PlanSession, PoolGroup

HORIZON = 24

_ACTIONS = ("add", "revise", "same_shape", "delete", "dirty", "keep")


def _offer(rng, start):
    duration = int(rng.integers(1, 5))
    earliest = max(0, start + int(rng.integers(-4, 12)))
    latest = earliest + int(rng.integers(0, 8))
    lo = rng.uniform(-2.0, 2.0, duration)
    hi = lo + rng.uniform(0.0, 3.0, duration)
    due = None if rng.random() < 0.8 else latest - int(rng.integers(0, 4))
    return flex_offer(
        list(zip(lo, hi)),
        earliest_start=earliest,
        latest_start=latest,
        assignment_before=due,
        unit_price=float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
    )


def _same_plan(got, want):
    if want is None:
        assert got is None
        return
    assert [g.key for g in got.groups] == [g.key for g in want.groups]
    assert [id(view) for view in got.views] == [id(view) for view in want.views]
    a, b = got.result.solution, want.result.solution
    assert a.starts.tobytes() == b.starts.tobytes()
    assert len(a.energies) == len(b.energies)
    for x, y in zip(a.energies, b.energies):
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
    assert np.float64(got.result.cost).tobytes() == np.float64(
        want.result.cost
    ).tobytes()
    assert got.result.evaluations == want.result.evaluations


def _placements(groups):
    return {
        key: None
        if group.placement is None
        else (group.placement[0], group.placement[1].tobytes())
        for key, group in groups.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    passes=st.integers(1, 3),
    forecast=st.booleans(),
    history=st.lists(
        st.tuples(
            st.integers(0, 3),  # slices the horizon start advances
            st.lists(
                st.tuples(st.sampled_from(_ACTIONS), st.integers(0, 7)),
                max_size=6,
            ),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_carried_state_plans_as_a_rebuild_at_every_run(
    seed, passes, forecast, history
):
    rng = np.random.default_rng(seed)
    net = (
        TimeSeries(0, rng.uniform(-6.0, 6.0, 80)) if forecast else None
    )
    session = PlanSession(passes=passes, seed=seed % 97, net_forecast=net)
    pool = {f"g{j}": _offer(rng, 0) for j in range(4)}
    for key, offer in pool.items():
        session.absorb(AggregateUpdate(UpdateKind.CREATED, key, offer))
    start = 0
    for advance, actions in history:
        start += advance
        updates = []
        for action, index in actions:
            key = f"g{index}"
            if action == "add" and key not in pool:
                pool[key] = _offer(rng, start)
                updates.append((UpdateKind.CREATED, key))
            elif key not in pool or action == "keep":
                continue
            elif action == "revise":
                pool[key] = _offer(rng, start)
                updates.append((UpdateKind.MODIFIED, key))
            elif action == "same_shape":
                # A new view object over the same profile and window.
                old = pool[key]
                pool[key] = old.with_times(old.earliest_start, old.latest_start)
                updates.append((UpdateKind.MODIFIED, key))
            elif action == "delete":
                del pool[key]
                updates.append((UpdateKind.DELETED, key))
            else:  # "dirty": named by an update, the view unchanged
                updates.append((UpdateKind.MODIFIED, key))
        for kind, key in updates:
            session.absorb(AggregateUpdate(kind, key, pool.get(key)))

        rebuild = PlanSession(passes=passes, net_forecast=net)
        rebuild.groups = {
            key: PoolGroup(key, group.view, placement=group.placement)
            for key, group in session.groups.items()
        }
        rebuild.dirty = set(session.dirty)
        rebuild.rng.bit_generator.state = session.rng.bit_generator.state

        got = session.plan_window(start, start + HORIZON)
        want = rebuild.plan_window(start, start + HORIZON)
        _same_plan(got, want)
        assert [id(v) for v in session.closed] == [id(v) for v in rebuild.closed]
        assert _placements(session.groups) == _placements(rebuild.groups)
        assert session.dirty == rebuild.dirty
        assert session.rng.bit_generator.state == rebuild.rng.bit_generator.state


def test_a_moved_clip_rebuilds_the_constants():
    """A clipped group planned again at a later start opens its window at
    that start, however the horizon moved: the constants follow the clip
    and the kept placement that now starts too early is re-placed."""
    offer = flex_offer([(1.0, 2.0)] * 2, earliest_start=0, latest_start=10)
    session = PlanSession(passes=1)
    session.absorb(AggregateUpdate(UpdateKind.CREATED, "g", offer))
    first = session.plan_window(2, 14)
    assert first.problem.offer_constants[0].earliest_start == 2
    assert session.groups["g"].placement[0] == 2  # every start costs the same
    second = session.plan_window(5, 17)
    consts = second.problem.offer_constants[0]
    assert (consts.earliest_start, consts.earliest_index) == (5, 0)
    assert consts.n_starts == 6
    assert 5 <= int(second.result.solution.starts[0]) <= 10
