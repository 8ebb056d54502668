"""Property and regression tests for the vectorized scheduling cost engine.

The correctness gate of the engine rewrite: the closed-form
:class:`~repro.scheduling.engine.CostEngine` and the batched placement
kernel must be numerically equivalent to the settlement-derived oracle
(``settled_slice_costs`` / ``evaluate``) and bit-identical to the scalar
:mod:`~repro.scheduling.reference` kernel — across random problems mixing
volume limits, penalty shapes, and production/consumption offers.
"""

import hashlib
import struct
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SchedulingError, TimeSeries, flex_offer
from repro.runtime import BrpRuntimeService, LoadGenerator, ServiceConfig
from repro.scheduling import (
    CandidateSolution,
    DeltaRequest,
    DeltaScheduler,
    IncrementalCostState,
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
)
from repro.scheduling.engine import CostEngine
from repro.scheduling.reference import (
    reference_one_pass,
    reference_optimal_energies,
)

N_RANDOM_PROBLEMS = 200


def random_problem(rng: np.random.Generator) -> SchedulingProblem:
    """A random instance mixing every cost-model feature the engine folds.

    Volume limits present or absent per side, scalar or per-slice
    penalties (including zero), negative sell prices, and offers that are
    production-only, consumption-only, or sign-crossing.
    """
    horizon = int(rng.integers(8, 48))
    net = rng.uniform(-25.0, 25.0, horizon)

    buy = rng.uniform(0.05, 0.6, horizon)
    # sell <= buy (no-arbitrage); occasionally negative (paying to dump).
    sell = buy - rng.uniform(0.0, 0.7, horizon)
    max_buy = rng.uniform(0.0, 30.0, horizon) if rng.random() < 0.5 else None
    max_sell = rng.uniform(0.0, 10.0, horizon) if rng.random() < 0.5 else None
    market = Market(buy, sell, max_buy=max_buy, max_sell=max_sell)

    def penalty(scale: float):
        if rng.random() < 0.5:
            return np.array(rng.uniform(0.0, scale))
        return rng.uniform(0.0, scale, horizon)

    offers = []
    for _ in range(int(rng.integers(1, 7))):
        duration = int(rng.integers(1, min(5, horizon) + 1))
        earliest = int(rng.integers(0, horizon - duration + 1))
        latest = int(rng.integers(earliest, horizon - duration + 1))
        kind = rng.random()
        if kind < 0.4:  # consumption
            lo = rng.uniform(0.0, 2.0, duration)
        elif kind < 0.8:  # production
            lo = rng.uniform(-4.0, -1.0, duration)
        else:  # sign-crossing flexibility
            lo = rng.uniform(-2.0, 0.0, duration)
        hi = lo + rng.uniform(0.0, 3.0, duration)
        offers.append(
            flex_offer(
                list(zip(lo, hi)),
                earliest_start=earliest,
                latest_start=latest,
                unit_price=float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
            )
        )
    return SchedulingProblem(
        TimeSeries(0, net),
        tuple(offers),
        market,
        shortage_penalty=penalty(1.0),
        surplus_penalty=penalty(0.6),
    )


RUNTIME_SHAPE_SHA256 = (
    "8918c197275b161325f895329de14a0dd9f445a775496a3be54913646279a5e4"
)
"""Kernel output over :func:`runtime_shape_corpus`, recorded from the
``(span, duration)``-table kernel the band kernel replaced."""

MIXED_SIGN_SHA256 = (
    "30436ed4434d0a072a28ffb058e952fa7badb352c9c96b2ea6dc2fa42c8205a6"
)
"""Kernel output over :func:`mixed_sign_corpus`, recorded from the kernel
that priced all four candidate rows for every offer."""

PLACE_TOTALS_SHA256 = (
    "9a6a085e2b108b8acab678943d58764a39833b9b7a80a6b5dcc18251eb0b6b3f"
)
"""Every ``(offset, energies, running total)`` of
``test_place_keeps_cost_vector_exact``, recorded from the ``place`` that
re-priced each window with ``slice_costs``."""


def _runtime_bounds(rng, k, duration):
    """Per-slice ``(lo, hi)`` of one aggregate: consumption, production or
    sign-crossing as a whole, scaled as if it carried several members."""
    scale = rng.uniform(1.0, 8.0)
    kind = rng.random()
    if kind < 0.4:  # consumption
        lo = rng.uniform(0.0, 2.0, duration)
    elif kind < 0.8:  # production
        lo = rng.uniform(-4.0, -1.0, duration)
    else:  # sign-crossing flexibility
        lo = rng.uniform(-2.0, 0.0, duration)
    hi = lo + rng.uniform(0.0, 3.0, duration)
    return scale * lo, scale * hi


def _mixed_sign_bounds(rng, k, duration):
    """Bounds that decide whether the kernel needs its ``zero`` candidate.

    ``clip(0, lo, hi)`` differs from both bounds exactly on the slices with
    ``lo < 0 < hi``; the four shapes by offer index are: every slice
    crossing, production only (some upper bounds exactly 0), consumption
    with exactly one crossing slice, and consumption and production slices
    alternating — where the zero row is a patchwork of the two bound rows
    without ever differing from both.
    """
    scale = rng.uniform(1.0, 8.0)
    shape = k % 4
    if shape == 0:
        lo = -rng.uniform(0.1, 2.0, duration)
        hi = rng.uniform(0.1, 3.0, duration)
    elif shape == 1:
        hi = -rng.uniform(0.0, 2.0, duration)
        hi[rng.random(duration) < 0.25] = 0.0
        lo = hi - rng.uniform(0.0, 3.0, duration)
    elif shape == 2:
        lo = rng.uniform(0.0, 2.0, duration)
        hi = lo + rng.uniform(0.0, 3.0, duration)
        crossing = int(rng.integers(0, duration))
        lo[crossing], hi[crossing] = -rng.uniform(0.1, 2.0), rng.uniform(0.1, 3.0)
    else:
        lo = rng.uniform(0.0, 2.0, duration)
        hi = lo + rng.uniform(0.0, 3.0, duration)
        produce = np.arange(duration) % 2 == 1
        lo[produce], hi[produce] = -hi[produce], -lo[produce]
    return scale * lo, scale * hi


def _shape_corpus(seed, draw_bounds):
    """Seeded ``(problem, offer index, residual)`` kernel inputs at the
    shapes the streaming runtime schedules.

    Horizon 96, aggregates of 8-40 slices with 1-35 admissible starts
    (each extreme pair forced once per four problems); the 16 problems
    cross flat / volume-capped markets, scalar / per-slice penalties and
    zero / non-zero ``unit_price``.  ``random_problem`` stops at 5 slices,
    below numpy's pairwise-summation threshold of 8, so it cannot see a
    change in the kernel's accumulation order; these corpora can.
    """
    rng = np.random.default_rng(seed)
    horizon = 96
    corners = [(8, 1), (40, 35), (8, 35), (40, 1)]
    for p in range(16):
        capped, per_slice, priced = p & 1, p & 2, p & 4
        if capped:
            buy = rng.uniform(0.05, 0.6, horizon)
            market = Market(
                buy,
                buy - rng.uniform(0.0, 0.7, horizon),
                max_buy=rng.uniform(0.0, 60.0, horizon),
                max_sell=rng.uniform(0.0, 20.0, horizon),
            )
        else:
            market = Market.flat(horizon)
        if per_slice:
            shortage_penalty = rng.uniform(0.0, 1.0, horizon)
            surplus_penalty = rng.uniform(0.0, 0.6, horizon)
        else:
            shortage_penalty, surplus_penalty = np.array(0.5), np.array(0.2)
        offers = []
        for k in range(8):
            if k == 0:
                duration, n_starts = corners[p % 4]
            else:
                duration = int(rng.integers(8, 41))
                n_starts = int(rng.integers(1, 36))
            earliest = int(
                rng.integers(0, horizon - (n_starts + duration - 1) + 1)
            )
            lo, hi = draw_bounds(rng, k, duration)
            offers.append(
                flex_offer(
                    list(zip(lo, hi)),
                    earliest_start=earliest,
                    latest_start=earliest + n_starts - 1,
                    unit_price=float(rng.uniform(0.0, 0.1)) if priced else 0.0,
                )
            )
        problem = SchedulingProblem(
            TimeSeries(0, rng.uniform(-40.0, 40.0, horizon)),
            tuple(offers),
            market,
            shortage_penalty=shortage_penalty,
            surplus_penalty=surplus_penalty,
        )
        for j in range(len(offers)):
            yield problem, j, problem.net_forecast.values + rng.uniform(
                -10.0, 10.0, horizon
            )


def runtime_shape_corpus():
    """The corpus behind :data:`RUNTIME_SHAPE_SHA256`."""
    return _shape_corpus(19, _runtime_bounds)


def mixed_sign_corpus():
    """The corpus behind :data:`MIXED_SIGN_SHA256`: the same shapes over
    :func:`_mixed_sign_bounds`, so three- and four-candidate offers both
    sit under a pin whatever the first corpus happens to draw."""
    return _shape_corpus(22, _mixed_sign_bounds)


def widest_corpus_case():
    """The corpus's widest band: 40 slices x 35 starts, capped market."""
    return next(islice(runtime_shape_corpus(), 8, None))


def _pinned_kernel_digest(corpus) -> str:
    """sha256 of ``(start_index, energies, cost_delta)`` over a corpus,
    each placement also compared with the scalar reference kernel."""
    digest = hashlib.sha256()
    for problem, j, residual in corpus:
        consts = problem.offer_constants[j]
        engine = problem.engine
        for cost_vector in (None, engine.slice_costs(residual)):
            start_index, energies, delta, after = engine.best_placement(
                consts, residual, cost_vector
            )
            digest.update(struct.pack("<q", start_index))
            digest.update(energies.tobytes())
            digest.update(struct.pack("<d", delta))
            # The hand-off to ``place``: the chosen placement's after-costs
            # are the slice costs of the residual it leaves behind.
            i = consts.earliest_index + start_index
            assert np.array_equal(
                after,
                engine.slice_costs(residual[i : i + consts.duration] + energies, i),
            )

        offer = problem.offers[j]
        best_cost, best_index, best_energy = np.inf, -1, None
        for k in range(consts.n_starts):
            i = consts.earliest_index + k
            energy, cost = reference_optimal_energies(
                problem,
                offer,
                residual[i : i + consts.duration],
                i,
                consts.lo,
                consts.hi,
            )
            if cost < best_cost:
                best_cost, best_index, best_energy = cost, k, energy
        assert start_index == best_index
        assert np.array_equal(energies, best_energy)
        assert delta == pytest.approx(best_cost, abs=1e-9)
    return digest.hexdigest()


def six_row_engine(problem: SchedulingProblem) -> CostEngine:
    """The six-row engine of an *uncapped* problem, its table built by hand
    around the two rate rows: what ``CostEngine`` held for every market
    before it read the shape off the caps, so the two-row form has the old
    arithmetic to be compared to."""
    buy, sell = problem.engine._market
    uncapped = np.full(problem.horizon_length, np.inf)
    engine = object.__new__(CostEngine)
    engine._market = np.stack(
        (
            uncapped,
            uncapped,
            buy,
            problem.shortage_penalty,
            sell,
            problem.surplus_penalty,
        )
    )
    return engine


_ZEROS = st.sampled_from([0.0, -0.0])
_RESIDUAL = st.one_of(_ZEROS, st.floats(-60.0, 60.0), st.floats(-1e-300, 1e-300))
_RATE = st.one_of(_ZEROS, st.floats(0.0, 1.0))


@st.composite
def uncapped_pricing_cases(draw):
    """``(problem, residual)`` over a market without volume limits.

    Residuals mix ``+0.0``, ``-0.0``, denormal-small and ordinary values of
    both signs.  Prices are the day/night tariff or drawn per slice with
    zero and negative buy prices (sell below buy by a drawn gap, so often
    negative too); penalties are drawn per slice from ``[0, 1]`` with exact
    zeros, which puts slices where buying (selling) beats the penalty next
    to slices where it does not, and ties between the two.
    """
    n = draw(st.integers(1, 12))
    per_slice = lambda element: st.lists(element, min_size=n, max_size=n)
    residual = np.array(draw(per_slice(_RESIDUAL)))
    if draw(st.booleans()):
        market = Market.day_night(n, draw(st.integers(1, n)))
    else:
        buy = np.array(draw(per_slice(st.one_of(_ZEROS, st.floats(-0.4, 0.9)))))
        market = Market(buy, buy - np.array(draw(per_slice(_RATE))))
    problem = SchedulingProblem(
        TimeSeries(0, np.zeros(n)),
        (),
        market,
        shortage_penalty=np.array(draw(per_slice(_RATE))),
        surplus_penalty=np.array(draw(per_slice(_RATE))),
    )
    return problem, residual


class TestTwoRowPricing:
    """An uncapped market is priced from two rate rows; a capped one from
    six.  Same bits either way, and the market alone decides which."""

    @settings(max_examples=300, deadline=None)
    @given(uncapped_pricing_cases())
    def test_two_rows_six_rows_and_settlement_agree_byte_for_byte(self, case):
        problem, residual = case
        engine = problem.engine
        assert engine._market.shape == (2, len(residual))
        six = six_row_engine(problem)
        assert (
            engine.slice_costs(residual).tobytes()
            == six.slice_costs(residual).tobytes()
            == problem.settled_slice_costs(residual).tobytes()
        )
        # and with a leading axis, as the kernel prices its candidate rows
        stacked = np.stack((residual, -residual, residual * 0.0))
        assert (
            engine.slice_costs(stacked).tobytes()
            == six.slice_costs(stacked).tobytes()
        )

    def test_kernel_output_equal_under_either_table(self):
        """Every uncapped problem of both corpora, two-row engine against a
        hand-built six-row one: same start, energies, delta, after-costs."""
        cases = 0
        for corpus in (runtime_shape_corpus, mixed_sign_corpus):
            for problem, j, residual in corpus():
                if problem.market.max_buy is not None:
                    continue
                consts = problem.offer_constants[j]
                assert problem.engine._market.shape == (2, 96)
                six = six_row_engine(problem)
                for cost_vector in (None, six.slice_costs(residual)):
                    got = problem.engine.best_placement(
                        consts, residual, cost_vector
                    )
                    want = six.best_placement(consts, residual, cost_vector)
                    assert got[0] == want[0]
                    assert got[1].tobytes() == want[1].tobytes()
                    assert struct.pack("<d", got[2]) == struct.pack("<d", want[2])
                    assert got[3].tobytes() == want[3].tobytes()
                cases += 1
        assert cases == 2 * 8 * 8

    def test_table_shape_is_read_off_the_effective_caps(self):
        """Six rows exactly when a finite cap sits on a slice where that
        trade beats the penalty; a limit that is ``inf``, or finite only
        where trading never pays, leaves two."""
        horizon = 6
        buy = np.full(horizon, 0.2)
        buy[3] = 0.9  # above the 0.5 shortage penalty: never bought
        sell = np.full(horizon, 0.05)
        sell[4] = -0.3  # below -0.2: dumping costs more than the penalty
        unlimited = np.full(horizon, np.inf)

        def rows(**limits):
            problem = SchedulingProblem(
                TimeSeries(0, np.zeros(horizon)), (), Market(buy, sell, **limits)
            )
            return problem.engine._market.shape[0]

        def capped_at(k):
            limit = unlimited.copy()
            limit[k] = 5.0
            return limit

        assert rows() == 2
        assert rows(max_buy=unlimited) == 2
        assert rows(max_buy=unlimited, max_sell=unlimited) == 2
        assert rows(max_buy=capped_at(3)) == 2  # cap where buying never pays
        assert rows(max_sell=capped_at(4)) == 2  # cap where selling never pays
        assert rows(max_buy=capped_at(3), max_sell=capped_at(4)) == 2
        for k in range(horizon):
            assert rows(max_buy=capped_at(k)) == (2 if k == 3 else 6)
            assert rows(max_sell=capped_at(k)) == (2 if k == 4 else 6)
        assert rows(max_buy=np.zeros(horizon)) == 6  # a zero cap is a cap

    def test_capped_slices_price_like_the_settlement(self):
        """The six-row path on a market that needs it: caps that bind on
        some slices, ``inf`` on others, against the settlement oracle."""
        rng = np.random.default_rng(31)
        horizon = 24
        buy = rng.uniform(0.05, 0.6, horizon)
        max_buy = np.where(rng.random(horizon) < 0.5, rng.uniform(0, 10, horizon), np.inf)
        problem = SchedulingProblem(
            TimeSeries(0, np.zeros(horizon)),
            (),
            Market(
                buy,
                buy - rng.uniform(0.0, 0.7, horizon),
                max_buy=max_buy,
                max_sell=rng.uniform(0.0, 5.0, horizon),
            ),
        )
        assert problem.engine._market.shape == (6, horizon)
        for _ in range(20):
            residual = rng.uniform(-25.0, 25.0, horizon)
            assert np.allclose(
                problem.engine.slice_costs(residual),
                problem.settled_slice_costs(residual),
                atol=1e-9,
            )


class TestEngineEquivalence:
    def test_engine_matches_oracle_on_random_problems(self):
        """Engine ≡ settled oracle ≡ evaluate() on 200 random problems."""
        rng = np.random.default_rng(2024)
        for _ in range(N_RANDOM_PROBLEMS):
            problem = random_problem(rng)
            solution = problem.random_solution(rng)
            residual = problem.net_forecast.values + problem.flex_series(solution)

            engine_costs = problem.engine.slice_costs(residual)
            oracle_costs = problem.settled_slice_costs(residual)
            assert np.allclose(engine_costs, oracle_costs, atol=1e-9)

            evaluation = problem.evaluate(solution)
            assert problem.cost(solution) == pytest.approx(
                evaluation.total_cost, abs=1e-9
            )

    def test_engine_matches_oracle_on_partial_windows(self):
        rng = np.random.default_rng(7)
        problem = random_problem(rng)
        horizon = problem.horizon_length
        for _ in range(20):
            lo = int(rng.integers(0, horizon))
            hi = int(rng.integers(lo + 1, horizon + 1))
            window = rng.uniform(-20.0, 20.0, hi - lo)
            assert np.allclose(
                problem.engine.slice_costs(window, lo),
                problem.settled_slice_costs(window, lo),
                atol=1e-9,
            )

    def test_engine_is_cached_per_problem(self):
        problem = random_problem(np.random.default_rng(1))
        assert problem.engine is problem.engine
        assert problem.offer_constants is problem.offer_constants
        assert problem.packed_offers is problem.packed_offers


class TestBatchedKernel:
    def test_matches_reference_placement_bit_for_bit(self):
        """Batched kernel ≡ scalar per-start scan, including tie-breaks."""
        rng = np.random.default_rng(99)
        for _ in range(60):
            problem = random_problem(rng)
            residual = problem.net_forecast.values + rng.uniform(
                -10.0, 10.0, problem.horizon_length
            )
            for j, offer in enumerate(problem.offers):
                consts = problem.offer_constants[j]
                lo = np.asarray(offer.profile.min_energies())
                hi = np.asarray(offer.profile.max_energies())
                best_cost = np.inf
                best_start = offer.earliest_start
                best_energy = lo
                for start in offer.start_times():
                    i = start - problem.horizon_start
                    window = residual[i : i + offer.duration]
                    energy, delta = reference_optimal_energies(
                        problem, offer, window, i, lo, hi
                    )
                    if delta < best_cost:
                        best_cost = delta
                        best_start = start
                        best_energy = energy
                start_index, energy, delta, _ = problem.engine.best_placement(
                    consts, residual
                )
                assert consts.earliest_start + start_index == best_start
                assert np.array_equal(energy, best_energy)
                assert delta == pytest.approx(best_cost, abs=1e-9)

    def test_kernel_bits_pinned_at_runtime_shapes(self):
        """Every start, energy byte and cost delta at runtime shapes.

        The per-start totals are sums of 8-40 terms; their accumulation
        order (slice order, see ``best_placement``) decides near-tied
        starts and through them whole plans, and nothing with 5-slice
        offers and a 1e-9 cost tolerance can see it move.
        """
        assert _pinned_kernel_digest(runtime_shape_corpus()) == RUNTIME_SHAPE_SHA256

    def test_kernel_bits_pinned_on_mixed_sign_corpus(self):
        """The same pin where the ``zero`` candidate row is and is not built."""
        crossing = [
            int(np.sum((c.lo < 0) & (c.hi > 0)))
            for c in (p.offer_constants[j] for p, j, _ in mixed_sign_corpus())
        ]
        durations = [
            p.offer_constants[j].duration for p, j, _ in mixed_sign_corpus()
        ]
        assert crossing[0::4] == durations[0::4]  # every slice crosses
        assert set(crossing[1::4]) == {0}  # production only
        assert set(crossing[2::4]) == {1}  # exactly one crossing slice
        assert set(crossing[3::4]) == {0}  # alternating signs, none crossing
        assert _pinned_kernel_digest(mixed_sign_corpus()) == MIXED_SIGN_SHA256

    def test_accepts_any_real_array_over_the_horizon(self):
        """Strided views and integer arrays answer like their float copy."""
        problem, j, residual = widest_corpus_case()
        consts = problem.offer_constants[j]
        engine = problem.engine
        whole = np.round(residual)
        costs = engine.slice_costs(whole)
        want = engine.best_placement(consts, whole, costs)

        def strided(values):
            view = np.repeat(values, 2)[::2]
            assert not view.flags.c_contiguous
            return view

        for got in (
            engine.best_placement(consts, strided(whole), strided(costs)),
            engine.best_placement(consts, strided(whole)),
            engine.best_placement(consts, whole.astype(np.int64), costs),
            engine.best_placement(consts, whole.astype(np.int64)),
        ):
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    def test_band_past_the_horizon_raises(self):
        """An offer the horizon cannot hold is an error, not a foreign read."""
        problem, j, residual = widest_corpus_case()
        consts = problem.offer_constants[j]
        engine = problem.engine
        room = len(residual) - (consts.n_starts + consts.duration - 1)
        fits = replace(consts, earliest_index=room)
        engine.best_placement(fits, residual)
        for earliest_index in (room + 1, len(residual), -1):
            off = replace(consts, earliest_index=earliest_index)
            with pytest.raises(SchedulingError, match="horizon"):
                engine.best_placement(off, residual)
            with pytest.raises(SchedulingError, match="horizon"):
                engine.best_placement(
                    off, residual, engine.slice_costs(residual)
                )
        with pytest.raises(SchedulingError, match="horizon"):  # short residual
            engine.best_placement(fits, residual[:-1])

    def test_greedy_pass_identical_to_reference(self):
        rng_seed = 5
        for trial in range(10):
            problem = random_problem(np.random.default_rng(trial))
            ref = reference_one_pass(problem, np.random.default_rng(rng_seed))
            new, pass_cost = RandomizedGreedyScheduler()._one_pass(
                problem, np.random.default_rng(rng_seed)
            )
            assert np.array_equal(ref.starts, new.starts)
            for a, b in zip(ref.energies, new.energies):
                assert np.array_equal(a, b)
            assert pass_cost == pytest.approx(problem.cost(new), abs=1e-9)


class TestIncrementalCostState:
    def test_place_keeps_cost_vector_exact(self, monkeypatch):
        """``place`` stores the kernel's after-costs instead of re-pricing.

        After every placement of a greedy pass and of the delta scheduler's
        re-placement loop, over both corpora's problems, the cost vector is
        still bit-equal to the slice costs of the residual and the running
        total advanced by exactly the kernel's delta; the digest of every
        (offset, energies, total) was recorded from the ``place`` that
        re-priced its window.
        """
        original = IncrementalCostState.place
        digest = hashlib.sha256()
        placements = 0

        def checked_place(state, offset, energies, cost_delta, after_costs):
            nonlocal placements
            before = state.total
            original(state, offset, energies, cost_delta, after_costs)
            assert np.array_equal(
                state.cost_vector, state.engine.slice_costs(state.residual)
            )
            assert state.total == before + cost_delta
            digest.update(struct.pack("<qd", offset, state.total))
            digest.update(energies.tobytes())
            placements += 1

        monkeypatch.setattr(IncrementalCostState, "place", checked_place)
        for corpus in (runtime_shape_corpus, mixed_sign_corpus):
            for problem, j, _ in corpus():
                if j:
                    continue  # one entry per offer; take each problem once
                RandomizedGreedyScheduler()._one_pass(
                    problem, np.random.default_rng(3)
                )
                keys = tuple(f"g{i}" for i in range(problem.offer_count))
                scheduler = DeltaScheduler(full_fraction=0.5)
                for dirty in (keys, keys[::3]):
                    scheduler.schedule(
                        problem, delta=DeltaRequest(keys, frozenset(dirty), 0)
                    )
                assert scheduler.last_stats["mode"] == "delta"
        assert placements == 2 * 16 * (8 + 8 + 3)
        assert digest.hexdigest() == PLACE_TOTALS_SHA256

    def test_replace_tracks_full_recompute(self):
        rng = np.random.default_rng(42)
        problem = random_problem(rng)
        state = IncrementalCostState.for_problem(problem)
        horizon = problem.horizon_length
        for _ in range(50):
            d = int(rng.integers(1, 4))
            old_i = int(rng.integers(0, horizon - d + 1))
            new_i = int(rng.integers(0, horizon - d + 1))
            energies = rng.uniform(-3.0, 3.0, d)
            state.replace(old_i, np.zeros(d), new_i, energies)
            assert state.total == pytest.approx(
                problem.engine.total_cost(state.residual), abs=1e-9
            )
        state.resync()
        assert state.total == pytest.approx(
            problem.engine.total_cost(state.residual), abs=1e-9
        )


class TestWarmStartedReplanning:
    def _problem_and_warm(self):
        rng = np.random.default_rng(11)
        offers = [
            flex_offer(
                [(0.5, 2.0)] * int(rng.integers(1, 4)),
                earliest_start=int(rng.integers(0, 20)),
                latest_start=int(rng.integers(20, 40)),
            )
            for _ in range(12)
        ]
        horizon = 48
        problem = SchedulingProblem(
            TimeSeries(0, rng.uniform(-10, 10, horizon)),
            tuple(offers),
            Market.flat(horizon),
        )
        return problem, problem.minimum_solution()

    def test_scheduler_warm_start_deterministic(self):
        """Same warm start + rng ⇒ identical schedules under the new kernel."""
        problem, warm = self._problem_and_warm()
        runs = [
            RandomizedGreedyScheduler().schedule(
                problem,
                max_passes=3,
                rng=np.random.default_rng(3),
                warm_start=warm.copy(),
            )
            for _ in range(2)
        ]
        assert runs[0].cost == runs[1].cost
        assert np.array_equal(runs[0].solution.starts, runs[1].solution.starts)
        for a, b in zip(runs[0].solution.energies, runs[1].solution.energies):
            assert np.array_equal(a, b)

    def test_runtime_replanning_identical_across_runs(self):
        """Two identical warm-started service runs commit identical plans."""

        def run():
            config = ServiceConfig.from_flat(batch_size=16, scheduler_passes=2, seed=9)
            service = BrpRuntimeService(config)
            generator = LoadGenerator(rate_per_hour=60.0, seed=9)
            service.run_stream(generator.stream(0.0, 48.0), 48.0)
            schedule = service.last_schedule
            assert schedule is not None
            # offer_ids are globally auto-assigned and differ between runs;
            # the committed placements are what must be identical.
            return [(s.start, tuple(s.energies)) for s in schedule]

        first, second = run(), run()
        assert first == second


class TestPackedOffers:
    def test_flex_series_matches_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            problem = random_problem(rng)
            solution = problem.random_solution(rng)
            packed = problem.packed_offers.pack(solution.energies)
            assert np.allclose(
                problem.packed_offers.flex_series(solution.starts, packed),
                problem.flex_series(solution),
                atol=1e-12,
            )
            assert problem.packed_offers.flex_cost(packed) == pytest.approx(
                problem.flexoffer_cost(solution), abs=1e-9
            )

    def test_split_roundtrips(self):
        problem = random_problem(np.random.default_rng(3))
        solution = problem.random_solution(np.random.default_rng(4))
        packed = problem.packed_offers.pack(solution.energies)
        for original, piece in zip(
            solution.energies, problem.packed_offers.split(packed)
        ):
            assert np.array_equal(original, piece)

    def test_random_genomes_respect_bounds(self):
        problem = random_problem(np.random.default_rng(8))
        packing = problem.packed_offers
        rng = np.random.default_rng(5)
        starts = packing.random_starts(rng)
        packed = packing.random_packed(rng)
        assert np.all(starts >= packing.earliest)
        assert np.all(starts <= packing.latest)
        assert np.all(packed >= packing.lo - 1e-12)
        assert np.all(packed <= packing.hi + 1e-12)

    def test_slice_indices_subset(self):
        problem = random_problem(np.random.default_rng(21))
        packing = problem.packed_offers
        members = np.arange(packing.count)[::2]
        expected = np.concatenate(
            [
                np.arange(packing.offsets[j], packing.offsets[j + 1])
                for j in members
            ]
        )
        assert np.array_equal(packing.slice_indices(members), expected)
        assert packing.slice_indices(np.zeros(0, dtype=np.int64)).size == 0


class _DeltaOracle:
    """From-scratch replay of the delta scheduler's arithmetic contract.

    Independent bookkeeping of the retained plan across runs; every run
    rebuilds the incremental state canonically (zero seed + retained adds
    in index order, one vector add onto the forecast, dirty placements in
    index order, re-priced final cost).  The scheduler must reproduce this
    bit for bit — including the full-pass fallbacks, which are just the
    degenerate empty-retained case.
    """

    def __init__(self, *, full_fraction=0.25, full_on_window_shift=False):
        self.full_fraction = full_fraction
        self.full_on_window_shift = full_on_window_shift
        self.plan: dict = {}
        self.window = None

    def run(self, problem, keys, dirty):
        consts = problem.offer_constants
        n = problem.offer_count
        h0 = problem.horizon_start
        mode = "delta"
        if not self.plan:
            mode = "full"
        elif (
            self.full_on_window_shift
            and self.window is not None
            and h0 != self.window
        ):
            mode = "full"
        retained: dict = {}
        if mode == "delta":
            for j, key in enumerate(keys):
                prior = self.plan.get(key)
                if key in dirty or prior is None:
                    continue
                start, energies = prior
                c = consts[j]
                if (
                    len(energies) == c.duration
                    and c.earliest_start <= start <= c.latest_start
                    and np.all(energies >= c.lo)
                    and np.all(energies <= c.hi)
                ):
                    retained[j] = prior
            if n and (n - len(retained)) / n > self.full_fraction:
                mode = "full"
                retained = {}
        seed = np.zeros(problem.horizon_length)
        for j in sorted(retained):
            start, energies = retained[j]
            seed[start - h0 : start - h0 + len(energies)] += energies
        state = IncrementalCostState(
            problem.engine, problem.net_forecast.values + seed
        )
        starts = np.zeros(n, dtype=np.int64)
        energies_out = [None] * n
        for j in range(n):
            if j in retained:
                starts[j], energies_out[j] = retained[j]
        for j in range(n):
            if j in retained:
                continue
            c = consts[j]
            index, energy, cost_delta, after = state.best_placement(c)
            starts[j] = c.earliest_start + index
            energies_out[j] = energy
            state.place(c.earliest_index + index, energy, cost_delta, after)
        compensation = 0.0
        for j in range(n):
            compensation += consts[j].flex_cost(energies_out[j])
        cost = problem.engine.total_cost(state.residual) + compensation
        self.plan = {
            keys[j]: (int(starts[j]), energies_out[j]) for j in range(n)
        }
        self.window = h0
        return starts, energies_out, cost, mode


def _random_pool_offer(rng, horizon, h0=0):
    duration = int(rng.integers(1, min(5, horizon) + 1))
    earliest = h0 + int(rng.integers(0, horizon - duration + 1))
    latest = h0 + int(rng.integers(earliest - h0, horizon - duration + 1))
    kind = rng.random()
    if kind < 0.4:
        lo = rng.uniform(0.0, 2.0, duration)
    elif kind < 0.8:
        lo = rng.uniform(-4.0, -1.0, duration)
    else:
        lo = rng.uniform(-2.0, 0.0, duration)
    hi = lo + rng.uniform(0.0, 3.0, duration)
    return flex_offer(
        list(zip(lo, hi)),
        earliest_start=earliest,
        latest_start=latest,
        unit_price=float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
    )


class TestDeltaScheduler:
    """Bit-parity of dirty-set re-planning against the from-scratch oracle."""

    def _pool_problem(self, pool, net_series, market, rng):
        keys = tuple(sorted(pool))
        problem = SchedulingProblem(
            net_series,
            tuple(pool[key] for key in keys),
            market,
            shortage_penalty=np.array(0.8),
            surplus_penalty=np.array(0.4),
        )
        return keys, problem

    def test_oracle_parity_random_mixed_updates(self):
        """200 random pools x 4 rounds of mutate/delete/add updates.

        Every committed start, energy vector and cost must equal the
        oracle's bit for bit — and when dirt pushes the scheduler over
        ``full_fraction`` mid-history, the fallback full pass must equal a
        forced full re-plan by a fresh scheduler on the same problem.
        """
        rng = np.random.default_rng(42)
        delta_rounds = 0
        fallback_rounds = 0
        for _ in range(N_RANDOM_PROBLEMS):
            horizon = int(rng.integers(16, 40))
            net_series = TimeSeries(0, rng.uniform(-20.0, 20.0, horizon))
            buy = rng.uniform(0.05, 0.6, horizon)
            market = Market(buy, buy - rng.uniform(0.0, 0.5, horizon))
            fresh = iter(range(10_000))
            pool = {
                f"g{next(fresh):04d}": _random_pool_offer(rng, horizon)
                for _ in range(int(rng.integers(3, 9)))
            }
            scheduler = DeltaScheduler()
            oracle = _DeltaOracle()
            for round_no in range(4):
                dirty = set()
                if round_no:
                    for key in list(pool):
                        roll = rng.random()
                        if roll < 0.15 and len(pool) > 1:
                            del pool[key]
                        elif roll < 0.40:
                            pool[key] = _random_pool_offer(rng, horizon)
                            dirty.add(key)
                    for _ in range(int(rng.integers(0, 3))):
                        key = f"g{next(fresh):04d}"
                        pool[key] = _random_pool_offer(rng, horizon)
                        dirty.add(key)
                keys, problem = self._pool_problem(
                    pool, net_series, market, rng
                )
                result = scheduler.schedule(
                    problem,
                    delta=DeltaRequest(
                        keys=keys,
                        dirty=frozenset(dirty),
                        window_start=problem.horizon_start,
                    ),
                )
                starts, energies, cost, mode = oracle.run(
                    problem, keys, dirty
                )
                assert scheduler.last_stats["mode"] == mode
                assert np.array_equal(result.solution.starts, starts)
                for got, want in zip(result.solution.energies, energies):
                    assert np.array_equal(got, want)
                assert result.cost == cost
                if mode == "delta":
                    delta_rounds += 1
                elif round_no:
                    fallback_rounds += 1
                    forced = DeltaScheduler().schedule(problem)
                    assert np.array_equal(
                        forced.solution.starts, result.solution.starts
                    )
                    for got, want in zip(
                        forced.solution.energies, result.solution.energies
                    ):
                        assert np.array_equal(got, want)
                    assert forced.cost == result.cost
        # The history generator must actually exercise both regimes.
        assert delta_rounds > 100
        assert fallback_rounds > 20

    def test_window_shift_forces_full_pass_when_enabled(self):
        rng = np.random.default_rng(7)
        pool = {
            f"g{j}": _random_pool_offer(rng, 16, h0=6) for j in range(6)
        }
        market = Market.flat(24)

        def problem_at(h0):
            keys = tuple(sorted(pool))
            return keys, SchedulingProblem(
                TimeSeries(h0, rng.uniform(-5.0, 5.0, 24)),
                tuple(pool[key] for key in keys),
                market,
            )

        for shift_full, expected in ((True, "full"), (False, "delta")):
            scheduler = DeltaScheduler(full_on_window_shift=shift_full)
            oracle = _DeltaOracle(full_on_window_shift=shift_full)
            for h0 in (0, 4):
                keys, problem = problem_at(h0)
                result = scheduler.schedule(
                    problem,
                    delta=DeltaRequest(
                        keys=keys, dirty=frozenset(), window_start=h0
                    ),
                )
                starts, energies, cost, mode = oracle.run(
                    problem, keys, set()
                )
                assert scheduler.last_stats["mode"] == mode
                assert np.array_equal(result.solution.starts, starts)
                assert result.cost == cost
            assert scheduler.last_stats["mode"] == expected

    def test_undirtied_shape_change_is_evicted(self):
        """A clean key whose offer changed shape is re-placed, not reused.

        The dirty set is advisory; the retained-placement feasibility check
        (duration, start window, energy bounds) is the backstop.
        """
        horizon = 24
        net_series = TimeSeries(0, np.full(horizon, 3.0))
        market = Market.flat(horizon)
        pool = {
            "a": flex_offer([(1.0, 2.0)] * 2, earliest_start=2, latest_start=10),
            "b": flex_offer([(0.5, 1.5)] * 3, earliest_start=0, latest_start=8),
            "c": flex_offer([(1.0, 1.0)], earliest_start=5, latest_start=20),
            "d": flex_offer([(0.2, 0.9)] * 2, earliest_start=1, latest_start=12),
            "e": flex_offer([(0.1, 0.4)] * 4, earliest_start=3, latest_start=15),
        }
        scheduler = DeltaScheduler(full_fraction=1.0)
        oracle = _DeltaOracle(full_fraction=1.0)

        def run(dirty):
            keys = tuple(sorted(pool))
            problem = SchedulingProblem(
                net_series, tuple(pool[k] for k in keys), market
            )
            result = scheduler.schedule(
                problem,
                delta=DeltaRequest(
                    keys=keys, dirty=frozenset(dirty), window_start=0
                ),
            )
            starts, energies, cost, mode = oracle.run(problem, keys, dirty)
            assert np.array_equal(result.solution.starts, starts)
            assert result.cost == cost
            return result

        run(set())
        # Duration change on "a", window change on "c", bounds change on
        # "d" — none marked dirty; all three must still be re-placed.
        pool["a"] = flex_offer(
            [(1.0, 2.0)] * 3, earliest_start=2, latest_start=10
        )
        pool["c"] = flex_offer([(1.0, 1.0)], earliest_start=15, latest_start=20)
        pool["d"] = flex_offer(
            [(2.5, 3.0)] * 2, earliest_start=1, latest_start=12
        )
        run(set())
        assert scheduler.last_stats["mode"] == "delta"
        assert scheduler.last_stats["replaced"] == 3
        assert scheduler.last_stats["reused"] == 2

    def test_validation_and_reset(self):
        with pytest.raises(ValueError):
            DeltaScheduler(full_fraction=0.0)
        with pytest.raises(ValueError):
            DeltaScheduler(full_fraction=1.5)
        problem = random_problem(np.random.default_rng(3))
        scheduler = DeltaScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(
                problem,
                delta=DeltaRequest(
                    keys=("k",) * (problem.offer_count + 1),
                    dirty=frozenset(),
                    window_start=0,
                ),
            )
        keys = tuple(f"k{j}" for j in range(problem.offer_count))
        request = DeltaRequest(
            keys=keys, dirty=frozenset(), window_start=problem.horizon_start
        )
        scheduler.schedule(problem, delta=request)
        assert scheduler.last_stats["mode"] == "full"
        scheduler.schedule(problem, delta=request)
        assert scheduler.last_stats["mode"] == "delta"
        assert scheduler.last_stats["reused"] == problem.offer_count
        scheduler.reset()
        scheduler.schedule(problem, delta=request)
        assert scheduler.last_stats["mode"] == "full"
        # Without a request every call is a full pass, even with a plan.
        scheduler.schedule(problem)
        assert scheduler.last_stats["mode"] == "full"
