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
from dataclasses import fields, replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pins import pin
from repro.core import Profile, SchedulingError, TimeSeries, flex_offer
from repro.runtime import BrpRuntimeService, LoadGenerator, ServiceConfig
from repro.aggregation.updates import AggregateUpdate, UpdateKind
from repro.runtime.planning import PlanSession
from repro.scheduling import (
    CandidateSolution,
    IncrementalCostState,
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
)
from repro.scheduling.engine import CostEngine, OfferConstants
from repro.scheduling.greedy import _certified, _PassStart
from repro.scheduling.reference import (
    reference_one_pass,
    reference_optimal_energies,
)
from repro.scheduling.result import CostTracker

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
    """The corpus behind pin ``kernel.runtime_shape``."""
    return _shape_corpus(19, _runtime_bounds)


def mixed_sign_corpus():
    """The corpus behind pin ``kernel.mixed_sign``: the same shapes over
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


@pytest.mark.pinned
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


class TestKernelTemplate:
    """``OfferConstants`` builds its profile-only arrays once per profile."""

    @staticmethod
    def _fields(consts: OfferConstants) -> list:
        """Every field, arrays as (dtype, shape, bytes, writeable)."""
        return [
            (value.dtype, value.shape, value.tobytes(), value.flags.writeable)
            if isinstance(value, np.ndarray)
            else value
            for value in (getattr(consts, f.name) for f in fields(consts))
        ]

    def test_reused_across_problems_and_equal_to_a_fresh_build(self):
        for problem, j, residual in islice(mixed_sign_corpus(), 0, 64, 9):
            offer = problem.offers[j]
            first = problem.offer_constants[j]
            # A later run: the offer clipped one slice (when it can be),
            # in a problem over another forecast.
            clip = 1 if offer.time_flexibility else 0
            later_offer = offer.with_times(offer.earliest_start + clip, offer.latest_start)
            later = replace(
                problem,
                net_forecast=TimeSeries(0, residual),
                offers=(later_offer,),
            ).offer_constants[0]
            for name in ("lo", "hi", "candidates", "slice_index"):
                assert getattr(later, name) is getattr(first, name)
            assert later.earliest_start == first.earliest_start + clip
            assert later.n_starts == first.n_starts - clip

            fresh_offer = replace(
                later_offer,
                profile=Profile.from_arrays(
                    offer.min_array.copy(), offer.max_array.copy()
                ),
            )
            fresh = OfferConstants.from_offer(fresh_offer, 0)
            assert fresh.candidates is not later.candidates
            assert self._fields(fresh) == self._fields(later)
            assert len(fresh.candidates) == (
                4 if np.any((fresh.lo < 0) & (fresh.hi > 0)) else 3
            )
            if len(fresh.candidates) == 4:
                assert np.array_equal(
                    fresh.candidates[3, :, 0], np.clip(0.0, fresh.lo, fresh.hi)
                )
            engine = problem.engine
            got = engine.best_placement(later, residual)
            want = engine.best_placement(fresh, residual)
            assert got[0] == want[0] and got[2] == want[2]
            assert got[1].tobytes() == want[1].tobytes()


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
                lo = offer.profile.min_array
                hi = offer.profile.max_array
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

    @pytest.mark.pinned
    def test_kernel_bits_pinned_at_runtime_shapes(self):
        """Every start, energy byte and cost delta at runtime shapes.

        The per-start totals are sums of 8-40 terms; their accumulation
        order (slice order, see ``best_placement``) decides near-tied
        starts and through them whole plans, and nothing with 5-slice
        offers and a 1e-9 cost tolerance can see it move.
        """
        pin("kernel.runtime_shape", _pinned_kernel_digest(runtime_shape_corpus()))

    @pytest.mark.pinned
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
        pin("kernel.mixed_sign", _pinned_kernel_digest(mixed_sign_corpus()))

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
            new, state = RandomizedGreedyScheduler()._one_pass(
                problem, np.random.default_rng(rng_seed)
            )
            assert np.array_equal(ref.starts, new.starts)
            for a, b in zip(ref.energies, new.energies):
                assert np.array_equal(a, b)
            assert state.total == pytest.approx(problem.cost(new), abs=1e-9)


class TestIncrementalCostState:
    @pytest.mark.pinned
    def test_place_keeps_cost_vector_exact(self, monkeypatch):
        """``place`` stores the kernel's after-costs instead of re-pricing.

        After every placement of a greedy pass and of two index-order
        passes — one over the whole pool, one re-placing every third offer
        from the residual the kept placements leave (the scheduler's
        ``retained`` seed) — over both corpora's problems, the cost vector
        is still bit-equal to the slice costs of the residual and the
        running total advanced by exactly the kernel's delta; the digest of
        every (offset, energies, total) was recorded from the ``place`` that
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

        def index_order_pass(problem, retained):
            start = _PassStart.of(problem, retained)
            state = IncrementalCostState(problem.engine, start.residual.copy())
            placed = list(retained)
            for j in start.free:
                c = problem.offer_constants[j]
                index, energy, cost_delta, after = state.best_placement(c)
                state.place(c.earliest_index + index, energy, cost_delta, after)
                placed[j] = (c.earliest_start + index, energy)
            return placed

        monkeypatch.setattr(IncrementalCostState, "place", checked_place)
        for corpus in (runtime_shape_corpus, mixed_sign_corpus):
            for problem, j, _ in corpus():
                if j:
                    continue  # one entry per offer; take each problem once
                RandomizedGreedyScheduler()._one_pass(
                    problem, np.random.default_rng(3)
                )
                full = index_order_pass(problem, [None] * problem.offer_count)
                for i in range(0, problem.offer_count, 3):
                    full[i] = None
                index_order_pass(problem, full)
        assert placements == 2 * 16 * (8 + 8 + 3)
        pin("kernel.place_totals", digest.hexdigest())


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
        """Same kept placements + rng ⇒ identical schedules."""
        problem, warm = self._problem_and_warm()
        retained = [
            (int(start), energies) if j % 2 else None
            for j, (start, energies) in enumerate(
                zip(warm.starts, warm.energies)
            )
        ]
        runs = [
            RandomizedGreedyScheduler().schedule(
                problem,
                max_passes=3,
                rng=np.random.default_rng(3),
                retained=list(retained),
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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
    def test_problem_flex_series_is_the_loop_bit_for_bit(self, seed, zeros):
        """``bincount`` adds each slice's energies in offer order from
        ``0.0``, as the per-offer window loop did — equal bytes, signed
        zeros included."""
        rng = np.random.default_rng(seed)
        problem = random_problem(rng)
        solution = problem.random_solution(rng)
        if zeros:  # exact cancellations and negative zeros
            for energies in solution.energies:
                energies[rng.random(len(energies)) < 0.5] = -0.0
        loop = np.zeros(problem.horizon_length)
        for offer, start, energies in zip(
            problem.offers, solution.starts, solution.energies
        ):
            i = int(start) - problem.horizon_start
            loop[i : i + offer.duration] += energies
        assert problem.flex_series(solution).tobytes() == loop.tobytes()

    def test_split_roundtrips(self):
        problem = random_problem(np.random.default_rng(3))
        solution = problem.random_solution(np.random.default_rng(4))
        packed = problem.packed_offers.pack(solution.energies)
        for original, piece in zip(
            solution.energies, problem.packed_offers.split(packed)
        ):
            assert np.array_equal(original, piece)


def _reference_certified(problem, energies, residual):
    """The Lagrangian certificate, slice by slice and offer by offer, read
    off ``problem.market`` and the penalties rather than the engine's
    table, so the oracles below do not share the scheduler's code.

    A capped slice where trading pays has no multiplier.  Elsewhere ``λ``
    must lie in ``[-surplus rate, shortage rate]`` on every slice (the
    cheapest of market and penalty on each side), equal the shortage rate
    where the residual is short and minus the surplus rate where it is
    long; then every offer slice must sit at an energy minimising ``λ·e +
    unit_price·|e|`` over ``lo``, ``hi`` and ``0`` clipped into them.
    """
    market = problem.market
    horizon = problem.horizon_length
    short = np.broadcast_to(problem.shortage_penalty, horizon)
    long = np.broadcast_to(problem.surplus_penalty, horizon)
    lower, upper = -np.inf, np.inf
    for t in range(horizon):
        buy, sell = market.buy_price[t], market.sell_price[t]
        if buy < short[t] and market.max_buy is not None:
            if np.isfinite(market.max_buy[t]):
                return False
        if sell > -long[t] and market.max_sell is not None:
            if np.isfinite(market.max_sell[t]):
                return False
        shortage_rate, surplus_rate = min(buy, short[t]), min(-sell, long[t])
        lower = max(lower, shortage_rate if residual[t] > 0.0 else -surplus_rate)
        upper = min(upper, -surplus_rate if residual[t] < 0.0 else shortage_rate)
    if lower > upper:
        return False
    for c, energy in zip(problem.offer_constants, energies):
        for lo, hi, e in zip(c.lo, c.hi, energy):
            best = min(
                lower * x + c.unit_price * abs(x)
                for x in (lo, hi, min(max(0.0, lo), hi))
            )
            if lower * e + c.unit_price * abs(e) > best:
                return False
    return True


class _KeptPlacementOracle:
    """From-scratch replay of a planning session that keeps placements.

    Independent bookkeeping of the last plan across runs.  A key is kept
    when it is clean and its last placement still fits (duration, start
    window, energy bounds); every run rebuilds its state canonically (zero
    seed + kept adds in index order, one vector add onto the forecast),
    places the other offers in ``rng.permutation`` order on each pass,
    stops after a pass :func:`_reference_certified` proves optimal (drawing
    the skipped passes' permutations), keeps the first cheapest pass and re-prices it
    with ``problem.cost``.
    :class:`~repro.runtime.planning.PlanSession` must reproduce this bit
    for bit; a first run, where nothing is kept, is the cold greedy.
    """

    def __init__(self, seed, passes):
        self.rng = np.random.default_rng(seed)
        self.passes = passes
        self.plan: dict = {}

    def run(self, problem, keys, dirty):
        consts = problem.offer_constants
        n = problem.offer_count
        h0 = problem.horizon_start
        kept: dict = {}
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
                kept[j] = prior
        residual = problem.net_forecast.values
        if kept:
            seed = np.zeros(problem.horizon_length)
            for j in sorted(kept):
                start, energies = kept[j]
                seed[start - h0 : start - h0 + len(energies)] += energies
            residual = residual + seed
        free = np.array([j for j in range(n) if j not in kept], dtype=np.int64)
        best = None
        for done in range(1, self.passes + 1):
            state = IncrementalCostState(problem.engine, residual.copy())
            starts = np.zeros(n, dtype=np.int64)
            energies_out = [None] * n
            for j, (start, energies) in kept.items():
                starts[j], energies_out[j] = start, energies
            for j in self.rng.permutation(free):
                c = consts[j]
                index, energy, cost_delta, after = state.best_placement(c)
                starts[j] = c.earliest_start + index
                energies_out[j] = energy
                state.place(c.earliest_index + index, energy, cost_delta, after)
            if best is None or state.total < best[0]:
                best = (state.total, starts, energies_out)
            if done < self.passes and _reference_certified(
                problem, energies_out, state.residual
            ):
                for _ in range(done, self.passes):
                    self.rng.permutation(free)
                break
        _, starts, energies_out = best
        cost = problem.cost(CandidateSolution(starts, energies_out))
        self.plan = {
            keys[j]: (int(starts[j]), energies_out[j]) for j in range(n)
        }
        return starts, energies_out, cost, len(kept)


def _cold_greedy(problem, passes, rng):
    """The cold greedy as it stood before ``retained`` existed, with the
    certificate's stop."""
    best = None
    for done in range(1, passes + 1):
        state = IncrementalCostState.for_problem(problem)
        starts = np.zeros(problem.offer_count, dtype=np.int64)
        energies = [None] * problem.offer_count
        for j in rng.permutation(problem.offer_count):
            c = problem.offer_constants[j]
            index, energy, cost_delta, after = state.best_placement(c)
            starts[j] = c.earliest_start + index
            energies[j] = energy
            state.place(c.earliest_index + index, energy, cost_delta, after)
        if best is None or state.total < best[0]:
            best = (state.total, starts, energies)
        if done < passes and _reference_certified(
            problem, energies, state.residual
        ):
            break
    return best


def _assert_same_plan(result, starts, energies, cost):
    assert np.array_equal(result.solution.starts, starts)
    for got, want in zip(result.solution.energies, energies):
        assert np.array_equal(got, want)
    assert result.cost == cost


def _session_counts(session):
    return tuple(
        session.metrics.counter(name).value
        for name in (
            "schedule.warm_started",
            "delta.reused_placements",
            "delta.replaced_placements",
        )
    )


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


class TestKeptPlacements:
    """Bit-parity of kept-placement planning against the from-scratch oracle."""

    def _pool_problem(self, pool, net_series, market):
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

        Every committed start, energy vector and cost of a
        :class:`PlanSession` fed the updates must equal the oracle's bit for
        bit, and the reported cost is ``problem.cost`` of the plan.
        """
        rng = np.random.default_rng(42)
        kept_rounds = 0
        for history in range(N_RANDOM_PROBLEMS):
            horizon = int(rng.integers(16, 40))
            net_series = TimeSeries(0, rng.uniform(-20.0, 20.0, horizon))
            buy = rng.uniform(0.05, 0.6, horizon)
            market = Market(buy, buy - rng.uniform(0.0, 0.5, horizon))
            fresh = iter(range(10_000))
            pool = {
                f"g{next(fresh):04d}": _random_pool_offer(rng, horizon)
                for _ in range(int(rng.integers(3, 9)))
            }
            session = PlanSession(seed=history)
            oracle = _KeptPlacementOracle(history, session.passes)
            for round_no in range(4):
                updates = []
                if round_no:
                    for key in list(pool):
                        roll = rng.random()
                        if roll < 0.15 and len(pool) > 1:
                            del pool[key]
                            updates.append((UpdateKind.DELETED, key))
                        elif roll < 0.40:
                            pool[key] = _random_pool_offer(rng, horizon)
                            updates.append((UpdateKind.MODIFIED, key))
                    for _ in range(int(rng.integers(0, 3))):
                        key = f"g{next(fresh):04d}"
                        pool[key] = _random_pool_offer(rng, horizon)
                        updates.append((UpdateKind.CREATED, key))
                session.absorb(
                    AggregateUpdate(kind, key, lambda: None)
                    for kind, key in updates
                )
                keys, problem = self._pool_problem(pool, net_series, market)
                reused_before = _session_counts(session)[1]
                result = session.plan(problem, keys)
                starts, energies, cost, kept = oracle.run(
                    problem, keys, {key for _, key in updates}
                )
                _assert_same_plan(result, starts, energies, cost)
                assert result.cost == problem.cost(result.solution)
                assert _session_counts(session)[1] - reused_before == kept
                kept_rounds += 0 < kept < len(keys)
        # The history generator must mix kept and re-placed offers.
        assert kept_rounds > 300

    def test_window_shift_keeps_what_still_fits(self):
        rng = np.random.default_rng(7)
        pool = {
            f"g{j}": _random_pool_offer(rng, 16, h0=6) for j in range(6)
        }
        market = Market.flat(24)
        session = PlanSession(seed=5)
        oracle = _KeptPlacementOracle(5, session.passes)
        for h0 in (0, 4):
            keys = tuple(sorted(pool))
            problem = SchedulingProblem(
                TimeSeries(h0, rng.uniform(-5.0, 5.0, 24)),
                tuple(pool[key] for key in keys),
                market,
            )
            result = session.plan(problem, keys)
            starts, energies, cost, kept = oracle.run(problem, keys, set())
            _assert_same_plan(result, starts, energies, cost)
        assert kept == len(pool)
        assert _session_counts(session) == (1, 6, 6)

    def test_undirtied_shape_change_is_evicted(self):
        """A clean key whose offer changed shape is re-placed, not kept.

        The dirty set is advisory; the kept-placement feasibility check
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
        session = PlanSession(seed=1)
        oracle = _KeptPlacementOracle(1, session.passes)

        def run():
            keys = tuple(sorted(pool))
            problem = SchedulingProblem(
                net_series, tuple(pool[k] for k in keys), market
            )
            result = session.plan(problem, keys)
            starts, energies, cost, _ = oracle.run(problem, keys, set())
            _assert_same_plan(result, starts, energies, cost)

        run()
        # Duration change on "a", window change on "c", bounds change on
        # "d" — none marked dirty; all three must still be re-placed.
        pool["a"] = flex_offer(
            [(1.0, 2.0)] * 3, earliest_start=2, latest_start=10
        )
        pool["c"] = flex_offer([(1.0, 1.0)], earliest_start=15, latest_start=20)
        pool["d"] = flex_offer(
            [(2.5, 3.0)] * 2, earliest_start=1, latest_start=12
        )
        run()
        assert _session_counts(session) == (1, 2, 5 + 3)

    def test_key_count_validation_and_modes(self):
        problem = random_problem(np.random.default_rng(3))
        n = problem.offer_count
        with pytest.raises(ValueError, match="retained"):
            RandomizedGreedyScheduler().schedule(
                problem, max_passes=1, retained=[None] * (n + 1)
            )
        session = PlanSession()
        keys = tuple(f"k{j}" for j in range(n))
        first = session.plan(problem, keys)
        assert _session_counts(session) == (0, 0, n)
        second = session.plan(problem, keys)
        assert _session_counts(session) == (1, n, n)
        # Everything kept: the plan does not move.
        _assert_same_plan(
            second, first.solution.starts, first.solution.energies, first.cost
        )


class TestColdGreedy:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), passes=st.integers(1, 4))
    def test_no_retained_is_the_cold_greedy_bit_for_bit(self, seed, passes):
        """``retained=None`` is the greedy as it was, cost included; an
        all-``None`` list places the same plan and re-prices its cost."""
        problem = random_problem(np.random.default_rng(seed))
        cost, starts, energies = _cold_greedy(
            problem, passes, np.random.default_rng(seed)
        )
        result = RandomizedGreedyScheduler().schedule(
            problem, max_passes=passes, rng=np.random.default_rng(seed)
        )
        _assert_same_plan(result, starts, energies, cost)
        result = RandomizedGreedyScheduler().schedule(
            problem,
            max_passes=passes,
            rng=np.random.default_rng(seed),
            retained=[None] * problem.offer_count,
        )
        _assert_same_plan(result, starts, energies, problem.cost(result.solution))


@st.composite
def _two_row_problems(draw):
    """A small problem on a two-row market, with kept placements.

    Prices are flat or per slice with ``buy >= sell``.  Half the tables
    are the market's own rows (penalties of 1.0 above every price); the
    rest buy at negative prices under a surplus penalty drawn like a price,
    or sell under a shortage penalty drawn like one.  There a slice whose
    penalty is below ``-buy`` (or below ``sell``) is not convex: its
    cheapest shortage rate plus its cheapest surplus rate is negative.
    The forecast is zero or not; each offer is a consumer, a producer or
    crosses zero, on a quarter-kWh grid, at a unit price of zero or
    above; some offers keep a placement anywhere inside their bounds.
    """
    horizon = draw(st.integers(2, 6))
    cents = st.integers(1, 12).map(lambda k: k / 20)
    flat = draw(st.booleans())
    buy = np.array([draw(cents) for _ in range(1 if flat else horizon)])
    sell = buy - np.array([draw(cents) - 0.05 for _ in range(len(buy))])
    shortage_penalty = surplus_penalty = 1.0
    table = draw(st.sampled_from(("market", "negative buy", "low penalty")))
    if table == "negative buy":
        buy, sell = buy - 0.65, sell - 0.65
        surplus_penalty = draw(cents)
    elif table == "low penalty":
        shortage_penalty = draw(cents)
    market = Market(
        np.broadcast_to(buy, horizon).copy(), np.broadcast_to(sell, horizon).copy()
    )
    quarters = st.integers(-8, 8).map(lambda k: k / 4)
    forecast = np.zeros(horizon)
    if draw(st.booleans()):
        forecast = np.array([draw(quarters) for _ in range(horizon)])
    offers, retained = [], []
    for _ in range(draw(st.integers(1, 4))):
        duration = draw(st.integers(1, min(3, horizon)))
        earliest = draw(st.integers(0, horizon - duration))
        latest = draw(st.integers(earliest, horizon - duration))
        sign = draw(st.sampled_from(("consumer", "producer", "mixed")))
        bounds = []
        for _ in range(duration):
            a, b = sorted((draw(quarters), draw(quarters)))
            if sign == "consumer":
                a, b = abs(a), abs(a) + b - a
            elif sign == "producer":
                a, b = -abs(a) - (b - a), -abs(a)
            bounds.append((a, b))
        offers.append(
            flex_offer(
                bounds,
                earliest_start=earliest,
                latest_start=latest,
                unit_price=draw(st.sampled_from((0.0, 0.0, 0.01, 0.05, 0.3))),
            )
        )
        kept = None
        if draw(st.integers(0, 2)) == 0:
            energies = np.array(
                [draw(st.sampled_from((a, b, (a + b) / 2))) for a, b in bounds]
            )
            kept = (draw(st.integers(earliest, latest)), energies)
        retained.append(kept)
    problem = SchedulingProblem(
        TimeSeries(0, forecast),
        tuple(offers),
        market,
        shortage_penalty=np.array(shortage_penalty),
        surplus_penalty=np.array(surplus_penalty),
    )
    return problem, retained


def _convex(problem):
    """Whether every slice's cost is convex: the cheapest shortage rate plus
    the cheapest surplus rate is never negative (what the MILP models)."""
    market = problem.market
    shortage = np.minimum(market.buy_price, problem.shortage_penalty)
    surplus = np.minimum(-market.sell_price, problem.surplus_penalty)
    return bool(np.all(shortage + surplus >= 0.0))


class TestCertificate:
    """A pass the Lagrangian certificate accepts ends the run: it must be
    the proven optimum, and where none is accepted nothing changes."""

    def test_certified_plan_is_the_milp_optimum(self):
        """Every certified run on a convex table is the MILP optimum, and no
        run on a non-convex one is certified: there no constant ``λ``
        bounds a slice's cost from below, so a certificate proves nothing
        (and the MILP, which models convex slices only, cannot judge)."""
        pytest.importorskip("scipy")
        from repro.scheduling.milp import MilpScheduler

        outcomes = []

        @settings(max_examples=400, derandomize=True, deadline=None)
        @given(case=_two_row_problems(), seed=st.integers(0, 2**16))
        def check(case, seed):
            problem, retained = case
            assert len(problem.engine._market) == 2
            result = RandomizedGreedyScheduler().schedule(
                problem,
                max_passes=2,
                rng=np.random.default_rng(seed),
                retained=retained,
            )
            convex = _convex(problem)
            outcomes.append((convex, result.evaluations == 1))
            if result.evaluations == 2:
                return
            assert convex
            cost = problem.cost(result.solution)
            exact = MilpScheduler().schedule(problem)
            assert exact.status == "optimal"
            assert abs(exact.cost - cost) <= 1e-9 * max(1.0, abs(cost))

        check()
        # The corpus must hold runs the certificate stops and runs it does
        # not, and tables it must refuse.
        certified = sum(stopped for _, stopped in outcomes)
        assert 30 < certified < len(outcomes) - 30
        assert sum(not convex for convex, _ in outcomes) > 30

    def test_non_convex_slice_is_never_certified(self):
        """Buying at -0.5 EUR/kWh under a 0.2 surplus penalty makes every
        slice's cost concave at 0.  Placing ``y`` on slice 0 and then ``x``
        on slice 0 leaves every slice short for -2.0 EUR, but ``y`` on slice
        1 and ``x`` on slice 0 costs -2.15 EUR: the short-side price is no
        bound there, so no pass may stop the run."""
        y = flex_offer([(1.0, 1.0)], earliest_start=0, latest_start=2)
        x = flex_offer([(-1.0, -1.0), (1.0, 1.0)], earliest_start=0, latest_start=1)
        problem = SchedulingProblem(
            TimeSeries(0, np.array([0.5, 2.0, 0.5])),
            (y, x),
            Market(np.full(3, -0.5), np.full(3, -0.6)),
        )
        assert not _convex(problem)
        energies = [np.array([1.0]), np.array([-1.0, 1.0])]
        tied = CandidateSolution(np.array([0, 0]), energies)
        best = CandidateSolution(np.array([1, 0]), energies)
        assert problem.cost(tied) == pytest.approx(-2.0)
        assert problem.cost(best) == pytest.approx(-2.15)
        all_short = np.array([0.5, 3.0, 0.5])
        assert problem.engine.multiplier(all_short) is None
        assert not _certified(problem, tied, all_short)
        for seed in range(8):
            result = RandomizedGreedyScheduler().schedule(
                problem, max_passes=2, rng=np.random.default_rng(seed)
            )
            assert result.evaluations == 2

    @staticmethod
    def _by_hand(problem, passes, rng):
        scheduler = RandomizedGreedyScheduler()
        tracker = CostTracker(None, passes)
        for _ in range(passes):
            solution, state = scheduler._one_pass(problem, rng)
            tracker.record(state.total, solution)
        return tracker.result()

    @pytest.mark.parametrize("capped", [False, True])
    def test_uncertified_run_is_every_pass(self, capped):
        """A forecast that swings both ways under a flat market, and the
        same problem under volume caps (a six-row table): every pass runs,
        and the plan, cost and rng are those of three hand-run passes."""
        rng = np.random.default_rng(4)
        offers = tuple(_random_pool_offer(rng, 24) for _ in range(6))
        market = Market.flat(24)
        if capped:
            market = Market(
                market.buy_price, market.sell_price, max_buy=np.full(24, 3.0)
            )
        problem = SchedulingProblem(
            TimeSeries(0, 30.0 * np.sin(np.arange(24.0))), offers, market
        )
        assert problem.engine.multiplier(problem.net_forecast.values) is None
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        want = self._by_hand(problem, 3, want_rng)
        got = RandomizedGreedyScheduler().schedule(
            problem, max_passes=3, rng=got_rng
        )
        assert got.evaluations == 3
        _assert_same_plan(got, want.solution.starts, want.solution.energies, want.cost)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_certified_run_stops_with_the_rng_aligned(self):
        """Consumers on a flat market with no forecast: the first pass is
        proven optimal, so it is the plan, and the rng stands where three
        passes would have left it."""
        rng = np.random.default_rng(5)
        offers = []
        for _ in range(6):
            lo = rng.uniform(0.0, 2.0, 3)
            offers.append(
                flex_offer(
                    list(zip(lo, lo + 1.0)), earliest_start=0, latest_start=8
                )
            )
        problem = SchedulingProblem(
            TimeSeries(0, np.zeros(12)), tuple(offers), Market.flat(12)
        )
        got_rng = np.random.default_rng(3)
        got = RandomizedGreedyScheduler().schedule(
            problem, max_passes=3, rng=got_rng
        )
        assert got.evaluations == 1
        first = self._by_hand(problem, 1, np.random.default_rng(3))
        _assert_same_plan(
            got, first.solution.starts, first.solution.energies, first.cost
        )
        drawn = np.random.default_rng(3)
        for _ in range(3):
            drawn.permutation(np.arange(problem.offer_count))
        assert got_rng.bit_generator.state == drawn.bit_generator.state

    def test_plan_session_counts_certified_runs(self):
        """``schedule.certified_runs`` counts the runs that stopped early;
        a one-pass session has no pass to skip."""
        offer = flex_offer([(1.0, 2.0)] * 2, earliest_start=0, latest_start=4)
        for passes, certified in ((2, 1), (1, 0)):
            session = PlanSession(passes=passes)
            session.plan_window([("a", offer)], 0, 8)
            names = {name for name, _ in session.metrics.items()}
            assert ("schedule.certified_runs" in names) == bool(certified)
            if certified:
                counter = session.metrics.counter("schedule.certified_runs")
                assert counter.value == certified
