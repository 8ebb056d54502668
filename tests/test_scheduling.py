"""Tests for the scheduling problem, cost model, the heuristics and the
exact oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pins import pin
from repro.core import ScheduledFlexOffer, TimeSeries, flex_offer
from repro.core.errors import InvalidScheduleError, SchedulingError
from repro.experiments import evolutionary
from repro.experiments.evolutionary import EvolutionaryScheduler
from repro.experiments.fig6 import intraday_scenario
from repro.scheduling import (
    CandidateSolution,
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
    count_start_combinations,
    milp,
)
from repro.scheduling.milp import MilpScheduler

T = 48


def flat_problem(offers, net=10.0, **kwargs):
    """A small problem over a flat net forecast."""
    return SchedulingProblem(
        TimeSeries(0, np.full(T, float(net))),
        tuple(offers),
        kwargs.pop("market", Market.flat(T)),
        **kwargs,
    )


def surplus_problem(offers, **kwargs):
    """Shortage everywhere except a deep RES surplus valley mid-horizon."""
    t = np.arange(T)
    net = 10.0 - 40.0 * np.exp(-0.5 * ((t - 24) / 4) ** 2)
    market = Market(
        np.full(T, 0.20),
        np.full(T, 0.05),
        max_buy=np.full(T, 1000.0),
        max_sell=np.full(T, 2.0),  # limited export: surplus hurts
    )
    return SchedulingProblem(TimeSeries(0, net), tuple(offers), market, **kwargs)


class TestMarket:
    def test_flat_constructor(self):
        market = Market.flat(10, buy_price=0.3, sell_price=0.1)
        assert market.horizon_length == 10
        assert market.buy_price[0] == 0.3

    def test_rejects_arbitrage(self):
        with pytest.raises(SchedulingError):
            Market(np.full(5, 0.1), np.full(5, 0.2))

    def test_rejects_misaligned_limits(self):
        with pytest.raises(SchedulingError):
            Market(np.full(5, 0.2), np.full(5, 0.1), max_buy=np.full(4, 1.0))

    def test_rejects_negative_limits(self):
        with pytest.raises(SchedulingError):
            Market(np.full(5, 0.2), np.full(5, 0.1), max_sell=np.full(5, -1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["buy_price", "sell_price"])
    def test_rejects_non_finite_prices(self, side, bad):
        """A ``nan`` price passed every comparison and priced every slice
        ``nan``; ``-inf`` to sell (or ``inf`` to buy) did the same through
        ``0 * inf``.  An ``inf`` volume limit is not a price: it means
        uncapped and stays legal."""
        prices = {"buy_price": np.full(5, 0.2), "sell_price": np.full(5, 0.1)}
        prices[side][2] = bad
        with pytest.raises(SchedulingError, match="finite"):
            Market(**prices)
        Market(np.full(5, 0.2), np.full(5, 0.1), max_buy=np.full(5, np.inf))

    def test_rejects_nan_limits(self):
        with pytest.raises(SchedulingError, match="non-negative"):
            Market(np.full(5, 0.2), np.full(5, 0.1), max_buy=np.full(5, np.nan))

    def test_day_night_prices(self):
        market = Market.day_night(96, 96)
        assert market.buy_price.min() < market.buy_price.max()


class TestProblemValidation:
    def test_offer_before_horizon_rejected(self):
        offer = flex_offer([(1, 2)], earliest_start=-1, latest_start=0,
                           creation_time=-1)
        with pytest.raises(SchedulingError):
            flat_problem([offer])

    def test_offer_past_horizon_rejected(self):
        offer = flex_offer([(1, 2)] * 4, earliest_start=T - 2, latest_start=T - 2)
        with pytest.raises(SchedulingError):
            flat_problem([offer])

    def test_market_must_cover_horizon(self):
        offer = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        with pytest.raises(SchedulingError):
            flat_problem([offer], market=Market.flat(T - 1))

    def test_negative_penalty_rejected(self):
        offer = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        with pytest.raises(SchedulingError):
            flat_problem([offer], shortage_penalty=np.array(-0.1))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("name", ["shortage_penalty", "surplus_penalty"])
    def test_non_finite_penalty_rejected(self, name, bad):
        """``np.any(value < 0)`` is false for ``inf`` and ``nan`` alike, so
        both used to be accepted — and every slice cost came back ``nan``
        under a ``RuntimeWarning``, which ``argmin`` reads as "start 0"."""
        offer = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        for value in (np.array(bad), np.where(np.arange(T) == 7, bad, 0.5)):
            with pytest.raises(SchedulingError, match=name):
                flat_problem([offer], **{name: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_net_forecast_rejected(self, bad):
        """One non-finite slice priced every pass ``nan`` (or ``inf - inf``),
        and ``schedule()`` died with "no candidate was evaluated"."""
        offer = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        net = np.full(T, 10.0)
        net[7] = bad
        with pytest.raises(SchedulingError, match="net_forecast"):
            SchedulingProblem(TimeSeries(0, net), (offer,), Market.flat(T))


class TestCostModel:
    def test_shortage_buys_when_cheaper(self):
        offer = flex_offer([(0, 0)], earliest_start=0, latest_start=0)
        problem = flat_problem([offer], net=10.0)  # buy 0.20 < penalty 0.5
        evaluation = problem.evaluate(problem.minimum_solution())
        assert evaluation.market_buy.sum() == pytest.approx(10.0 * T)
        assert evaluation.total_cost == pytest.approx(10.0 * T * 0.20)
        assert evaluation.unresolved_mismatch == pytest.approx(0.0)

    def test_surplus_sells_for_revenue(self):
        offer = flex_offer([(0, 0)], earliest_start=0, latest_start=0)
        problem = flat_problem([offer], net=-5.0)
        evaluation = problem.evaluate(problem.minimum_solution())
        assert evaluation.total_cost == pytest.approx(-5.0 * T * 0.05)
        assert evaluation.market_cost < 0

    def test_sell_limit_forces_penalty(self):
        offer = flex_offer([(0, 0)], earliest_start=0, latest_start=0)
        market = Market(
            np.full(T, 0.2), np.full(T, 0.05), max_sell=np.full(T, 1.0)
        )
        problem = flat_problem([offer], net=-5.0, market=market,
                               surplus_penalty=np.array(0.3))
        evaluation = problem.evaluate(problem.minimum_solution())
        expected = T * (-1.0 * 0.05 + 4.0 * 0.3)
        assert evaluation.total_cost == pytest.approx(expected)
        assert evaluation.unresolved_mismatch == pytest.approx(4.0 * T)

    def test_flexoffer_compensation_term(self):
        offer = flex_offer([(2, 2)], earliest_start=0, latest_start=0,
                           unit_price=0.1)
        problem = flat_problem([offer], net=0.0)
        evaluation = problem.evaluate(problem.minimum_solution())
        assert evaluation.flexoffer_cost == pytest.approx(0.2)

    def test_consumption_in_surplus_valley_is_cheap(self):
        """Consuming inside the surplus valley must beat consuming outside."""
        energy = [(3.0, 3.0)] * 2
        inside = flex_offer(energy, earliest_start=23, latest_start=23)
        outside = flex_offer(energy, earliest_start=0, latest_start=0)
        cost_in = surplus_problem([inside]).cost(
            surplus_problem([inside]).minimum_solution()
        )
        cost_out = surplus_problem([outside]).cost(
            surplus_problem([outside]).minimum_solution()
        )
        assert cost_in < cost_out

    def test_cost_matches_evaluate(self):
        rng = np.random.default_rng(0)
        offers = [
            flex_offer([(1, 2), (0, 1)], earliest_start=5, latest_start=20)
            for _ in range(5)
        ]
        problem = surplus_problem(offers)
        solution = problem.random_solution(rng)
        assert problem.cost(solution) == pytest.approx(
            problem.evaluate(solution).total_cost
        )

    def test_to_schedule_validates(self):
        offers = [flex_offer([(1, 2)], earliest_start=3, latest_start=9)]
        problem = flat_problem(offers)
        schedule = problem.to_schedule(problem.minimum_solution())
        assert len(schedule) == 1
        assert schedule.market_buy is not None

    def test_to_schedule_equals_the_evaluate_construction(self):
        """``to_schedule`` settles the market on the one residual and hands
        ``ScheduledFlexOffer`` the energy arrays; it used to run the whole
        ``evaluate`` breakdown for its two market arrays and pass tuples of
        numpy scalars.  Same ``Schedule`` either way."""
        rng = np.random.default_rng(5)
        offers = [
            flex_offer([(1, 2), (-1, 1), (0, 3)], earliest_start=5, latest_start=20)
            for _ in range(6)
        ]
        for problem in (flat_problem(offers), surplus_problem(offers)):
            solution = problem.random_solution(rng)
            schedule = problem.to_schedule(solution)
            evaluation = problem.evaluate(solution)
            assert [(s.offer, s.start, s.energies) for s in schedule] == [
                (offer, int(start), tuple(float(e) for e in energies))
                for offer, start, energies in zip(
                    problem.offers, solution.starts, solution.energies
                )
            ]
            assert all(
                type(e) is float for s in schedule for e in s.energies
            )
            for got, want in (
                (schedule.market_buy, evaluation.market_buy),
                (schedule.market_sell, evaluation.market_sell),
            ):
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def _one_by_one_error(problem, solution):
        """The error of the first assignment ``ScheduledFlexOffer`` rejects."""
        with pytest.raises(InvalidScheduleError) as error:
            for offer, start, energies in zip(
                problem.offers, solution.starts, solution.energies
            ):
                ScheduledFlexOffer(offer, int(start), energies)
        return str(error.value)

    @pytest.mark.parametrize(
        "fault", ["early start", "late start", "short", "long", "above", "below", "nan"]
    )
    def test_to_schedule_raises_the_first_assignments_error(self, fault):
        """The batched check finds the fault; the error is the one building
        the assignments one by one raises, for the first bad assignment
        (two are broken, the third and the fifth)."""
        offers = [
            flex_offer([(1, 2), (-1, 1), (0, 3)], earliest_start=5, latest_start=20)
            for _ in range(6)
        ]
        problem = flat_problem(offers)
        solution = problem.random_solution(np.random.default_rng(7))
        for j in (2, 4):
            if fault == "early start":
                solution.starts[j] = 4
            elif fault == "late start":
                solution.starts[j] = 21
            elif fault == "short":
                solution.energies[j] = solution.energies[j][:2]
            elif fault == "long":
                solution.energies[j] = np.append(solution.energies[j], 1.0)
            else:
                value = {"above": 3.1, "below": -1.1, "nan": np.nan}[fault]
                solution.energies[j][1] = value
        want = self._one_by_one_error(problem, solution)
        if fault in ("short", "long"):
            assert "-slice profile" in want
        else:
            assert want.endswith(f"offer {offers[2].offer_id}")
        with pytest.raises(InvalidScheduleError) as got:
            problem.to_schedule(solution)
        assert str(got.value) == want

    def test_to_schedule_accepts_what_one_by_one_accepts(self):
        """Energies a hair outside the bounds (inside the tolerance), lists
        instead of arrays, integer and float32 energies: the batched build
        returns what the one-by-one build returns, every energy a float."""
        offers = [
            flex_offer([(1, 2), (-1, 1)], earliest_start=5, latest_start=20)
            for _ in range(4)
        ]
        problem = flat_problem(offers)
        solution = CandidateSolution(
            np.array([5, 9, 20, 12]),
            [
                np.array([1.0 - 5e-10, 1.0 + 5e-10]),
                [2.0, -1.0],
                np.array([1, 0]),
                np.array([1.5, -0.0], dtype=np.float32),
            ],
        )
        schedule = problem.to_schedule(solution)
        want = [
            ScheduledFlexOffer(offer, int(start), energies)
            for offer, start, energies in zip(
                problem.offers, solution.starts, solution.energies
            )
        ]
        assert schedule.assignments == want
        assert all(type(e) is float for s in schedule for e in s.energies)
        assert all(type(s.start) is int for s in schedule)
        assert np.array(schedule.assignments[3].energies).tobytes() == (
            np.array([1.5, -0.0]).tobytes()
        )


class TestGreedy:
    def test_beats_minimum_baseline_on_surplus(self):
        rng = np.random.default_rng(3)
        offers = [
            flex_offer(
                [(1.0, 2.5)] * 3,
                earliest_start=int(rng.integers(0, 20)),
                latest_start=int(rng.integers(20, 40)),
            )
            for _ in range(12)
        ]
        problem = surplus_problem(offers)
        result = RandomizedGreedyScheduler().schedule(
            problem, max_passes=5, rng=rng
        )
        assert result.cost <= problem.cost(problem.minimum_solution()) + 1e-9

    def test_respects_constraints(self):
        rng = np.random.default_rng(4)
        offers = [
            flex_offer([(0.5, 2.0), (0.5, 2.0)], earliest_start=5, latest_start=30)
            for _ in range(6)
        ]
        problem = surplus_problem(offers)
        result = RandomizedGreedyScheduler().schedule(problem, max_passes=3, rng=rng)
        problem.to_schedule(result.solution)  # raises if any constraint broken

    def test_trace_costs_decrease(self):
        rng = np.random.default_rng(5)
        offers = [
            flex_offer([(1, 2)] * 2, earliest_start=0, latest_start=40)
            for _ in range(8)
        ]
        problem = surplus_problem(offers)
        result = RandomizedGreedyScheduler().schedule(problem, max_passes=20, rng=rng)
        costs = [c for _, c in result.trace]
        assert costs == sorted(costs, reverse=True)

    def test_warm_start_never_worse_than_seed(self):
        rng = np.random.default_rng(6)
        offers = [
            flex_offer([(1.0, 2.0)] * 2, earliest_start=0, latest_start=40)
            for _ in range(8)
        ]
        problem = surplus_problem(offers)
        warm = problem.minimum_solution()
        warm_cost = problem.cost(warm)
        result = RandomizedGreedyScheduler().schedule(
            problem, max_passes=3, rng=rng, warm_start=warm
        )
        assert result.cost <= warm_cost + 1e-9
        # The warm candidate counts as one evaluation.
        assert result.evaluations == 3

    def test_warm_start_survives_zero_extra_passes(self):
        rng = np.random.default_rng(7)
        offers = [
            flex_offer([(1.0, 2.0)], earliest_start=0, latest_start=10)
            for _ in range(3)
        ]
        problem = flat_problem(offers)
        warm = problem.minimum_solution()
        result = RandomizedGreedyScheduler().schedule(
            problem, max_passes=1, rng=rng, warm_start=warm
        )
        assert result.evaluations == 1
        assert result.cost == pytest.approx(problem.cost(warm))


class TestEvolutionary:
    def test_improves_over_random_start(self):
        rng = np.random.default_rng(6)
        offers = [
            flex_offer([(1, 3)] * 2, earliest_start=0, latest_start=40)
            for _ in range(8)
        ]
        problem = surplus_problem(offers)
        result = EvolutionaryScheduler().schedule(
            problem, max_evaluations=2000, rng=rng
        )
        first_cost = result.trace[0][1]
        assert result.cost < first_cost

    def test_solution_is_feasible(self):
        rng = np.random.default_rng(7)
        offers = [
            flex_offer([(0.5, 1.5)] * 3, earliest_start=2, latest_start=30)
            for _ in range(5)
        ]
        problem = surplus_problem(offers)
        result = EvolutionaryScheduler().schedule(
            problem, max_evaluations=500, rng=rng
        )
        problem.to_schedule(result.solution)

    @pytest.mark.pinned
    def test_deterministic_under_seed(self):
        """Two runs on the default rng give the same solution, and the
        seed-9 cost pins the fixed tuning (the module constants) and the
        operators' draw order: changing either moves it."""
        offers = [
            flex_offer([(1, 2)] * 2, earliest_start=0, latest_start=20)
            for _ in range(4)
        ]
        problem = surplus_problem(offers)
        first, second = (
            EvolutionaryScheduler().schedule(problem, max_evaluations=60)
            for _ in range(2)
        )
        assert first.cost == second.cost
        np.testing.assert_array_equal(
            first.solution.starts, second.solution.starts
        )
        assert len(first.solution.energies) == len(second.solution.energies)
        for left, right in zip(first.solution.energies, second.solution.energies):
            np.testing.assert_array_equal(left, right)
        pinned = EvolutionaryScheduler().schedule(
            problem, max_evaluations=300, rng=np.random.default_rng(9)
        )
        pin("ea.seed9.cost", [pinned.cost])

    def test_random_genomes_respect_bounds(self):
        packing = intraday_scenario(30, seed=8).packed_offers
        rng = np.random.default_rng(5)
        starts = evolutionary._random_starts(packing, rng)
        packed = evolutionary._random_packed(packing, rng)
        assert np.all(starts >= packing.earliest)
        assert np.all(starts <= packing.latest)
        assert np.all(packed >= packing.lo - 1e-12)
        assert np.all(packed <= packing.hi + 1e-12)

    def test_slice_indices_subset(self):
        packing = intraday_scenario(30, seed=21).packed_offers
        members = np.arange(packing.count)[::2]
        expected = np.concatenate(
            [
                np.arange(packing.offsets[j], packing.offsets[j + 1])
                for j in members
            ]
        )
        assert np.array_equal(
            evolutionary._slice_indices(packing, members), expected
        )
        empty = np.zeros(0, dtype=np.int64)
        assert evolutionary._slice_indices(packing, empty).size == 0


class TestExhaustive:
    """The exact oracle against enumeration of every start combination."""

    def _fixed_energy_offers(self, n, rng):
        offers = []
        for _ in range(n):
            est = int(rng.integers(0, 30))
            offers.append(
                flex_offer(
                    [(2.0, 2.0)] * 2,
                    earliest_start=est,
                    latest_start=est + int(rng.integers(0, 7)),
                )
            )
        return offers

    def test_count_start_combinations(self):
        offers = [
            flex_offer([(1, 1)], earliest_start=0, latest_start=2),
            flex_offer([(1, 1)], earliest_start=0, latest_start=4),
        ]
        problem = flat_problem(offers)
        assert count_start_combinations(problem) == 3 * 5

    def test_finds_true_optimum(self):
        """With fixed energies a start combination is the whole candidate,
        so pricing every combination finds the optimum the oracle must
        match, under a capped and an uncapped market."""
        pytest.importorskip("scipy")
        rng = np.random.default_rng(11)
        cases = [self._fixed_energy_offers(n, rng) for n in (0, 1, 2, 3, 3)]
        for offers in cases:
            problem = surplus_problem(offers)
            self._match_brute_force(problem)
            self._match_brute_force(flat_problem(offers, net=-3.0))

    @staticmethod
    def _match_brute_force(problem):
        energies = problem.minimum_solution().energies
        windows = [
            range(o.earliest_start, o.latest_start + 1) for o in problem.offers
        ]
        brute = min(
            problem.cost(CandidateSolution(np.array(starts), energies))
            for starts in itertools.product(*windows)
        )
        optimum = MilpScheduler().schedule(problem)
        assert optimum.status == "optimal"
        assert optimum.cost == pytest.approx(brute, rel=1e-9)
        assert problem.cost(optimum.solution) == pytest.approx(brute, rel=1e-9)

    def test_metaheuristics_reach_optimum_on_tiny_instance(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(12)
        offers = self._fixed_energy_offers(3, rng)
        problem = surplus_problem(offers)
        optimum = MilpScheduler().schedule(problem)
        greedy = RandomizedGreedyScheduler().schedule(
            problem, max_passes=50, rng=np.random.default_rng(1)
        )
        assert greedy.cost == pytest.approx(optimum.cost, abs=1e-6)


def _oracle_problem(rng, n_offers, capped):
    """1-4 offers with mixed-sign and fixed slices, a positive price, under
    a two-row (uncapped) or six-row (capped) market.  Shortage penalties
    fall on both sides of the buy price, so both settlement branches occur;
    a sell price at most the lower of the two keeps every slice convex."""
    horizon = 24
    offers = []
    for _ in range(n_offers):
        d = int(rng.integers(1, 5))
        est = int(rng.integers(0, horizon - d))
        lo = rng.uniform(-3.0, 2.0, d)
        hi = lo + rng.uniform(0.0, 3.0, d) * (rng.random(d) < 0.8)
        offers.append(
            flex_offer(
                list(zip(lo, hi)),
                earliest_start=est,
                latest_start=min(est + int(rng.integers(0, 8)), horizon - d),
                unit_price=float(rng.uniform(0.0, 0.05)),
            )
        )
    buy = rng.uniform(0.1, 0.3, horizon)
    short = rng.uniform(0.0, 0.6, horizon)
    sell = np.minimum(buy, short) * rng.uniform(0.0, 1.0, horizon)
    caps = {}
    if capped:
        caps = {
            "max_buy": rng.uniform(0.0, 8.0, horizon),
            "max_sell": rng.uniform(0.0, 4.0, horizon),
        }
    return SchedulingProblem(
        TimeSeries(0, rng.uniform(-10.0, 10.0, horizon)),
        tuple(offers),
        Market(buy, sell, **caps),
        shortage_penalty=short,
        surplus_penalty=rng.uniform(0.0, 0.3, horizon),
    )


class TestMilpOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 4),
        capped=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_objective_prices_like_the_settlement_and_bounds_heuristics(
        self, n, capped, seed
    ):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(seed)
        problem = _oracle_problem(rng, n, capped)
        assert len(problem.engine._market) == (6 if capped else 2)
        exact = MilpScheduler().schedule(problem)
        assert exact.status == "optimal"
        solution = exact.solution
        assert exact.cost == pytest.approx(
            problem.evaluate(solution).total_cost, rel=1e-7
        )
        assert exact.cost == pytest.approx(problem.cost(solution), rel=1e-7)
        assert exact.mip_dual_bound <= exact.cost + 1e-9 * abs(exact.cost)
        problem.to_schedule(solution)  # validates every offer
        floor = exact.cost - 1e-9 * max(1.0, abs(exact.cost))
        greedy = RandomizedGreedyScheduler().schedule(
            problem, max_passes=5, rng=np.random.default_rng(seed)
        )
        ea = EvolutionaryScheduler().schedule(
            problem, max_evaluations=300, rng=np.random.default_rng(seed)
        )
        assert greedy.cost >= floor
        assert ea.cost >= floor

    def test_nonconvex_slice_raises(self):
        """At slice 5 shortage costs its 0.5 penalty (buying at 1.0 does
        not pay) while surplus earns 0.8: buying and selling at once would
        pay, which the split model cannot express."""
        pytest.importorskip("scipy")
        buy = np.full(T, 0.2)
        sell = np.full(T, 0.05)
        buy[5], sell[5] = 1.0, 0.8
        offer = flex_offer([(1, 2)], earliest_start=0, latest_start=4)
        problem = flat_problem([offer], market=Market(buy, sell))
        with pytest.raises(SchedulingError, match=r"non-convex slice cost at \[5\]"):
            MilpScheduler().schedule(problem)

    def test_no_point_within_the_time_limit_raises(self, monkeypatch):
        """HiGHS hands back no ``x`` when it stops before a feasible point:
        the oracle says so, with the solver's status, instead of failing
        on the missing array."""
        pytest.importorskip("scipy")
        monkeypatch.setattr(milp, "TIME_LIMIT_S", 1e-3)
        problem = intraday_scenario(1000, seed=0)
        with pytest.raises(SchedulingError, match="status 1, time_limit"):
            MilpScheduler().schedule(problem)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 1000),
)
def test_greedy_solutions_always_feasible(n, seed):
    """Greedy output always satisfies every flex-offer constraint."""
    rng = np.random.default_rng(seed)
    offers = []
    for _ in range(n):
        est = int(rng.integers(0, 30))
        tf = int(rng.integers(0, 10))
        d = int(rng.integers(1, 5))
        lo = float(rng.uniform(-2, 2))
        hi = lo + float(rng.uniform(0, 2))
        offers.append(
            flex_offer([(lo, hi)] * d, earliest_start=est, latest_start=min(est + tf, T - d))
        )
    problem = surplus_problem(offers)
    result = RandomizedGreedyScheduler().schedule(problem, max_passes=2, rng=rng)
    problem.to_schedule(result.solution)  # validates everything


class TestHybridEA:
    def test_greedy_seed_improves_start(self):
        rng = np.random.default_rng(21)
        offers = [
            flex_offer([(1, 2)] * 3, earliest_start=0, latest_start=30)
            for _ in range(20)
        ]
        problem = surplus_problem(offers)
        pure = EvolutionaryScheduler().schedule(
            problem, max_evaluations=200, rng=np.random.default_rng(1)
        )
        hybrid = EvolutionaryScheduler(seed_with_greedy_pass=True).schedule(
            problem, max_evaluations=200, rng=np.random.default_rng(1)
        )
        assert hybrid.cost <= pure.cost
        # the greedy seed is already close: the first recorded cost is lower
        assert hybrid.trace[0][1] >= hybrid.cost


@settings(max_examples=60, deadline=None)
@given(
    residual=st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=12),
    buy=st.floats(0.05, 0.5),
    sell_frac=st.floats(0.0, 1.0),
    shortage_penalty=st.floats(0.0, 1.0),
    surplus_penalty=st.floats(0.0, 1.0),
)
def test_market_settlement_is_per_slice_optimal(
    residual, buy, sell_frac, shortage_penalty, surplus_penalty
):
    """The analytic settlement never loses to all-or-nothing alternatives:
    per slice, its cost is <= both 'trade everything' and 'trade nothing'."""
    T_ = len(residual)
    offer = flex_offer([(0, 0)], earliest_start=0, latest_start=0)
    market = Market(np.full(T_, buy), np.full(T_, buy * sell_frac))
    problem = SchedulingProblem(
        TimeSeries(0, residual),
        (offer,),
        market,
        shortage_penalty=np.array(shortage_penalty),
        surplus_penalty=np.array(surplus_penalty),
    )
    r = np.asarray(residual, dtype=float)
    optimal = problem.slice_costs(r)
    shortage = np.maximum(r, 0.0)
    surplus = np.maximum(-r, 0.0)
    trade_all = (
        shortage * market.buy_price - surplus * market.sell_price
    )
    trade_nothing = (
        shortage * problem.shortage_penalty + surplus * problem.surplus_penalty
    )
    assert np.all(optimal <= trade_all + 1e-9)
    assert np.all(optimal <= trade_nothing + 1e-9)


class TestCostTracker:
    def test_requires_some_budget(self):
        from repro.scheduling import CostTracker

        with pytest.raises(ValueError):
            CostTracker(None, None)

    def test_records_improvements_only_in_trace(self):
        from repro.scheduling import CostTracker

        offer = flex_offer([(1, 1)], earliest_start=0, latest_start=0)
        problem = flat_problem([offer])
        solution = problem.minimum_solution()
        tracker = CostTracker(None, 10)
        tracker.record(5.0, solution)
        tracker.record(7.0, solution)  # worse: not traced
        tracker.record(3.0, solution)
        assert [c for _, c in tracker.trace] == [5.0, 3.0]
        assert tracker.best_cost == 3.0
        assert tracker.evaluations == 3

    def test_result_without_evaluation_rejected(self):
        from repro.scheduling import CostTracker

        with pytest.raises(ValueError):
            CostTracker(None, 5).result()

    def test_cost_at_checkpoints(self):
        from repro.scheduling import SchedulingResult

        result = SchedulingResult(
            solution=None, cost=1.0, evaluations=3, elapsed_seconds=2.0,
            trace=[(0.5, 10.0), (1.0, 5.0), (1.5, 1.0)],
        )
        assert result.cost_at(0.1) == float("inf")
        assert result.cost_at(0.75) == 10.0
        assert result.cost_at(2.0) == 1.0
