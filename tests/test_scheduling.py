"""Tests for the scheduling problem, cost model and all three solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TimeSeries, flex_offer
from repro.core.errors import SchedulingError
from repro.scheduling import (
    CandidateSolution,
    EvolutionaryScheduler,
    ExhaustiveScheduler,
    Market,
    RandomizedGreedyScheduler,
    SchedulingProblem,
    count_start_combinations,
)

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

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            EvolutionaryScheduler(population_size=2)
        with pytest.raises(ValueError):
            EvolutionaryScheduler(mutation_rate=0.0)

    def test_deterministic_under_seed(self):
        offers = [
            flex_offer([(1, 2)] * 2, earliest_start=0, latest_start=20)
            for _ in range(4)
        ]
        problem = surplus_problem(offers)
        a = EvolutionaryScheduler().schedule(
            problem, max_evaluations=300, rng=np.random.default_rng(9)
        )
        b = EvolutionaryScheduler().schedule(
            problem, max_evaluations=300, rng=np.random.default_rng(9)
        )
        assert a.cost == b.cost


class TestExhaustive:
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
        rng = np.random.default_rng(11)
        offers = []
        for _ in range(4):
            est = int(rng.integers(0, 25))
            offers.append(
                flex_offer([(2.0, 2.0)] * 2, earliest_start=est, latest_start=est + 6)
            )
        problem = surplus_problem(offers)
        optimum = ExhaustiveScheduler().schedule(problem)
        assert optimum.evaluations == count_start_combinations(problem)
        # no candidate found by the metaheuristics may beat the optimum
        greedy = RandomizedGreedyScheduler().schedule(
            problem, max_passes=30, rng=rng
        )
        ea = EvolutionaryScheduler().schedule(
            problem, max_evaluations=3000, rng=rng
        )
        assert greedy.cost >= optimum.cost - 1e-9
        assert ea.cost >= optimum.cost - 1e-9

    def test_metaheuristics_reach_optimum_on_tiny_instance(self):
        rng = np.random.default_rng(12)
        offers = self._fixed_energy_offers(3, rng)
        problem = surplus_problem(offers)
        optimum = ExhaustiveScheduler().schedule(problem)
        greedy = RandomizedGreedyScheduler().schedule(
            problem, max_passes=50, rng=np.random.default_rng(1)
        )
        assert greedy.cost == pytest.approx(optimum.cost, abs=1e-6)

    def test_rejects_energy_flexibility(self):
        offers = [flex_offer([(1, 2)], earliest_start=0, latest_start=1)]
        problem = flat_problem(offers)
        with pytest.raises(SchedulingError):
            ExhaustiveScheduler().schedule(problem)

    def test_rejects_oversized_space(self):
        offers = [
            flex_offer([(1.0, 1.0)], earliest_start=0, latest_start=40)
            for _ in range(8)
        ]
        problem = flat_problem(offers)
        with pytest.raises(SchedulingError):
            ExhaustiveScheduler(limit=1000).schedule(problem)


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
