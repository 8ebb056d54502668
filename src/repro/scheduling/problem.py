"""The MIRABEL scheduling problem and its composed cost function (paper §6).

Scheduling "consists of fixing start times and energy flexibilities of all
given flex-offers and setting the amount of energy that will be sold to (and
bought from) the market, while optimizing the total cost of the resulting
schedule.  The schedule cost is calculated as the sum of (1) costs of
remaining mismatches, (2) costs of all given aggregated flex-offers and (3)
costs of energy sold to (and bought from) the market."

Given fixed flex-offer placements, the optimal market action is closed-form
per slice (buy where cheaper than the shortage penalty, sell where better
than eating the surplus), so candidate solutions only carry start times and
per-slice energies; :meth:`SchedulingProblem.evaluate` settles the market
analytically and returns the full cost breakdown.

Sign conventions: the *net forecast* is demand minus RES supply per slice
(positive = shortage before flexibility); consumption flex-offers carry
positive energies and worsen shortage, production offers are negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ..core.errors import SchedulingError
from ..core.flexoffer import FlexOffer
from ..core.schedule import Schedule, ScheduledFlexOffer
from ..core.timeseries import TimeSeries
from .engine import CostEngine, OfferConstants, PackedOffers
from .market import Market

__all__ = ["SchedulingProblem", "CandidateSolution", "ScheduleEvaluation"]


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Cost breakdown of one candidate schedule (all EUR)."""

    total_cost: float
    mismatch_cost: float
    flexoffer_cost: float
    market_cost: float
    residual: np.ndarray
    market_buy: np.ndarray
    market_sell: np.ndarray

    @property
    def unresolved_mismatch(self) -> float:
        """Total |kWh| of mismatch left after flexibility and the market."""
        return float(
            np.abs(self.residual - self.market_buy + self.market_sell).sum()
        )


class CandidateSolution:
    """Start times plus per-slice energies for every flex-offer.

    ``starts[j]`` is an absolute slice index in the offer's admissible
    window; ``energies[j]`` has one value per profile slice inside its
    ``[min, max]`` bounds.  Solvers mutate these arrays freely; use
    :meth:`SchedulingProblem.to_schedule` to turn the winner into validated
    :class:`ScheduledFlexOffer` objects.
    """

    __slots__ = ("starts", "energies")

    def __init__(self, starts: np.ndarray, energies: list[np.ndarray]):
        self.starts = np.asarray(starts, dtype=np.int64)
        self.energies = energies

    def copy(self) -> "CandidateSolution":
        return CandidateSolution(
            self.starts.copy(), [e.copy() for e in self.energies]
        )


@dataclass(frozen=True)
class SchedulingProblem:
    """An intra-day (or any fixed-window) BRP balancing problem.

    Parameters
    ----------
    net_forecast:
        Forecast demand minus RES supply over the horizon (kWh per slice).
    offers:
        The aggregated flex-offers to place; every offer's admissible
        execution window must lie inside the horizon.
    market:
        Buy/sell prices (and optional volume limits) per slice.
    shortage_penalty, surplus_penalty:
        EUR/kWh cost of *unresolved* mismatch per slice, finite and
        non-negative; scalars broadcast.
        "Mismatches at peak periods cost the BRP more than at other periods"
        — pass arrays to express that.
    """

    net_forecast: TimeSeries
    offers: tuple[FlexOffer, ...]
    market: Market
    shortage_penalty: np.ndarray = field(default_factory=lambda: np.array(0.5))
    surplus_penalty: np.ndarray = field(default_factory=lambda: np.array(0.2))

    def __post_init__(self) -> None:
        object.__setattr__(self, "offers", tuple(self.offers))
        horizon = len(self.net_forecast)
        if self.market.horizon_length != horizon:
            raise SchedulingError("market prices must cover the horizon")
        for name in ("shortage_penalty", "surplus_penalty"):
            # ``+ 0.0`` makes the copy and turns a ``-0.0`` penalty into
            # ``+0.0``: the engine relies on ``0.0 * penalty`` being ``+0.0``.
            value = (
                np.broadcast_to(np.asarray(getattr(self, name), float), (horizon,))
                + 0.0
            )
            if not np.all(np.isfinite(value) & (value >= 0)):
                raise SchedulingError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, value)
        for offer in self.offers:
            if offer.earliest_start < self.horizon_start:
                raise SchedulingError(
                    f"offer {offer.offer_id} starts before the horizon"
                )
            if offer.latest_start + offer.duration > self.horizon_end:
                raise SchedulingError(
                    f"offer {offer.offer_id} may run past the horizon end"
                )

    # ------------------------------------------------------------------
    @property
    def horizon_start(self) -> int:
        return self.net_forecast.start

    @property
    def horizon_end(self) -> int:
        return self.net_forecast.end

    @property
    def horizon_length(self) -> int:
        return len(self.net_forecast)

    @property
    def offer_count(self) -> int:
        return len(self.offers)

    # ------------------------------------------------------------------
    # cached solver-path machinery
    # ------------------------------------------------------------------
    @cached_property
    def engine(self) -> CostEngine:
        """Vectorized cost engine, built lazily once per problem."""
        return CostEngine(self)

    @cached_property
    def offer_constants(self) -> tuple[OfferConstants, ...]:
        """Per-offer bound arrays / prices / start ranges, built once.

        Solvers read these instead of re-materializing ``min_energies`` /
        ``max_energies`` tuples from the profile on every pass or mutation.
        """
        return tuple(
            OfferConstants.from_offer(offer, self.horizon_start)
            for offer in self.offers
        )

    @cached_property
    def packed_offers(self) -> PackedOffers:
        """Flat concatenated offer arrays for whole-genome vectorized ops."""
        return PackedOffers(
            self.offer_constants, self.horizon_start, self.horizon_length
        )

    # ------------------------------------------------------------------
    # candidate construction
    # ------------------------------------------------------------------
    def minimum_solution(self) -> CandidateSolution:
        """Everything at earliest start and minimum energy."""
        consts = self.offer_constants
        starts = np.array([c.earliest_start for c in consts], dtype=np.int64)
        energies = [c.lo.copy() for c in consts]
        return CandidateSolution(starts, energies)

    def random_solution(self, rng: np.random.Generator) -> CandidateSolution:
        """Uniformly random starts and energies within all constraints."""
        consts = self.offer_constants
        starts = np.array(
            [
                rng.integers(c.earliest_start, c.latest_start + 1)
                for c in consts
            ],
            dtype=np.int64,
        )
        energies = [
            c.lo + rng.random(c.duration) * (c.hi - c.lo) for c in consts
        ]
        return CandidateSolution(starts, energies)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def flex_series(self, solution: CandidateSolution) -> np.ndarray:
        """Net flex-offer energy per horizon slice for a candidate."""
        total = np.zeros(self.horizon_length)
        horizon_start = self.horizon_start
        for c, start, energies in zip(
            self.offer_constants, solution.starts, solution.energies
        ):
            i = int(start) - horizon_start
            total[i : i + c.duration] += energies
        return total

    def settle_market(
        self, residual: np.ndarray, offset: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Optimal per-slice market action for a residual imbalance.

        Buy where the market is cheaper than the shortage penalty; sell where
        revenue beats (or any revenue exists versus) the surplus penalty.
        Volume limits cap both.  ``offset`` positions a partial residual
        window within the horizon (used for local cost deltas).
        """
        market = self.market
        window = slice(offset, offset + len(residual))
        shortage = np.maximum(residual, 0.0)
        surplus = np.maximum(-residual, 0.0)

        buy = np.where(
            market.buy_price[window] < self.shortage_penalty[window], shortage, 0.0
        )
        if market.max_buy is not None:
            buy = np.minimum(buy, market.max_buy[window])

        sell = np.where(
            market.sell_price[window] > -self.surplus_penalty[window], surplus, 0.0
        )
        if market.max_sell is not None:
            sell = np.minimum(sell, market.max_sell[window])
        return buy, sell

    def slice_costs(self, residual: np.ndarray, offset: int = 0) -> np.ndarray:
        """EUR cost per slice of a residual imbalance after market settlement.

        Shortage costs ``min(buy_price, shortage_penalty)`` per kWh (volume
        limits force the penalty on the uncovered remainder); surplus earns
        ``sell_price`` where sellable and pays ``surplus_penalty`` otherwise.
        ``offset`` positions a partial residual window within the horizon.

        This is the solver path: it delegates to the precomputed
        :class:`~repro.scheduling.engine.CostEngine` closed form, which is
        property-tested equivalent to :meth:`settled_slice_costs`.
        """
        return self.engine.slice_costs(residual, offset)

    def settled_slice_costs(
        self, residual: np.ndarray, offset: int = 0
    ) -> np.ndarray:
        """Slice costs derived from an explicit :meth:`settle_market` call.

        The engine-independent oracle: :meth:`evaluate` and the property
        tests price residuals through the market settlement directly, so
        the vectorized engine is checked against an implementation that
        shares none of its precomputed arrays.
        """
        market = self.market
        window = slice(offset, offset + len(residual))
        shortage = np.maximum(residual, 0.0)
        surplus = np.maximum(-residual, 0.0)
        buy, sell = self.settle_market(residual, offset)

        shortage_cost = (
            buy * market.buy_price[window]
            + (shortage - buy) * self.shortage_penalty[window]
        )
        surplus_cost = (
            -sell * market.sell_price[window]
            + (surplus - sell) * self.surplus_penalty[window]
        )
        return shortage_cost + surplus_cost

    def flexoffer_cost(self, solution: CandidateSolution) -> float:
        """Compensation paid for activated flex-offer energy (cost term 2)."""
        return float(
            sum(
                c.flex_cost(energies)
                for c, energies in zip(self.offer_constants, solution.energies)
            )
        )

    def evaluate(self, solution: CandidateSolution) -> ScheduleEvaluation:
        """Full cost breakdown of one candidate (market settled analytically)."""
        residual = self.net_forecast.values + self.flex_series(solution)
        buy, sell = self.settle_market(residual)
        slice_costs = self.settled_slice_costs(residual)

        market_cost = float((buy * self.market.buy_price).sum()) - float(
            (sell * self.market.sell_price).sum()
        )
        mismatch_cost = float(slice_costs.sum()) - market_cost
        flex_cost = self.flexoffer_cost(solution)
        return ScheduleEvaluation(
            total_cost=float(slice_costs.sum()) + flex_cost,
            mismatch_cost=mismatch_cost,
            flexoffer_cost=flex_cost,
            market_cost=market_cost,
            residual=residual,
            market_buy=buy,
            market_sell=sell,
        )

    def cost(self, solution: CandidateSolution) -> float:
        """Total cost only (the solvers' objective) — cheaper than evaluate."""
        residual = self.net_forecast.values + self.flex_series(solution)
        return self.engine.total_cost(residual) + self.flexoffer_cost(solution)

    # ------------------------------------------------------------------
    def to_schedule(self, solution: CandidateSolution) -> Schedule:
        """Convert a candidate into a validated :class:`Schedule`."""
        schedule = Schedule(self.horizon_start, self.horizon_length)
        for offer, start, energies in zip(
            self.offers, solution.starts, solution.energies
        ):
            schedule.add(ScheduledFlexOffer(offer, int(start), energies))
        schedule.market_buy, schedule.market_sell = self.settle_market(
            self.net_forecast.values + self.flex_series(solution)
        )
        return schedule
