"""Exact scheduling as a mixed-integer linear programme, solved by HiGHS.

The paper could not reach the optimum (10 offers, "almost three hours",
§6); :class:`MilpScheduler` proves it, the yardstick for the heuristics.
One binary ``y`` per (offer, admissible start), one taken per offer.  The
energy of an (offer, start, slice) is ``lo·y`` plus segments ``0 <= s <=
length·y`` from ``lo`` to ``hi``, split at 0 where ``lo < 0 < hi`` (a fixed
slice has none), so ``unit_price·|energy|`` is ``unit_price·|lo|·y`` minus
``unit_price`` per unit below 0, plus it per unit above.  Each slice's
residual splits into bought, short, sold and long pieces read off
``problem.market`` and the penalties, never off ``CostEngine``: exact
unless the cheapest shortage rate plus the cheapest surplus rate is
negative, and such a slice raises.  scipy (the
``exact`` extra) is imported inside :meth:`MilpScheduler.schedule` only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.errors import SchedulingError
from .problem import CandidateSolution, SchedulingProblem
from .result import SchedulingResult

TIME_LIMIT_S = 120.0
"""HiGHS wall-clock limit per solve (s): the point found by then is returned
with status ``time_limit``, and a solve that found none raises."""
MIP_REL_GAP = 1e-9
"""Relative gap between incumbent and dual bound at which HiGHS stops."""
_STATUS = {0: "optimal", 1: "time_limit", 2: "infeasible", 3: "unbounded"}


@dataclass
class ExactResult(SchedulingResult):
    """A :class:`SchedulingResult` with the solver's verdict on it."""

    status: str = "optimal"
    """``optimal``, or ``time_limit`` for a feasible but unproven point."""
    mip_dual_bound: float = float("-inf")
    """HiGHS's lower bound on the optimum (EUR)."""


class MilpScheduler:
    """Solves a :class:`SchedulingProblem` to proven optimality."""

    name = "milp"

    def schedule(self, problem: SchedulingProblem) -> ExactResult:
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import coo_array

        t0 = time.perf_counter()
        consts, horizon = problem.offer_constants, problem.horizon_length
        first_y = np.cumsum([0] + [c.n_starts for c in consts])
        # One entry per (offer, start, profile slice): binary, slice, bounds,
        # price.  The empty first part fixes the dtypes.
        parts = [(np.zeros(0, np.int64),) * 2 + (np.zeros(0),) * 3]
        for c, first in zip(consts, first_y):
            k = np.repeat(np.arange(c.n_starts), c.duration)
            t = np.tile(c.slice_index, c.n_starts)
            unit = np.full(len(k), c.unit_price)
            parts.append((first + k, c.earliest_index + k + t, c.lo[t], c.hi[t], unit))
        y, slot, lo, hi, price = map(np.concatenate, zip(*parts))
        cut = np.clip(0.0, lo, hi)
        below, above = np.flatnonzero(cut > lo), np.flatnonzero(hi > cut)
        if np.any(price[np.intersect1d(below, above)] < 0.0):
            raise SchedulingError("negative unit_price on a lo < 0 < hi slice")
        seg = np.concatenate((below, above))  # the entry of each segment
        length = np.concatenate(((cut - lo)[below], (hi - cut)[above]))
        n_y, n_s = int(first_y[-1]), len(seg)
        s_col = n_y + np.arange(n_s)
        n = n_y + n_s + 4 * horizon
        pieces = np.arange(n - 4 * horizon, n).reshape(horizon, 4)

        market = problem.market
        short, long = problem.shortage_penalty, problem.surplus_penalty
        rates = np.stack((market.buy_price, short, -market.sell_price, long), 1)
        caps = np.full((horizon, 4), np.inf)
        for side, limit in ((0, market.max_buy), (2, market.max_sell)):
            if limit is not None:
                caps[:, side] = limit
        # The LP fills each side's cheaper piece first: it trades where that
        # beats the penalty, as settle_market does, while the cheapest rates
        # of the two sides do not sum below 0.
        open_rates = np.where(caps > 0.0, rates, np.inf)
        cheapest = open_rates[:, :2].min(1) + open_rates[:, 2:].min(1)
        concave = np.flatnonzero(cheapest < 0.0)
        if len(concave):
            raise SchedulingError(f"non-convex slice cost at {concave.tolist()}")

        objective, upper = np.zeros(n), np.full(n, np.inf)
        np.add.at(objective, y, price * np.abs(lo))
        objective[s_col] = np.concatenate((-price[below], price[above]))
        objective[pieces] = rates
        upper[:n_y] = 1.0
        upper[s_col] = length
        upper[pieces] = caps
        # Rows: one start per offer; s - length·y <= 0 per segment; per
        # slice, energy - bought - short + sold + long = -net forecast.
        at_s, at_t = len(consts), len(consts) + n_s  # first row of each kind
        offer_rows = np.repeat(np.arange(at_s), np.diff(first_y))
        sides = np.tile([-1.0, -1.0, 1.0, 1.0], horizon)
        rows, cols, vals = map(np.concatenate, zip(
            (offer_rows, np.arange(n_y), np.ones(n_y)),
            (at_s + np.arange(n_s), s_col, np.ones(n_s)),
            (at_s + np.arange(n_s), y[seg], -length),
            (at_t + slot, y, lo),
            (at_t + slot[seg], s_col, np.ones(n_s)),
            (at_t + np.arange(horizon).repeat(4), pieces.ravel(), sides),
        ))
        net = -problem.net_forecast.values
        low = np.concatenate((np.ones(at_s), np.full(n_s, -np.inf), net))
        high = np.concatenate((np.ones(at_s), np.zeros(n_s), net))
        matrix = coo_array((vals, (rows, cols)), shape=(at_t + horizon, n))
        res = milp(
            objective,
            integrality=np.arange(n) < n_y,
            bounds=Bounds(0, upper),
            constraints=LinearConstraint(matrix, low, high),
            options={"time_limit": TIME_LIMIT_S, "mip_rel_gap": MIP_REL_GAP},
        )
        status = _STATUS.get(res.status, "error")
        if res.x is None:
            msg = f"HiGHS found no point (status {res.status}, {status})"
            raise SchedulingError(f"{msg}: {res.message}")
        pick = [np.argmax(res.x[a:b]) for a, b in zip(first_y, first_y[1:])]
        pick = np.array(pick, dtype=np.int64)  # each offer's start index
        chosen = np.zeros(n_y, dtype=bool)
        chosen[first_y[:-1] + pick] = True
        energies = lo.copy()
        np.add.at(energies, seg, res.x[s_col])
        energies = problem.packed_offers.split(np.clip(energies, lo, hi)[chosen[y]])
        starts = pick + [c.earliest_start for c in consts]
        elapsed, cost = time.perf_counter() - t0, float(res.fun)
        bound = res.mip_dual_bound  # None for an LP: a problem without offers
        return ExactResult(
            CandidateSolution(starts, energies), cost, res.mip_node_count or 0,
            elapsed, [(elapsed, cost)], status, cost if bound is None else bound,
        )
