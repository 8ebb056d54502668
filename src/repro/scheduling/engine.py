"""Vectorized scheduling cost engine (paper §6 hot path).

Given fixed flex-offer placements the optimal market action is closed-form
per slice, so the slice cost of a residual imbalance ``r`` is a convex
piecewise-linear function of ``r`` whose kinks depend only on the problem's
prices, penalties and volume limits:

* shortage ``s = max(r, 0)`` pays the *effective shortage price*
  (``buy_price`` where buying beats the penalty, the penalty otherwise) up
  to the buy volume limit, and the shortage penalty beyond it;
* surplus ``u = max(-r, 0)`` pays the *effective surplus price*
  (``-sell_price`` where selling beats the penalty, i.e. revenue) up to the
  sell volume limit, and the surplus penalty beyond it.

:class:`CostEngine` precomputes those four marginal-price arrays (plus the
effective caps) once per :class:`~repro.scheduling.problem.SchedulingProblem`
— or, for a market where no volume limit can bind, the two effective prices
alone, which is all that is left of the expression there — so evaluating a
residual window needs no :meth:`settle_market` temporaries — and, crucially,
broadcasts over arbitrary leading axes.  That enables the
batched placement kernel :meth:`CostEngine.best_placement`, which scores
**all admissible start positions × all per-slice energy candidates of one
offer in a single vectorized operation** over the band of (profile slice,
start) pairs a placement can occupy, read through zero-copy views,
replacing the per-start Python loop the solvers used to run.  Per-start
totals accumulate in slice order, and plans depend on that bit for bit.
Nothing is priced twice: a candidate row that can only repeat another is
never built (:attr:`OfferConstants.candidates`), and the slice costs the
kernel computed for the placement it chose are handed to
:meth:`IncrementalCostState.place` rather than derived again — one
expression, :func:`_price`, produces every cost on both routes.

:class:`IncrementalCostState` maintains the residual and the running
schedule cost across placements so a greedy pass (and the evolutionary /
exhaustive schedulers' moves) pays only for touched windows instead of
re-deriving the full-horizon cost after every change.

The engine is numerically equivalent to the settlement-derived
:meth:`SchedulingProblem.settled_slice_costs` oracle (property-tested in
``tests/test_scheduling_engine.py``); the scalar pre-vectorization kernel is
kept in :mod:`repro.scheduling.reference` as the oracle and benchmark
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.errors import SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.flexoffer import FlexOffer
    from .problem import SchedulingProblem

__all__ = ["OfferConstants", "PackedOffers", "CostEngine", "IncrementalCostState"]


def _band(values: np.ndarray, first: int, d: int, n: int) -> np.ndarray:
    """Zero-copy ``band[..., t, k] = values[..., first + t + k]`` (float64).

    The ``ndarray`` constructor, unlike ``numpy.lib.stride_tricks``, checks
    the view against the buffer's extent, so a band past either end of the
    horizon is an error instead of a read of foreign memory.  It needs one
    C-contiguous buffer (a no-op for the arrays the solvers maintain).
    """
    values = np.ascontiguousarray(values, dtype=float)
    try:
        return np.ndarray(
            values.shape[:-1] + (d, n),
            float,
            values,
            first * 8,
            values.strides[:-1] + (8, 8),
        )
    except ValueError as exc:
        raise SchedulingError(
            f"placement band [{first}, {first + n + d - 1}) leaves the "
            f"{values.shape[-1]}-slice horizon"
        ) from exc


def _price(residual: np.ndarray, market: np.ndarray) -> np.ndarray:
    """Settled EUR cost per element of ``residual`` under the market table
    of a :class:`CostEngine`, cut to the slices ``residual`` covers.

    The ONE pricing expression: :meth:`CostEngine.slice_costs` and the
    placement kernel both call it, and ``IncrementalCostState.place`` stores
    the kernel's results where it used to call ``slice_costs`` — which is
    exact only because both routes run these operations, in this order.
    With ``shortage = max(r, 0)`` and ``surplus = max(-r, 0)``, a six-row
    table (some volume cap is finite) is priced as::

        covered  = min(shortage, cap_buy)    sold    = min(surplus, cap_sell)
        ((covered * buy + (shortage - covered) * short_penalty)
            + sold * sell) + (surplus - sold) * long_penalty

    and a two-row table (no finite cap anywhere) as::

        (shortage * buy + surplus * sell) + 0.0

    which is the six-row expression with both caps ``+inf``, bit for bit.
    There ``covered`` *is* ``shortage`` and ``sold`` *is* ``surplus``, so
    the two uncovered remainders are ``x - x = +0.0`` for every finite
    ``x`` and, times a finite penalty that is positive or ``+0.0``, stay
    ``+0.0``: the six rows compute
    ``((shortage * buy + 0.0) + surplus * sell) + 0.0``.
    Adding ``+0.0`` changes exactly one value, ``-0.0`` (to ``+0.0``), and
    both products can be ``-0.0`` (zero shortage at a negative buy price;
    zero surplus wherever selling earns revenue), so the last ``+ 0.0``
    stays.  The first is redundant beside it: a zero of either sign adds
    to ``surplus * sell`` the same way unless that is ``-0.0`` too, and
    then the sum — ``-0.0`` without the first, ``+0.0`` with it — is
    ``+0.0`` after the last.  The argument needs a finite residual
    (``inf - inf`` is ``nan``), finite rates (so is ``0 * inf``) and no
    ``-0.0`` penalty; :class:`~repro.scheduling.market.Market` and
    :class:`~repro.scheduling.problem.SchedulingProblem` reject the
    non-finite rates and normalise the zero.

    Every step is elementwise, so writing a step's result over an operand
    it no longer needs changes no bit; two or three arrays of
    ``residual``'s shape are allocated instead of one per step, and
    ``residual`` itself is only read (it needs at least one axis).
    """
    shortage = np.maximum(residual, 0.0)
    surplus = np.negative(residual)
    np.maximum(surplus, 0.0, out=surplus)
    if len(market) == 2:
        buy, sell = market
        cost = np.multiply(shortage, buy, out=shortage)
        np.multiply(surplus, sell, out=surplus)
        np.add(cost, surplus, out=cost)
        np.add(cost, 0.0, out=cost)
        return cost
    shortage_cap, surplus_cap, buy, short_penalty, sell, long_penalty = market
    cost = np.minimum(shortage, shortage_cap)  # covered
    np.subtract(shortage, cost, out=shortage)  # shortage - covered
    np.multiply(cost, buy, out=cost)
    np.multiply(shortage, short_penalty, out=shortage)
    np.add(cost, shortage, out=cost)
    sold = np.minimum(surplus, surplus_cap, out=shortage)
    np.subtract(surplus, sold, out=surplus)  # surplus - sold
    np.multiply(sold, sell, out=sold)
    np.add(cost, sold, out=cost)
    np.multiply(surplus, long_penalty, out=surplus)
    np.add(cost, surplus, out=cost)
    return cost


@dataclass(frozen=True)
class OfferConstants:
    """Per-offer arrays and bounds cached once per problem.

    Solvers used to re-materialize ``min_energies``/``max_energies`` tuples
    (and re-read ``unit_price`` and the admissible start range) from the
    profile inside every greedy pass, every mutation and every
    ``flexoffer_cost`` call; these are immutable per problem, so they are
    built exactly once (see ``SchedulingProblem.offer_constants``) — and
    with them the two arrays the placement kernel would otherwise rebuild
    on every call: the candidate template and the slice index.
    """

    lo: np.ndarray
    """Per-slice minimum energies (kWh), shape ``(duration,)``."""
    hi: np.ndarray
    """Per-slice maximum energies (kWh), shape ``(duration,)``."""
    candidates: np.ndarray
    """Read-only ``(c, duration, 1)`` template of the kernel's per-slice
    energy candidates: row 0 ``lo``, row 1 ``hi``, row 2 scratch for the
    imbalance-nulling candidate (it depends on the residual), and — only
    when it is needed, so ``c`` is 3 or 4 — row 3 ``clip(0, lo, hi)``, the
    do-least candidate.  That row equals ``lo`` on a slice with ``lo >= 0``
    and ``hi`` on one with ``hi <= 0``; the kernel takes ``min`` and the
    *first* ``argmin`` over candidates slice by slice, where a later row
    that repeats an earlier one can neither lower the minimum nor be
    chosen, so unless some slice has ``lo < 0 < hi`` the row is dropped
    and the plan keeps every bit."""
    slice_index: np.ndarray
    """``arange(duration)``, the kernel's gather index."""
    unit_price: float
    duration: int
    earliest_start: int
    latest_start: int
    earliest_index: int
    """``earliest_start`` relative to the horizon start."""
    n_starts: int
    """Number of admissible start slices (``time_flexibility + 1``)."""

    @classmethod
    def from_offer(cls, offer: "FlexOffer", horizon_start: int) -> "OfferConstants":
        # The profile caches these read-only arrays, so packing an offer into
        # several problems (or rebuilding a problem) shares the same buffers.
        lo = offer.profile.min_array
        hi = offer.profile.max_array
        if ((lo < 0.0) & (hi > 0.0)).any():
            candidates = np.empty((4, offer.duration, 1))
            candidates[3, :, 0] = np.clip(0.0, lo, hi)
        else:
            candidates = np.empty((3, offer.duration, 1))
        candidates[0, :, 0] = lo
        candidates[1, :, 0] = hi
        candidates[2, :, 0] = lo  # scratch: the kernel overwrites its copy
        candidates.setflags(write=False)
        return cls(
            lo=lo,
            hi=hi,
            candidates=candidates,
            slice_index=np.arange(offer.duration),
            unit_price=float(offer.unit_price),
            duration=offer.duration,
            earliest_start=offer.earliest_start,
            latest_start=offer.latest_start,
            earliest_index=offer.earliest_start - horizon_start,
            n_starts=offer.time_flexibility + 1,
        )

    def flex_cost(self, energies: np.ndarray) -> float:
        """Compensation paid for one placement of this offer (EUR)."""
        return self.unit_price * float(np.abs(energies).sum())


class PackedOffers:
    """All offers' constants concatenated into flat arrays (built once).

    The evolutionary scheduler represents a genome as ``(starts, packed)``
    where ``packed`` holds every offer's per-slice energies back to back;
    with these companion arrays, crossover, mutation, the residual rebuild
    and the compensation sum are all single vectorized operations over the
    whole genome instead of per-offer Python loops.
    """

    __slots__ = (
        "count",
        "total",
        "durations",
        "offsets",
        "within",
        "lo",
        "hi",
        "unit_price",
        "earliest",
        "latest",
        "horizon_start",
        "horizon_length",
    )

    def __init__(
        self,
        consts: tuple[OfferConstants, ...],
        horizon_start: int,
        horizon_length: int,
    ) -> None:
        self.count = len(consts)
        self.durations = np.array([c.duration for c in consts], dtype=np.int64)
        self.total = int(self.durations.sum())
        self.offsets = np.zeros(self.count + 1, dtype=np.int64)
        np.cumsum(self.durations, out=self.offsets[1:])
        # within[s] = position of packed slice s inside its own offer
        self.within = np.arange(self.total, dtype=np.int64) - np.repeat(
            self.offsets[:-1], self.durations
        )
        self.lo = (
            np.concatenate([c.lo for c in consts])
            if consts
            else np.zeros(0)
        )
        self.hi = (
            np.concatenate([c.hi for c in consts])
            if consts
            else np.zeros(0)
        )
        self.unit_price = np.repeat(
            np.array([c.unit_price for c in consts], dtype=float), self.durations
        )
        self.earliest = np.array([c.earliest_start for c in consts], dtype=np.int64)
        self.latest = np.array([c.latest_start for c in consts], dtype=np.int64)
        self.horizon_start = horizon_start
        self.horizon_length = horizon_length

    # ------------------------------------------------------------------
    def pack(self, energies: list[np.ndarray]) -> np.ndarray:
        """Concatenate per-offer energy arrays into one flat genome array."""
        return (
            np.concatenate(energies) if energies else np.zeros(0)
        )

    def split(self, packed: np.ndarray) -> list[np.ndarray]:
        """Per-offer energy copies out of a flat genome array."""
        return [
            packed[self.offsets[j] : self.offsets[j + 1]].copy()
            for j in range(self.count)
        ]

    def flex_series(self, starts: np.ndarray, packed: np.ndarray) -> np.ndarray:
        """Net flex energy per horizon slice — one ``bincount``, no loop."""
        indices = (
            np.repeat(starts - self.horizon_start, self.durations) + self.within
        )
        return np.bincount(
            indices, weights=packed, minlength=self.horizon_length
        )

    def flex_cost(self, packed: np.ndarray) -> float:
        """Total compensation (EUR) of a flat genome."""
        return float((self.unit_price * np.abs(packed)).sum())

    def random_starts(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform start per offer within its admissible window."""
        return rng.integers(self.earliest, self.latest + 1, dtype=np.int64)

    def random_packed(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform per-slice energies within bounds, already packed."""
        return self.lo + rng.random(self.total) * (self.hi - self.lo)

    def slice_indices(self, members: np.ndarray) -> np.ndarray:
        """Packed-array indices covered by the given offer indices.

        Vectorized concatenation of ``arange(offsets[j], offsets[j+1])`` for
        every ``j`` in ``members`` (order preserved, standard cumsum trick).
        """
        lengths = self.durations[members]
        if not len(lengths):
            return np.zeros(0, dtype=np.int64)
        return np.repeat(self.offsets[members], lengths) + (
            np.arange(int(lengths.sum()), dtype=np.int64)
            - np.repeat(np.cumsum(lengths) - lengths, lengths)
        )


class CostEngine:
    """Closed-form piecewise-linear slice costs for one scheduling problem.

    Where trading is never optimal the effective cap is ``+inf`` and the
    effective price equals the penalty, so every branch of the original
    settlement collapses into one expression — bit-for-bit equal to the
    settlement-derived oracle in every branch.

    The engine holds one table over the horizon, ``_market``, whose shape
    is read off the market it was handed.  If any *effective* volume cap is
    finite — a ``max_buy`` on a slice where buying beats the penalty, a
    ``max_sell`` where selling does — it is ``(6, horizon)``: the two caps,
    then effective shortage price, shortage penalty, effective surplus
    price, surplus penalty.  If none is (no limits given, limits that are
    ``+inf``, or limits only where trading never pays), the caps bind
    nowhere and it is ``(2, horizon)``: the two effective prices alone.
    :func:`_price` names the rows and prices either shape to the same bits.
    """

    __slots__ = ("_market",)

    def __init__(self, problem: "SchedulingProblem") -> None:
        market = problem.market
        max_buy = np.inf if market.max_buy is None else market.max_buy
        max_sell = np.inf if market.max_sell is None else market.max_sell

        buying = market.buy_price < problem.shortage_penalty
        selling = market.sell_price > -problem.surplus_penalty
        buy_cap = np.where(buying, max_buy, np.inf)
        sell_cap = np.where(selling, max_sell, np.inf)
        buy = np.where(buying, market.buy_price, problem.shortage_penalty)
        sell = np.where(selling, -market.sell_price, problem.surplus_penalty)

        # One table, so a window or a band of every marginal array is a
        # single view.
        if np.isinf(buy_cap).all() and np.isinf(sell_cap).all():
            self._market = np.stack((buy, sell))
        else:
            self._market = np.stack(
                (
                    buy_cap,
                    sell_cap,
                    buy,
                    problem.shortage_penalty,
                    sell,
                    problem.surplus_penalty,
                )
            )

    # ------------------------------------------------------------------
    def slice_costs(self, residual: np.ndarray, offset: int = 0) -> np.ndarray:
        """EUR cost per slice of a residual window after market settlement.

        ``residual`` may carry arbitrary leading axes; the trailing axis is
        positioned within the horizon by ``offset``.
        """
        residual = np.asarray(residual, dtype=float)
        return _price(
            residual, self._market[:, offset : offset + residual.shape[-1]]
        )

    def total_cost(self, residual: np.ndarray) -> float:
        """Full-horizon slice-cost total of a residual (EUR)."""
        return float(self.slice_costs(residual).sum())

    # ------------------------------------------------------------------
    def best_placement(
        self,
        consts: OfferConstants,
        residual: np.ndarray,
        cost_vector: np.ndarray | None = None,
    ) -> tuple[int, np.ndarray, float, np.ndarray]:
        """Best start and per-slice energies for one offer, fully batched.

        Evaluates every admissible start position against the per-slice
        energy candidates (bounds, imbalance-nulling and, where it is not a
        repeat of a bound, zero — the kinks of the piecewise-linear slice
        cost; see :attr:`OfferConstants.candidates`) in one vectorized
        operation over the *band*: entry ``[t, k]`` is profile slice ``t``
        of the offer started ``k`` slices after its earliest start, at
        horizon slice ``earliest_index + t + k``.  Only those ``duration ×
        n_starts`` pairs can be occupied, and residual, slice costs and
        market arrays reach them through zero-copy :func:`_band` views.

        **Summation contract.**  Per-start totals are the ``(duration,
        n_starts)`` delta table reduced over axis 0, which numpy accumulates
        sequentially in slice order ``t = 0, 1, …``.  Committed plans depend
        on it: summing contiguous rows of the transposed table is pairwise
        from 8 slices up, moves totals in their last bits and flips
        near-tied starts (``test_kernel_bits_pinned_at_runtime_shapes``).

        ``cost_vector`` is the per-slice cost of the current residual when
        the caller (an :class:`IncrementalCostState`) already maintains it;
        otherwise the band is priced here.  Both may be any real array over
        the horizon; an offer whose band leaves the horizon raises
        :class:`~repro.core.errors.SchedulingError`.

        Returns ``(start_index, energies, cost_delta, after_costs)`` where
        ``start_index`` is relative to the offer's earliest start,
        ``cost_delta`` includes the offer's compensation term, and
        ``after_costs`` are the slice costs of the residual *with* the
        placement applied, over the placement's own slices: the kernel
        priced ``residual + candidate`` for every pair to find the best
        one, so the chosen column is handed back instead of being priced
        again (:meth:`IncrementalCostState.place` stores it; bit-equal to
        ``slice_costs(residual[w] + energies, w.start)`` because both are
        :func:`_price` of the same sums under the same market slices).
        Tie-breaking matches the scalar reference kernel exactly: earlier
        candidates and earlier starts win ties, so solutions are
        bit-for-bit identical to the pre-vectorization solver.
        """
        d = consts.duration
        n = consts.n_starts
        first = consts.earliest_index
        window = _band(residual, first, d, n)  # (d, n)
        market = _band(self._market, first, d, n)  # (2 or 6, d, n)
        if cost_vector is None:
            before = _price(window, market)
        else:
            before = _band(cost_vector, first, d, n)

        template = consts.candidates  # (c, d, 1)
        candidates = np.empty((len(template), d, n))
        candidates[:] = template
        np.minimum(
            np.maximum(-window, template[0]), template[1], out=candidates[2]
        )

        after = _price(window + candidates, market)  # (c, d, n)
        delta = after - before
        if consts.unit_price:
            delta += consts.unit_price * np.abs(candidates)

        best = delta.min(axis=0)  # (d, n), min keeps earlier-candidate ties
        totals = best.sum(axis=0)  # (n,), accumulated in slice order
        start_index = int(totals.argmin())  # first min = earlier start
        choice = delta[:, :, start_index].argmin(axis=0)  # first = earlier cand
        chosen = (choice, consts.slice_index, start_index)
        return (
            start_index,
            candidates[chosen],
            float(totals[start_index]),
            after[chosen],
        )


class IncrementalCostState:
    """Residual, per-slice cost vector and running total across placements.

    ``total`` starts at the slice-cost of the initial residual and is then
    advanced by whatever deltas the caller feeds it: the greedy pass feeds
    the batched kernel's deltas (which include compensation terms), the
    evolutionary and exhaustive schedulers take pure slice-cost deltas from
    :meth:`replace` and keep compensation separately.  Either way only the
    touched windows are ever re-priced — by :meth:`replace`; :meth:`place`
    takes the kernel's own after-costs — and the maintained ``cost_vector``
    hands the kernel its "before" costs for free.
    """

    __slots__ = ("engine", "residual", "cost_vector", "total")

    def __init__(
        self,
        engine: CostEngine,
        residual: np.ndarray,
        cost_vector: np.ndarray | None = None,
        total: float | None = None,
    ) -> None:
        self.engine = engine
        self.residual = residual
        self.cost_vector = (
            engine.slice_costs(residual) if cost_vector is None else cost_vector
        )
        self.total = float(self.cost_vector.sum()) if total is None else total

    @classmethod
    def for_problem(cls, problem: "SchedulingProblem") -> "IncrementalCostState":
        """Fresh state over the problem's net forecast (no offers placed)."""
        return cls(problem.engine, problem.net_forecast.values.copy())

    def copy(self) -> "IncrementalCostState":
        return IncrementalCostState(
            self.engine, self.residual.copy(), self.cost_vector.copy(), self.total
        )

    # ------------------------------------------------------------------
    def best_placement(
        self, consts: OfferConstants
    ) -> tuple[int, np.ndarray, float, np.ndarray]:
        """The batched kernel against this state's residual and cost vector."""
        return self.engine.best_placement(consts, self.residual, self.cost_vector)

    def place(
        self,
        offset: int,
        energies: np.ndarray,
        cost_delta: float,
        after_costs: np.ndarray,
    ) -> None:
        """Apply one placement the kernel just scored.

        ``cost_delta`` and ``after_costs`` are what
        :meth:`best_placement` returned with ``energies``, against this
        state as it is now; nothing is priced here, and the cost vector
        stays bit-equal to ``engine.slice_costs(residual)``.
        """
        window = slice(offset, offset + len(energies))
        self.residual[window] += energies
        self.cost_vector[window] = after_costs
        self.total += cost_delta

    def replace(
        self,
        old_offset: int,
        old_energies: np.ndarray,
        new_offset: int,
        new_energies: np.ndarray,
    ) -> float:
        """Swap one offer's placement; re-prices only the touched windows.

        Returns the slice-cost delta (compensation terms are the caller's,
        since they do not depend on the residual).
        """
        lo = min(old_offset, new_offset)
        hi = max(old_offset + len(old_energies), new_offset + len(new_energies))
        window = slice(lo, hi)
        before = float(self.cost_vector[window].sum())
        self.residual[old_offset : old_offset + len(old_energies)] -= old_energies
        self.residual[new_offset : new_offset + len(new_energies)] += new_energies
        self.cost_vector[window] = self.engine.slice_costs(
            self.residual[window], lo
        )
        delta = float(self.cost_vector[window].sum()) - before
        self.total += delta
        return delta

    def resync(self) -> None:
        """Re-price the whole horizon, zeroing accumulated fp drift.

        Long enumerations (the exhaustive scheduler walks millions of
        moves) call this periodically; a single greedy pass never needs it.
        """
        self.cost_vector = self.engine.slice_costs(self.residual)
        self.total = float(self.cost_vector.sum())
