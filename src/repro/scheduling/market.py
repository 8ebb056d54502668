"""The energy market the BRP trades on (paper §6).

Scheduling may sell surplus energy to — and buy shortage energy from — the
market (day-ahead / other BRPs).  The scheduler only needs per-slice prices
and optional volume limits; market microstructure is out of scope (see
DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import SchedulingError

__all__ = ["Market"]


@dataclass(frozen=True)
class Market:
    """Per-slice buy/sell prices (EUR/kWh) with optional volume limits (kWh).

    ``sell_price <= buy_price`` must hold slice-wise (no-arbitrage): a BRP
    cannot profit by simultaneously buying and selling the same slice.
    Prices must be finite; a volume limit may be ``inf`` (that slice is
    uncapped, as if no limit were given).
    """

    buy_price: np.ndarray
    sell_price: np.ndarray
    max_buy: np.ndarray | None = None
    max_sell: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "buy_price", np.asarray(self.buy_price, float))
        object.__setattr__(self, "sell_price", np.asarray(self.sell_price, float))
        if self.buy_price.shape != self.sell_price.shape:
            raise SchedulingError("buy and sell price arrays must align")
        if not (
            np.isfinite(self.buy_price).all() and np.isfinite(self.sell_price).all()
        ):
            raise SchedulingError("market prices must be finite")
        if np.any(self.sell_price > self.buy_price):
            raise SchedulingError("sell_price must not exceed buy_price (arbitrage)")
        for name in ("max_buy", "max_sell"):
            limit = getattr(self, name)
            if limit is not None:
                limit = np.asarray(limit, float)
                object.__setattr__(self, name, limit)
                if limit.shape != self.buy_price.shape:
                    raise SchedulingError(f"{name} must align with prices")
                if not np.all(limit >= 0):
                    raise SchedulingError(f"{name} must be non-negative")

    @property
    def horizon_length(self) -> int:
        """Number of slices covered."""
        return len(self.buy_price)

    @classmethod
    def flat(
        cls,
        horizon_length: int,
        *,
        buy_price: float = 0.20,
        sell_price: float = 0.05,
    ) -> "Market":
        """Uniform prices over the horizon."""
        return cls(
            np.full(horizon_length, buy_price),
            np.full(horizon_length, sell_price),
        )

    @classmethod
    def day_night(
        cls,
        horizon_length: int,
        slices_per_day: int,
        *,
        peak_buy: float = 0.30,
        offpeak_buy: float = 0.15,
        peak_sell: float = 0.10,
        offpeak_sell: float = 0.03,
        peak_start_fraction: float = 1 / 3,
        peak_end_fraction: float = 11 / 12,
    ) -> "Market":
        """Two-tariff prices: peak during the day, off-peak at night."""
        t = np.arange(horizon_length) % slices_per_day
        peak = (t >= peak_start_fraction * slices_per_day) & (
            t < peak_end_fraction * slices_per_day
        )
        return cls(
            np.where(peak, peak_buy, offpeak_buy),
            np.where(peak, peak_sell, offpeak_sell),
        )
