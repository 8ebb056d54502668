"""The concrete MIRABEL LEDMS schema and its repositories (paper §3).

One unified schema serves every node role; prosumers simply leave the market
tables empty ("prosumers nodes do not make use of market area data").
Dimensions: time, market area (snowflake parent of actor), actor, energy
type, flex-offer state.  Facts: energy measurements, forecasts, flex-offer
lifecycle events and prices.

:class:`LedmsStore` wraps the schema with the operations the other LEDMS
components actually use — recording measurements and reading them back as
:class:`~repro.core.timeseries.TimeSeries`, tracking flex-offer state, and
persisting forecast-model parameters.

Every write ends in the fact tables' column buffers.  A series (measurements,
a forecast, a market's prices) already *is* a column and goes in through one
``extend_facts`` call.  Lifecycle transitions have two entry points because
the traffic has two shapes: admission records ``submitted`` and
``accepted``/``rejected`` one offer at a time
(:meth:`LedmsStore.record_offer_event`, one ``append_fact``), while a flush,
a sweep or a plan commitment moves many offers at once
(:meth:`LedmsStore.record_offer_events`, one ``extend_facts``).  Column-wise
validation costs a fixed set-up per call that only pays off from a handful
of rows on (``benchmarks/bench_store_events.py`` records the crossover), so
neither form is implemented over the other; both run the same checks and
apply the same per-event state transition.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.errors import DataManagementError
from ..core.flexoffer import FlexOffer
from ..core.timebase import TimeAxis
from ..core.timeseries import TimeSeries
from .schema import DimensionTable, FactTable, StarSchema
from .table import Column

__all__ = [
    "build_mirabel_schema",
    "LedmsStore",
    "OFFER_STATES",
]

#: Flex-offer lifecycle states tracked by the store.
OFFER_STATES = (
    "submitted",
    "accepted",
    "rejected",
    "aggregated",
    "scheduled",
    "executed",
    "expired",
    "withdrawn",
)

#: States in which the store keeps the offer *object* (see
#: :meth:`LedmsStore.offer`) — submitted or part of the live pool; in every
#: other state only the audit trail stays.
_RETAINED_OFFER_STATES = frozenset(
    {"submitted", "accepted", "aggregated", "scheduled"}
)


def build_mirabel_schema() -> StarSchema:
    """The combined star/snowflake schema of the LEDMS."""
    schema = StarSchema("mirabel")
    schema.add_dimension(
        DimensionTable(
            "market_area",
            [Column("market_area_id", "int"), Column("name", "str"),
             Column("country", "str")],
            primary_key="market_area_id",
        )
    )
    schema.add_dimension(
        DimensionTable(
            "actor",
            [Column("actor_id", "int"), Column("name", "str"),
             Column("role", "str"), Column("market_area_id", "int")],
            primary_key="actor_id",
            parent="market_area",
        )
    )
    schema.add_dimension(
        DimensionTable(
            "time",
            [Column("time_id", "int"), Column("hour", "int"),
             Column("day", "int"), Column("day_of_week", "int")],
            primary_key="time_id",
        )
    )
    schema.add_dimension(
        DimensionTable(
            "energy_type",
            [Column("energy_type_id", "int"), Column("name", "str"),
             Column("renewable", "bool")],
            primary_key="energy_type_id",
        )
    )
    schema.add_dimension(
        DimensionTable(
            "offer_state",
            [Column("offer_state_id", "int"), Column("name", "str")],
            primary_key="offer_state_id",
        )
    )
    schema.add_fact(
        FactTable(
            "measurement",
            ["time", "actor", "energy_type"],
            [Column("energy_kwh", "float")],
        )
    )
    schema.add_fact(
        FactTable(
            "forecast",
            ["time", "actor", "energy_type"],
            [Column("horizon", "int"), Column("energy_kwh", "float")],
        )
    )
    schema.add_fact(
        FactTable(
            "flexoffer_event",
            ["time", "actor", "offer_state"],
            [Column("offer_key", "int"), Column("energy_min_kwh", "float"),
             Column("energy_max_kwh", "float"), Column("time_flexibility", "int")],
        )
    )
    schema.add_fact(
        FactTable(
            "price",
            ["time", "actor"],
            [Column("buy_eur_kwh", "float"), Column("sell_eur_kwh", "float")],
        )
    )
    return schema


class LedmsStore:
    """Component-facing facade over the MIRABEL schema."""

    def __init__(self, axis: TimeAxis, market_area: str = "EU", country: str = "EU"):
        self.axis = axis
        self.schema = build_mirabel_schema()
        self.schema.insert_dimension_row(
            "market_area", {"market_area_id": 1, "name": market_area, "country": country}
        )
        for state_id, state in enumerate(OFFER_STATES):
            self.schema.insert_dimension_row(
                "offer_state", {"offer_state_id": state_id, "name": state}
            )
        self._state_ids = {state: i for i, state in enumerate(OFFER_STATES)}
        self._actor_ids: dict[str, int] = {}
        self._energy_type_ids: dict[str, int] = {}
        self._known_times: set[int] = set()
        self._offer_states: dict[int, str] = {}
        self._offers: dict[int, FlexOffer] = {}
        self._offer_owners: dict[int, str] = {}
        self._subscribers: list = []

    # ------------------------------------------------------------------
    # dimension management
    # ------------------------------------------------------------------
    def register_actor(self, name: str, role: str) -> int:
        """Register an actor (prosumer/BRP/TSO); idempotent by name."""
        if name in self._actor_ids:
            return self._actor_ids[name]
        actor_id = len(self._actor_ids) + 1
        self.schema.insert_dimension_row(
            "actor",
            {"actor_id": actor_id, "name": name, "role": role, "market_area_id": 1},
        )
        self._actor_ids[name] = actor_id
        return actor_id

    def register_energy_type(self, name: str, renewable: bool) -> int:
        """Register an energy type; idempotent by name."""
        if name in self._energy_type_ids:
            return self._energy_type_ids[name]
        type_id = len(self._energy_type_ids) + 1
        self.schema.insert_dimension_row(
            "energy_type",
            {"energy_type_id": type_id, "name": name, "renewable": renewable},
        )
        self._energy_type_ids[name] = type_id
        return type_id

    def _time_id(self, slice_index: int) -> int:
        if slice_index not in self._known_times:
            self.schema.insert_dimension_row(
                "time",
                {
                    "time_id": slice_index,
                    "hour": self.axis.hour_of_day(slice_index),
                    "day": self.axis.day_index(slice_index),
                    "day_of_week": self.axis.day_of_week(slice_index),
                },
            )
            self._known_times.add(slice_index)
        return slice_index

    def _actor_id(self, name: str) -> int:
        if name not in self._actor_ids:
            raise DataManagementError(f"unknown actor {name!r}; register it first")
        return self._actor_ids[name]

    def _energy_type_id(self, name: str) -> int:
        if name not in self._energy_type_ids:
            raise DataManagementError(
                f"unknown energy type {name!r}; register it first"
            )
        return self._energy_type_ids[name]

    # ------------------------------------------------------------------
    # measurements & forecasts
    # ------------------------------------------------------------------
    def _time_ids(self, start: int, count: int) -> list[int]:
        return [self._time_id(start + offset) for offset in range(count)]

    def record_measurements(
        self, actor: str, energy_type: str, series: TimeSeries
    ) -> int:
        """Persist a measurement series; returns the row count."""
        actor_id = self._actor_id(actor)
        type_id = self._energy_type_id(energy_type)
        count = len(series)
        return self.schema.extend_facts(
            "measurement",
            (
                self._time_ids(series.start, count),
                [actor_id] * count,
                [type_id] * count,
                series.values.tolist(),
            ),
        )

    def measurements(
        self, actor: str, energy_type: str, start: int, end: int
    ) -> TimeSeries:
        """Read measurements back as a dense series (missing slices = 0)."""
        if end <= start:
            raise DataManagementError("empty measurement window")
        actor_id = self._actor_id(actor)
        type_id = self._energy_type_id(energy_type)
        column = self.schema.facts["measurement"].column
        values = np.zeros(end - start)
        for time_id, owner, kind, energy in zip(
            column("time_id"),
            column("actor_id"),
            column("energy_type_id"),
            column("energy_kwh"),
        ):
            if owner == actor_id and kind == type_id and start <= time_id < end:
                values[time_id - start] += energy
        return TimeSeries(start, values)

    def record_forecast(
        self, actor: str, energy_type: str, horizon: int, series: TimeSeries
    ) -> int:
        """Persist a forecast series issued with the given horizon."""
        actor_id = self._actor_id(actor)
        type_id = self._energy_type_id(energy_type)
        count = len(series)
        return self.schema.extend_facts(
            "forecast",
            (
                self._time_ids(series.start, count),
                [actor_id] * count,
                [type_id] * count,
                [horizon] * count,
                series.values.tolist(),
            ),
        )

    def record_prices(self, actor: str, market: "object") -> int:
        """Persist a market's per-slice buy/sell prices (EUR/kWh).

        Accepts any object with ``buy_price``/``sell_price`` arrays (e.g.
        :class:`repro.scheduling.Market`); prices are stored from slice 0 of
        the market's horizon.  Returns the row count.
        """
        buy = getattr(market, "buy_price", None)
        sell = getattr(market, "sell_price", None)
        if buy is None or sell is None:
            raise DataManagementError("market must expose buy_price/sell_price")
        actor_id = self._actor_id(actor)
        pairs = [(float(b), float(s)) for b, s in zip(buy, sell)]
        self.schema.extend_facts(
            "price",
            (
                self._time_ids(0, len(pairs)),
                [actor_id] * len(pairs),
                [b for b, _ in pairs],
                [s for _, s in pairs],
            ),
        )
        return len(buy)

    def prices(self, actor: str, start: int, end: int) -> list[tuple[int, float, float]]:
        """Stored ``(slice, buy, sell)`` prices for a window, sorted by slice."""
        actor_id = self._actor_id(actor)
        column = self.schema.facts["price"].column
        return sorted(
            (time_id, buy, sell)
            for time_id, owner, buy, sell in zip(
                column("time_id"),
                column("actor_id"),
                column("buy_eur_kwh"),
                column("sell_eur_kwh"),
            )
            if owner == actor_id and start <= time_id < end
        )

    # ------------------------------------------------------------------
    # flex-offer lifecycle
    # ------------------------------------------------------------------
    def record_offer_event(self, actor: str, offer: FlexOffer, state: str, now: int) -> None:
        """Append one lifecycle transition for a flex-offer."""
        state_id = self._state_ids.get(state)
        if state_id is None:
            raise DataManagementError(f"unknown offer state {state!r}")
        self.schema.append_fact(
            "flexoffer_event",
            self._time_id(now),
            self._actor_id(actor),
            state_id,
            offer.offer_id,
            offer.total_min_energy,
            offer.total_max_energy,
            offer.time_flexibility,
        )
        self._transition(actor, offer, state, now)

    def record_offer_events(
        self, events: Sequence[tuple[str, FlexOffer, str]], now: int
    ) -> None:
        """Append many ``(actor, offer, state)`` transitions recorded at ``now``.

        The facts are validated and stored as one batch (all or nothing);
        the per-offer state then advances, and subscribers fire, event by
        event in the order given — exactly what the same events recorded
        one by one through :meth:`record_offer_event` leave behind.
        """
        if not events:
            return
        actors, offers, states = zip(*events)
        try:
            state_ids = [self._state_ids[state] for state in states]
        except KeyError as unknown:
            raise DataManagementError(
                f"unknown offer state {unknown.args[0]!r}"
            ) from None
        self.schema.extend_facts(
            "flexoffer_event",
            (
                [self._time_id(now)] * len(events),
                [self._actor_id(actor) for actor in actors],
                state_ids,
                [offer.offer_id for offer in offers],
                [offer.total_min_energy for offer in offers],
                [offer.total_max_energy for offer in offers],
                [offer.time_flexibility for offer in offers],
            ),
        )
        for actor, offer, state in events:
            self._transition(actor, offer, state, now)

    def _transition(self, actor: str, offer: FlexOffer, state: str, now: int) -> None:
        """Advance the per-offer state for one recorded fact; notify."""
        offer_id = offer.offer_id
        self._offer_states[offer_id] = state
        if state in _RETAINED_OFFER_STATES:
            self._offers[offer_id] = offer
        else:
            # Terminal (or rejected) offers keep their audit trail in the
            # fact table and the state map, but the object — with its
            # profile arrays — is dropped so a long stream cannot grow the
            # store without bound.
            self._offers.pop(offer_id, None)
        self._offer_owners[offer_id] = actor
        for callback in self._subscribers:
            callback(offer_id, state, now)

    def replay_offer_event(
        self,
        actor: str,
        offer: FlexOffer,
        state: str,
        now: int,
        *,
        role: str = "prosumer",
    ) -> None:
        """Record a lifecycle transition replayed from a durable log.

        Unlike :meth:`record_offer_event`, this never depends on
        registration-order luck: a log replayed into a *fresh* store
        carries facts for actors (dimension rows) the store has never
        seen, so the actor is auto-registered first —
        :meth:`register_actor` is idempotent, making this safe to call
        for every replayed fact.
        """
        self.register_actor(actor, role)
        self.record_offer_event(actor, offer, state, now)

    def subscribe(self, callback) -> None:
        """Register ``callback(offer_id, state, now)`` for lifecycle events.

        Callbacks fire synchronously after each recorded transition — the
        facade's ``on_offer_state_change`` hook attaches here.
        """
        self._subscribers.append(callback)

    def offer_state(self, offer_id: int) -> str | None:
        """Latest recorded state of an offer (None if never seen)."""
        return self._offer_states.get(offer_id)

    def offer(self, offer_id: int) -> FlexOffer | None:
        """The retained object of a *live* offer (None if unseen/retired).

        After admission this is the *accepted* (window-clipped) offer.
        Objects of offers in terminal states are evicted (their lifecycle
        stays queryable via :meth:`offer_state` and the fact table).
        """
        return self._offers.get(offer_id)

    def offer_owner(self, offer_id: int) -> str | None:
        """The actor a lifecycle event was last recorded for (None if unseen)."""
        return self._offer_owners.get(offer_id)

    def offers_in_state(self, state: str) -> list[int]:
        """Offer ids currently in ``state``."""
        return [oid for oid, s in self._offer_states.items() if s == state]

    def state_counts(self) -> dict[str, int]:
        """Current number of offers per lifecycle state."""
        counts = {state: 0 for state in OFFER_STATES}
        for state in self._offer_states.values():
            counts[state] += 1
        return counts
