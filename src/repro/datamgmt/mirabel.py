"""The concrete MIRABEL LEDMS schema and its repositories (paper §3).

One unified schema serves every node role; prosumers simply leave the market
tables empty ("prosumers nodes do not make use of market area data").
Dimensions: time, market area (snowflake parent of actor), actor, energy
type, flex-offer state.  Facts: energy measurements, forecasts, flex-offer
lifecycle events and prices.

:class:`LedmsStore` wraps the schema with the operations the other LEDMS
components actually use — recording measurements and reading them back as
:class:`~repro.core.timeseries.TimeSeries`, tracking flex-offer state, and
persisting forecast-model parameters.  For a flex-offer it keeps the
lifecycle facts and a map from offer id to latest state, not the offer
object: the live offers are held once per node, by the runtime service.

Every write ends in the fact tables' column buffers.  A series (measurements,
a forecast, a market's prices) already *is* a column and goes in through one
``extend_facts`` call.  Lifecycle transitions have two entry points, one per
shape of traffic, each the cheaper for its shape
(``benchmarks/bench_store_events.py`` times both).  A flush, a sweep or a
plan commitment moves many offers into one state at once
(:meth:`LedmsStore.record_offer_events`): each fact's actor is its offer's
owner, so the seven fact columns are built straight from the offers — no
tuple per fact and no method call per fact — and written with one
``extend_facts``.  Admission records ``submitted`` and
``accepted``/``rejected`` one offer at a time, and so does a withdrawal
(:meth:`LedmsStore.record_offer_event`), where a column-wise call would
pay its fixed cost per fact (about ten times a one-row fact).  A one-row
fact is held back as its three dimension keys and the offer itself, and
the store's next fact write or fact-table read builds the four value
columns from the held offers and writes all seven as one ``extend_facts``
batch.  Its checks still run when it is recorded: an exact-type guard
vouches for a :class:`~repro.core.flexoffer.FlexOffer`'s values, and
anything else pays the per-cell check there, which promotes or raises
exactly as a written-through row would.  The per-offer state advances, and
subscribers fire, as each fact is recorded, so the fact rows, their order
and the state transitions are those a write-through store would leave.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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

#: Held-back one-row lifecycle facts are written at the latest once this
#: many accumulate: a stream that is never flushed or read (every offer
#: rejected, say) keeps its facts in the fact table's machine-typed column
#: buffers, not as held offers.
_MAX_PENDING_FACTS = 4096


class _CheckedFact(NamedTuple):
    """An offer's four fact values as the per-cell check returned them,
    held back in place of an offer the type guard could not vouch for."""

    offer_id: int
    total_min_energy: float
    total_max_energy: float
    time_flexibility: int


def _no_pending_facts() -> tuple[list, list, list, list]:
    """Empty held-back columns: time ids, actor ids, state ids, offers."""
    return ([], [], [], [])


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
    """Component-facing facade over the MIRABEL schema.

    For flex-offers the store keeps lifecycle facts and the latest state
    per offer id, never the offer objects: the node's one book of live
    offers is the runtime service's.
    """

    def __init__(self, axis: TimeAxis):
        self.axis = axis
        self._schema = build_mirabel_schema()
        self._schema.insert_dimension_row(
            "market_area", {"market_area_id": 1, "name": "EU", "country": "EU"}
        )
        for state_id, state in enumerate(OFFER_STATES):
            self._schema.insert_dimension_row(
                "offer_state", {"offer_state_id": state_id, "name": state}
            )
        self._offer_events = self._schema.facts["flexoffer_event"]
        self._state_ids = {state: i for i, state in enumerate(OFFER_STATES)}
        self._actor_ids: dict[str, int] = {}
        self._energy_type_ids: dict[str, int] = {}
        # Live view of the time dimension's keys: which slices have a row.
        self._time_keys = self._schema.dimensions["time"].keys()
        self._offer_states: dict[int, str] = {}
        self._subscribers: list = []
        # One-row lifecycle facts not yet in the fact table, in call order:
        # their three dimension keys and the offer (or its checked values).
        self._pending_facts = _no_pending_facts()

    @property
    def schema(self) -> StarSchema:
        """The underlying schema, with every held-back fact written."""
        self.flush()
        return self._schema

    def flush(self) -> None:
        """Write the lifecycle facts :meth:`record_offer_event` held back,
        as one column-wise batch in call order.

        The three key columns are held as they will be written; the four
        value columns are read off the held offers here.
        """
        time_ids, actor_ids, state_ids, offers = self._pending_facts
        if not time_ids:
            return
        self._pending_facts = _no_pending_facts()
        self._schema.extend_facts(
            "flexoffer_event",
            (
                time_ids,
                actor_ids,
                state_ids,
                [offer.offer_id for offer in offers],
                [offer.total_min_energy for offer in offers],
                [offer.total_max_energy for offer in offers],
                [offer.time_flexibility for offer in offers],
            ),
        )

    # ------------------------------------------------------------------
    # dimension management
    # ------------------------------------------------------------------
    def register_actor(self, name: str, role: str) -> int:
        """Register an actor (prosumer/BRP/TSO); idempotent by name."""
        if name in self._actor_ids:
            return self._actor_ids[name]
        actor_id = len(self._actor_ids) + 1
        self._schema.insert_dimension_row(
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
        self._schema.insert_dimension_row(
            "energy_type",
            {"energy_type_id": type_id, "name": name, "renewable": renewable},
        )
        self._energy_type_ids[name] = type_id
        return type_id

    def _time_id(self, slice_index: int) -> int:
        if slice_index not in self._time_keys:
            self._schema.insert_dimension_row(
                "time",
                {
                    "time_id": slice_index,
                    "hour": self.axis.hour_of_day(slice_index),
                    "day": self.axis.day_index(slice_index),
                    "day_of_week": self.axis.day_of_week(slice_index),
                },
            )
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
        self.flush()
        actor_id = self._actor_id(actor)
        type_id = self._energy_type_id(energy_type)
        count = len(series)
        return self._schema.extend_facts(
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
        self.flush()
        actor_id = self._actor_id(actor)
        type_id = self._energy_type_id(energy_type)
        count = len(series)
        return self._schema.extend_facts(
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
        self.flush()
        self._schema.extend_facts(
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
        """Record one lifecycle transition for a flex-offer.

        The fact is checked here — unknown state, unknown actor or a bad
        value type raises from this call — and its time dimension row is
        inserted here.  A :class:`FlexOffer` is held back as is when an
        exact-type test on the sources of its four fact values passes: an
        int id, int start bounds (so an int time flexibility) and float
        energy totals on its profile.  Any other offer takes the per-cell
        check (:meth:`Table.checked_row`), which promotes (an int energy
        bound) or raises here exactly as a written-through row would, and
        its checked values are held instead.  The per-offer state advances
        and the subscribers are called right away.  :meth:`flush` builds
        the fact columns from the held offers and writes them as one batch
        before the store's next fact write, before any fact-table read
        (:attr:`schema`, :meth:`measurements`, :meth:`prices`) and at the
        latest once :data:`_MAX_PENDING_FACTS` accumulate, so no caller —
        a subscriber reading :attr:`schema` included — can observe the
        delay.  Holding references in lists, not a tuple per fact, leaves
        the cyclic collector nothing to count until the batch is written.
        """
        state_id = self._state_ids.get(state)
        if state_id is None:
            raise DataManagementError(f"unknown offer state {state!r}")
        if now not in self._time_keys:
            self._time_id(now)
        actor_id = self._actor_ids.get(actor)
        if actor_id is None:
            actor_id = self._actor_id(actor)  # raises
        fact = offer
        if not (
            type(offer) is FlexOffer
            and type(now) is int
            and type(offer.offer_id) is int
            and type(offer.earliest_start) is int
            and type(offer.latest_start) is int
            and type(offer.profile.total_min_energy) is float
            and type(offer.profile.total_max_energy) is float
        ):
            row = self._offer_events.checked_row(
                (
                    now,
                    actor_id,
                    state_id,
                    offer.offer_id,
                    offer.total_min_energy,
                    offer.total_max_energy,
                    offer.time_flexibility,
                )
            )
            fact = _CheckedFact(*row[3:])
        time_ids, actor_ids, state_ids, offers = self._pending_facts
        time_ids.append(now)
        actor_ids.append(actor_id)
        state_ids.append(state_id)
        offers.append(fact)
        if len(time_ids) >= _MAX_PENDING_FACTS:
            self.flush()
        self._transition(offer.offer_id, state, now)

    def record_offer_events(
        self, offers: Sequence[FlexOffer], state: str, now: int
    ) -> None:
        """Record that every offer in ``offers`` entered ``state`` at ``now``.

        The actor of each fact is the offer's ``owner``, which must be
        registered.  The seven fact columns are built straight from the
        offers and stored as one batch, all or nothing: an unknown state or
        actor, or a value of the wrong type, raises and records nothing.
        The per-offer state then advances in the order given (a later fact
        for the same id wins), with one ``dict.update`` while no
        subscriber is attached; with one, each fact advances the state and
        notifies in turn, so a callback reading the store mid-batch sees
        what the same facts recorded one by one through
        :meth:`record_offer_event` show.
        """
        if not offers:
            return
        self.flush()
        state_id = self._state_ids.get(state)
        if state_id is None:
            raise DataManagementError(f"unknown offer state {state!r}")
        time_id = self._time_id(now)
        actor_ids = self._actor_ids
        try:
            actors = [actor_ids[offer.owner] for offer in offers]
        except KeyError as unknown:
            raise DataManagementError(
                f"unknown actor {unknown.args[0]!r}; register it first"
            ) from None
        count = len(offers)
        offer_ids = [offer.offer_id for offer in offers]
        self._schema.extend_facts(
            "flexoffer_event",
            (
                [time_id] * count,
                actors,
                [state_id] * count,
                offer_ids,
                [offer.total_min_energy for offer in offers],
                [offer.total_max_energy for offer in offers],
                [offer.time_flexibility for offer in offers],
            ),
        )
        if self._subscribers:
            for offer_id in offer_ids:
                self._transition(offer_id, state, now)
            return
        self._offer_states.update(dict.fromkeys(offer_ids, state))

    def _transition(self, offer_id: int, state: str, now: int) -> None:
        """Advance the per-offer state for one recorded fact; notify."""
        self._offer_states[offer_id] = state
        for callback in self._subscribers:
            callback(offer_id, state, now)

    def subscribe(self, callback) -> None:
        """Register ``callback(offer_id, state, now)`` for lifecycle events.

        Callbacks fire synchronously after each recorded transition — the
        facade's ``on_offer_state_change`` hook attaches here.  A callback
        fires when :meth:`record_offer_event` records the fact, even while
        the fact's row is still held back from the fact table; reading
        :attr:`schema` from the callback writes it first.
        """
        self._subscribers.append(callback)

    def offer_state(self, offer_id: int) -> str | None:
        """Latest recorded state of an offer (None if never seen)."""
        return self._offer_states.get(offer_id)

    def offers_in_state(self, state: str) -> list[int]:
        """Offer ids currently in ``state``."""
        return [oid for oid, s in self._offer_states.items() if s == state]

    def state_counts(self) -> dict[str, int]:
        """Current number of offers per lifecycle state."""
        counts = {state: 0 for state in OFFER_STATES}
        for state in self._offer_states.values():
            counts[state] += 1
        return counts
