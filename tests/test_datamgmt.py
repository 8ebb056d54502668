"""Tests for the typed tables, the star/snowflake schema and the LEDMS store."""

import sys
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TimeSeries, flex_offer
from repro.core.errors import DataManagementError
from repro.core.timebase import TimeAxis
from repro.datamgmt import (
    Column,
    DimensionTable,
    FactTable,
    OFFER_STATES,
    LedmsStore,
    StarSchema,
    Table,
    build_mirabel_schema,
)


class TestColumn:
    def test_type_validation(self):
        column = Column("x", "int")
        assert column.validate(5) == 5
        with pytest.raises(DataManagementError):
            column.validate("five")

    def test_bool_is_not_int_or_float(self):
        with pytest.raises(DataManagementError):
            Column("x", "int").validate(True)
        with pytest.raises(DataManagementError):
            Column("x", "float").validate(False)

    def test_int_promotes_to_float(self):
        assert Column("x", "float").validate(3) == 3.0

    def test_nullable(self):
        assert Column("x", "int", nullable=True).validate(None) is None
        with pytest.raises(DataManagementError):
            Column("x", "int").validate(None)

    def test_unknown_dtype(self):
        with pytest.raises(DataManagementError):
            Column("x", "decimal")


class TestTable:
    def _table(self):
        return Table(
            "t",
            [Column("id", "int"), Column("name", "str"), Column("v", "float")],
            primary_key="id",
        )

    def test_insert_and_get(self):
        table = self._table()
        table.insert({"id": 1, "name": "a", "v": 2.0})
        assert table.get(1)["name"] == "a"
        assert table.get(2) is None
        assert len(table) == 1

    def test_duplicate_primary_key(self):
        table = self._table()
        table.insert({"id": 1, "name": "a", "v": 1.0})
        with pytest.raises(DataManagementError):
            table.insert({"id": 1, "name": "b", "v": 2.0})

    def test_unknown_column_rejected(self):
        with pytest.raises(DataManagementError):
            self._table().insert({"id": 1, "name": "a", "v": 1.0, "zzz": 9})

    def test_select_with_equality_and_predicate(self):
        table = self._table()
        table.insert_many(
            {"id": i, "name": "a" if i % 2 else "b", "v": float(i)}
            for i in range(6)
        )
        rows = table.select(lambda r: r["v"] >= 3, name="a")
        assert [r["id"] for r in rows] == [3, 5]

    def test_select_unknown_filter_column(self):
        with pytest.raises(DataManagementError):
            self._table().select(bogus=1)

    def test_aggregate(self):
        table = self._table()
        table.insert_many(
            {"id": i, "name": "a" if i % 2 else "b", "v": float(i)}
            for i in range(6)
        )
        result = table.aggregate(
            ["name"], {"total": ("v", "sum"), "n": ("v", "count")}
        )
        assert result[("a",)] == {"total": 1 + 3 + 5, "n": 3}
        assert result[("b",)] == {"total": 0 + 2 + 4, "n": 3}

    def test_aggregate_unknown_aggregate(self):
        with pytest.raises(DataManagementError):
            self._table().aggregate(["name"], {"x": ("v", "median")})

    def test_project(self):
        table = self._table()
        table.insert({"id": 1, "name": "a", "v": 2.0})
        assert table.project(table.select(), ["name", "v"]) == [("a", 2.0)]


class TestStarSchema:
    def _schema(self):
        schema = StarSchema("s")
        schema.add_dimension(
            DimensionTable(
                "region",
                [Column("region_id", "int"), Column("name", "str")],
                primary_key="region_id",
            )
        )
        schema.add_dimension(
            DimensionTable(
                "site",
                [Column("site_id", "int"), Column("name", "str"),
                 Column("region_id", "int")],
                primary_key="site_id",
                parent="region",
            )
        )
        schema.add_fact(
            FactTable("reading", ["site"], [Column("value", "float")])
        )
        return schema

    def test_snowflake_requires_parent_column(self):
        with pytest.raises(DataManagementError):
            DimensionTable(
                "bad",
                [Column("bad_id", "int")],
                primary_key="bad_id",
                parent="region",
            )

    def test_referential_integrity_on_dimension(self):
        schema = self._schema()
        with pytest.raises(DataManagementError):
            schema.insert_dimension_row(
                "site", {"site_id": 1, "name": "x", "region_id": 99}
            )

    def test_referential_integrity_on_fact(self):
        schema = self._schema()
        with pytest.raises(DataManagementError):
            schema.insert_fact("reading", {"site_id": 1, "value": 2.0})

    def test_join_expands_snowflake_transitively(self):
        schema = self._schema()
        schema.insert_dimension_row("region", {"region_id": 1, "name": "dk"})
        schema.insert_dimension_row(
            "site", {"site_id": 7, "name": "aalborg", "region_id": 1}
        )
        schema.insert_fact("reading", {"site_id": 7, "value": 3.5})
        rows = schema.join_facts("reading")
        assert rows[0]["site.name"] == "aalborg"
        assert rows[0]["region.name"] == "dk"
        assert rows[0]["value"] == 3.5

    def test_fact_requires_known_dimension(self):
        schema = StarSchema("s")
        with pytest.raises(DataManagementError):
            schema.add_fact(FactTable("f", ["ghost"], [Column("v", "float")]))

    def test_duplicate_table_names(self):
        schema = self._schema()
        with pytest.raises(DataManagementError):
            schema.add_dimension(
                DimensionTable(
                    "region",
                    [Column("region_id", "int")],
                    primary_key="region_id",
                )
            )


class TestLedmsStore:
    def _store(self):
        return LedmsStore(TimeAxis(15))

    def test_mirabel_schema_tables(self):
        schema = build_mirabel_schema()
        assert set(schema.dimensions) == {
            "market_area", "actor", "time", "energy_type", "offer_state",
        }
        assert set(schema.facts) == {
            "measurement", "forecast", "flexoffer_event", "price",
        }

    def test_measurement_round_trip(self):
        store = self._store()
        store.register_actor("brp-1", "brp")
        store.register_energy_type("wind", renewable=True)
        series = TimeSeries(10, [1.0, 2.0, 3.0])
        assert store.record_measurements("brp-1", "wind", series) == 3
        read = store.measurements("brp-1", "wind", 10, 13)
        assert read == series

    def test_measurements_dense_with_gaps(self):
        store = self._store()
        store.register_actor("a", "prosumer")
        store.register_energy_type("load", renewable=False)
        store.record_measurements("a", "load", TimeSeries(5, [1.0]))
        read = store.measurements("a", "load", 4, 8)
        assert list(read.values) == [0.0, 1.0, 0.0, 0.0]

    def test_unknown_actor_rejected(self):
        store = self._store()
        store.register_energy_type("load", renewable=False)
        with pytest.raises(DataManagementError):
            store.record_measurements("ghost", "load", TimeSeries(0, [1.0]))

    def test_actor_registration_idempotent(self):
        store = self._store()
        a = store.register_actor("x", "prosumer")
        b = store.register_actor("x", "prosumer")
        assert a == b

    def test_offer_lifecycle(self):
        store = self._store()
        store.register_actor("p", "prosumer")
        offer = flex_offer([(1, 2)], earliest_start=5, latest_start=9)
        store.record_offer_event("p", offer, "submitted", now=0)
        store.record_offer_event("p", offer, "scheduled", now=2)
        assert store.offer_state(offer.offer_id) == "scheduled"
        assert store.offers_in_state("scheduled") == [offer.offer_id]
        assert store.state_counts()["scheduled"] == 1

    def test_unknown_offer_state_rejected(self):
        store = self._store()
        store.register_actor("p", "prosumer")
        offer = flex_offer([(1, 2)], earliest_start=5, latest_start=9)
        with pytest.raises(DataManagementError):
            store.record_offer_event("p", offer, "vanished", now=0)

    def test_forecast_recording(self):
        store = self._store()
        store.register_actor("brp", "brp")
        store.register_energy_type("net", renewable=False)
        n = store.record_forecast("brp", "net", 96, TimeSeries(0, [5.0, 6.0]))
        assert n == 2
        rows = store.schema.facts["forecast"].select(horizon=96)
        assert len(rows) == 2


class TestPriceFacts:
    def test_record_and_read_prices(self):
        from repro.scheduling import Market

        store = LedmsStore(TimeAxis(15))
        store.register_actor("brp", "brp")
        market = Market.flat(4, buy_price=0.2, sell_price=0.05)
        assert store.record_prices("brp", market) == 4
        prices = store.prices("brp", 1, 3)
        assert prices == [(1, 0.2, 0.05), (2, 0.2, 0.05)]

    def test_rejects_non_market_object(self):
        store = LedmsStore(TimeAxis(15))
        store.register_actor("brp", "brp")
        with pytest.raises(DataManagementError):
            store.record_prices("brp", object())


class TestColumnBuffers:
    def _table(self):
        return Table(
            "t",
            [
                Column("id", "int"),
                Column("v", "float"),
                Column("name", "str"),
                Column("n", "int", nullable=True),
                Column("last", "int"),
            ],
            primary_key="id",
        )

    def _lengths(self, table):
        return [len(table.column(name)) for name in table.columns]

    def test_buffer_per_column(self):
        table = self._table()
        assert [type(table.column(name)) for name in table.columns] == [
            array, array, list, list, array,
        ]
        assert table.column("id").typecode == "q"
        assert table.column("v").typecode == "d"
        with pytest.raises(DataManagementError):
            table.column("zzz")

    def test_append_fast_and_validated_paths_store_the_same(self):
        table = self._table()
        table.append(1, 2.0, "a", 3, 4)  # exact stored types
        table.append(2, 2, "a", None, 4)  # int for float, None for nullable
        assert table.get(1) == {"id": 1, "v": 2.0, "name": "a", "n": 3, "last": 4}
        assert table.get(2) == {"id": 2, "v": 2.0, "name": "a", "n": None, "last": 4}
        assert type(table.get(2)["v"]) is float
        for bad in (
            (True, 2.0, "a", 3, 4),  # bool is not an int
            (3, False, "a", 3, 4),  # bool is not a float
            (3, 2.0, None, 3, 4),  # not nullable
            (3, 2.0, "a", 3),  # too few values
            (3, 2.0, "a", 3, 4, 5),  # too many
            (1, 2.0, "a", 3, 4),  # duplicate key
            (None, 2.0, "a", 3, 4),
        ):
            with pytest.raises(DataManagementError):
                table.append(*bad)
        assert len(table) == 2

    def test_select_returns_fresh_rows(self):
        table = self._table()
        table.append(1, 2.0, "a", 3, 4)
        table.select()[0]["name"] = "edited"
        assert table.get(1)["name"] == "a"

    def test_overflow_is_a_validation_error_and_leaves_no_partial_row(self):
        table = self._table()
        table.append(1, 1.0, "a", 1, 1)
        with pytest.raises(DataManagementError, match="last"):
            table.append(2, 2.0, "b", 2, 2**63)
        assert len(table) == 1 and self._lengths(table) == [1] * 5
        with pytest.raises(DataManagementError, match="last"):
            table.extend([[2, 3], [2.0, 3.0], ["b", "c"], [2, 3], [5, -(2**63) - 1]])
        assert len(table) == 1 and self._lengths(table) == [1] * 5
        # The key of the rejected rows was never indexed.
        table.append(2, 2.0, "b", 2, 2**63 - 1)
        assert table.get(2)["last"] == 2**63 - 1 and table.get(3) is None

    def test_extend_is_all_or_nothing(self):
        table = self._table()
        table.append(1, 1.0, "a", 1, 1)
        for bad in (
            [[2, 3], [2.0, 3.0], ["b", "c"], [2, 3]],  # a column missing
            [[2, 3], [2.0], ["b", "c"], [2, 3], [2, 3]],  # ragged
            [[2, 3], [2.0, 3.0], ["b", 7], [2, 3], [2, 3]],  # wrong type
            [[2, 1], [2.0, 3.0], ["b", "c"], [2, 3], [2, 3]],  # stored key
            [[2, 2], [2.0, 3.0], ["b", "c"], [2, 3], [2, 3]],  # key twice
        ):
            with pytest.raises(DataManagementError):
                table.extend(bad)
            assert len(table) == 1 and self._lengths(table) == [1] * 5
        assert table.extend([[2, 3], [2, 3.0], ["b", "c"], [None, 3], [2, 3]]) == 2
        assert table.get(2) == {"id": 2, "v": 2.0, "name": "b", "n": None, "last": 2}
        assert table.extend([[], [], [], [], []]) == 0

    def test_event_fact_row_fits_64_bytes(self):
        store = LedmsStore(TimeAxis(15))
        store.register_actor("p", "prosumer")
        offer = flex_offer([(1.0, 2.0)], earliest_start=5, latest_start=9,
                           owner="p")
        rows = 10_000
        store.record_offer_events([offer] * rows, "accepted", now=0)
        facts = store.schema.facts["flexoffer_event"]
        held = sum(sys.getsizeof(facts.column(name)) for name in facts.columns)
        assert len(facts) == rows
        assert held / rows <= 64


# ----------------------------------------------------------------------
# equivalence against the row-dict design the column store replaced
# ----------------------------------------------------------------------
class RowDictTable:
    """Oracle: the previous storage — one validated dict per row, checked
    cell by cell, foreign keys resolved by fetching the parent row."""

    def __init__(self, columns, primary_key=None, parents=()):
        self.columns, self.primary_key, self.parents = columns, primary_key, parents
        self.rows = []

    def _checked(self, row, staged=()):
        if set(row) - {c.name for c in self.columns}:
            raise DataManagementError("unknown columns")
        for column, parent in self.parents:
            if parent.get(row.get(column)) is None:
                raise DataManagementError("dangling reference")
        stored = {c.name: c.validate(row.get(c.name)) for c in self.columns}
        if self.primary_key is not None:
            key = stored[self.primary_key]
            taken = [r[self.primary_key] for r in (*self.rows, *staged)]
            if key is None or key in taken:
                raise DataManagementError("bad primary key")
        return stored

    def insert(self, row):
        self.rows.append(self._checked(row))

    def append(self, *values):
        if len(values) != len(self.columns):
            raise DataManagementError("arity")
        self.insert(dict(zip((c.name for c in self.columns), values)))

    def extend(self, columns):
        if len(columns) != len(self.columns) or len({len(c) for c in columns}) > 1:
            raise DataManagementError("shape")
        staged = []
        for values in zip(*columns):
            row = dict(zip((c.name for c in self.columns), values))
            staged.append(self._checked(row, staged))
        self.rows.extend(staged)

    def get(self, key):
        return next((r for r in self.rows if r[self.primary_key] == key), None)

    def select(self, **equals):
        return [r for r in self.rows if all(r[c] == v for c, v in equals.items())]


_SITE_COLUMNS = [Column("site_id", "int"), Column("name", "str"),
                 Column("area", "float", nullable=True)]
_READING_MEASURES = [Column("n", "int"), Column("value", "float"),
                     Column("tag", "str", nullable=True), Column("ok", "bool")]

_any_cell = st.one_of(
    st.integers(0, 4), st.floats(-2, 2, width=16), st.booleans(), st.none(),
    st.sampled_from(["a", "b"]),
)
_site_cells = [st.integers(0, 4), st.sampled_from(["a", "b"]),
               st.one_of(st.floats(-2, 2, width=16), st.integers(0, 2), st.none())]
_reading_cells = [st.integers(0, 4), st.integers(0, 4),
                  st.one_of(st.floats(-2, 2, width=16), st.integers(0, 2)),
                  st.one_of(st.sampled_from(["a", "b"]), st.none()),
                  st.booleans()]


@st.composite
def _rows(draw, cells):
    """One row of admissible cells; one in four has a cell of any type and
    one in eight the wrong arity."""
    values = [draw(cell) for cell in cells]
    flaw = draw(st.integers(0, 7))
    if flaw < 2:
        values[draw(st.integers(0, len(values) - 1))] = draw(_any_cell)
    elif flaw == 2:
        values.pop()
    return tuple(values)


@st.composite
def _columns(draw, cells):
    """A column-wise batch of 0-4 rows; one in four has a cell of any type
    and one in eight is ragged or lacks a column."""
    count = draw(st.integers(0, 4))
    columns = [draw(st.lists(cell, min_size=count, max_size=count)) for cell in cells]
    flaw = draw(st.integers(0, 7))
    if flaw < 2 and count:
        column = columns[draw(st.integers(0, len(columns) - 1))]
        column[draw(st.integers(0, count - 1))] = draw(_any_cell)
    elif flaw == 2:
        longer = draw(st.integers(0, len(columns) - 1))
        columns[longer].append(draw(cells[longer]))
    elif flaw == 3:
        columns.pop()
    return columns


_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert_site"), _rows(_site_cells)),
        st.tuples(st.just("append_site"), _rows(_site_cells)),
        st.tuples(st.just("extend_site"), _columns(_site_cells)),
        st.tuples(st.just("insert_reading"), _rows(_reading_cells)),
        st.tuples(st.just("append_reading"), _rows(_reading_cells)),
        st.tuples(st.just("extend_reading"), _columns(_reading_cells)),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(operations=_operations, extra=st.booleans())
def test_column_store_matches_row_dict_oracle(operations, extra):
    """Any sequence of by-name, positional and column-wise writes — valid
    rows, ``None``, ``bool``, int-for-float, wrong types, duplicate keys,
    dangling references, ragged batches — is accepted or rejected step by
    step exactly as the row-dict store did, and reads back the same."""
    schema = StarSchema("s")
    site = schema.add_dimension(
        DimensionTable("site", _SITE_COLUMNS, primary_key="site_id")
    )
    reading = schema.add_fact(FactTable("reading", ["site"], _READING_MEASURES))
    site_oracle = RowDictTable(_SITE_COLUMNS, primary_key="site_id")
    reading_oracle = RowDictTable(
        [Column("site_id", "int"), *_READING_MEASURES],
        parents=[("site_id", site_oracle)],
    )
    site_names = [c.name for c in site_oracle.columns]
    reading_names = [c.name for c in reading_oracle.columns]

    def by_name(names, values):
        row = dict(zip(names, values))
        if extra:
            row["zzz"] = 1
        return row

    writes = {
        "insert_site": (
            lambda v: schema.insert_dimension_row("site", by_name(site_names, v)),
            lambda v: site_oracle.insert(by_name(site_names, v)),
        ),
        "append_site": (lambda v: site.append(*v), lambda v: site_oracle.append(*v)),
        "extend_site": (site.extend, site_oracle.extend),
        "insert_reading": (
            lambda v: schema.insert_fact("reading", by_name(reading_names, v)),
            lambda v: reading_oracle.insert(by_name(reading_names, v)),
        ),
        "append_reading": (
            lambda v: schema.append_fact("reading", *v),
            lambda v: reading_oracle.append(*v),
        ),
        "extend_reading": (
            lambda v: schema.extend_facts("reading", v),
            reading_oracle.extend,
        ),
    }
    for step, (kind, payload) in enumerate(operations):
        outcomes = []
        for write in writes[kind]:
            try:
                write(payload)
                outcomes.append(None)
            except DataManagementError as error:
                outcomes.append(type(error))
        assert outcomes[0] == outcomes[1], (step, kind, payload)
        assert len(site) == len(site_oracle.rows)
        assert len(reading) == len(reading_oracle.rows)

    assert list(site) == site_oracle.rows
    assert list(reading) == reading_oracle.rows
    for key in range(5):
        assert site.get(key) == site_oracle.get(key)
        matching = reading_oracle.select(site_id=key)
        assert reading.select(site_id=key) == matching
        assert reading.select(lambda r: r["ok"], site_id=key, n=1) == [
            r for r in matching if r["ok"] and r["n"] == 1
        ]
        assert reading.project(reading.select(site_id=key), ["n", "tag"]) == [
            (r["n"], r["tag"]) for r in matching
        ]
        assert schema.join_facts("reading", site_id=key) == [
            {**r, **{f"site.{c}": v for c, v in site_oracle.get(key).items()}}
            for r in matching
        ]
    groups = {}
    for row in reading_oracle.rows:
        groups.setdefault((row["site_id"], row["ok"]), []).append(row["value"])
    assert reading.aggregate(
        ["site_id", "ok"], {"total": ("value", "sum"), "rows": ("n", "count")}
    ) == {
        key: {"total": sum(values), "rows": len(values)}
        for key, values in groups.items()
    }


class TestBatchedLifecycleFacts:
    #: ``(now, state, width)``: the first ``width`` offers, then the
    #: revision, enter ``state`` at ``now`` — retained states, terminal
    #: ones, and a retained state after a terminal one.
    BATCHES = ((0, "submitted", 6), (0, "accepted", 6), (1, "aggregated", 5),
               (3, "withdrawn", 2), (3, "scheduled", 4), (2, "executed", 3),
               (4, "rejected", 1), (4, "expired", 6))

    def _recorded(self, batched, subscribed=True):
        store = LedmsStore(TimeAxis(15))
        for actor in ("p", "q"):
            store.register_actor(actor, "prosumer")
        calls = []
        if subscribed:
            store.subscribe(lambda *args: calls.append(("first", *args)))
            store.subscribe(lambda *args: calls.append(("second", *args)))
        offers = [
            flex_offer([(1.0, 2.0 + i)], earliest_start=5, latest_start=9 + i,
                       offer_id=900 + i, owner="pq"[i % 2])
            for i in range(6)
        ]
        # Another object under the first offer's id, with another owner.
        revision = flex_offer([(0.5, 4.0)], earliest_start=6, latest_start=8,
                              offer_id=900, owner="q")
        for now, state, width in self.BATCHES:
            # With width > 0 the first offer's id is in the batch twice:
            # the later object wins.
            members = offers[:width] + [revision]
            if batched:
                store.record_offer_events(members, state, now)
            else:
                for offer in members:
                    store.record_offer_event(offer.owner, offer, state, now)
        return store, offers, calls

    def test_batch_equals_one_by_one(self):
        self._check_batch_equals_one_by_one(subscribed=True)

    def test_unsubscribed_batch_equals_one_by_one(self):
        self._check_batch_equals_one_by_one(subscribed=False)

    def _check_batch_equals_one_by_one(self, subscribed):
        single, offers, single_calls = self._recorded(False, subscribed)
        batch, _, batch_calls = self._recorded(True, subscribed)
        single_facts = single.schema.facts["flexoffer_event"]
        batch_facts = batch.schema.facts["flexoffer_event"]
        assert len(batch_facts) == 41
        for name in batch_facts.columns:
            assert batch_facts.column(name) == single_facts.column(name)
        assert list(batch._offer_states.items()) == list(
            single._offer_states.items()
        )
        for offer in offers:
            oid = offer.offer_id
            assert batch.offer_state(oid) == single.offer_state(oid)
        assert batch.state_counts() == single.state_counts()
        for state in batch.state_counts():
            assert batch.offers_in_state(state) == single.offers_in_state(state)
        assert batch_calls == single_calls
        assert len(batch_calls) == (82 if subscribed else 0)

    def test_rejected_batch_records_nothing(self):
        from types import SimpleNamespace

        store = LedmsStore(TimeAxis(15))
        store.register_actor("p", "prosumer")
        offer = flex_offer([(1, 2)], earliest_start=5, latest_start=9,
                           owner="p")
        ghost = flex_offer([(1, 2)], earliest_start=5, latest_start=9,
                           owner="ghost")
        odd = SimpleNamespace(offer_id=901, owner="p", total_min_energy=1.0,
                              total_max_energy=2.0, time_flexibility=1.5)
        calls = []
        store.subscribe(lambda *args: calls.append(args))
        for offers, state in (
            ([offer, offer], "vanished"),  # unknown state
            ([offer, ghost], "accepted"),  # unknown actor
            ([offer, odd], "accepted"),  # a float time flexibility
        ):
            with pytest.raises(DataManagementError):
                store.record_offer_events(offers, state, now=0)
        store.record_offer_events([], "accepted", now=0)
        store.record_offer_events([], "vanished", now=0)
        assert len(store.schema.facts["flexoffer_event"]) == 0
        assert store.offer_state(offer.offer_id) is None and not calls
        assert store.offer_state(901) is None


# ----------------------------------------------------------------------
# held-back admission facts
# ----------------------------------------------------------------------
_EVENT_COLUMNS = list(build_mirabel_schema().facts["flexoffer_event"].columns.values())


def _held(store):
    """Rows the store holds back (not yet in the fact table)."""
    return len(store._pending_facts[0])


def _written(store):
    return len(store._schema.facts["flexoffer_event"])


class TestHeldBackFacts:
    def _store(self):
        store = LedmsStore(TimeAxis(15))
        store.register_actor("p", "prosumer")
        store.register_energy_type("load", renewable=False)
        return store

    def _offer(self, offer_id=700):
        return flex_offer([(1.0, 2.0)], earliest_start=5, latest_start=9,
                          offer_id=offer_id, owner="p")

    def test_state_reads_see_held_back_facts(self):
        store = self._store()
        offer = self._offer()
        store.record_offer_event("p", offer, "submitted", now=0)
        store.record_offer_event("p", offer, "accepted", now=1)
        assert store.offer_state(700) == "accepted"
        assert store.offers_in_state("accepted") == [700]
        assert store.state_counts()["accepted"] == 1
        # The state map advances without writing the held-back rows.
        assert _held(store) == 2 and _written(store) == 0

    def test_one_row_fact_records_the_actor_given(self):
        # The one-row entry takes its actor from the caller, not from the
        # offer's owner: here q records p's offer.
        store = self._store()
        q_id = store.register_actor("q", "prosumer")
        store.record_offer_event("q", self._offer(), "submitted", now=0)
        facts = store.schema.facts["flexoffer_event"]
        assert list(facts.column("actor_id")) == [q_id]
        assert q_id != store.register_actor("p", "prosumer")

    @pytest.mark.parametrize("read", [
        lambda s: s.measurements("p", "load", 0, 4),
        lambda s: s.prices("p", 0, 4),
        lambda s: s.schema,
    ], ids=["measurements", "prices", "schema"])
    def test_fact_table_reads_write_held_back_facts(self, read):
        store = self._store()
        offer = self._offer()
        store.record_offer_event("p", offer, "submitted", now=0)
        store.record_offer_event("p", offer, "accepted", now=1)
        assert _held(store) == 2 and _written(store) == 0
        read(store)
        assert _held(store) == 0 and _written(store) == 2
        assert list(
            store._schema.facts["flexoffer_event"].column("offer_state_id")
        ) == [OFFER_STATES.index("submitted"), OFFER_STATES.index("accepted")]

    def test_subscriber_reading_the_schema_sees_its_fact(self):
        store = self._store()
        seen = []
        store.subscribe(lambda *args: seen.append(
            len(store.schema.facts["flexoffer_event"])
        ))
        store.record_offer_event("p", self._offer(), "submitted", now=0)
        store.record_offer_event("p", self._offer(), "accepted", now=0)
        assert seen == [1, 2]

    @pytest.mark.parametrize("write", [
        lambda s, o: s.record_offer_events([o], "aggregated", 2),
        lambda s, o: s.record_measurements("p", "load", TimeSeries(0, [1.0])),
        lambda s, o: s.record_forecast("p", "load", 4, TimeSeries(0, [1.0])),
    ], ids=["record_offer_events", "record_measurements", "record_forecast"])
    def test_other_writes_go_after_held_back_facts(self, write):
        store = self._store()
        offer = self._offer()
        store.record_offer_event("p", offer, "accepted", now=1)
        write(store, offer)
        assert _held(store) == 0
        assert store._schema.facts["flexoffer_event"].column("time_id")[0] == 1

    def test_bad_facts_raise_where_they_are_recorded(self):
        from types import SimpleNamespace

        store = self._store()
        with pytest.raises(DataManagementError):
            store.record_offer_event("p", self._offer(), "vanished", now=0)
        with pytest.raises(DataManagementError):
            store.record_offer_event("ghost", self._offer(), "accepted", now=0)
        odd = SimpleNamespace(offer_id=701, total_min_energy="1",
                              total_max_energy=2.0, time_flexibility=4)
        with pytest.raises(DataManagementError):
            store.record_offer_event("p", odd, "accepted", now=3)
        assert _held(store) == 0
        # The time dimension row is inserted when the fact is recorded.
        assert [row["time_id"] for row in store.schema.dimensions["time"]] == [0, 3]

    def test_guard_sends_odd_flex_offers_through_the_per_cell_check(self):
        store = self._store()
        store.record_offer_event("p", self._offer(), "submitted", now=1)
        odd_id = flex_offer([(1.0, 2.0)], earliest_start=5, latest_start=9,
                            offer_id=np.int64(702))
        with pytest.raises(DataManagementError):
            store.record_offer_event("p", odd_id, "submitted", now=1)
        # Slice 1's time row exists, so only the guard sees the float.
        with pytest.raises(DataManagementError):
            store.record_offer_event("p", self._offer(701), "submitted", now=1.0)
        assert _held(store) == 1
        assert store.offer_state(701) is None and store.offer_state(702) is None

    def test_held_values_are_those_of_the_call(self):
        from types import SimpleNamespace

        store = self._store()
        duck = SimpleNamespace(offer_id=703, total_min_energy=1,
                               total_max_energy=2.0, time_flexibility=4)
        store.record_offer_event("p", duck, "submitted", now=0)
        duck.total_min_energy, duck.time_flexibility = 1.5, 3
        facts = store.schema.facts["flexoffer_event"]
        assert list(facts.column("energy_min_kwh")) == [1.0]
        assert list(facts.column("time_flexibility")) == [4]

    def test_subscriber_mid_buffer_sees_later_events_once(self):
        store = self._store()
        first, second = self._offer(700), self._offer(701)
        store.record_offer_event("p", first, "submitted", now=0)
        store.record_offer_event("p", first, "accepted", now=0)
        calls = []
        store.subscribe(lambda *args: calls.append(args))
        store.record_offer_event("p", second, "submitted", now=1)
        store.record_offer_event("p", second, "rejected", now=1)
        assert _held(store) == 4  # a subscriber does not stop holding back
        store.record_offer_events([first], "aggregated", now=2)
        store.flush()
        assert calls == [(701, "submitted", 1), (701, "rejected", 1),
                         (700, "aggregated", 2)]
        assert _written(store) == 5

    def test_held_back_facts_are_capped(self, monkeypatch):
        from repro.datamgmt import mirabel

        monkeypatch.setattr(mirabel, "_MAX_PENDING_FACTS", 3)
        store = self._store()
        for now in range(7):
            store.record_offer_event("p", self._offer(), "submitted", now=now)
        assert (_written(store), _held(store)) == (6, 1)

    def test_nothing_held_back_after_any_ingest_flush(self):
        from repro.runtime import (
            BrpRuntimeService,
            IngestConfig,
            LoadGenerator,
            ServiceConfig,
        )

        service = BrpRuntimeService(
            ServiceConfig(ingest=IngestConfig(batch_size=8))
        )
        flush = service.ingest.flush
        held_after = []

        def checked_flush(now):
            updates = flush(now)
            held_after.append(_held(service.store))
            return updates

        service.ingest.flush = checked_flush
        generator = LoadGenerator(rate_per_hour=60.0, seed=4)
        service.run_stream(generator.stream(0.0, 24.0), 24.0)
        assert len(held_after) > 10 and not any(held_after)
        # A flush with only deletes queued still drains the held-back
        # withdrawal (a one-offer retirement) and the rejection.
        ingest = service.ingest
        live = service.live_offer(service.live_offer_ids()[0])
        ingest.retire([live], now=30, state="withdrawn")
        ingest.submit(flex_offer([(1.0, 2.0)], earliest_start=1,
                                 latest_start=2), now=30)
        assert _held(service.store) == 3
        ingest.flush(now=30)
        assert _held(service.store) == 0


_ACTORS = ("p", "q", "r", "ghost")
_LIFECYCLE = ("submitted", "accepted", "rejected", "aggregated", "scheduled",
              "executed", "expired", "withdrawn", "vanished")
#: ``(owner, offer index)``: which of :func:`_store_offers`' objects.
_member = st.tuples(st.sampled_from(_ACTORS), st.integers(0, 4))
#: ``(actor, owner, offer index, state)``: a one-row fact's actor is drawn
#: apart from its offer's owner, since the one-row entry records the actor
#: it is given.
_event = st.tuples(st.sampled_from(_ACTORS), st.sampled_from(_ACTORS),
                   st.integers(0, 4), st.sampled_from(_LIFECYCLE))
_STORE_READS = {
    "offer_state": lambda store: store.offer_state(800),
    "offers_in_state": lambda store: store.offers_in_state("accepted"),
    "state_counts": lambda store: store.state_counts(),
    "schema": lambda store: len(store.schema.facts["flexoffer_event"]),
}
_store_operations = st.lists(
    st.one_of(
        st.tuples(st.just("one"), _event, st.integers(0, 5)),
        st.tuples(st.just("batch"),
                  st.tuples(st.lists(_member, max_size=4),
                            st.sampled_from(_LIFECYCLE)),
                  st.integers(0, 5)),
        st.tuples(st.just("register"), st.just("r")),
        st.tuples(st.just("subscribe"), st.none()),
        st.tuples(st.just("read"), st.sampled_from(sorted(_STORE_READS))),
    ),
    max_size=40,
)


def _store_offers():
    """Five offers per actor, owned by it and sharing ids 800-804 across
    actors; the last has an int bound (promoted) and the one before it a
    float time flexibility (rejected by the fact table)."""
    from types import SimpleNamespace

    offers = {}
    for actor in _ACTORS:
        owned = [
            flex_offer([(1.0, 2.0 + i)], earliest_start=5, latest_start=7 + i,
                       offer_id=800 + i, owner=actor)
            for i in range(3)
        ]
        owned.append(SimpleNamespace(offer_id=803, owner=actor,
                                     total_min_energy=1.0, total_max_energy=2.0,
                                     time_flexibility=1.5))
        owned.append(SimpleNamespace(offer_id=804, owner=actor,
                                     total_min_energy=1, total_max_energy=2.0,
                                     time_flexibility=2))
        offers[actor] = owned
    return offers


@settings(max_examples=200, deadline=None)
@given(operations=_store_operations)
def test_held_back_facts_match_write_through(operations):
    """Any mix of one-row and batched lifecycle writes, reads, registrations
    and late subscriptions leaves a store that holds one-row facts back with
    the same fact rows, dimension rows, state map and subscriber calls as
    one that writes each of those facts through — as a one-offer
    :meth:`~LedmsStore.record_offer_events` batch when its actor is its
    offer's owner, else as a one-row fact written out at once — and the
    rows the row-dict oracle stores for the same successful writes, whose
    actor is the one each write was given."""
    held, through = LedmsStore(TimeAxis(15)), LedmsStore(TimeAxis(15))
    oracle = RowDictTable(_EVENT_COLUMNS)
    state_ids = {state: i for i, state in enumerate(_LIFECYCLE[:-1])}
    for store in (held, through):
        for actor in ("p", "q"):
            store.register_actor(actor, "prosumer")
    actor_ids = {"p": 1, "q": 2}
    offers = _store_offers()
    calls = {id(held): [], id(through): []}

    def row(actor, offer, state, now):
        return (now, actor_ids[actor], state_ids[state], offer.offer_id,
                offer.total_min_energy, offer.total_max_energy,
                offer.time_flexibility)

    for step, (kind, payload, *rest) in enumerate(operations):
        outcomes = []
        for store in (held, through):
            result = None
            try:
                if kind == "one":
                    actor, owner, index, state = payload
                    offer = offers[owner][index]
                    if store is through and actor == owner:
                        store.record_offer_events([offer], state, rest[0])
                    else:
                        store.record_offer_event(actor, offer, state, rest[0])
                        if store is through:
                            store.flush()
                elif kind == "batch":
                    members, state = payload
                    store.record_offer_events(
                        [offers[a][i] for a, i in members], state, rest[0]
                    )
                elif kind == "register":
                    store.register_actor(payload, "prosumer")
                elif kind == "subscribe":
                    store.subscribe(
                        lambda *args, log=calls[id(store)]: log.append(args)
                    )
                else:
                    result = _STORE_READS[payload](store)
                outcomes.append(("ok", result))
            except DataManagementError as error:
                outcomes.append(("raised", type(error)))
        assert outcomes[0] == outcomes[1], (step, kind, payload)
        if outcomes[1][0] == "raised":
            continue
        if kind == "register":
            actor_ids.setdefault(payload, len(actor_ids) + 1)
        elif kind == "one":
            actor, owner, index, state = payload
            oracle.append(*row(actor, offers[owner][index], state, rest[0]))
        elif kind == "batch" and payload[0]:
            members, state = payload
            oracle.extend(list(zip(*(
                row(a, offers[a][i], state, rest[0]) for a, i in members
            ))))

    held_facts = held.schema.facts["flexoffer_event"]
    through_facts = through.schema.facts["flexoffer_event"]
    for name in held_facts.columns:
        assert held_facts.column(name) == through_facts.column(name)
    assert list(held_facts) == oracle.rows
    for dimension in ("time", "actor"):
        assert list(held.schema.dimensions[dimension]) == list(
            through.schema.dimensions[dimension]
        )
    assert list(held._offer_states.items()) == list(through._offer_states.items())
    assert calls[id(held)] == calls[id(through)]


#: Mostly registered owners, so that most batches are recorded.
_offer_batches = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from(("p", "q", "ghost")),
                           st.integers(0, 4)), max_size=5),
        st.sampled_from(_LIFECYCLE),
        st.integers(0, 5),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(batches=_offer_batches)
def test_subscribed_batches_match_unsubscribed(batches):
    """The same batches leave the same state map whether or not a
    subscriber is attached (the unsubscribed store advances it with one
    ``dict.update`` per batch); and a subscriber that reads the states of
    every offer id, later members of the running batch included, sees at
    each call what it sees when the facts are recorded one by one."""
    plain, watched, single = (LedmsStore(TimeAxis(15)) for _ in range(3))
    for store in (plain, watched, single):
        for actor in ("p", "q"):
            store.register_actor(actor, "prosumer")
    offers = _store_offers()
    offer_ids = range(800, 805)
    seen = {id(watched): [], id(single): []}
    for store in (watched, single):
        store.subscribe(
            lambda *args, store=store, log=seen[id(store)]: log.append(
                (args, [store.offer_state(oid) for oid in offer_ids])
            )
        )
    for members, state, now in batches:
        batch = [offers[a][i] for a, i in members]
        outcomes = []
        for store in (plain, watched):
            try:
                store.record_offer_events(batch, state, now)
                outcomes.append("ok")
            except DataManagementError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1]
        if outcomes[0] == "ok":
            for offer in batch:
                single.record_offer_event(offer.owner, offer, state, now)
    assert seen[id(watched)] == seen[id(single)]
    for store in (watched, single):
        assert list(store._offer_states.items()) == list(
            plain._offer_states.items()
        )
        for oid in offer_ids:
            assert store.offer_state(oid) == plain.offer_state(oid)
        assert store.state_counts() == plain.state_counts()
        for state in OFFER_STATES:
            assert store.offers_in_state(state) == plain.offers_in_state(state)
