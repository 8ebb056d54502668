"""Typed in-memory column tables — the storage primitive of the LEDMS store.

The paper stores "all historical and current time demand/supply, forecasting
model parameters, flex-offers, price and contracts" in a single
multidimensional schema.  :class:`Table` provides the minimal relational
substrate for that: typed columns, a primary key, equality filters with a
hash index on the key, projection and grouped aggregation.

Storage is columnar: one buffer per column — ``array('q')`` for a
non-nullable ``int``, ``array('d')`` for a non-nullable ``float``, a plain
list otherwise — so a fact row costs its machine words, not a dict.  Row
dicts exist only on the way out (:meth:`Table.get`, :meth:`Table.select`,
iteration), built on demand after the equality filters ran on the columns.

Every value is validated exactly once on the way in.  :meth:`Table.append`
(one row) and :meth:`Table.extend` (many rows, column-wise) first compare the
values' exact types against the columns' stored types in one sweep; only a
mismatch (``None``, ``bool``, an ``int`` for a ``float`` column, a subclass,
a wrong type) pays the per-cell :meth:`Column.validate`, which promotes or
raises exactly as before.  Both are atomic: a rejected row or batch leaves
every buffer and the key index untouched.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, KeysView, Sequence, Union

from ..core.errors import DataManagementError

__all__ = ["Column", "Table"]

#: What :meth:`Column.validate` accepts per dtype ...
_ACCEPTED: dict[str, type | tuple[type, ...]] = {
    "int": int,
    "float": (int, float),
    "str": str,
    "bool": bool,
}
#: ... and the one exact type a validated, non-null value is stored as.
_STORED: dict[str, type] = {"int": int, "float": float, "str": str, "bool": bool}

Buffer = Union["array[int]", "array[float]", "list[Any]"]

_AGGREGATES: dict[str, Callable[[list], Any]] = {
    "sum": sum,
    "count": len,
    "min": min,
    "max": max,
    "mean": lambda xs: sum(xs) / len(xs),
}


@dataclass(frozen=True)
class Column:
    """A named, typed column; ``nullable`` admits ``None`` values."""

    name: str
    dtype: str
    nullable: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in _ACCEPTED:
            raise DataManagementError(
                f"unknown dtype {self.dtype!r}; expected one of {sorted(_ACCEPTED)}"
            )

    @property
    def stored_type(self) -> type:
        """The exact type every non-null stored value of this column has."""
        return _STORED[self.dtype]

    def new_buffer(self) -> Buffer:
        """An empty buffer for this column's values.

        Machine-typed (8 bytes per value) for numbers that never have to
        represent ``None``; a list otherwise.
        """
        if not self.nullable:
            if self.dtype == "int":
                return array("q")
            if self.dtype == "float":
                return array("d")
        return []

    def validate(self, value: Any) -> Any:
        """Check (and return) a value for this column."""
        if value is None:
            if not self.nullable:
                raise DataManagementError(f"column {self.name} is not nullable")
            return None
        expected = _ACCEPTED[self.dtype]
        if self.dtype == "float" and isinstance(value, bool):
            raise DataManagementError(f"column {self.name}: bool is not a float")
        if self.dtype == "int" and isinstance(value, bool):
            raise DataManagementError(f"column {self.name}: bool is not an int")
        if not isinstance(value, expected):
            raise DataManagementError(
                f"column {self.name} expects {self.dtype}, got "
                f"{type(value).__name__} ({value!r})"
            )
        return float(value) if self.dtype == "float" else value


class Table:
    """A column store with a primary-key index and simple query operators."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        *,
        primary_key: str | None = None,
    ) -> None:
        if not columns:
            raise DataManagementError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise DataManagementError(f"duplicate column names in {name}")
        if primary_key is not None and primary_key not in names:
            raise DataManagementError(
                f"primary key {primary_key} is not a column of {name}"
            )
        self.name = name
        self.columns = {c.name: c for c in columns}
        self.primary_key = primary_key
        self._names = tuple(names)
        self._stored_types = tuple(c.stored_type for c in columns)
        self._buffers: tuple[Buffer, ...] = tuple(c.new_buffer() for c in columns)
        self._key_position = (
            None if primary_key is None else names.index(primary_key)
        )
        self._index: dict[Any, int] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffers[0])

    def __iter__(self) -> Iterator[dict[str, Any]]:
        names = self._names
        return (dict(zip(names, values)) for values in zip(*self._buffers))

    def keys(self) -> KeysView[Any]:
        """Live view of the primary keys: ``key in table.keys()`` builds no row."""
        if self.primary_key is None:
            raise DataManagementError(f"{self.name} has no primary key")
        return self._index.keys()

    def column(self, name: str) -> Sequence[Any]:
        """The live buffer of one column, for read-only columnar scans."""
        return self._buffer(name, "column")

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, *values: Any) -> None:
        """Validate and store one row given positionally, in column order."""
        values = self.checked_row(values)
        key_position = self._key_position
        if key_position is not None:
            key = values[key_position]
            self._check_new_key(key)
        size = len(self._buffers[0])
        try:
            for buffer, value in zip(self._buffers, values):
                buffer.append(value)
        except OverflowError:
            # The one failure a type-checked value can still cause: an int
            # beyond the 64-bit buffer.  Undo the cells already written.
            column = next(
                name
                for name, buffer in zip(self._names, self._buffers)
                if len(buffer) == size
            )
            for buffer in self._buffers:
                del buffer[size:]
            raise self._overflow(column) from None
        if key_position is not None:
            self._index[key] = size

    def extend(self, columns: Sequence[Sequence[Any]]) -> int:
        """Validate and store many rows given column-wise; returns the count.

        ``columns[i]`` holds the values of the table's ``i``-th column, all
        of one length.  The batch is all-or-nothing.
        """
        if len(columns) != len(self._names):
            raise DataManagementError(
                f"{self.name}: expected {len(self._names)} columns, "
                f"got {len(columns)}"
            )
        count = len(columns[0])
        if any(len(column) != count for column in columns):
            raise DataManagementError(f"{self.name}: ragged columns")
        staged: list[Sequence[Any]] = []
        for spec, stored, buffer, column in zip(
            self.columns.values(), self._stored_types, self._buffers, columns
        ):
            if set(map(type, column)) != {stored}:
                column = [spec.validate(value) for value in column]
            if isinstance(buffer, array):
                try:
                    column = array(buffer.typecode, column)
                except OverflowError:
                    raise self._overflow(spec.name) from None
            staged.append(column)
        size = len(self._buffers[0])
        fresh: dict[Any, int] = {}
        if self._key_position is not None:
            for position, key in enumerate(staged[self._key_position], size):
                self._check_new_key(key)
                if key in fresh:
                    raise DataManagementError(
                        f"{self.name}: duplicate primary key {key!r}"
                    )
                fresh[key] = position
        for buffer, column in zip(self._buffers, staged):
            buffer.extend(column)
        self._index.update(fresh)
        return count

    def insert(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate and insert one row given by name; returns the stored row."""
        unknown = row.keys() - self.columns.keys()
        if unknown:
            raise DataManagementError(
                f"{self.name}: unknown columns {sorted(unknown)}"
            )
        self.append(*map(row.get, self._names))
        return self._row(len(self) - 1)

    def insert_many(self, rows: Iterable[dict[str, Any]]) -> int:
        """Insert many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def checked_row(self, values: tuple) -> tuple:
        """One positional row as the buffers store it; raises as :meth:`append`.

        A row whose values already have the stored types comes back as is;
        otherwise each cell is promoted or rejected by :meth:`Column.validate`.
        A caller that holds rows back for a later :meth:`extend` checks them
        here, so a bad value is reported where it was written.
        """
        if tuple(map(type, values)) != self._stored_types:
            return self._validated(values)
        return values

    def _validated(self, values: tuple) -> tuple:
        """The per-cell path: promote or reject each value of one row."""
        if len(values) != len(self._names):
            raise DataManagementError(
                f"{self.name}: expected {len(self._names)} values, "
                f"got {len(values)}"
            )
        return tuple(
            spec.validate(value)
            for spec, value in zip(self.columns.values(), values)
        )

    def _check_new_key(self, key: Any) -> None:
        if key is None:
            raise DataManagementError(f"{self.name}: primary key is None")
        if key in self._index:
            raise DataManagementError(
                f"{self.name}: duplicate primary key {key!r}"
            )

    def _overflow(self, column: str) -> DataManagementError:
        return DataManagementError(
            f"{self.name}: column {column} holds 64-bit ints; value out of range"
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _buffer(self, name: str, role: str) -> Buffer:
        if name not in self.columns:
            raise DataManagementError(f"{self.name}: unknown {role} {name}")
        return self._buffers[self._names.index(name)]

    def _row(self, position: int) -> dict[str, Any]:
        return {
            name: buffer[position]
            for name, buffer in zip(self._names, self._buffers)
        }

    def get(self, key: Any) -> dict[str, Any] | None:
        """Primary-key lookup (None when absent)."""
        if self.primary_key is None:
            raise DataManagementError(f"{self.name} has no primary key")
        position = self._index.get(key)
        return None if position is None else self._row(position)

    def select(
        self,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        **equals: Any,
    ) -> list[dict[str, Any]]:
        """Rows matching the equality filters and the optional predicate.

        The equality filters narrow row positions on the column buffers;
        only the survivors are materialised as dicts (fresh ones — editing
        a returned row does not touch the table).
        """
        filters = [
            (self._buffer(column, "filter column"), value)
            for column, value in equals.items()
        ]
        positions: Iterable[int] = range(len(self))
        for buffer, value in filters:
            positions = [i for i in positions if buffer[i] == value]
        rows = [self._row(i) for i in positions]
        if predicate is not None:
            rows = [row for row in rows if predicate(row)]
        return rows

    def project(self, rows: Iterable[dict[str, Any]], columns: Sequence[str]) -> list[tuple]:
        """Column projection of a row set, as tuples."""
        for column in columns:
            if column not in self.columns:
                raise DataManagementError(
                    f"{self.name}: unknown projection column {column}"
                )
        return [tuple(row[c] for c in columns) for row in rows]

    def aggregate(
        self,
        group_by: Sequence[str],
        measures: dict[str, tuple[str, str]],
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        **equals: Any,
    ) -> dict[tuple, dict[str, Any]]:
        """Grouped aggregation.

        ``measures`` maps output names to ``(column, aggregate)`` pairs with
        aggregates from ``sum/count/min/max/mean``.  Returns
        ``{group_key_tuple: {output_name: value}}``.
        """
        for column in group_by:
            if column not in self.columns:
                raise DataManagementError(
                    f"{self.name}: unknown group-by column {column}"
                )
        for output, (column, aggregate) in measures.items():
            if column not in self.columns:
                raise DataManagementError(
                    f"{self.name}: unknown measure column {column}"
                )
            if aggregate not in _AGGREGATES:
                raise DataManagementError(
                    f"unknown aggregate {aggregate!r} for {output}"
                )
        groups: dict[tuple, list[dict[str, Any]]] = {}
        for row in self.select(predicate, **equals):
            key = tuple(row[c] for c in group_by)
            groups.setdefault(key, []).append(row)
        return {
            key: {
                output: _AGGREGATES[aggregate]([r[column] for r in rows])
                for output, (column, aggregate) in measures.items()
            }
            for key, rows in groups.items()
        }
