"""Star/snowflake dimensional schema (paper §3).

"Data are persistently stored using a multidimensional schema [Kimball] that
can be seen as a combination of star and snowflake schemas.  This single,
unified schema is flexible enough to support actors at all levels, some of
which only use subparts of the schema."

:class:`DimensionTable` rows are referenced by fact tables through foreign
keys; a dimension may itself reference a parent dimension (the snowflake
part, e.g. actor → market area).  :class:`StarSchema` owns all tables and
enforces referential integrity on insert.

Facts enter through :meth:`StarSchema.append_fact` (one row, positional) or
:meth:`StarSchema.extend_facts` (many rows, column-wise); a foreign key is
checked by asking the referenced dimension's primary-key index whether the
key exists — no parent row is built — and, for a batch, as one set
difference per dimension.  :meth:`StarSchema.insert_fact` is the by-name
adapter over the one-row form.
"""

from __future__ import annotations

from typing import Any, KeysView, Sequence

from ..core.errors import DataManagementError
from .table import Column, Table

__all__ = ["DimensionTable", "FactTable", "StarSchema"]


class DimensionTable(Table):
    """A dimension: primary key + descriptive attributes.

    ``parent`` optionally names another dimension this one references
    (snowflaking); the referencing column must be ``<parent>_id``.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        *,
        primary_key: str,
        parent: str | None = None,
    ) -> None:
        super().__init__(name, columns, primary_key=primary_key)
        self.parent = parent
        if parent is not None and f"{parent}_id" not in self.columns:
            raise DataManagementError(
                f"snowflaked dimension {name} needs a {parent}_id column"
            )


class FactTable(Table):
    """A fact table: foreign keys into dimensions plus numeric measures."""

    def __init__(
        self,
        name: str,
        dimension_keys: Sequence[str],
        measures: Sequence[Column],
    ) -> None:
        # The foreign keys are the leading columns, in ``dimension_keys``
        # order: the positional write paths rely on it.
        key_columns = [Column(f"{d}_id", "int") for d in dimension_keys]
        super().__init__(name, [*key_columns, *measures])
        self.dimension_keys = tuple(dimension_keys)
        for measure in measures:
            if measure.name in {f"{d}_id" for d in dimension_keys}:
                raise DataManagementError(
                    f"measure {measure.name} collides with a dimension key"
                )


class StarSchema:
    """A set of dimensions and facts with referential integrity."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.dimensions: dict[str, DimensionTable] = {}
        self.facts: dict[str, FactTable] = {}
        # fact name -> (dimension name, live view of its primary keys) per
        # foreign-key column, resolved once so a fact write is a membership
        # test per reference.
        self._references: dict[str, tuple[tuple[str, KeysView[Any]], ...]] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def add_dimension(self, dimension: DimensionTable) -> DimensionTable:
        """Register a dimension (its snowflake parent must exist first)."""
        if dimension.name in self.dimensions or dimension.name in self.facts:
            raise DataManagementError(f"duplicate table {dimension.name}")
        if dimension.parent is not None and dimension.parent not in self.dimensions:
            raise DataManagementError(
                f"unknown parent dimension {dimension.parent}"
            )
        self.dimensions[dimension.name] = dimension
        return dimension

    def add_fact(self, fact: FactTable) -> FactTable:
        """Register a fact table; all referenced dimensions must exist."""
        if fact.name in self.dimensions or fact.name in self.facts:
            raise DataManagementError(f"duplicate table {fact.name}")
        for dimension in fact.dimension_keys:
            if dimension not in self.dimensions:
                raise DataManagementError(f"unknown dimension {dimension}")
        self.facts[fact.name] = fact
        self._references[fact.name] = tuple(
            (dimension, self.dimensions[dimension].keys())
            for dimension in fact.dimension_keys
        )
        return fact

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert_dimension_row(self, name: str, row: dict[str, Any]) -> dict[str, Any]:
        """Insert a dimension row, checking the snowflake reference."""
        dimension = self._dimension(name)
        if dimension.parent is not None:
            parent_key = row.get(f"{dimension.parent}_id")
            if parent_key not in self.dimensions[dimension.parent].keys():
                raise DataManagementError(
                    f"{name}: unknown {dimension.parent} id {parent_key!r}"
                )
        return dimension.insert(row)

    def append_fact(self, name: str, *values: Any) -> None:
        """Store one fact row given positionally (foreign keys first)."""
        fact = self._fact(name)
        for (dimension, known), key in zip(self._references[name], values):
            if key not in known:
                raise DataManagementError(
                    f"{name}: unknown {dimension} id {key!r}"
                )
        fact.append(*values)

    def extend_facts(self, name: str, columns: Sequence[Sequence[Any]]) -> int:
        """Store many fact rows given column-wise; returns the count.

        All-or-nothing, like :meth:`Table.extend`: one dangling reference
        anywhere in the batch rejects the whole batch.
        """
        fact = self._fact(name)
        for (dimension, known), keys in zip(self._references[name], columns):
            dangling = set(keys) - known
            if dangling:
                key = next(key for key in keys if key in dangling)
                raise DataManagementError(
                    f"{name}: unknown {dimension} id {key!r}"
                )
        return fact.extend(columns)

    def insert_fact(self, name: str, row: dict[str, Any]) -> dict[str, Any]:
        """Insert a fact row given by name, checking every dimension reference."""
        fact = self._fact(name)
        for dimension, known in self._references[name]:
            key = row.get(f"{dimension}_id")
            if key not in known:
                raise DataManagementError(
                    f"{name}: unknown {dimension} id {key!r}"
                )
        return fact.insert(row)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def join_facts(
        self, name: str, *, expand: Sequence[str] | None = None, **equals: Any
    ) -> list[dict[str, Any]]:
        """Fact rows with the requested dimensions joined in.

        Each expanded dimension contributes its attributes prefixed with the
        dimension name (``actor.role``); snowflaked parents are followed
        transitively.
        """
        fact = self._fact(name)
        expand = list(expand or fact.dimension_keys)
        out = []
        for row in fact.select(**equals):
            joined = dict(row)
            for dimension_name in expand:
                self._expand_into(joined, dimension_name, row[f"{dimension_name}_id"])
            out.append(joined)
        return out

    def _expand_into(self, target: dict, dimension_name: str, key: Any) -> None:
        dimension = self._dimension(dimension_name)
        row = dimension.get(key)
        if row is None:  # pragma: no cover - integrity enforced on insert
            raise DataManagementError(f"dangling {dimension_name} id {key!r}")
        for column, value in row.items():
            target[f"{dimension_name}.{column}"] = value
        if dimension.parent is not None:
            self._expand_into(target, dimension.parent, row[f"{dimension.parent}_id"])

    # ------------------------------------------------------------------
    def _dimension(self, name: str) -> DimensionTable:
        if name not in self.dimensions:
            raise DataManagementError(f"unknown dimension {name}")
        return self.dimensions[name]

    def _fact(self, name: str) -> FactTable:
        if name not in self.facts:
            raise DataManagementError(f"unknown fact table {name}")
        return self.facts[name]
