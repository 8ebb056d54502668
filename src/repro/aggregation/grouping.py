"""Group-builder: partitions flex-offers into groups of similar offers.

First stage of the aggregation pipeline (paper §4).  Flex-offer updates are
*accumulated* until processing is invoked (by the control component); on
``flush()`` the group-builder applies them to its internal grid of groups and
emits one :class:`GroupUpdate` per changed group.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.errors import AggregationError
from ..core.flexoffer import FlexOffer
from .thresholds import AggregationParameters
from .updates import FlexOfferUpdate, GroupUpdate, UpdateKind

__all__ = ["GroupBuilder", "cell_columns", "partition_cells"]


# ----------------------------------------------------------------------
# vectorized grouping (the columnar engine's batch path)
# ----------------------------------------------------------------------
def cell_columns(
    parameters: AggregationParameters,
    earliest: np.ndarray,
    time_flex: np.ndarray,
    duration: np.ndarray,
    price: np.ndarray,
) -> np.ndarray:
    """Grid-cell key matrix for a whole batch, shape ``(4, n)``.

    Mirrors :meth:`AggregationParameters.group_key` as array ops: two rows
    of this matrix are equal exactly when the two offers share a grid cell.
    The scalar path hashes cells offer-by-offer; the columnar engine calls
    this once per batch and derives the canonical cell tuple only once per
    *unique* cell.  Columns are float64 (integer components are exact).
    """
    n = len(earliest)
    columns = np.empty((4, n))
    for row, (values, tol) in enumerate(
        (
            (earliest, parameters.start_after_tolerance),
            (time_flex, parameters.time_flexibility_tolerance),
            (duration, parameters.duration_tolerance),
        )
    ):
        columns[row] = -1.0 if tol is None else values // (tol + 1)
    tol = parameters.unit_price_tolerance
    if tol is None:
        columns[3] = -1.0
    elif tol == 0:
        columns[3] = price
    else:
        columns[3] = np.floor_divide(price, tol)
    return columns


def partition_cells(
    columns: np.ndarray,
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Partition batch positions by identical cell key (one lexsort).

    Returns ``(parts, order, starts)``: one index array per unique cell
    (indices within each array are ascending, i.e. submission order), plus
    the lexsort order and the partition start offsets into it — callers use
    those for per-group ``reduceat`` sweeps (e.g. group extents).  The
    caller maps each partition's first element back to an offer to obtain
    the canonical cell tuple.
    """
    n = columns.shape[1]
    if n == 0:
        return [], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if n == 1:
        only = np.zeros(1, dtype=np.int64)
        return [only], only, np.zeros(1, dtype=np.int64)
    order = np.lexsort(columns)
    ordered = columns[:, order]
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    starts = np.flatnonzero(boundary)
    # lexsort is stable, so positions within each partition are already
    # ascending (= submission order).
    return np.split(order, starts[1:]), order, starts


class GroupBuilder:
    """Maintains disjoint groups of similar flex-offers under a grid.

    Groups are keyed by :meth:`AggregationParameters.group_key`; group ids are
    stable strings derived from the key, so downstream components can track a
    group across modifications.
    """

    def __init__(self, parameters: AggregationParameters):
        self.parameters = parameters
        self._groups: dict[tuple[int, ...], dict[int, FlexOffer]] = {}
        self._pending: list[FlexOfferUpdate] = []
        self._offer_cells: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def accumulate(self, update: FlexOfferUpdate) -> None:
        """Queue one flex-offer update for the next flush."""
        self._pending.append(update)

    def accumulate_all(self, updates: Iterable[FlexOfferUpdate]) -> None:
        """Queue many flex-offer updates."""
        self._pending.extend(updates)

    @property
    def pending_count(self) -> int:
        """Number of queued, not yet processed updates."""
        return len(self._pending)

    @property
    def group_count(self) -> int:
        """Number of non-empty groups currently maintained."""
        return len(self._groups)

    @property
    def offer_count(self) -> int:
        """Number of flex-offers currently held in groups."""
        return len(self._offer_cells)

    # ------------------------------------------------------------------
    # processing
    # ------------------------------------------------------------------
    def flush(self) -> list[GroupUpdate]:
        """Apply all queued updates and report changed groups.

        Returns one update per touched group: ``CREATED`` for new groups,
        ``MODIFIED`` for groups whose membership changed, ``DELETED`` for
        groups that became empty.  Update kinds are relative to the state
        *before* the flush: a group created and emptied within one flush
        (an offer inserted and expired in the same batch — routine under
        streaming ingest) emits nothing, since downstream components never
        saw it; a group emptied and repopulated emits ``MODIFIED``.
        """
        # cell -> whether the group existed before its first touch this flush
        touched: dict[tuple[int, ...], bool] = {}

        for update in self._pending:
            offer = update.offer
            if update.kind is UpdateKind.DELETED:
                cell = self._offer_cells.pop(offer.offer_id, None)
                if cell is None:
                    raise AggregationError(
                        f"deleting unknown flex-offer {offer.offer_id}"
                    )
                touched.setdefault(cell, True)
                group = self._groups[cell]
                del group[offer.offer_id]
                if not group:
                    del self._groups[cell]
            else:
                if offer.offer_id in self._offer_cells:
                    raise AggregationError(
                        f"flex-offer {offer.offer_id} inserted twice"
                    )
                cell = self.parameters.group_key(offer)
                group = self._groups.get(cell)
                if group is None:
                    touched.setdefault(cell, False)
                    group = self._groups[cell] = {}
                else:
                    touched.setdefault(cell, True)
                group[offer.offer_id] = offer
                self._offer_cells[offer.offer_id] = cell

        self._pending.clear()

        updates: list[GroupUpdate] = []
        for cell, existed_before in touched.items():
            members = self._groups.get(cell, {})
            gid = self._group_id(cell)
            if not members:
                if existed_before:
                    updates.append(GroupUpdate(UpdateKind.DELETED, gid, ()))
                continue
            kind = UpdateKind.MODIFIED if existed_before else UpdateKind.CREATED
            updates.append(GroupUpdate(kind, gid, tuple(members.values())))
        return updates

    def groups(self) -> dict[str, tuple[FlexOffer, ...]]:
        """Snapshot of all current groups, keyed by group id."""
        return {
            self._group_id(cell): tuple(members.values())
            for cell, members in self._groups.items()
        }

    @staticmethod
    def _group_id(cell: tuple[int, ...]) -> str:
        return "g" + ":".join(str(c) for c in cell)
