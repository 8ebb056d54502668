"""Bin-packer: splits similarity groups into bounds-satisfying sub-groups.

Optional middle stage of the aggregation pipeline (paper §4).  When a large
number of (near-)identical flex-offers would collapse into a single
aggregate, all individual scheduling freedom is lost; the bin-packer caps the
size of each aggregate by re-partitioning every group into *sub-groups* that
satisfy user bounds on

* the number of member flex-offers,
* the total (absolute) energy an aggregate has to offer, or
* the total time flexibility carried by its members.

Bounds are best-effort on the lower side: a trailing sub-group smaller than
the minimum is merged into its predecessor when that does not violate the
maxima, otherwise it is kept (a group whose total content is below the
minimum cannot satisfy it at all).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.errors import AggregationError
from ..core.flexoffer import FlexOffer
from .updates import GroupUpdate, UpdateKind

__all__ = ["BinPackerBounds", "BinPacker", "first_fit_bins"]


def first_fit_bins(
    weights: Sequence[float], minimum: float, maximum: float
) -> list[list[int]]:
    """Deterministic first-fit partition of item positions by weight.

    Items are packed in the given order (callers pre-sort by offer id);
    returns bins of item positions.  The trailing bin is best-effort on the
    lower side: first try folding it into its predecessor, then try
    rebalancing items from the predecessor into it; give up if neither keeps
    all bounds intact.  :class:`BinPacker` runs it over its offers' weights.
    """
    bins: list[list[int]] = []
    totals: list[float] = []
    for i, w in enumerate(weights):
        if bins and totals[-1] + w <= maximum:
            bins[-1].append(i)
            totals[-1] += w
        else:
            bins.append([i])
            totals.append(w)

    if len(bins) >= 2 and totals[-1] < minimum:
        if totals[-2] + totals[-1] <= maximum:
            bins[-2].extend(bins[-1])
            totals[-2] += totals[-1]
            del bins[-1], totals[-1]
        else:
            while totals[-1] < minimum and len(bins[-2]) > 1:
                moved = weights[bins[-2][-1]]
                if (
                    totals[-2] - moved < minimum
                    or totals[-1] + moved > maximum
                ):
                    break
                bins[-1].insert(0, bins[-2].pop())
                totals[-2] -= moved
                totals[-1] += moved
    return bins


@dataclass(frozen=True, slots=True)
class BinPackerBounds:
    """Lower/upper bounds on one aggregate property.

    Exactly one property is bounded per bin-packer, matching the paper's
    "one of the following aggregated flex-offer properties".
    ``property_name`` selects it: ``"count"``, ``"energy"`` (total absolute
    maximum energy, kWh) or ``"time_flexibility"`` (summed member
    flexibility, slices).
    """

    property_name: str = "count"
    minimum: float = 0.0
    maximum: float = float("inf")

    _WEIGHTS = {
        "count": lambda o: 1.0,
        "energy": lambda o: abs(o.total_max_energy),
        "time_flexibility": lambda o: float(o.time_flexibility),
    }

    def __post_init__(self) -> None:
        if self.property_name not in self._WEIGHTS:
            raise AggregationError(
                f"unknown bin-packer property {self.property_name!r}; "
                f"expected one of {sorted(self._WEIGHTS)}"
            )
        if self.minimum < 0 or self.maximum <= 0:
            raise AggregationError("bounds must be non-negative (maximum > 0)")
        if self.minimum > self.maximum:
            raise AggregationError(
                f"minimum {self.minimum} exceeds maximum {self.maximum}"
            )

    def weight(self, offer: FlexOffer) -> float:
        """The offer's contribution to the bounded property."""
        return self._WEIGHTS[self.property_name](offer)


class BinPacker:
    """Partitions each group's membership into bounded sub-groups.

    Consumes group updates and emits sub-group updates; sub-group ids embed
    the parent group id (``<group>#<bin>``) so they remain disjoint across
    groups.  Packing is deterministic (first-fit in offer-id order), so
    re-packing after an incremental change produces stable prefixes and only
    the affected sub-groups are re-emitted.
    """

    def __init__(self, bounds: BinPackerBounds):
        self.bounds = bounds
        self._subgroups: dict[str, dict[str, tuple[FlexOffer, ...]]] = {}

    @property
    def subgroup_count(self) -> int:
        """Total number of sub-groups across all groups."""
        return sum(len(bins) for bins in self._subgroups.values())

    def process(self, updates: Iterable[GroupUpdate]) -> list[GroupUpdate]:
        """Apply group updates; return updates on sub-groups."""
        out: list[GroupUpdate] = []
        for update in updates:
            old_bins = self._subgroups.get(update.group_id, {})
            if update.kind is UpdateKind.DELETED or not update.offers:
                new_bins: dict[str, tuple[FlexOffer, ...]] = {}
            else:
                new_bins = self._pack(update.group_id, update.offers)

            for sub_id, offers in new_bins.items():
                if sub_id not in old_bins:
                    out.append(GroupUpdate(UpdateKind.CREATED, sub_id, offers))
                elif old_bins[sub_id] != offers:
                    out.append(GroupUpdate(UpdateKind.MODIFIED, sub_id, offers))
            for sub_id, offers in old_bins.items():
                if sub_id not in new_bins:
                    out.append(GroupUpdate(UpdateKind.DELETED, sub_id, ()))

            if new_bins:
                self._subgroups[update.group_id] = new_bins
            else:
                self._subgroups.pop(update.group_id, None)
        return out

    # ------------------------------------------------------------------
    def _pack(
        self, group_id: str, offers: tuple[FlexOffer, ...]
    ) -> dict[str, tuple[FlexOffer, ...]]:
        ordered = sorted(offers, key=lambda o: o.offer_id)
        weights = [self.bounds.weight(o) for o in ordered]
        bins = first_fit_bins(weights, self.bounds.minimum, self.bounds.maximum)
        return {
            f"{group_id}#{i}": tuple(ordered[j] for j in members)
            for i, members in enumerate(bins)
        }
