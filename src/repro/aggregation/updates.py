"""Update objects flowing through the incremental aggregation pipeline.

Paper §4: the aggregation component "accepts a set of flex-offer updates …
and produces a set of aggregated flex-offer updates".  The three
sub-components are chained, each consuming the previous one's updates:

``FlexOfferUpdate`` → group-builder → ``GroupUpdate`` → bin-packer →
``GroupUpdate`` (on sub-groups) → n-to-1 aggregator → ``AggregateUpdate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from ..core.flexoffer import FlexOffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .aggregator import AggregatedFlexOffer, BuiltView
    from .engine import PackedView

__all__ = [
    "UpdateKind",
    "FlexOfferUpdate",
    "GroupUpdate",
    "AggregateUpdate",
]


class UpdateKind(Enum):
    """What happened to the object carried by an update."""

    CREATED = "created"
    MODIFIED = "modified"
    DELETED = "deleted"


@dataclass(frozen=True, slots=True)
class FlexOfferUpdate:
    """An insert or delete of a single micro flex-offer.

    Inserts carry newly accepted offers; deletes carry *expiring* offers
    (approaching ``assignment_before``) that must leave the pool.
    """

    kind: UpdateKind
    offer: FlexOffer

    @classmethod
    def insert(cls, offer: FlexOffer) -> "FlexOfferUpdate":
        """An insert update (``UpdateKind.CREATED``)."""
        return cls(UpdateKind.CREATED, offer)

    @classmethod
    def delete(cls, offer: FlexOffer) -> "FlexOfferUpdate":
        """A delete update (``UpdateKind.DELETED``)."""
        return cls(UpdateKind.DELETED, offer)


@dataclass(frozen=True, slots=True)
class GroupUpdate:
    """A change to a (sub-)group of similar flex-offers.

    ``group_id`` is stable across the group's lifetime; ``offers`` is the
    group's full membership *after* the change (empty for deletions).
    """

    kind: UpdateKind
    group_id: str
    offers: tuple[FlexOffer, ...]

    @property
    def size(self) -> int:
        """Number of member offers after the change."""
        return len(self.offers)


@dataclass(frozen=True, slots=True)
class AggregateUpdate:
    """A change to one aggregated (macro) flex-offer.

    :attr:`view` is what the update carries of the aggregate as of
    emission, under an ``offer_id`` drawn when it was emitted.  The packed
    engine's :class:`~repro.aggregation.engine.PackedView` answers the
    window, deadline, price, bound rows and members from its columns, and
    is what a runtime planning run reads.  The scalar and reference
    pipelines' :class:`~repro.aggregation.aggregator.BuiltView` answers
    only the id and the aggregate.  The immutable
    :class:`~repro.aggregation.aggregator.AggregatedFlexOffer` costs time
    proportional to the profile and the members, and high-rate incremental
    maintenance must not pay it for states nobody reads, so either view
    builds it only on first access to :attr:`aggregate` (and keeps it).

    A packed view also names the members this flush admitted to the group
    (``joined``), which is how the runtime binds each newcomer to its
    group's commitment once instead of re-walking the membership.

    A ``DELETED`` update's view is the last aggregate that existed under
    :attr:`group_id`, under a freshly drawn ``offer_id`` like any other
    update's; it names no joiners.  The runtime's book of pool groups
    (:class:`~repro.runtime.planning.PlanSession`) drops the group's
    record by :attr:`group_id`.
    """

    kind: UpdateKind
    group_id: str
    view: "PackedView | BuiltView"

    @property
    def aggregate(self) -> "AggregatedFlexOffer":
        """The aggregated flex-offer after (or, for deletes, before) the change."""
        return self.view.aggregate
