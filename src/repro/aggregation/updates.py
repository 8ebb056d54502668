"""Update objects flowing through the incremental aggregation pipeline.

Paper §4: the aggregation component "accepts a set of flex-offer updates …
and produces a set of aggregated flex-offer updates".  The three
sub-components are chained, each consuming the previous one's updates:

``FlexOfferUpdate`` → group-builder → ``GroupUpdate`` → bin-packer →
``GroupUpdate`` (on sub-groups) → n-to-1 aggregator → ``AggregateUpdate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable

from ..core.flexoffer import FlexOffer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .aggregator import AggregatedFlexOffer

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


@dataclass(frozen=True)
class AggregateUpdate:
    """A change to one aggregated (macro) flex-offer.

    The aggregate object is materialised **lazily** from a snapshot taken
    when the update was emitted: building the immutable
    :class:`~repro.aggregation.aggregator.AggregatedFlexOffer` costs time
    proportional to the profile, and high-rate incremental maintenance must
    not pay it for intermediate states nobody reads.  Accessing
    :attr:`aggregate` materialises (and caches) the object.

    For ``DELETED`` updates :attr:`aggregate` is the last aggregate that
    existed under :attr:`group_id`, so downstream consumers (e.g. the
    scheduler's pool) can remove it by identity.
    """

    kind: UpdateKind
    group_id: str
    builder: Callable[[], "AggregatedFlexOffer"]
    _cached: list = field(default_factory=list, repr=False, compare=False)

    @property
    def aggregate(self) -> "AggregatedFlexOffer":
        """The aggregated flex-offer after (or, for deletes, before) the change."""
        if not self._cached:
            self._cached.append(self.builder())
        return self._cached[0]

    @classmethod
    def eager(
        cls, kind: UpdateKind, group_id: str, aggregate: "AggregatedFlexOffer"
    ) -> "AggregateUpdate":
        """An update around an already-materialised aggregate."""
        update = cls(kind, group_id, lambda: aggregate)
        update._cached.append(aggregate)
        return update
