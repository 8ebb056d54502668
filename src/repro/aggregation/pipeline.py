"""The chained incremental aggregation pipeline (paper §4).

``AggregationPipeline`` wires the three sub-components together exactly as
the paper describes: flex-offer updates accumulate in the group-builder;
invoking :meth:`AggregationPipeline.run` pushes group updates through the
(optional) bin-packer into the n-to-1 aggregator, which returns aggregated
flex-offer updates.  :func:`aggregate_from_scratch` offers the non-
incremental batch path.

The runtime aggregates with the columnar
:class:`~repro.aggregation.engine.PackedAggregationPipeline` only.  This
scalar pipeline, and the same pipeline over the historical
rebuild-on-remove state, stay as the packed engine's oracles and as the
Fig. 5 baselines; :func:`make_pipeline` builds any of the three by its
name in :data:`ENGINES`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.errors import AggregationError, choose
from ..core.flexoffer import FlexOffer
from .aggregator import AggregatedFlexOffer, NToOneAggregator
from .binpacking import BinPacker, BinPackerBounds
from .engine import PackedAggregationPipeline, _gc_paused
from .grouping import GroupBuilder
from .reference import ReferenceAggregator
from .thresholds import AggregationParameters
from .updates import AggregateUpdate, FlexOfferUpdate

__all__ = [
    "ENGINES",
    "AggregationPipeline",
    "aggregate_from_scratch",
    "make_pipeline",
]


class AggregationPipeline:
    """Group-builder → (bin-packer) → n-to-1 aggregator, incrementally.

    Parameters
    ----------
    parameters:
        Similarity thresholds for the group-builder.
    bounds:
        Bin-packer bounds; ``None`` disables the bin-packer (the paper's
        Figure 5 experiments run with it disabled).
    """

    def __init__(
        self,
        parameters: AggregationParameters,
        bounds: BinPackerBounds | None = None,
    ):
        self.group_builder = GroupBuilder(parameters)
        self.bin_packer = BinPacker(bounds) if bounds is not None else None
        self.aggregator = NToOneAggregator()

    # ------------------------------------------------------------------
    def submit(self, update: FlexOfferUpdate) -> None:
        """Queue one flex-offer update (no processing yet)."""
        self.group_builder.accumulate(update)

    def submit_inserts(self, offers: Iterable[FlexOffer]) -> None:
        """Queue insert updates for many offers."""
        self.group_builder.accumulate_all(
            FlexOfferUpdate.insert(o) for o in offers
        )

    def submit_deletes(self, offers: Iterable[FlexOffer]) -> None:
        """Queue delete updates (expiring flex-offers)."""
        self.group_builder.accumulate_all(
            FlexOfferUpdate.delete(o) for o in offers
        )

    def run(self) -> list[AggregateUpdate]:
        """Process everything queued; return aggregated flex-offer updates.

        The cyclic garbage collector is paused for the duration of the batch:
        update processing allocates millions of small, cycle-free objects
        (constraints, tuples, update records) and collector runs triggered by
        that allocation rate would otherwise dominate — and distort — the
        maintenance cost.
        """
        with _gc_paused():
            group_updates = self.group_builder.flush()
            if self.bin_packer is not None:
                group_updates = self.bin_packer.process(group_updates)
            return self.aggregator.process(group_updates)

    # ------------------------------------------------------------------
    @property
    def aggregates(self) -> list[AggregatedFlexOffer]:
        """All currently maintained aggregated flex-offers."""
        return self.aggregator.aggregates()

    @property
    def input_count(self) -> int:
        """Number of micro flex-offers currently in the pipeline."""
        return self.group_builder.offer_count


def aggregate_from_scratch(
    offers: Sequence[FlexOffer],
    parameters: AggregationParameters,
    bounds: BinPackerBounds | None = None,
) -> list[AggregatedFlexOffer]:
    """One-shot batch aggregation of a full flex-offer set.

    Equivalent to building a fresh pipeline, inserting every offer, and
    running it once — the "aggregation from scratch is also supported" path.
    """
    pipeline = AggregationPipeline(parameters, bounds)
    pipeline.submit_inserts(offers)
    pipeline.run()
    return pipeline.aggregates


def _reference_pipeline(parameters: AggregationParameters) -> AggregationPipeline:
    pipeline = AggregationPipeline(parameters)
    pipeline.aggregator = ReferenceAggregator()
    return pipeline


#: :func:`make_pipeline`'s engines: name -> (factory, description).
ENGINES = {
    "packed": (
        PackedAggregationPipeline,
        "columnar engine (PackedPool + GroupArena), the runtime's",
    ),
    "reference": (
        _reference_pipeline,
        "historical rebuild-on-remove state; oracle + Fig. 5 baseline",
    ),
    "scalar": (
        AggregationPipeline,
        "live object pipeline (group-builder -> n-to-1 aggregator)",
    ),
}


def make_pipeline(parameters: AggregationParameters, *, engine: str):
    """Build the aggregation pipeline named ``engine`` in :data:`ENGINES`.

    ``"packed"`` is the columnar engine the runtime runs, ``"scalar"`` the
    live object pipeline, and ``"reference"`` the scalar pipeline over the
    historical rebuild-on-remove group state.  All three expose the same
    submit/run/aggregates interface and run with the bin-packer off; build
    ``AggregationPipeline(parameters, bounds)`` directly for the
    bin-packer.  An unknown name raises :class:`AggregationError` listing
    the known ones.
    """
    return choose(ENGINES, "aggregation", engine, AggregationError)(parameters)
