"""The chained incremental aggregation pipeline (paper §4).

``AggregationPipeline`` wires the three sub-components together exactly as
the paper describes: flex-offer updates accumulate in the group-builder;
invoking :meth:`AggregationPipeline.run` pushes group updates through the
(optional) bin-packer into the n-to-1 aggregator, which returns aggregated
flex-offer updates.  :func:`aggregate_from_scratch` offers the non-
incremental batch path.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

from ..core.errors import AggregationError
from ..core.flexoffer import FlexOffer
from .aggregator import AggregatedFlexOffer, NToOneAggregator
from .binpacking import BinPacker, BinPackerBounds
from .grouping import GroupBuilder
from .thresholds import AggregationParameters
from .updates import AggregateUpdate, FlexOfferUpdate

__all__ = ["AggregationPipeline", "aggregate_from_scratch", "make_pipeline"]


def make_pipeline(
    parameters: AggregationParameters,
    bounds: BinPackerBounds | None = None,
    *,
    engine: str = "scalar",
):
    """Build an aggregation pipeline for the requested registry engine.

    ``"packed"`` is the columnar engine
    (:class:`~repro.aggregation.engine.PackedAggregationPipeline`, the
    runtime default), ``"scalar"`` the live object pipeline, and
    ``"reference"`` the scalar pipeline over the historical
    rebuild-on-remove group state (oracle and benchmark baseline).  All
    engines expose the same submit/run/aggregates interface.  The name is
    resolved through :func:`repro.api.default_registry`, the same catalogue
    the runtime configuration validates against, so the two accepted sets
    cannot diverge.  ``bounds`` needs an engine registered with the
    ``bin-packing`` capability (``scalar`` or ``reference``); any other
    engine raises :class:`AggregationError` naming the capability.
    """
    # Imported lazily: the registry lives in the api layer above this one.
    from ..api.registry import KIND_AGGREGATION, RegistryError, default_registry

    registry = default_registry()
    try:
        if bounds is None:
            return registry.create(KIND_AGGREGATION, engine, parameters)
        entry = registry.require_capability(KIND_AGGREGATION, engine, "bin-packing")
        return entry.create(parameters, bounds)
    except RegistryError as exc:
        raise AggregationError(str(exc)) from exc


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Disable the cyclic collector for a block, restoring the prior state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
