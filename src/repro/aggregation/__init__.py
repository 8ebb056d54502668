"""Flex-offer aggregation (paper §4).

Public API::

    from repro.aggregation import (
        AggregationParameters, P0, P1, P2, P3,
        AggregationPipeline, PackedAggregationPipeline, make_pipeline,
        aggregate_from_scratch, aggregate_group, disaggregate,
        BinPacker, BinPackerBounds,
        evaluate_aggregation,
    )

The scalar and columnar ("packed") pipelines are interchangeable via
:func:`make_pipeline`; :mod:`repro.aggregation.reference` keeps the
historical scalar state as the property-test oracle.
"""

from .aggregator import (
    AggregatedFlexOffer,
    NToOneAggregator,
    aggregate_group,
    disaggregate,
)
from .binpacking import BinPacker, BinPackerBounds, first_fit_bins
from .engine import (
    GroupArena,
    GroupProfileState,
    PackedAggregationPipeline,
    PackedPool,
)
from .grouping import GroupBuilder
from .metrics import AggregationQuality, evaluate_aggregation
from .pipeline import AggregationPipeline, aggregate_from_scratch, make_pipeline
from .reference import ReferenceAggregator, ReferenceGroupState
from .thresholds import P0, P1, P2, P3, AggregationParameters, paper_combinations
from .updates import (
    AggregateUpdate,
    FlexOfferUpdate,
    GroupUpdate,
    UpdateKind,
)

__all__ = [
    "AggregatedFlexOffer",
    "NToOneAggregator",
    "aggregate_group",
    "disaggregate",
    "BinPacker",
    "BinPackerBounds",
    "first_fit_bins",
    "GroupArena",
    "GroupBuilder",
    "GroupProfileState",
    "PackedAggregationPipeline",
    "PackedPool",
    "AggregationQuality",
    "evaluate_aggregation",
    "AggregationPipeline",
    "aggregate_from_scratch",
    "make_pipeline",
    "ReferenceAggregator",
    "ReferenceGroupState",
    "AggregationParameters",
    "paper_combinations",
    "P0",
    "P1",
    "P2",
    "P3",
    "AggregateUpdate",
    "FlexOfferUpdate",
    "GroupUpdate",
    "UpdateKind",
]
