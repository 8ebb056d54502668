"""Flex-offer aggregation (paper §4).

Public API::

    from repro.aggregation import (
        AggregationParameters, P0, P1, P2, P3,
        AggregationPipeline, PackedAggregationPipeline, make_pipeline,
        aggregate_from_scratch, aggregate_group, disaggregate,
        BinPacker, BinPackerBounds,
        evaluate_aggregation,
    )

The runtime aggregates with the columnar ("packed") engine.  The scalar
pipeline and :mod:`repro.aggregation.reference`'s historical scalar state
are its oracles and the Fig. 5 baselines; :func:`make_pipeline` builds any
of the three by name.
"""

from .aggregator import (
    AggregatedFlexOffer,
    BuiltView,
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
    PackedView,
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
    "BuiltView",
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
    "PackedView",
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
