"""Composable service configuration, re-exported at the api layer.

The concrete dataclasses live in :mod:`repro.runtime.config` (they sit
below the facade so the service loop can use them without importing the
client); this module is their canonical public import path::

    from repro.api.config import ServiceConfig, SchedulingConfig
"""

from ..runtime.config import (
    AggregationConfig,
    IngestConfig,
    MarketConfig,
    SchedulingConfig,
    ServiceConfig,
    build_trigger,
    default_trigger,
)

__all__ = [
    "AggregationConfig",
    "IngestConfig",
    "MarketConfig",
    "SchedulingConfig",
    "ServiceConfig",
    "build_trigger",
    "default_trigger",
]
