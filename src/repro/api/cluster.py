"""The multi-node cluster runtime, re-exported at the api layer.

The implementations live in :mod:`repro.runtime.cluster` (they compose the
service loop, the bus and the facade below this layer); this module is
their canonical public import path::

    from repro.api.cluster import ClusterRuntime, ClusterConfig, TsoConfig
"""

from ..runtime.cluster import (
    BrpHost,
    BusAdapter,
    BusConfig,
    ClusterConfig,
    ClusterReport,
    ClusterRuntime,
    TsoConfig,
    TsoRuntimeService,
)
from ..runtime.parallel import (
    ParallelClusterRuntime,
    ProcessBusTransport,
    WorkerCrashError,
)

__all__ = [
    "BrpHost",
    "BusAdapter",
    "BusConfig",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRuntime",
    "ParallelClusterRuntime",
    "ProcessBusTransport",
    "TsoConfig",
    "TsoRuntimeService",
    "WorkerCrashError",
]
