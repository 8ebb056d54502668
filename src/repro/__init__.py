"""repro — a reproduction of the MIRABEL smart-grid Energy Data Management
System (Boehm et al., EDBT/ICDT Workshops 2012).

The library implements the full LEDMS node stack described in the paper:

* :mod:`repro.api` — the unified front door: ``LedmsClient`` facade,
  pluggable time drivers, composable ``ServiceConfig``
* :mod:`repro.core` — flex-offers, time axis, time series, schedules
* :mod:`repro.aggregation` — incremental flex-offer aggregation (§4)
* :mod:`repro.forecasting` — HWT/EGRV models, estimators, maintenance (§5)
* :mod:`repro.scheduling` — cost model, the randomized greedy planner, an
  exact MILP oracle (§6)
* :mod:`repro.negotiation` — flexibility pricing and acceptance (§7)
* :mod:`repro.datamgmt` — dimensional (star/snowflake) data store (§3)
* :mod:`repro.node` — the messages the cluster runtime's BRPs and TSO
  exchange over its bus, prosumer device models
* :mod:`repro.runtime` — streaming service loop: event-driven ingest,
  incremental aggregation, triggered scheduling, load generation
* :mod:`repro.datagen` — synthetic workloads standing in for the paper's data
* :mod:`repro.experiments` — harnesses regenerating every figure in §9
"""

from .core import (
    DEFAULT_AXIS,
    EnergyConstraint,
    FlexOffer,
    MirabelError,
    Profile,
    Schedule,
    ScheduledFlexOffer,
    TimeAxis,
    TimeSeries,
    flex_offer,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MirabelError",
    "EnergyConstraint",
    "Profile",
    "FlexOffer",
    "flex_offer",
    "ScheduledFlexOffer",
    "Schedule",
    "TimeAxis",
    "DEFAULT_AXIS",
    "TimeSeries",
]
