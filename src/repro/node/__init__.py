"""The messages between LEDMS nodes and the prosumer device models.

The cluster runtime's BRPs and TSO exchange these messages over its bus
(:class:`repro.runtime.cluster.BusAdapter`); the devices are the
households of Fig. 1's balancing day (:mod:`repro.experiments.balancing`).
"""

from .devices import (
    BaseLoad,
    Device,
    EVCharger,
    HeatPump,
    MicroCHP,
    SolarPanel,
    WashingMachine,
    default_household,
)
from .messages import Message, MessageType

__all__ = [
    "Message",
    "MessageType",
    "Device",
    "BaseLoad",
    "EVCharger",
    "HeatPump",
    "WashingMachine",
    "SolarPanel",
    "MicroCHP",
    "default_household",
]
