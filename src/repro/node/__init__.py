"""The message bus between LEDMS nodes and the prosumer device models.

The cluster runtime's BRPs and TSO talk over the bus
(:mod:`repro.runtime.cluster`); the devices are the households of Fig. 1's
balancing day (:mod:`repro.experiments.balancing`).
"""

from .bus import MessageBus
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
    "MessageBus",
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
