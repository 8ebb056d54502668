"""Prosumer device models (paper §§1-2).

Each device contributes *non-flexible* baseline load ("lights, TV, or a
cooking stove") and/or issues *flex-offers* for shiftable operation ("the
usage of a washing machine or charging an electric vehicle").  Production
devices (solar, micro-CHP) contribute negative energy; the solar panel is
non-flexible, the CHP offers flexibility — matching the paper's point that
MIRABEL handles "all forms of both flexible demand … and supply … in a
completely general way".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.flexoffer import FlexOffer, flex_offer
from ..core.timebase import TimeAxis

__all__ = [
    "Device",
    "BaseLoad",
    "SolarPanel",
    "EVCharger",
    "WashingMachine",
    "HeatPump",
    "MicroCHP",
    "default_household",
]


class Device(ABC):
    """A household device: baseline load plus optional flex-offers."""

    def __init__(self, axis: TimeAxis):
        self.axis = axis

    @abstractmethod
    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        """Non-flexible energy per slice (kWh) for the day starting at
        ``day_start`` (negative = production)."""

    def flex_offers(
        self, day_start: int, rng: np.random.Generator
    ) -> list[FlexOffer]:
        """Flex-offers issued for that day (empty for inflexible devices)."""
        return []

    def _zeros(self) -> np.ndarray:
        return np.zeros(self.axis.slices_per_day)


class BaseLoad(Device):
    """Aggregate non-flexible household consumption with an evening peak."""

    def __init__(self, axis: TimeAxis, *, mean_kwh_per_day: float = 6.0):
        super().__init__(axis)
        self.mean_kwh_per_day = mean_kwh_per_day

    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        per_day = self.axis.slices_per_day
        x = np.arange(per_day) / per_day
        shape = (
            0.6
            - 0.4 * np.cos(2 * np.pi * (x - 1 / 6))
            + 0.9 * np.exp(-0.5 * ((x - 0.79) / 0.06) ** 2)
        )
        shape = shape / shape.sum() * self.mean_kwh_per_day
        noise = rng.normal(1.0, 0.15, per_day).clip(0.3, 2.0)
        return shape * noise


class SolarPanel(Device):
    """Non-flexible PV production: a midday bell scaled by random cloud cover."""

    def __init__(self, axis: TimeAxis, *, peak_kw: float = 3.0):
        super().__init__(axis)
        self.peak_kw = peak_kw

    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        per_day = self.axis.slices_per_day
        x = np.arange(per_day) / per_day
        bell = np.exp(-0.5 * ((x - 0.5) / 0.11) ** 2)
        clouds = rng.uniform(0.3, 1.0)
        hours_per_slice = self.axis.resolution_minutes / 60.0
        return -self.peak_kw * clouds * bell * hours_per_slice


class EVCharger(Device):
    """Electric-vehicle charging — the paper's running example (Fig. 3).

    The car arrives in the evening and must be charged by next morning; the
    charge block may start anywhere in between, and charging power may be
    modulated within a band (energy flexibility).
    """

    def __init__(
        self,
        axis: TimeAxis,
        *,
        arrival_hour_range: tuple[int, int] = (20, 23),
        done_by_hour: int = 7,
        charge_hours: int = 2,
        power_band_kw: tuple[float, float] = (6.0, 10.0),
        use_probability: float = 0.9,
    ):
        super().__init__(axis)
        self.arrival_hour_range = arrival_hour_range
        self.done_by_hour = done_by_hour
        self.charge_hours = charge_hours
        self.power_band_kw = power_band_kw
        self.use_probability = use_probability

    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        return self._zeros()

    def flex_offers(self, day_start: int, rng: np.random.Generator) -> list[FlexOffer]:
        if rng.random() > self.use_probability:
            return []
        per_hour = self.axis.slices_per_hour
        arrival_hour = int(rng.integers(*self.arrival_hour_range))
        earliest = day_start + arrival_hour * per_hour
        done_by = day_start + (24 + self.done_by_hour) * per_hour
        duration = self.charge_hours * per_hour
        latest = done_by - duration
        hours_per_slice = 1.0 / per_hour
        lo = self.power_band_kw[0] * hours_per_slice
        hi = self.power_band_kw[1] * hours_per_slice
        return [
            flex_offer(
                [(lo, hi)] * duration,
                earliest_start=earliest,
                latest_start=latest,
                owner="ev-charger",
                creation_time=earliest,
                assignment_before=latest,
                unit_price=0.01,
            )
        ]


class WashingMachine(Device):
    """A wet appliance: one fixed-energy cycle, shiftable within the day."""

    def __init__(
        self,
        axis: TimeAxis,
        *,
        cycle_hours: int = 2,
        cycle_kwh: float = 1.2,
        run_probability: float = 0.5,
    ):
        super().__init__(axis)
        self.cycle_hours = cycle_hours
        self.cycle_kwh = cycle_kwh
        self.run_probability = run_probability

    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        return self._zeros()

    def flex_offers(self, day_start: int, rng: np.random.Generator) -> list[FlexOffer]:
        if rng.random() > self.run_probability:
            return []
        per_hour = self.axis.slices_per_hour
        duration = self.cycle_hours * per_hour
        load_hour = int(rng.integers(8, 14))
        earliest = day_start + load_hour * per_hour
        latest = day_start + 22 * per_hour - duration
        energy = self.cycle_kwh / duration
        return [
            flex_offer(
                [(energy, energy)] * duration,
                earliest_start=earliest,
                latest_start=max(earliest, latest),
                owner="washing-machine",
                creation_time=earliest,
                unit_price=0.015,
            )
        ]


class HeatPump(Device):
    """A heat pump with thermal-buffer flexibility.

    Keeps a small always-on baseline (circulation, control) and issues one
    flex-offer per heating block: the thermal store lets each block shift by
    a couple of hours and modulate its power band — the paper's canonical
    "flexible demand, e.g., heat pumps".
    """

    def __init__(
        self,
        axis: TimeAxis,
        *,
        block_hours: int = 2,
        power_band_kw: tuple[float, float] = (1.0, 2.5),
        shift_hours: int = 3,
        blocks_per_day: int = 2,
        standby_kw: float = 0.05,
    ):
        super().__init__(axis)
        self.block_hours = block_hours
        self.power_band_kw = power_band_kw
        self.shift_hours = shift_hours
        self.blocks_per_day = blocks_per_day
        self.standby_kw = standby_kw

    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        hours_per_slice = self.axis.resolution_minutes / 60.0
        return np.full(self.axis.slices_per_day, self.standby_kw * hours_per_slice)

    def flex_offers(self, day_start: int, rng: np.random.Generator) -> list[FlexOffer]:
        per_hour = self.axis.slices_per_hour
        duration = self.block_hours * per_hour
        shift = self.shift_hours * per_hour
        hours_per_slice = 1.0 / per_hour
        lo = self.power_band_kw[0] * hours_per_slice
        hi = self.power_band_kw[1] * hours_per_slice
        offers = []
        # heating blocks anchored to the cold morning and evening hours
        anchors = (5, 16)[: self.blocks_per_day]
        for anchor in anchors:
            earliest = day_start + anchor * per_hour + int(rng.integers(0, per_hour))
            offers.append(
                flex_offer(
                    [(lo, hi)] * duration,
                    earliest_start=earliest,
                    latest_start=earliest + shift,
                    owner="heat-pump",
                    creation_time=earliest,
                    unit_price=0.012,
                )
            )
        return offers


class MicroCHP(Device):
    """A small combined-heat-and-power unit: flexible *production*."""

    def __init__(
        self,
        axis: TimeAxis,
        *,
        run_hours: int = 3,
        power_band_kw: tuple[float, float] = (1.0, 3.0),
        run_probability: float = 0.7,
    ):
        super().__init__(axis)
        self.run_hours = run_hours
        self.power_band_kw = power_band_kw
        self.run_probability = run_probability

    def baseline(self, day_start: int, rng: np.random.Generator) -> np.ndarray:
        return self._zeros()

    def flex_offers(self, day_start: int, rng: np.random.Generator) -> list[FlexOffer]:
        if rng.random() > self.run_probability:
            return []
        per_hour = self.axis.slices_per_hour
        duration = self.run_hours * per_hour
        earliest = day_start + 6 * per_hour
        latest = day_start + 21 * per_hour - duration
        hours_per_slice = 1.0 / per_hour
        return [
            flex_offer(
                # production: energies negative; min is the *most* production
                [(-self.power_band_kw[1] * hours_per_slice,
                  -self.power_band_kw[0] * hours_per_slice)] * duration,
                earliest_start=earliest,
                latest_start=max(earliest, latest),
                owner="micro-chp",
                creation_time=earliest,
                unit_price=0.02,
            )
        ]


def default_household(
    axis: TimeAxis, rng: np.random.Generator
) -> list[Device]:
    """A randomised household device mix."""
    devices: list[Device] = [
        BaseLoad(axis, mean_kwh_per_day=float(rng.uniform(4.0, 9.0)))
    ]
    if rng.random() < 0.5:
        devices.append(EVCharger(axis))
    if rng.random() < 0.8:
        devices.append(WashingMachine(axis))
    if rng.random() < 0.35:
        devices.append(SolarPanel(axis, peak_kw=float(rng.uniform(2.0, 5.0))))
    if rng.random() < 0.3:
        devices.append(HeatPump(axis))
    if rng.random() < 0.1:
        devices.append(MicroCHP(axis))
    return devices
