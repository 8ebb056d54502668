"""Synthetic workload generators.

Substitutes for the external datasets used in the paper's evaluation (UK
NationalGrid demand, NREL wind integration data, the authors' artificial
flex-offer set); README's package table lists them under §9.
"""

from .calendar import CalendarModel, DayType
from .demand import HALF_HOURLY, DemandModel, uk_style_demand
from .flexoffers import (
    FlexOfferArchetype,
    FlexOfferDatasetSpec,
    generate_flexoffer_dataset,
    household_archetypes,
    paper_dataset,
    sample_archetype_offer,
)
from .weather import TemperatureModel, WindSpeedModel
from .wind import PowerCurve, WindFarmModel, nrel_style_wind

__all__ = [
    "CalendarModel",
    "DayType",
    "DemandModel",
    "HALF_HOURLY",
    "uk_style_demand",
    "FlexOfferArchetype",
    "FlexOfferDatasetSpec",
    "generate_flexoffer_dataset",
    "household_archetypes",
    "paper_dataset",
    "sample_archetype_offer",
    "TemperatureModel",
    "WindSpeedModel",
    "PowerCurve",
    "WindFarmModel",
    "nrel_style_wind",
]
