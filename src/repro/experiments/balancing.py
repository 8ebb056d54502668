"""Figure 1, executable: end-to-end balancing before vs after MIRABEL.

One planning day of the 3-level hierarchy (§§2-3) on the streaming runtime:
households (:mod:`repro.node.devices`) draw baselines and flex-offers, their
BRP negotiates them (§7) and plans the agreed ones (one ``LedmsClient`` per
BRP, or a ``ClusterRuntime`` with its TSO), and each offer runs the micro
schedule of the plan that last committed it (see :func:`executions`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from ..aggregation import AggregatedFlexOffer, AggregationParameters, disaggregate
from ..api.client import LedmsClient
from ..core.flexoffer import FlexOffer
from ..core.schedule import ScheduledFlexOffer
from ..core.timebase import DEFAULT_AXIS, TimeAxis
from ..core.timeseries import TimeSeries
from ..datagen.wind import WindFarmModel
from ..negotiation import Negotiator
from ..node.devices import Device, default_household
from ..runtime.cluster import ClusterConfig, ClusterRuntime, TsoConfig
from ..runtime.config import AggregationConfig, SchedulingConfig, ServiceConfig
from ..runtime.drivers import SimulatedDriver
from .reporting import print_table

__all__ = [
    "BalancingReport", "DayPlan", "Scenario", "ScenarioConfig", "draw_scenario",
    "executions", "fallback_execution", "plan_day", "prosumer_day", "run_balancing",
]

FORECAST_NOISE = 0.03
"""σ of a BRP's net-load forecast error, relative to its mean |net load|."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Size and behaviour of one simulated planning day."""

    n_brps: int = 2
    prosumers_per_brp: int = 20
    axis: TimeAxis = DEFAULT_AXIS
    day_start: int = 0
    horizon_slices: int = 144  # 36 h on the 15-min axis: the day + EV tail
    seed: int = 0
    use_tso: bool = False
    wind_share: float = 0.5
    """Mean wind supply as a fraction of mean prosumer demand."""
    aggregation_parameters: AggregationParameters = AggregationParameters(
        start_after_tolerance=8, time_flexibility_tolerance=8, name="sim"
    )
    scheduler_passes: int = 3
    """Greedy scheduler restarts per planning run (deterministic budget)."""
    unreachable_prosumers: frozenset[str] = frozenset()
    """Prosumer names cut off from the network (failure injection): their
    schedules never arrive and they fall back to the open contract."""


@dataclass
class BalancingReport:
    """Before/after metrics of one simulated day (paper Fig. 1); the arrays
    are system demand and wind supply per slice of the horizon (kWh)."""

    peak_demand_before: float
    peak_demand_after: float
    imbalance_before: float
    imbalance_after: float
    res_utilization_before: float
    res_utilization_after: float
    offers_submitted: int
    offers_accepted: int
    offers_scheduled: int  # schedules that reached their prosumer
    aggregate_count: int
    compensation_eur: float
    schedules_undelivered: int  # planned for unreachable prosumers
    demand_before: np.ndarray = field(repr=False)
    demand_after: np.ndarray = field(repr=False)
    wind: np.ndarray = field(repr=False)

    @property
    def peak_reduction(self) -> float:
        """Relative reduction of the demand peak."""
        before = self.peak_demand_before
        return 1.0 - self.peak_demand_after / before if before else 0.0

    @property
    def imbalance_reduction(self) -> float:
        """Relative reduction of total |demand − RES supply|."""
        before = self.imbalance_before
        return 1.0 - self.imbalance_after / before if before else 0.0


class Scenario(NamedTuple):
    """One day as plain data, every mapping in draw order."""

    baselines: dict[str, np.ndarray]  # prosumer -> load over the horizon
    offers: dict[str, list[FlexOffer]]  # prosumer -> its flex-offers
    agreed: dict[str, list[FlexOffer]]  # BRP -> the offers it agreed to
    rejected: set[int]
    compensation_eur: float
    forecasts: dict[str, TimeSeries]  # BRP -> net-load forecast
    wind: np.ndarray  # system wind supply over the horizon


class DayPlan(NamedTuple):
    """Offer id -> micro schedule of the plan that last committed it, and
    the runtime that planned (``cluster`` is ``None`` for BRP-local plans)."""

    schedules: dict[int, ScheduledFlexOffer]
    clients: Mapping[str, LedmsClient]
    cluster: ClusterRuntime | None


def prosumer_day(
    name: str, devices: list[Device], config: ScenarioConfig, rng: np.random.Generator
) -> tuple[np.ndarray, list[FlexOffer]]:
    """One household's baseline over the horizon, then its offers (owner
    ``name``).  A horizon shorter than a day keeps the baseline's overlap."""
    overlap = min(config.axis.slices_per_day, config.horizon_slices)
    baseline = np.zeros(config.horizon_slices)
    for device in devices:
        baseline[:overlap] += device.baseline(config.day_start, rng)[:overlap]
    offers = [
        replace(offer, owner=name)
        for device in devices
        for offer in device.flex_offers(config.day_start, rng)
    ]
    return baseline, offers


def draw_scenario(config: ScenarioConfig) -> Scenario:
    """Draw the day from one generator and negotiate every offer at
    ``day_start``.  Draw order: per BRP its wind, then its households; per
    prosumer its baseline, then its offers; per BRP its forecast noise."""
    rng = np.random.default_rng(config.seed)
    start, horizon = config.day_start, config.horizon_slices
    winds: dict[str, np.ndarray] = {}
    households = []
    for b in range(config.n_brps):
        farm = WindFarmModel(axis=config.axis, n_turbines=1)
        raw = farm.generate(start, horizon, rng).values
        demand = config.prosumers_per_brp * 8.0 / config.axis.slices_per_day
        winds[f"brp-{b}"] = raw * (config.wind_share * demand / (raw.mean() or 1.0))
        for p in range(config.prosumers_per_brp):
            devices = default_household(config.axis, rng)
            households.append((f"prosumer-{b}-{p}", f"brp-{b}", devices))
    baselines, offers, rejected, forecasts = {}, {}, set(), {}
    agreed: dict[str, list[FlexOffer]] = {brp: [] for brp in winds}
    compensation = dict.fromkeys(winds, 0.0)  # each BRP pays its own prosumers
    net = {brp: np.zeros(horizon) for brp in winds}
    for name, brp, devices in households:
        baselines[name], offers[name] = prosumer_day(name, devices, config, rng)
        net[brp] += baselines[name]
        for offer in offers[name]:
            outcome = Negotiator().negotiate(offer, start)
            if outcome.agreed:
                agreed[brp].append(offer)
                compensation[brp] += outcome.price_eur
            else:
                rejected.add(offer.offer_id)
    for brp, values in net.items():
        values -= winds[brp]
        noise = FORECAST_NOISE * (np.abs(values).mean() + 1e-9)
        forecasts[brp] = TimeSeries(start, values + rng.normal(0.0, noise, horizon))
    paid, wind = sum(compensation.values()), sum(winds.values(), np.zeros(horizon))
    return Scenario(baselines, offers, agreed, rejected, paid, forecasts, wind)


def _micro_schedules(schedule) -> list[ScheduledFlexOffer]:
    """A plan's prosumer schedules: each scheduled aggregate disaggregated
    down to the micro offers under it (a TSO plan's supers through their
    macros)."""
    pending = list(schedule)
    micro = []
    while pending:
        scheduled = pending.pop()
        if isinstance(scheduled.offer, AggregatedFlexOffer):
            pending += disaggregate(scheduled)
        else:
            micro.append(scheduled)
    return micro


def plan_day(scenario: Scenario, config: ScenarioConfig) -> DayPlan:
    """Plan the agreed offers on the runtime.

    Every offer arrives at ``day_start`` and the window closes one slice
    later, so each BRP's drain forces the day's plan before any start falls
    due.  Under a TSO, its plan (super → macro → micro) overrides the BRPs'.
    """
    start, horizon = config.day_start, config.horizon_slices
    # Both tiers plan the same horizon with the same budget.
    tier = dict(
        horizon_slices=horizon,
        scheduler_passes=config.scheduler_passes,
        seed=config.seed,
    )
    service = ServiceConfig(
        axis=config.axis,
        aggregation=AggregationConfig(config.aggregation_parameters),
        scheduling=SchedulingConfig(**tier),
    )
    streams = {b: [(start, o) for o in agreed] for b, agreed in scenario.agreed.items()}
    cluster = None
    if config.use_tso:
        system = sum((f.values for f in scenario.forecasts.values()), np.zeros(horizon))
        tso = TsoConfig(
            aggregation=service.aggregation,
            scheduling=replace(TsoConfig().scheduling, **tier),
        )
        cluster = ClusterRuntime(
            ClusterConfig.uniform(config.n_brps, service, tso=tso),
            driver=SimulatedDriver(start),
            tso_net_forecast=TimeSeries(start, system),
        )
        cluster.run(streams, 1)
        clients = cluster.clients
    else:
        clients = {}
        for brp, stream in streams.items():
            forecast = scenario.forecasts[brp]
            clients[brp] = LedmsClient(
                service, driver=SimulatedDriver(start), net_forecast=forecast, name=brp
            )
            clients[brp].run_stream(stream, 1)
    nodes = [client.service for client in clients.values()]
    if cluster is not None:
        nodes.append(cluster.tso)  # last: its plan overrides the BRPs'
    planned = [
        micro
        for node in nodes
        for micro in _micro_schedules(node.last_schedule or ())
    ]
    return DayPlan({s.offer.offer_id: s for s in planned}, clients, cluster)


def fallback_execution(offer: FlexOffer) -> ScheduledFlexOffer:
    """Open-contract behaviour: run immediately at natural power — full
    charging power for consumption, full output (the *minimum*, energies
    being negative) for production."""
    bounds = offer.profile
    energies = bounds.max_array if offer.is_consumption else bounds.min_array
    return ScheduledFlexOffer(offer, offer.earliest_start, energies)


def executions(
    offers: Iterable[FlexOffer],
    schedules: Mapping[int, ScheduledFlexOffer],
    rejected: set[int],
    *,
    reachable: bool = True,
) -> list[ScheduledFlexOffer]:
    """What one prosumer's offers run: its schedule where one was planned,
    the open contract otherwise, nothing when rejected.  A prosumer cut off
    from the network hears neither, so all of its offers fall back."""
    if not reachable:
        return [fallback_execution(offer) for offer in offers]
    return [
        schedules.get(offer.offer_id) or fallback_execution(offer)
        for offer in offers
        if offer.offer_id in schedules or offer.offer_id not in rejected
    ]


def _res_utilization(demand: np.ndarray, wind: np.ndarray) -> float:
    """Fraction of RES production covered by simultaneous demand."""
    produced = wind.sum()
    covered = np.minimum(np.maximum(demand, 0.0), wind).sum()
    return float(covered / produced) if produced > 0 else 0.0


def run_balancing(
    *, config: ScenarioConfig | None = None, verbose: bool = True
) -> BalancingReport:
    """Run one planning day; returns the before/after balancing report."""
    config = config or ScenarioConfig(seed=3)
    scenario = draw_scenario(config)
    plan = plan_day(scenario, config)
    cut_off = config.unreachable_prosumers

    def demand(schedules: Mapping[int, ScheduledFlexOffer]) -> np.ndarray:
        """Baselines plus whatever each prosumer runs, per slice."""
        total = np.zeros(config.horizon_slices)
        for name, offers in scenario.offers.items():
            load = scenario.baselines[name].copy()
            runs = executions(
                offers, schedules, scenario.rejected, reachable=name not in cut_off
            )
            for run in runs:
                for k, energy in enumerate(run.energies):
                    t = run.start + k - config.day_start
                    if 0 <= t < len(load):
                        load[t] += energy
            total += load
        return total

    before, after, wind = demand({}), demand(plan.schedules), scenario.wind
    undelivered = sum(s.offer.owner in cut_off for s in plan.schedules.values())
    report = BalancingReport(
        peak_demand_before=float(np.max(before)),
        peak_demand_after=float(np.max(after)),
        imbalance_before=float(np.abs(before - wind).sum()),
        imbalance_after=float(np.abs(after - wind).sum()),
        res_utilization_before=_res_utilization(before, wind),
        res_utilization_after=_res_utilization(after, wind),
        offers_submitted=sum(map(len, scenario.offers.values())),
        offers_accepted=sum(map(len, scenario.agreed.values())),
        offers_scheduled=len(plan.schedules) - undelivered,
        aggregate_count=sum(
            len(c.service.session.groups) for c in plan.clients.values()
        ),
        compensation_eur=scenario.compensation_eur,
        schedules_undelivered=undelivered,
        demand_before=before,
        demand_after=after,
        wind=wind,
    )
    if verbose:
        gain = report.res_utilization_after - report.res_utilization_before
        print_table(
            "Fig 1: balancing before vs after the EDMS",
            ["metric", "before", "after", "change"],
            [
                ["peak demand (kWh/slice)", report.peak_demand_before,
                 report.peak_demand_after, f"-{report.peak_reduction:.1%}"],
                ["total |imbalance| (kWh)", report.imbalance_before,
                 report.imbalance_after, f"-{report.imbalance_reduction:.1%}"],
                ["RES utilisation", report.res_utilization_before,
                 report.res_utilization_after, f"+{gain:.2f}"],
            ],
        )
        print(
            f"offers: {report.offers_submitted} submitted, "
            f"{report.offers_accepted} accepted, {report.offers_scheduled} "
            f"scheduled via {report.aggregate_count} aggregates; "
            f"{report.compensation_eur:.2f} EUR compensation"
        )
    return report
