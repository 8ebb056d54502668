"""LEDMS node implementations: prosumer, BRP (trader) and TSO (paper §§2-3).

Every node owns a :class:`~repro.datamgmt.LedmsStore` (Data Management), a
handle to the :class:`~repro.node.bus.MessageBus` (Communication) and the
component wiring its role needs — prosumers issue and execute flex-offers,
BRPs run acceptance → aggregation → scheduling → disaggregation, and the TSO
re-aggregates and schedules the BRPs' macro flex-offers (the level-3 path).

The Control component is the per-phase driver in
:mod:`repro.node.simulation`; nodes only react to messages and explicit
phase calls, which keeps the protocol deterministic and testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..aggregation import AggregationParameters, aggregate_from_scratch, disaggregate
from ..aggregation.aggregator import AggregatedFlexOffer
from ..core.errors import CommunicationError
from ..core.flexoffer import FlexOffer
from ..core.schedule import ScheduledFlexOffer
from ..core.timebase import TimeAxis
from ..core.timeseries import TimeSeries
from ..datamgmt import LedmsStore
from ..negotiation import AcceptancePolicy, Negotiator
from ..scheduling import Market, SchedulingProblem
from .bus import MessageBus
from .devices import Device
from .messages import Message, MessageType

__all__ = ["LedmsNode", "ProsumerNode", "BrpNode", "TsoNode"]


def _make_scheduler(name: str):
    """Resolve a scheduler by registry name (the BRP/TSO planning path).

    Node-tier planning is pass-bounded and warm-startable, so the chosen
    scheduler must declare the same ``runtime`` capability the streaming
    service requires — one check, owned by the registry.  Imported lazily:
    the registry lives in the api layer.
    """
    from ..api.registry import KIND_SCHEDULER, default_registry

    return default_registry().create_with_capability(
        KIND_SCHEDULER, name, "runtime"
    )


class LedmsNode:
    """Shared LEDMS plumbing: identity, store, communication."""

    def __init__(self, name: str, role: str, axis: TimeAxis, bus: MessageBus):
        self.name = name
        self.role = role
        self.axis = axis
        self.bus = bus
        self.store = LedmsStore(axis)
        self.store.register_actor(name, role)
        bus.register(name, self.handle_message)

    def send(self, recipient: str, type_: MessageType, payload, now: int) -> None:
        """Queue one message on the bus."""
        self.bus.send(Message(self.name, recipient, type_, payload, now))

    def handle_message(self, message: Message) -> None:  # pragma: no cover
        raise CommunicationError(
            f"{self.name} received unexpected {message.type}"
        )


class ProsumerNode(LedmsNode):
    """A level-1 node: issues flex-offers, executes what comes back.

    Offers for which no schedule arrives by their assignment deadline fall
    back to the *open contract*: the device runs at its natural power as
    soon as possible — the graceful-degradation behaviour of paper §1.
    """

    def __init__(
        self,
        name: str,
        axis: TimeAxis,
        bus: MessageBus,
        devices: list[Device],
        brp: str,
    ):
        super().__init__(name, "prosumer", axis, bus)
        self.devices = devices
        self.brp = brp
        self.pending: dict[int, FlexOffer] = {}
        self.assignments: dict[int, ScheduledFlexOffer] = {}
        self.rejected: set[int] = set()
        self._baseline: TimeSeries | None = None

    # ------------------------------------------------------------------
    def plan_day(self, day_start: int, horizon: int, rng: np.random.Generator) -> None:
        """Compute the day's baseline and submit the day's flex-offers."""
        per_day = self.axis.slices_per_day
        values = np.zeros(horizon)
        # The baseline covers one day; a horizon shorter than a day keeps
        # only the overlap (same clip realized_load applies on read-back).
        overlap = min(per_day, horizon)
        for device in self.devices:
            day_profile = device.baseline(day_start, rng)
            values[:overlap] += day_profile[:overlap]
        self._baseline = TimeSeries(day_start, values)
        self.store.register_energy_type("baseline", renewable=False)
        self.store.record_measurements(self.name, "baseline", self._baseline)
        self.send(self.brp, MessageType.MEASUREMENT, self._baseline, day_start)

        for device in self.devices:
            for offer in device.flex_offers(day_start, rng):
                offer = FlexOffer(
                    profile=offer.profile,
                    earliest_start=offer.earliest_start,
                    latest_start=offer.latest_start,
                    offer_id=offer.offer_id,
                    owner=self.name,
                    creation_time=offer.creation_time,
                    assignment_before=offer.assignment_before,
                    unit_price=offer.unit_price,
                )
                self.pending[offer.offer_id] = offer
                self.store.record_offer_event(self.name, offer, "submitted", day_start)
                self.send(self.brp, MessageType.FLEX_OFFER_SUBMIT, offer, day_start)

    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.type is MessageType.SCHEDULED_FLEX_OFFER:
            scheduled: ScheduledFlexOffer = message.payload
            offer_id = scheduled.offer.offer_id
            if offer_id in self.pending:
                self.assignments[offer_id] = scheduled
                self.store.record_offer_event(
                    self.name, scheduled.offer, "scheduled", message.issued_at
                )
        elif message.type is MessageType.FLEX_OFFER_REJECT:
            offer: FlexOffer = message.payload
            if offer.offer_id in self.pending:
                self.rejected.add(offer.offer_id)
                self.store.record_offer_event(
                    self.name, offer, "rejected", message.issued_at
                )
        elif message.type is MessageType.FLEX_OFFER_ACCEPT:
            offer = message.payload
            self.store.record_offer_event(
                self.name, offer, "accepted", message.issued_at
            )
        else:
            raise CommunicationError(f"{self.name}: unexpected {message.type}")

    # ------------------------------------------------------------------
    @staticmethod
    def fallback_execution(offer: FlexOffer) -> ScheduledFlexOffer:
        """Open-contract behaviour: run immediately at natural power.

        Consumption devices draw their maximum band (full charging power);
        production devices likewise produce at full output (their *minimum*,
        since production energies are negative).
        """
        energies = (
            offer.profile.max_energies()
            if offer.is_consumption
            else offer.profile.min_energies()
        )
        return ScheduledFlexOffer(offer, offer.earliest_start, energies)

    def executions(self) -> list[ScheduledFlexOffer]:
        """What actually runs: schedules where received, fallbacks otherwise.

        Rejected offers never run — the BRP declined the flexibility, so the
        device neither follows a schedule nor falls back to the open
        contract for that offer.
        """
        out = []
        for offer_id, offer in self.pending.items():
            scheduled = self.assignments.get(offer_id)
            if scheduled is not None:
                out.append(scheduled)
            elif offer_id not in self.rejected:
                out.append(self.fallback_execution(offer))
        return out

    def realized_load(self, horizon_start: int, horizon: int) -> TimeSeries:
        """Baseline plus executed flex energy over the window."""
        values = np.zeros(horizon)
        if self._baseline is not None:
            overlap = min(len(self._baseline), horizon)
            values[:overlap] += self._baseline.values[:overlap]
        for execution in self.executions():
            for k, energy in enumerate(execution.energies):
                t = execution.start + k - horizon_start
                if 0 <= t < horizon:
                    values[t] += energy
        return TimeSeries(horizon_start, values)


@dataclass
class BrpDayResult:
    """What the BRP did with one day's offer pool."""

    received: int = 0
    accepted: int = 0
    rejected: int = 0
    aggregates: int = 0
    schedule_cost: float = float("nan")
    scheduled_micro: int = 0
    compression_ratio: float = float("nan")
    forwarded_macros: int = 0
    compensation_eur: float = 0.0
    """Total flexibility compensation agreed with prosumers (§7)."""


class BrpNode(LedmsNode):
    """A level-2 trader node running the full LEDMS component chain."""

    def __init__(
        self,
        name: str,
        axis: TimeAxis,
        bus: MessageBus,
        *,
        aggregation_parameters: AggregationParameters,
        acceptance: AcceptancePolicy | None = None,
        negotiator: Negotiator | None = None,
        res_supply: TimeSeries | None = None,
        forecast_noise: float = 0.03,
        scheduler_passes: int = 3,
        scheduler: str = "greedy",
    ):
        super().__init__(name, "brp", axis, bus)
        self.aggregation_parameters = aggregation_parameters
        self.acceptance = acceptance or AcceptancePolicy()
        self.negotiator = negotiator or Negotiator(self.acceptance)
        self.res_supply = res_supply
        self.forecast_noise = forecast_noise
        self.scheduler_passes = scheduler_passes
        self.scheduler = _make_scheduler(scheduler)
        self.offers: dict[int, FlexOffer] = {}
        self.offer_owners: dict[int, str] = {}
        self.baselines: dict[str, TimeSeries] = {}
        self.result = BrpDayResult()
        self._scheduled_macros: list[ScheduledFlexOffer] = []

    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.type is MessageType.FLEX_OFFER_SUBMIT:
            self._receive_offer(message)
        elif message.type is MessageType.MEASUREMENT:
            self.baselines[message.sender] = message.payload
        elif message.type is MessageType.SCHEDULED_MACRO_FLEX_OFFER:
            self._scheduled_macros.append(message.payload)
        else:
            raise CommunicationError(f"{self.name}: unexpected {message.type}")

    def _receive_offer(self, message: Message) -> None:
        """Acceptance plus price negotiation (§7) for one incoming offer."""
        offer: FlexOffer = message.payload
        self.result.received += 1
        outcome = self.negotiator.negotiate(offer, message.issued_at)
        if outcome.agreed:
            self.offers[offer.offer_id] = offer
            self.offer_owners[offer.offer_id] = message.sender
            self.result.accepted += 1
            self.result.compensation_eur += outcome.price_eur
            self.store.record_offer_event(
                self.name, offer, "accepted", message.issued_at
            )
            self.send(
                message.sender, MessageType.FLEX_OFFER_ACCEPT, offer, message.issued_at
            )
        else:
            self.result.rejected += 1
            self.store.record_offer_event(
                self.name, offer, "rejected", message.issued_at
            )
            self.send(
                message.sender, MessageType.FLEX_OFFER_REJECT, offer, message.issued_at
            )

    # ------------------------------------------------------------------
    def aggregate(self) -> list[AggregatedFlexOffer]:
        """Run the aggregation pipeline over the accepted offer pool."""
        aggregates = aggregate_from_scratch(
            list(self.offers.values()), self.aggregation_parameters
        )
        self.result.aggregates = len(aggregates)
        if aggregates:
            self.result.compression_ratio = len(self.offers) / len(aggregates)
        return aggregates

    def net_forecast(
        self, horizon_start: int, horizon: int, rng: np.random.Generator
    ) -> TimeSeries:
        """Forecast non-flexible net load: baselines minus RES supply.

        A multiplicative noise term models forecast error (the full
        model-based forecasting stack is exercised separately; see
        DESIGN.md on the simulation's forecast shortcut).
        """
        values = np.zeros(horizon)
        for baseline in self.baselines.values():
            overlap = min(len(baseline), horizon)
            values[:overlap] += baseline.values[:overlap]
        if self.res_supply is not None:
            window = self.res_supply.window(horizon_start, horizon_start + horizon)
            values -= window.values
        if self.forecast_noise > 0:
            values = values + rng.normal(
                0.0, self.forecast_noise * (np.abs(values).mean() + 1e-9), horizon
            )
        return TimeSeries(horizon_start, values)

    def build_problem(
        self,
        aggregates: list[AggregatedFlexOffer],
        horizon_start: int,
        horizon: int,
        rng: np.random.Generator,
        *,
        market: Market | None = None,
    ) -> SchedulingProblem:
        """Assemble the scheduling problem for the day."""
        market = market or Market(
            np.full(horizon, 0.20),
            np.full(horizon, 0.05),
            max_sell=np.full(horizon, 1.0),
        )
        return SchedulingProblem(
            self.net_forecast(horizon_start, horizon, rng),
            tuple(aggregates),
            market,
        )

    def schedule_and_disaggregate(
        self,
        aggregates: list[AggregatedFlexOffer],
        horizon_start: int,
        horizon: int,
        rng: np.random.Generator,
    ) -> None:
        """Schedule the macro offers locally and answer every prosumer."""
        if not aggregates:
            return
        problem = self.build_problem(aggregates, horizon_start, horizon, rng)
        result = self.scheduler.schedule(
            problem, max_passes=self.scheduler_passes, rng=rng
        )
        self.result.schedule_cost = result.cost
        schedule = problem.to_schedule(result.solution)
        self._send_back(schedule.assignments, horizon_start)

    def forward_macros(
        self, aggregates: list[AggregatedFlexOffer], tso: str, now: int
    ) -> None:
        """Level-3 path: hand the macro flex-offers to the TSO."""
        for aggregate in aggregates:
            self.send(tso, MessageType.MACRO_FLEX_OFFER, aggregate, now)
            self.result.forwarded_macros += 1

    def disaggregate_tso_schedule(self, horizon_start: int) -> None:
        """Disaggregate the TSO's scheduled macros down to prosumers."""
        self._send_back(self._scheduled_macros, horizon_start)
        self._scheduled_macros = []

    # ------------------------------------------------------------------
    def _send_back(
        self, scheduled_aggregates: list[ScheduledFlexOffer], now: int
    ) -> None:
        for scheduled in scheduled_aggregates:
            for micro in disaggregate(scheduled):
                owner = self.offer_owners.get(micro.offer.offer_id)
                if owner is None:
                    continue
                self.send(owner, MessageType.SCHEDULED_FLEX_OFFER, micro, now)
                self.result.scheduled_micro += 1


class TsoNode(LedmsNode):
    """A level-3 node: re-aggregates BRP macros and schedules system-wide."""

    def __init__(
        self,
        name: str,
        axis: TimeAxis,
        bus: MessageBus,
        *,
        aggregation_parameters: AggregationParameters,
        scheduler_passes: int = 3,
        scheduler: str = "greedy",
    ):
        super().__init__(name, "tso", axis, bus)
        self.aggregation_parameters = aggregation_parameters
        self.scheduler_passes = scheduler_passes
        self.scheduler = _make_scheduler(scheduler)
        self.macros: dict[int, AggregatedFlexOffer] = {}
        self.macro_senders: dict[int, str] = {}
        self.schedule_cost = float("nan")

    def handle_message(self, message: Message) -> None:
        if message.type is MessageType.MACRO_FLEX_OFFER:
            macro: AggregatedFlexOffer = message.payload
            self.macros[macro.offer_id] = macro
            self.macro_senders[macro.offer_id] = message.sender
        else:
            raise CommunicationError(f"{self.name}: unexpected {message.type}")

    def schedule(
        self,
        net_forecast: TimeSeries,
        rng: np.random.Generator,
        *,
        market: Market | None = None,
    ) -> None:
        """Re-aggregate the BRP macros, schedule, send schedules back.

        The TSO aggregates the level-2 macros once more (the paper's "the
        process is essentially repeated at a higher level"); disaggregating
        its schedule yields scheduled level-2 macros, which each BRP then
        disaggregates to micro offers.
        """
        if not self.macros:
            return
        horizon = len(net_forecast)
        super_aggregates = aggregate_from_scratch(
            list(self.macros.values()), self.aggregation_parameters
        )

        market = market or Market(
            np.full(horizon, 0.20),
            np.full(horizon, 0.05),
            max_sell=np.full(horizon, 1.0),
        )
        problem = SchedulingProblem(net_forecast, tuple(super_aggregates), market)
        result = self.scheduler.schedule(
            problem, max_passes=self.scheduler_passes, rng=rng
        )
        self.schedule_cost = result.cost
        schedule = problem.to_schedule(result.solution)
        for scheduled_super in schedule.assignments:
            for scheduled_macro in disaggregate(scheduled_super):
                sender = self.macro_senders.get(scheduled_macro.offer.offer_id)
                if sender is None:
                    continue
                self.send(
                    sender,
                    MessageType.SCHEDULED_MACRO_FLEX_OFFER,
                    scheduled_macro,
                    net_forecast.start,
                )
