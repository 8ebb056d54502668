"""Deterministic log replay: re-execution and projection recovery modes.

Both take the :class:`~repro.runtime.service.BrpRuntimeService` to rebuild
(fresh, with the ledger attached) and drive it through its own front door —
``submit``/``update``/``withdraw``/``drain``/``restore_commitment`` — so any
host of a service (the api facade, a cluster's ``BrpHost``) is replayable:

:func:`reexecute`
    Re-drive every journaled *input* fact (``submit``/``replace``/
    ``withdraw``, plus ``run_window`` sweep-cadence markers) through the
    service at its recorded simulated time, on a simulated driver.
    Because the service loop is deterministic given (config, input
    sequence, times), the rebuilt node is bit-identical to the
    uninterrupted run at the last journaled instant — pool, kept placements,
    trigger state, RNG trajectory, metrics and all — and the run simply
    continues from there.  Derived facts (``scheduled``/``retire``/
    ``dead_letter``) are regenerated, not replayed; journaling is
    suspended while replaying so the log is not double-appended.

:func:`project`
    Fold the facts into the state they imply, then apply it: re-admit the
    still-live offers, restore committed starts from ``scheduled`` facts
    and replay terminal lifecycle rows for retired offers.  This works
    under any driver (wall-clock included, where past instants cannot be
    re-driven) and guarantees no accepted offer or committed schedule is
    lost, but does not reproduce internal scheduler state bit-for-bit.

Projection writes lifecycle facts for actors the fresh store has never
seen, so it registers each retired offer's owner first
(:meth:`LedmsStore.register_actor` is idempotent) instead of depending on
registration-order luck.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.errors import DataManagementError
from .codec import offer_from_dict
from .ledger import INPUT_KINDS, OfferLedger

__all__ = ["ReplayStats", "reexecute", "project"]


@dataclass
class ReplayStats:
    """What one replay rebuilt."""

    events: int = 0
    inputs: int = 0
    live_restored: int = 0
    committed_restored: int = 0
    dead_letters: int = 0
    last_time: float = 0.0
    mode: str = "reexecute"
    windows: list[tuple[float, float]] = field(default_factory=list)


def reexecute(service, events: list[dict]) -> ReplayStats:
    """Re-drive journaled inputs through ``service`` at their recorded times.

    ``service.driver`` must be a simulated driver positioned at or
    before the first journaled instant.  Returns after the driver has run
    up to the last journaled event time; sweep ticks armed by
    ``run_window`` facts stay armed, so the caller can continue the run
    (arm the not-yet-journaled arrivals, run to the window end, drain).
    """
    ledger: OfferLedger = service.ledger
    if ledger is None:
        raise DataManagementError("service has no ledger attached")
    stats = ReplayStats(events=len(events), mode="reexecute")
    inputs = [e for e in events if e.get("kind") in INPUT_KINDS]
    stats.inputs = len(inputs)
    if events:
        stats.last_time = max(float(e["at"]) for e in events)
    if not inputs:
        _finish(service, stats)
        return stats

    first = float(inputs[0]["at"])
    driver = service.driver
    if driver.now > first:
        raise DataManagementError(
            f"replay driver starts at {driver.now}, after the first "
            f"journaled input at {first}; use projection recovery instead"
        )

    remaining = iter(inputs)

    def arm_next() -> None:
        event = next(remaining, None)
        if event is None:
            return
        driver.schedule_at(
            float(event["at"]),
            lambda event=event: (_execute(service, event, stats), arm_next()),
        )

    ledger.replaying = True
    try:
        arm_next()
        driver.run_until(stats.last_time)
    finally:
        ledger.replaying = False
    _finish(service, stats)
    return stats


def _execute(service, event: dict, stats: ReplayStats) -> None:
    kind = event["kind"]
    if kind == "run_window":
        # open_window journals the window up front; re-arm the same expiry
        # sweep cadence so trigger evaluation fires at the original times
        # (the arrivals themselves replay from their ``submit`` facts).
        service.arm_sweep_ticks(float(event["end"]))
        stats.windows.append((float(event["start"]), float(event["end"])))
    elif kind == "run_drain":
        # The original window completed: re-run its closing drain.
        service.drain(float(event["end"]))
    elif kind == "submit":
        service.submit(offer_from_dict(event["offer"]))
    elif kind == "replace":
        service.update(offer_from_dict(event["offer"]))
    elif kind == "withdraw":
        service.withdraw(int(event["offer_id"]))


def project(service, events: list[dict]) -> ReplayStats:
    """Fold the facts into a fresh ``service`` at its current time.

    Works under any driver: nothing is re-driven at past instants.  The
    live pool is rebuilt by re-admission, committed starts are restored
    from the last ``scheduled`` fact per offer, and retired offers get
    their terminal lifecycle row replayed into the store (auto-registering
    their actors).  The driver must sit at or after the last journaled
    instant — on a rewound clock, offers whose windows closed while the
    node was down would rejoin the pool.
    """
    ledger: OfferLedger = service.ledger
    if ledger is None:
        raise DataManagementError("service has no ledger attached")
    stats = ReplayStats(events=len(events), mode="project")
    if events:
        stats.last_time = max(float(e["at"]) for e in events)
    if service.driver.now < stats.last_time:
        raise DataManagementError(
            f"cannot project a ledger recorded up to t={stats.last_time} "
            f"onto a driver at t={service.driver.now}"
        )

    # One chronological fold over the facts.
    live: dict[int, dict] = {}  # offer_id -> accepted offer dict, in admission order
    source: dict[int, dict] = {}  # offer_id -> original submission dict
    committed: dict[int, int] = {}
    terminal: dict[int, dict] = {}  # offer_id -> (state, owner, offer dict)
    for event in events:
        kind = event.get("kind")
        if kind in ("submit", "replace"):
            stats.inputs += 1
            oid = int(event["offer_id"])
            if event.get("accepted"):
                live[oid] = event.get("accepted_offer") or event["offer"]
                source[oid] = event["offer"]
                terminal.pop(oid, None)
                # A successful replace voids the previous version — its
                # committed start included: the revision must be
                # re-scheduled (any new commitment lands as a later
                # ``scheduled`` fact).  A rejected replace left the
                # previous version live (or reinstated it), so only fold
                # the reverse when the replacement actually landed.
                if kind == "replace" and event.get("reverses") is not None:
                    reversed_id = int(event["reverses"])
                    committed.pop(reversed_id, None)
                    if reversed_id != oid and live.pop(reversed_id, None) is not None:
                        terminal[reversed_id] = {
                            "state": "withdrawn",
                            "offer": source.get(reversed_id),
                        }
            elif oid not in live:
                # Never mark a still-live id terminal: a rejected *update*
                # leaves the existing version in the pool.
                terminal[oid] = {"state": "rejected", "offer": event["offer"]}
        elif kind == "withdraw":
            stats.inputs += 1
            oid = int(event["offer_id"])
            if live.pop(oid, None) is not None:
                terminal[oid] = {
                    "state": "withdrawn",
                    "offer": source.get(oid),
                }
            committed.pop(oid, None)
        elif kind == "scheduled":
            committed[int(event["offer_id"])] = int(event["start"])
        elif kind == "retire":
            oid = int(event["offer_id"])
            if live.pop(oid, None) is not None:
                terminal[oid] = {
                    "state": str(event["state"]),
                    "offer": source.get(oid),
                }
            committed.pop(oid, None)
        elif kind == "run_window":
            stats.windows.append((float(event["start"]), float(event["end"])))

    now_slice = service.now_slice
    store = service.store
    with ledger.suspended(), service.scheduling_suspended():
        ledger.replaying = True
        # Re-admission must not fire scheduling triggers: committed starts
        # come from the journal, not from a re-plan over a half-rebuilt
        # pool.  scheduling_suspended() parks the cooldown clock at +inf,
        # gating every non-forced run until the fold is done.
        try:
            # Re-admit survivors through the full ingest path (dimension
            # rows registered, lifecycle re-recorded, pool rebuilt).
            for oid, encoded in live.items():
                offer = offer_from_dict(encoded)
                if service.submit(offer) is not None:
                    stats.live_restored += 1
            service.run_aggregation()
            # Committed plan starts survive the crash: the log, not the
            # lost process memory, is the system of record.
            for oid, start in committed.items():
                if service.restore_commitment(oid, start):
                    stats.committed_restored += 1
            # Terminal history for retired offers: replayed straight into
            # the store, auto-registering actors the fresh store never saw.
            for oid, info in sorted(terminal.items()):
                encoded = info.get("offer")
                if encoded is None:
                    continue
                offer = offer_from_dict(encoded)
                store.register_actor(offer.owner, "prosumer")
                store.record_offer_event(
                    offer.owner, offer, info["state"], now_slice
                )
        finally:
            ledger.replaying = False
    _finish(service, stats)
    return stats


def _finish(service, stats: ReplayStats) -> None:
    if stats.mode == "reexecute":
        stats.live_restored = service.live_offers
        stats.committed_restored = len(service.committed_starts())
    stats.dead_letters = len(service.ledger.dead_letters())
    service.metrics.counter("ledger.replays").inc()
    service.metrics.counter("ledger.replayed_events").inc(stats.events)
    tracer = service.tracer
    if tracer.enabled:
        # Mark every restored-live offer: its trace chain survives restart.
        for offer_id in service.live_offer_ids():
            tracer.record(
                "ledger_replay",
                node=service.name,
                offer_id=offer_id,
                state="live_restored",
                detail={"mode": stats.mode},
            )
