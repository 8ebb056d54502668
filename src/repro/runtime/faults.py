"""Fault injection: hostile streams, crash-kill points, outage storms.

The durability story of the ledger (:mod:`repro.ledger`) is only credible
under fire.  This module supplies the fire:

* **stream transforms** — :func:`duplicate_stream` re-emits a fraction of
  arrivals later (at-least-once delivery), :func:`reorder_stream` permutes
  offers inside a bounded window (out-of-order and back-dated
  submissions).  :meth:`~repro.runtime.loadgen.LoadGenerator.
  hostile_stream` composes the two over a seeded Poisson stream — the one
  entry the CLI, tests and benchmarks use.
* **crash-kill** — :func:`run_stream_with_crash` raises :class:`CrashKill`
  at a chosen instant inside ``run_stream``; the abandoned client's ledger
  is then all that survives, and :func:`continue_stream` finishes the
  window on a replayed successor.  :func:`state_fingerprint` is the
  equality oracle: the crash/replay property tests require the resumed
  node to match the uninterrupted one exactly.
* **outage storms** — :func:`parse_outage` turns ``"brp:start:end"`` specs
  into :class:`OutageSpec` rows and :func:`apply_outages` schedules the
  reachability toggles on a cluster's driver, exercising the bus
  retry/park/replay path.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from ..core.errors import ServiceError
from ..core.flexoffer import FlexOffer

__all__ = [
    "CrashKill",
    "OutageSpec",
    "apply_outages",
    "continue_stream",
    "duplicate_stream",
    "parse_outage",
    "remaining_arrivals",
    "reorder_stream",
    "run_stream_with_crash",
    "state_fingerprint",
]


class CrashKill(ServiceError):
    """The simulated process kill: raised mid-run by a crash point."""


# ----------------------------------------------------------------------
# hostile stream transforms
# ----------------------------------------------------------------------
def duplicate_stream(
    arrivals: Iterable[tuple[float, FlexOffer]],
    rate: float,
    *,
    seed: int = 0,
    delay_slices: float = 2.0,
) -> Iterator[tuple[float, FlexOffer]]:
    """Re-emit a ``rate`` fraction of arrivals again, slightly later.

    Models at-least-once delivery from flaky prosumer links: the duplicate
    carries the *same* offer object, so its content-derived
    ``source_event_id`` matches and a ledger-guarded node deflects it.
    Emitted times stay non-decreasing.
    """
    if not 0.0 <= rate <= 1.0:
        raise ServiceError(f"duplicate rate must be in [0, 1], got {rate}")
    if delay_slices <= 0:
        raise ServiceError(
            f"duplicate delay_slices must be positive, got {delay_slices}"
        )
    rng = np.random.default_rng(seed)
    pending: list[tuple[float, int, FlexOffer]] = []
    tiebreak = 0
    for t, offer in arrivals:
        while pending and pending[0][0] <= t:
            dup_t, _, dup = heapq.heappop(pending)
            yield dup_t, dup
        yield t, offer
        if rate and rng.random() < rate:
            tiebreak += 1
            heapq.heappush(
                pending,
                (t + float(rng.exponential(delay_slices)), tiebreak, offer),
            )
    while pending:
        dup_t, _, dup = heapq.heappop(pending)
        yield dup_t, dup


def reorder_stream(
    arrivals: Iterable[tuple[float, FlexOffer]],
    window_slices: float,
    *,
    seed: int = 0,
) -> Iterator[tuple[float, FlexOffer]]:
    """Permute offers inside bounded time windows (out-of-order delivery).

    Arrival *times* keep their original non-decreasing sequence; the
    *offers* observed at those times are shuffled within each
    ``window_slices``-wide block.  An offer pushed toward the end of its
    block can arrive after its start window closed — a back-dated
    submission the node must reject into the dead-letter queue rather
    than corrupt state.  ``window_slices=0`` is the identity.
    """
    if window_slices < 0:
        raise ServiceError(
            f"reorder window must be non-negative, got {window_slices}"
        )
    if window_slices == 0:
        yield from arrivals
        return
    rng = np.random.default_rng(seed)
    block: list[tuple[float, FlexOffer]] = []
    block_start = None

    def flush(block):
        times = [t for t, _ in block]
        offers = [o for _, o in block]
        order = rng.permutation(len(offers))
        for t, index in zip(times, order):
            yield t, offers[int(index)]

    for t, offer in arrivals:
        if block_start is None:
            block_start = t
        if t - block_start > window_slices:
            yield from flush(block)
            block = []
            block_start = t
        block.append((t, offer))
    if block:
        yield from flush(block)


# ----------------------------------------------------------------------
# crash-kill and resume
# ----------------------------------------------------------------------
def run_stream_with_crash(client, arrivals, duration_slices: float, crash_time: float):
    """Drive ``run_stream`` but kill the node at ``crash_time``.

    Returns the :class:`~repro.runtime.service.RuntimeReport` when the
    crash point lies outside the window (the run survives), else ``None``
    after the :class:`CrashKill` fired — at which point the client must be
    treated as dead and rebuilt via
    :meth:`~repro.api.LedmsClient.resume_from_ledger`.
    """
    service = client.service

    def crash() -> None:
        raise CrashKill(f"crash-kill at t={service.now:g}")

    service.driver.schedule_at(crash_time, crash)
    try:
        return client.run_stream(arrivals, duration_slices)
    except CrashKill:
        return None


def remaining_arrivals(
    arrivals: Iterable[tuple[float, FlexOffer]], after: float
) -> list[tuple[float, FlexOffer]]:
    """The tail of a stream a replayed node has not yet processed.

    Everything journaled happened synchronously at its arrival instant, so
    the cut is ``t >= after`` (the replay's last journaled time); an
    arrival exactly at the boundary that *was* processed re-submits but is
    deflected by the idempotency guard.
    """
    return [(t, offer) for t, offer in arrivals if t >= after]


def continue_stream(client, arrivals, end: float):
    """Finish an interrupted ``run_stream`` window after a ledger replay.

    Re-execution replay leaves the window's sweep chain armed and its
    ``run_window`` marker journaled; this arms only the arrivals the ledger
    never saw, drives to the window end and closes it through
    :meth:`~repro.runtime.service.BrpRuntimeService.drain` — the tail of
    ``run_stream`` without opening (and journaling) a new window.
    """
    service = client.service
    resumed_at = service.now
    service.arm_arrivals(iter(arrivals), end)
    service.driver.run_until(end)
    service.drain(end)
    return service.report(
        duration_slices=end - resumed_at, wall_seconds=0.0
    )


def state_fingerprint(client) -> dict:
    """Restart-surviving state, canonicalised for equality checks.

    Everything here must be bit-identical between an uninterrupted run and
    a crash-killed run resumed by re-execution replay: the live pool, the
    committed plan starts, the lifecycle state of every offer ever seen,
    the store's state counters and the dead-letter queue.  Wall-clock
    metrics and aggregate ids (drawn from a process-global counter) are
    deliberately excluded.  Takes a facade client or the bare service a
    replay rebuilt.
    """
    service = getattr(client, "service", client)
    store = service.store
    live = service.live_offer_ids()
    fingerprint = {
        "live": tuple(live),
        "committed": tuple(sorted(service.committed_starts().items())),
        "scheduled_total": service.scheduled_total,
        "states": tuple((oid, store.offer_state(oid)) for oid in live),
        "state_counts": tuple(sorted(store.state_counts().items())),
    }
    led = service.ledger
    if led is not None:
        fingerprint["dead_letters"] = tuple(
            (d.offer_id, d.owner, d.reason) for d in led.dead_letters()
        )
    return fingerprint


# ----------------------------------------------------------------------
# outage storms
# ----------------------------------------------------------------------
class OutageSpec(NamedTuple):
    """One node outage: unreachable from ``start`` until ``end``."""

    brp: str
    start: float
    end: float


def parse_outage(spec: str) -> OutageSpec:
    """Parse a ``"brp:start:end"`` outage spec (times in slices)."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ServiceError(
            f"outage spec {spec!r} must be 'brp:start:end' (times in slices)"
        )
    brp, start_text, end_text = parts
    if not brp:
        raise ServiceError(f"outage spec {spec!r} names no BRP")
    try:
        start, end = float(start_text), float(end_text)
    except ValueError as exc:
        raise ServiceError(
            f"outage spec {spec!r} has non-numeric times"
        ) from exc
    if start < 0 or end <= start:
        raise ServiceError(
            f"outage spec {spec!r} needs 0 <= start < end"
        )
    return OutageSpec(brp, start, end)


def apply_outages(cluster, outages: Iterable[OutageSpec]) -> None:
    """Schedule reachability toggles for each outage on the cluster driver.

    Recovery goes through :meth:`BusAdapter.set_unreachable
    <repro.runtime.cluster.BusAdapter.set_unreachable>`, so messages
    parked while a node was down replay when it returns.
    """
    known = set(cluster.clients)
    for outage in outages:
        if outage.brp not in known:
            raise ServiceError(
                f"outage names unknown BRP {outage.brp!r}; cluster BRPs: "
                f"{', '.join(sorted(known))}"
            )
        cluster.driver.schedule_at(
            outage.start,
            lambda brp=outage.brp: cluster.set_unreachable(brp, True),
        )
        cluster.driver.schedule_at(
            outage.end,
            lambda brp=outage.brp: cluster.set_unreachable(brp, False),
        )
