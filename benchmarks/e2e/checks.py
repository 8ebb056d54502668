"""Output checks run on every repetition; any violation fails the command.

``verify`` separates two things.  A *violation* is wrong output — an offer
that vanished, a double admission, a commitment outside its window, a
replayed node that differs from the live one — and makes the benchmark
report ``correct: false`` and exit non-zero.  A *failed operation* is work
the system did not complete for an input it should have served (an
admissible offer refused, an offer expired without ever being scheduled, a
message lost); those are counted against the operations attempted.
"""

from __future__ import annotations

import glob
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.runtime import state_fingerprint

from workloads import Prepared, admissible

LIVE_STATES = ("accepted", "aggregated", "scheduled")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    fingerprint_sha256: str = ""
    accepted_sha256: str = ""

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.violations.append(message)


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(text.encode()).hexdigest()


def _first_arrivals(stream: list) -> tuple[dict[int, tuple[float, Any]], int]:
    """Each offer's first ``(time, offer)`` and the number of re-deliveries."""
    first: dict[int, tuple[float, Any]] = {}
    duplicates = 0
    for at, offer in stream:
        if offer.offer_id in first:
            duplicates += 1
        else:
            first[offer.offer_id] = (at, offer)
    return first, duplicates


def shm_residue(run_id: str) -> list[str]:
    """This run's shared-memory segments still present in /dev/shm."""
    return glob.glob(f"/dev/shm/repro-shm-{run_id}*")


def _check_start(out: Outcome, brp: str, offer: Any, start: int) -> None:
    out.require(
        offer.earliest_start <= start <= offer.latest_start,
        f"{brp}: offer {offer.offer_id} committed to start {start} outside "
        f"[{offer.earliest_start}, {offer.latest_start}]",
    )


def _verify_client(out: Outcome, brp: str, client: Any, prepared: Prepared) -> dict:
    """Conservation, admissions and commitments of one in-process BRP."""
    stream = prepared.streams[brp]
    first, duplicates = _first_arrivals(stream)
    out.attempted += len(stream)
    store = client.store
    ledger = client.ledger
    dead = {d.offer_id for d in client.dead_letters()}
    # The version of each offer the node should hold: as first delivered,
    # or as revised by an accepted update.
    latest = {oid: offer for oid, (_, offer) in first.items()}
    revised: set[int] = set()
    for operation in prepared.operations:
        out.attempted += 1
        if operation.kind == "withdraw":
            # Refusing to withdraw an offer that was live is a failure;
            # one already retired or never admitted has nothing to retract.
            out.failed += operation.live_before and not operation.accepted
            continue
        if operation.accepted:
            revised.add(operation.offer.offer_id)
            latest[operation.offer.offer_id] = operation.offer
        elif admissible(operation.offer, operation.at):
            out.failed += 1
    expected_admissions = len(revised)

    accepted_ids = []
    for oid, (at, offer) in first.items():
        view = client.query_offer(oid)
        state = view.state
        if state is None or state == "submitted":
            out.violations.append(f"{brp}: offer {oid} vanished (state {state})")
            continue
        out.require(
            view.live == (state in LIVE_STATES),
            f"{brp}: offer {oid} is {state} but live={view.live}",
        )
        should_admit = admissible(offer, at)
        if state == "rejected":
            if should_admit:
                out.failed += 1
            if ledger is not None:
                out.require(
                    oid in dead, f"{brp}: rejected offer {oid} not dead-lettered"
                )
            continue
        out.require(
            should_admit or oid in revised,
            f"{brp}: offer {oid} admitted after its window closed",
        )
        accepted_ids.append(oid)
        expected_admissions += should_admit
        if state == "expired":
            out.failed += 1  # retired without ever being scheduled
        if view.committed_start is not None:
            _check_start(out, brp, latest[oid], view.committed_start)

    counts = store.state_counts()
    out.require(
        sum(counts.values()) == len(first),
        f"{brp}: store tracks {sum(counts.values())} offers, stream had {len(first)}",
    )
    admitted = int(client.metrics()["ingest.accepted"])
    out.require(
        admitted == expected_admissions,
        f"{brp}: {admitted} admissions for {expected_admissions} admissible "
        "submissions (double admission or lost offer)",
    )
    if ledger is not None:
        out.require(
            ledger.duplicates == duplicates,
            f"{brp}: {ledger.duplicates} duplicates deflected, stream re-delivered {duplicates}",
        )
    else:
        out.require(duplicates == 0, f"{brp}: duplicates without a ledger")
    return {"accepted": sorted(accepted_ids), "state": state_fingerprint(client)}


def _verify_worker_brp(out: Outcome, brp: str, prepared: Prepared, report: Any) -> dict:
    """The same checks from what a forked worker shipped back."""
    runtime = prepared.target
    stream = prepared.streams[brp]
    first, duplicates = _first_arrivals(stream)
    out.attempted += len(stream)
    out.require(duplicates == 0, f"{brp}: duplicates without a ledger")
    brp_report = report.brp_reports[brp]
    counts = brp_report.state_counts
    expected = sorted(
        oid for oid, (at, offer) in first.items() if admissible(offer, at)
    )
    accepted = sorted(runtime.accepted_offers[brp])
    out.require(
        brp_report.offers_submitted == len(stream),
        f"{brp}: {brp_report.offers_submitted} submits seen, {len(stream)} sent",
    )
    out.require(
        sum(counts.values()) == len(first) and counts.get("submitted", 0) == 0,
        f"{brp}: offers vanished (state counts {counts})",
    )
    out.failed += len(set(expected) - set(accepted))
    out.require(
        set(accepted) <= set(expected),
        f"{brp}: admitted offers whose window had closed",
    )
    out.require(
        brp_report.offers_accepted == len(accepted),
        f"{brp}: {brp_report.offers_accepted} admissions for {len(accepted)} accepted offers",
    )
    out.failed += counts.get("expired", 0)
    committed = runtime.committed_starts[brp]
    for oid, start in committed.items():
        _check_start(out, brp, first[oid][1], start)
    return {
        "accepted": accepted,
        "state": {
            "committed": sorted(committed.items()),
            "state_counts": sorted(counts.items()),
            "scheduled_total": brp_report.offers_scheduled,
        },
    }


def _verify_journal(out: Outcome, prepared: Prepared) -> None:
    """Every ``scheduled`` fact ever journaled lies inside its offer's window."""
    windows: dict[int, tuple[int, int]] = {}
    for event in prepared.target.ledger.events():
        kind = event["kind"]
        if kind in ("submit", "replace") and event["accepted"]:
            offer = event["accepted_offer"]
            windows[event["offer_id"]] = (
                offer["earliest_start"], offer["latest_start"],
            )
        elif kind == "scheduled":
            lo, hi = windows[event["offer_id"]]
            out.require(
                lo <= event["start"] <= hi,
                f"journal: offer {event['offer_id']} scheduled at "
                f"{event['start']} outside [{lo}, {hi}]",
            )


def verify(prepared: Prepared, report: Any, flat: dict, resumed: Any) -> Outcome:
    out = Outcome()
    kind = prepared.workload.kind
    per_brp: dict[str, dict] = {}
    if kind == "parallel":
        for brp in prepared.streams:
            per_brp[brp] = _verify_worker_brp(out, brp, prepared, report)
        residue = shm_residue(prepared.target.run_id)
        out.require(not residue, f"leaked shared-memory segments: {residue}")
    else:
        for brp, client in prepared.clients.items():
            per_brp[brp] = _verify_client(out, brp, client, prepared)

    if kind != "brp":
        out.failed += report.bus_dropped + report.bus_parked
        out.require(report.bus_dropped == 0, f"{report.bus_dropped} bus messages dropped")
        out.require(report.bus_parked == 0, f"{report.bus_parked} bus messages parked")

    if resumed is not None:
        _verify_journal(out, prepared)
        out.require(
            resumed.last_replay.mode == "reexecute",
            f"recovery replayed in mode {resumed.last_replay.mode!r}",
        )
        out.require(
            state_fingerprint(resumed) == per_brp["brp"]["state"],
            "state_fingerprint(resumed) != state_fingerprint(live)",
        )

    latency = flat["latency.e2e_slices"]
    out.accepted_sha256 = _sha256({b: v["accepted"] for b, v in per_brp.items()})
    out.fingerprint_sha256 = _sha256(
        {
            "brps": per_brp,
            "latency": [latency["count"], latency["p50"], latency["p95"]],
            "plan_costs": prepared.plan_costs,
            "scheduling_runs": flat.get("schedule.runs", 0),
            "tso_plan_cost": getattr(report, "tso_plan_cost", None),
        }
    )
    return out
