"""The five stream-replay workloads and how each is set up and replayed.

Every workload is an as-fast-as-possible replay of a time-stamped stream
on the deterministic ``SimulatedDriver``: arrival times are fixed on the
sim axis by ``LoadGenerator(seed)`` and do not slow down when the system
does.  Streams are materialised to lists during set-up, so generator cost
lands in ``setup_s`` and never in the replay window.

The system under test is reached through names exported by ``repro.api``
only.  The two exceptions are not part of the system: ``LoadGenerator``
(the input generator) and ``state_fingerprint`` (the verification oracle
used by ``checks``), both from ``repro.runtime``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.api import (
    ClusterConfig,
    ClusterRuntime,
    IngestConfig,
    JsonlEventLog,
    LedmsClient,
    OfferLedger,
    ParallelClusterRuntime,
    SchedulingConfig,
    ServiceConfig,
    TsoConfig,
    build_trigger,
)
from repro.runtime import LoadGenerator

#: ``--smoke`` replays this share of each workload's slices, but no fewer
#: than the shapes below still make sense on.
SMOKE_SCALE = 0.05
MIN_DURATION_SLICES = 12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its shape, its size and why it exists."""

    name: str
    why: str
    kind: str
    """``brp`` (one LedmsClient), ``cluster`` or ``parallel``."""
    rate_per_hour: float
    """Offer arrivals per simulated hour (per BRP on cluster workloads)."""
    duration_slices: int
    config: Callable[[], ServiceConfig] = ServiceConfig
    ledger: bool = False
    duplicate_rate: float = 0.0
    reorder_window: float = 0.0
    update_share: float = 0.0
    withdraw_share: float = 0.0
    brps: int = 1

    def duration(self, smoke: bool) -> int:
        if not smoke:
            return self.duration_slices
        return max(MIN_DURATION_SLICES, round(self.duration_slices * SMOKE_SCALE))


def _ingest_heavy_config() -> ServiceConfig:
    # Scheduling is held to one run per four slices, fired by offer age
    # alone: the count trigger would fire ~every slice at this rate and
    # make the workload a second brp_steady.  Four slices is also the
    # smallest time flexibility the generator draws, so no offer can
    # expire unscheduled between two runs.
    return ServiceConfig(
        ingest=IngestConfig(batch_size=256),
        scheduling=SchedulingConfig(
            min_run_interval_slices=4.0,
            trigger=build_trigger({"kind": "age", "max_age_slices": 2.0}),
        ),
    )


def _age_limited_config() -> ServiceConfig:
    # The default trigger stack plus a 1-slice age limit, for the workloads
    # with 25-50 arrivals per slice per BRP.  At those rates the default
    # count (200) and imbalance (2 MWh) thresholds can stay quiet for longer
    # than the 4 slices of start flexibility the generator's tightest
    # offers have: about one seed in ten then lets an offer expire
    # unscheduled (a failed operation; parallel_k2 still did so with a
    # 2-slice limit), and the latency percentiles swing by 5-9 % from seed
    # to seed with the pattern of lulls.
    return ServiceConfig(
        scheduling=SchedulingConfig(
            trigger=build_trigger(
                [
                    {"kind": "count", "threshold": 200},
                    {"kind": "age", "max_age_slices": 1.0},
                    {"kind": "imbalance", "threshold_kwh": 2000.0},
                ]
            ),
        ),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="brp_steady",
            why=(
                "Default single-BRP deployment: scheduling and disaggregation "
                "dominate, so scheduler changes show and admission changes "
                "barely do."
            ),
            kind="brp",
            rate_per_hour=400.0,
            duration_slices=128,
        ),
        Workload(
            name="brp_ingest_heavy",
            why=(
                "High arrival rate with scheduling held to one run per four "
                "slices: admission, store writes and aggregation flushes "
                "dominate, scheduling is small."
            ),
            kind="brp",
            rate_per_hour=3200.0,
            duration_slices=48,
            config=_ingest_heavy_config,
        ),
        Workload(
            name="brp_ledger_churn",
            why=(
                "Duplicates, reordering, updates and withdrawals journaled to "
                "a JSONL ledger, then recovered from it: the only workload "
                "where the ledger and the delete/replace paths do work."
            ),
            kind="brp",
            rate_per_hour=200.0,
            duration_slices=56,
            config=_age_limited_config,
            ledger=True,
            duplicate_rate=0.1,
            reorder_window=2.0,
            update_share=0.10,
            withdraw_share=0.05,
        ),
        Workload(
            name="cluster_k2",
            why=(
                "Two BRPs under a TSO on one thread: adds bus hops, TSO "
                "re-aggregation and remote commits, itemising the cluster "
                "tax against brp_steady."
            ),
            kind="cluster",
            rate_per_hour=100.0,
            duration_slices=56,
            config=_age_limited_config,
            brps=2,
        ),
        Workload(
            name="parallel_k2",
            why=(
                "The identical cluster_k2 streams through two forked workers: "
                "epoch barriers and shared-memory encode/decode, so a "
                "transport change shows here and not on cluster_k2."
            ),
            kind="parallel",
            rate_per_hour=100.0,
            duration_slices=56,
            config=_age_limited_config,
            brps=2,
        ),
    )
}


@dataclass
class Operation:
    """One harness-issued update or withdrawal and what came of it."""

    kind: str
    at: float
    offer: Any
    accepted: bool | None = None
    reason: str | None = None
    live_before: bool | None = None
    """Withdrawals: whether the node held the offer live when asked."""


@dataclass
class Prepared:
    """A workload after set-up: everything the window and the checks need."""

    workload: Workload
    seed: int
    duration: int
    streams: dict[str, list[tuple[float, Any]]]
    """Materialised arrivals per BRP name (``brp`` on single-node runs)."""
    target: Any
    """The LedmsClient, ClusterRuntime or ParallelClusterRuntime."""
    ledger_dir: Path | None = None
    operations: list[Operation] = field(default_factory=list)
    plan_costs: list[float] = field(default_factory=list)
    plan_evaluations: list[int] = field(default_factory=list)

    @property
    def clients(self) -> dict[str, LedmsClient]:
        """In-process BRP clients by name (empty on ``parallel``)."""
        if self.workload.kind == "brp":
            return {"brp": self.target}
        if self.workload.kind == "cluster":
            return dict(self.target.clients)
        return {}

    def replay(self) -> Any:
        """The measured window: first arrival armed -> drain returned."""
        if self.workload.kind == "brp":
            return self.target.run_stream(
                iter(self.streams["brp"]), self.duration
            )
        return self.target.run(
            {name: iter(stream) for name, stream in self.streams.items()},
            self.duration,
        )


def _stream(workload: Workload, seed: int, duration: int) -> list:
    generator = LoadGenerator(rate_per_hour=workload.rate_per_hour, seed=seed)
    if workload.duplicate_rate or workload.reorder_window:
        arrivals = generator.hostile_stream(
            0.0,
            duration,
            duplicate_rate=workload.duplicate_rate,
            reorder_window=workload.reorder_window,
            seed=seed,
        )
    else:
        arrivals = generator.stream(0.0, duration)
    # A duplicate delayed past the window would never be submitted.
    return [(t, offer) for t, offer in arrivals if t < duration]


def _churn_operations(
    stream: list, workload: Workload, duration: int
) -> list[Operation]:
    """Updates/withdrawals half a slice after each chosen offer's arrival.

    The choice is a fixed function of the offer's position in the stream,
    so it is the same on every run of a seed.  An update narrows the start
    window by one slice (content changes, so it is not a duplicate).
    """
    update_every = round(1 / workload.update_share) if workload.update_share else 0
    withdraw_every = (
        round(1 / workload.withdraw_share) if workload.withdraw_share else 0
    )
    operations = []
    seen: set[int] = set()
    position = 0
    for arrival, offer in stream:
        at = arrival + 0.5
        if offer.offer_id in seen or at >= duration:
            continue
        seen.add(offer.offer_id)
        position += 1
        if update_every and position % update_every == 0:
            revised = offer.with_times(
                offer.earliest_start, offer.latest_start - 1
            )
            operations.append(Operation("update", at, revised))
        elif withdraw_every and position % withdraw_every == 1:
            operations.append(Operation("withdraw", at, offer))
    return operations


def _arm_operations(client: LedmsClient, prepared: Prepared) -> None:
    def run(operation: Operation) -> None:
        if operation.kind == "update":
            result = client.update(operation.offer)
            operation.accepted = result.accepted
            operation.reason = result.reason
        else:
            offer_id = operation.offer.offer_id
            operation.live_before = client.query_offer(offer_id).live
            operation.accepted = client.withdraw(offer_id)

    for operation in prepared.operations:
        client.driver.schedule_at(operation.at, lambda op=operation: run(op))


def prepare(workload: Workload, seed: int, smoke: bool, workdir: Path) -> Prepared:
    """Set-up: materialise streams and build the system (timed as setup_s)."""
    duration = workload.duration(smoke)
    if workload.kind == "brp":
        streams = {"brp": _stream(workload, seed, duration)}
        ledger = None
        ledger_dir = None
        if workload.ledger:
            ledger_dir = workdir / "ledger"
            # fsync="close" on purpose: "commit" measures the disk, not
            # the program (tens of offers per second on a container).
            ledger = OfferLedger(JsonlEventLog(ledger_dir, fsync="close"))
        client = LedmsClient(workload.config(), ledger=ledger)
        prepared = Prepared(
            workload, seed, duration, streams, client, ledger_dir=ledger_dir
        )
        prepared.operations = _churn_operations(
            streams["brp"], workload, duration
        )
        _arm_operations(client, prepared)
        _collect_plans(client, prepared)
        return prepared

    config = ClusterConfig.uniform(
        workload.brps, workload.config(), tso=TsoConfig()
    )
    streams = {
        name: _stream(workload, seed + index, duration)
        for index, name in enumerate(config.brps)
    }
    if workload.kind == "cluster":
        target = ClusterRuntime(config)
    else:
        target = ParallelClusterRuntime(config, workers=workload.brps)
    prepared = Prepared(workload, seed, duration, streams, target)
    for client in prepared.clients.values():
        _collect_plans(client, prepared)
    return prepared


def _collect_plans(client: LedmsClient, prepared: Prepared) -> None:
    @client.on_plan_committed
    def record(plan) -> None:
        prepared.plan_costs.append(plan.cost)
        prepared.plan_evaluations.append(plan.evaluations)


def admissible(offer: Any, at: float) -> bool:
    """The harness's own admission oracle for an offer submitted at ``at``.

    Deliberately re-derived from the offer's fields rather than asked of
    the system: an offer whose start window is still open (and that
    carries energy) must be admitted.
    """
    now = int(math.ceil(at))
    if offer.latest_start < now:
        return False
    if offer.assignment_before is not None and offer.assignment_before <= now:
        return False
    return not (offer.total_min_energy == 0.0 and offer.total_max_energy == 0.0)
