"""The metric catalogue: every name the benchmark reports, and how.

``END_TO_END`` are the numbers a user of the system sees; they always come
from untraced repetitions.  ``PER_LAYER`` are derived in the traced run,
from harness-side spans (``source: harness``) or, where the boundary is
private or lives inside a forked worker, from the runtime's own public
metrics registry (``source: program``).  ``BENCHMARK.json`` repeats the
names, units and directions; ``test_e2e_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from spans import SpanSummary, Unavailable, WINDOW


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    meaning: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower",
             "import repro, build config/client/cluster/ledger dir, materialise streams"),
    EndToEnd("offers_per_sec", "offers/s", "higher",
             "accepted offers / wall seconds of the replay window, at reference speed"),
    EndToEnd("cpu_s", "s", "lower",
             "user+sys CPU of the run process and its children over the window"),
    EndToEnd("commit_latency_slices_p50", "slices", "lower",
             "sim slices from arrival to first start commitment, median"),
    EndToEnd("commit_latency_slices_p95", "slices", "lower",
             "the same, 95th percentile"),
    EndToEnd("plan_cost_eur_mean", "EUR", "lower",
             "mean cost of committed BRP plans; cluster workloads: the TSO's final system plan"),
    EndToEnd("peak_rss_mb", "MiB", "lower",
             "ru_maxrss of the run process plus its largest child"),
)

#: Reported by the suite as end-to-end beside the seven above, which makes
#: the ten names of the issue.  ``BENCHMARK.json`` cannot file them under
#: ``end_to_end``: the driver contract wants every end-to-end metric on
#: every workload, never zero, with a ten-seed spread inside a bound of at
#: most 0.25.  ``failed_fraction`` is 0 on a healthy run;
#: ``commit_wall_ms_p95`` spreads 0.09-0.19 on ``parallel_k2`` (see
#: README); ``recovery_s`` exists on one workload only.  The first two head
#: ``BENCHMARK.json``'s per-layer list, and ``recovery_s`` appears there as
#: ``ledger.recovery_s``, which like every ``ledger.*`` reads 0 where
#: there is no ledger.
FAILED_FRACTION = EndToEnd("failed_fraction", "ratio", "lower",
                           "failed / attempted harness operations")
COMMIT_WALL_MS_P95 = EndToEnd(
    "commit_wall_ms_p95", "ms", "lower",
    "wall ms from admission to first commitment, 95th percentile")
RECOVERY_S = EndToEnd("recovery_s", "s", "lower",
                      "wall of LedmsClient.resume_from_ledger on the directory just written")
FILED_PER_LAYER: tuple[EndToEnd, ...] = (FAILED_FRACTION, COMMIT_WALL_MS_P95)
EXTRA_END_TO_END: tuple[EndToEnd, ...] = FILED_PER_LAYER + (RECOVERY_S,)


# ----------------------------------------------------------------------
_KEY = re.compile(r'^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')


class Registry:
    """Read-only view of a flat ``metrics()`` snapshot, label-aware."""

    def __init__(self, flat: dict[str, Any]) -> None:
        self._rows: list[tuple[str, dict[str, str], Any]] = []
        for key, value in flat.items():
            match = _KEY.match(key)
            labels = dict(_LABEL.findall(match["labels"] or ""))
            self._rows.append((match["name"], labels, value))

    def _matching(self, name: str, labels: dict[str, str]):
        for row_name, row_labels, value in self._rows:
            if row_name == name and all(
                row_labels.get(k) == v for k, v in labels.items()
            ):
                yield value

    def total(self, name: str, **labels: str) -> float:
        """Summed counter/gauge value over every matching label set."""
        return float(sum(self._matching(name, labels)))

    def seconds(self, name: str, **labels: str) -> float:
        """Summed observations of a histogram (count x mean)."""
        return float(
            sum(h["count"] * h["mean"] for h in self._matching(name, labels))
        )

    def observations(self, name: str, **labels: str) -> float:
        return float(sum(h["count"] for h in self._matching(name, labels)))

    def quantile(self, name: str, which: str) -> float:
        """``p50``/``p95`` of an unlabeled (merged) histogram, 0 if absent."""
        for histogram in self._matching(name, {}):
            return float(histogram[which])
        return 0.0


@dataclass
class Trace:
    """What one traced repetition hands the per-layer derivations."""

    spans: SpanSummary
    reg: Registry
    facts: dict[str, Any]

    def fact(self, name: str) -> float:
        value = self.facts[name]
        if isinstance(value, Unavailable):
            raise value
        return float(value)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _stage(t: Trace, stage: str) -> float:
    return t.reg.seconds("stage.wall_seconds", stage=stage)


def _brp_stage(t: Trace, stage: str) -> float:
    """A BRP-tier stage: the TSO files its runs under the same family."""
    return _stage(t, stage) - t.reg.seconds(
        "stage.wall_seconds", stage=stage, brp=t.facts["tso_name"]
    )


def _percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q) * 1e3) if len(values) else 0.0


def _worker_busy(t: Trace) -> list[float]:
    """Per worker: summed stage seconds of the BRPs it owns.

    A lower bound on worker busy time — per-offer admission has no stage
    histogram in the program yet.
    """
    return [
        sum(
            t.reg.seconds("stage.wall_seconds", brp=brp, stage=stage)
            for brp in brps
            for stage in ("aggregate", "schedule", "sweep")
        )
        for brps in t.facts["assignment"]
    ]


def _worker_skew(busy: list[float]) -> float:
    return ratio(max(busy, default=0.0) * len(busy), sum(busy))


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    meaning: str
    sources: tuple[tuple[str, Callable[[Trace], float]], ...]
    """``(source tag, derivation)`` alternatives, tried in order; the
    first that does not raise :class:`Unavailable` wins."""


def harness(fn: Callable[[Trace], float]):
    return ("harness", fn)


def program(fn: Callable[[Trace], float]):
    return ("program", fn)


def M(name, unit, better, meaning, *sources) -> LayerMetric:
    return LayerMetric(name, unit, better, meaning, tuple(sources))


PER_LAYER: tuple[LayerMetric, ...] = (
    # -- runtime.drivers -------------------------------------------------
    M("drivers.events", "count", "lower", "events the driver(s) ran",
      program(lambda t: t.fact("driver_events"))),
    M("drivers.self_s", "s", "lower",
      "driver.run_until self time: event loop + callback dispatch",
      harness(lambda t: t.spans.self_s("drivers.run"))),
    # -- runtime.ingest --------------------------------------------------
    M("ingest.submits", "count", "lower", "FlexOfferIngest.submit calls",
      harness(lambda t: t.spans.count("ingest.submit")),
      program(lambda t: t.reg.total("ingest.accepted") + t.reg.total("ingest.rejected"))),
    M("ingest.busy_s", "s", "lower",
      "inclusive time in FlexOfferIngest.submit and .retire",
      harness(lambda t: t.spans.busy("ingest.submit") + t.spans.busy("ingest.retire"))),
    M("ingest.self_s", "s", "lower",
      "self time of the admission path (submit_fact/withdraw/update/submit/retire)",
      harness(lambda t: t.spans.layer_self("runtime.ingest"))),
    M("ingest.us_per_offer", "us", "lower", "ingest.busy_s per submit call",
      harness(lambda t: 1e6 * ratio(
          t.spans.busy("ingest.submit") + t.spans.busy("ingest.retire"),
          t.spans.count("ingest.submit")))),
    M("ingest.rejected", "count", "lower", "submissions refused at admission",
      program(lambda t: t.reg.total("ingest.rejected"))),
    M("ingest.retired", "count", "lower", "offers retired (executed/expired/withdrawn)",
      program(lambda t: t.reg.total("ingest.retired"))),
    # -- datamgmt --------------------------------------------------------
    M("datamgmt.record_calls", "count", "lower", "LedmsStore.record_offer_event calls",
      harness(lambda t: t.spans.count("datamgmt.record"))),
    M("datamgmt.busy_s", "s", "lower", "time in LedmsStore.record_offer_event",
      harness(lambda t: t.spans.busy("datamgmt.record"))),
    # -- aggregation -----------------------------------------------------
    M("aggregation.flushes", "count", "lower", "ingest batch flushes",
      harness(lambda t: t.spans.count("aggregation.flush")),
      program(lambda t: t.reg.total("ingest.flushes"))),
    M("aggregation.busy_s", "s", "lower",
      "inclusive time in run_aggregation (flush, pipeline run, pool update)",
      harness(lambda t: t.spans.busy("aggregation.stage")),
      program(lambda t: _brp_stage(t, "aggregate"))),
    M("aggregation.updates_out", "count", "lower", "aggregate updates the flushes emitted",
      program(lambda t: t.reg.total("ingest.aggregate_updates"))),
    M("aggregation.offers_per_flush", "offers", "higher",
      "inserts + deletes per flush",
      program(lambda t: ratio(
          t.reg.total("ingest.accepted") + t.reg.total("ingest.retired"),
          t.reg.total("ingest.flushes")))),
    M("aggregation.pool_groups_final", "count", "lower", "aggregates in the pool at the end",
      program(lambda t: t.reg.total("aggregate.pool_size"))),
    M("aggregation.offers_per_group", "offers", "higher",
      "micro offers per aggregate at the end (compression)",
      program(lambda t: ratio(
          t.reg.total("ingest.pool_offers"), t.reg.total("aggregate.pool_size")))),
    # -- runtime.triggers ------------------------------------------------
    M("triggers.evaluations", "count", "lower", "maybe_schedule calls",
      harness(lambda t: t.spans.count("triggers.evaluate"))),
    M("triggers.fired", "count", "lower", "scheduling runs started (incl. forced drain)",
      harness(lambda t: t.spans.count("service.run_scheduling")),
      program(lambda t: t.reg.total("schedule.runs"))),
    M("triggers.fire_ratio", "ratio", "higher", "fired / evaluations",
      harness(lambda t: ratio(
          t.spans.count("service.run_scheduling"),
          t.spans.count("triggers.evaluate")))),
    M("triggers.self_s", "s", "lower", "maybe_schedule minus run_scheduling",
      harness(lambda t: t.spans.self_s("triggers.evaluate"))),
    # -- scheduling ------------------------------------------------------
    M("scheduling.runs", "count", "lower", "BRP PlanSession.plan calls",
      harness(lambda t: t.spans.count("scheduling.plan")),
      program(lambda t: t.reg.total("schedule.runs") - t.reg.total("schedule.empty_runs"))),
    M("scheduling.busy_s", "s", "lower",
      "time in PlanSession.plan, BRP and TSO tiers",
      harness(lambda t: t.spans.busy("scheduling.plan") + t.spans.busy("scheduling.tso_plan")),
      program(lambda t: _brp_stage(t, "schedule") - _stage(t, "disaggregate")
              + t.reg.seconds("tso.run_seconds"))),
    M("scheduling.ms_per_run_p50", "ms", "lower", "BRP planning run, median",
      harness(lambda t: _percentile_ms(t.spans.durations("scheduling.plan"), 50)),
      program(lambda t: 1e3 * t.reg.quantile("schedule.run_seconds", "p50"))),
    M("scheduling.ms_per_run_p95", "ms", "lower", "BRP planning run, 95th percentile",
      harness(lambda t: _percentile_ms(t.spans.durations("scheduling.plan"), 95)),
      program(lambda t: 1e3 * t.reg.quantile("schedule.run_seconds", "p95"))),
    M("scheduling.aggregates_per_run", "count", "lower", "aggregates handed to one BRP planning run",
      harness(lambda t: ratio(
          t.spans.work("scheduling.plan"), t.spans.count("scheduling.plan")))),
    M("scheduling.evaluations", "count", "lower", "candidate evaluations over all BRP plans",
      harness(lambda t: t.fact("plan_evaluations"))),
    M("scheduling.warm_started_ratio", "ratio", "higher", "BRP runs seeded from the previous plan",
      program(lambda t: ratio(
          t.reg.total("schedule.warm_started"),
          t.reg.total("schedule.runs") - t.reg.total("schedule.empty_runs")))),
    M("scheduling.delta_reuse_ratio", "ratio", "higher",
      "placements a delta scheduler kept (0 unless one is configured)",
      program(lambda t: ratio(
          t.reg.total("delta.reused_placements"),
          t.reg.total("delta.reused_placements") + t.reg.total("delta.replaced_placements")))),
    # -- runtime.service -------------------------------------------------
    M("service.run_scheduling_self_s", "s", "lower",
      "run_scheduling self time: problem build, eligibility walk, commit loop",
      harness(lambda t: t.spans.self_s("service.run_scheduling"))),
    M("service.disaggregate_busy_s", "s", "lower", "the program's disaggregate stage",
      program(lambda t: _stage(t, "disaggregate"))),
    M("service.commits", "count", "lower", "member start commitments issued by local plans",
      program(lambda t: t.reg.total("disaggregate.assignments"))),
    M("service.recommit_ratio", "ratio", "lower",
      "commitments issued / unique offers scheduled (wasted work)",
      program(lambda t: ratio(
          t.reg.total("disaggregate.assignments"),
          t.reg.total("schedule.unique_scheduled")))),
    M("service.sweeps", "count", "lower", "expiry sweeps",
      harness(lambda t: t.spans.count("service.sweep")),
      program(lambda t: t.reg.observations("stage.wall_seconds", stage="sweep"))),
    M("service.sweep_busy_s", "s", "lower", "inclusive time in sweep_expired",
      harness(lambda t: t.spans.busy("service.sweep")),
      program(lambda t: _stage(t, "sweep"))),
    M("service.expired_unscheduled", "count", "lower", "offers that expired without a plan",
      program(lambda t: t.reg.total("runtime.offers_expired"))),
    # -- ledger ----------------------------------------------------------
    M("ledger.appends", "count", "lower", "facts journaled",
      program(lambda t: t.fact("ledger_appends"))),
    M("ledger.appends_per_offer", "count", "lower", "facts journaled per accepted offer",
      program(lambda t: ratio(t.fact("ledger_appends"), t.fact("accepted")))),
    M("ledger.bytes", "B", "lower", "size of the journal on disk",
      harness(lambda t: t.fact("ledger_bytes"))),
    M("ledger.busy_s", "s", "lower", "time in OfferLedger.record_* / note_duplicate",
      harness(lambda t: t.spans.busy("ledger.record"))),
    M("ledger.write_s", "s", "lower", "time in the event log's append",
      harness(lambda t: t.spans.busy("ledger.write"))),
    M("ledger.encode_s", "s", "lower", "ledger.busy_s minus ledger.write_s",
      harness(lambda t: t.spans.busy("ledger.record") - t.spans.busy("ledger.write"))),
    M("ledger.duplicates_deflected", "count", "lower", "re-deliveries the idempotency guard deflected",
      program(lambda t: t.fact("ledger_duplicates"))),
    M("ledger.dead_letters", "count", "lower", "rejected submissions parked with a reason",
      program(lambda t: t.fact("ledger_dead_letters"))),
    M("ledger.replay_events", "count", "lower", "facts read back by recovery",
      program(lambda t: t.fact("replay_events"))),
    M("ledger.replay_events_per_sec", "1/s", "higher", "replay_events / recovery_s",
      harness(lambda t: ratio(t.fact("replay_events"), t.fact("recovery_s")))),
    M("ledger.recovery_s", "s", "lower",
      "the traced repetition's recovery_s; 0 where no ledger was written",
      harness(lambda t: t.fact("recovery_s"))),
    # -- runtime.cluster -------------------------------------------------
    M("cluster.bus_sent", "count", "lower", "messages queued on the bus",
      program(lambda t: t.reg.total("bus.sent"))),
    M("cluster.bus_delivered", "count", "lower", "messages delivered",
      program(lambda t: t.fact("bus_delivered"))),
    M("cluster.bus_dropped", "count", "lower", "messages dropped",
      program(lambda t: t.fact("bus_dropped"))),
    M("cluster.bus_retries", "count", "lower", "redelivery attempts",
      program(lambda t: t.fact("bus_retries"))),
    M("cluster.bus_busy_s", "s", "lower",
      "self time of send/forward and dispatch_all (the hop, not the handlers)",
      harness(lambda t: t.spans.self_s("cluster.bus_send") + t.spans.self_s("cluster.bus_dispatch"))),
    M("cluster.tso_snapshots_in", "count", "lower", "macro snapshots the TSO received",
      program(lambda t: t.fact("tso_snapshots"))),
    M("cluster.tso_runs", "count", "lower", "system-wide scheduling runs",
      program(lambda t: t.fact("tso_runs"))),
    M("cluster.tso_busy_s", "s", "lower",
      "inclusive time in TsoRuntimeService.run_scheduling",
      harness(lambda t: t.spans.busy("cluster.tso_run"))),
    M("cluster.tso_macros_returned", "count", "lower", "scheduled macros sent back down",
      program(lambda t: t.fact("tso_macros_returned"))),
    M("cluster.remote_commits", "count", "lower", "micro offers committed from TSO plans",
      program(lambda t: t.fact("remote_commits"))),
    M("cluster.remote_commit_busy_s", "s", "lower", "time in apply_remote_schedule",
      harness(lambda t: t.spans.busy("cluster.remote_commit"))),
    M("cluster.remote_commits_per_offer", "count", "lower", "remote commits per accepted offer",
      program(lambda t: ratio(t.fact("remote_commits"), t.fact("accepted")))),
    # -- runtime.parallel ------------------------------------------------
    M("parallel.epochs", "count", "lower", "barrier epochs",
      program(lambda t: t.fact("epochs"))),
    M("parallel.parent_busy_s", "s", "lower", "CPU the parent process burned in the window",
      harness(lambda t: t.fact("parent_cpu_s"))),
    M("parallel.barrier_wait_s", "s", "lower", "window wall the parent spent off-CPU, waiting on workers",
      harness(lambda t: t.fact("parent_wait_s"))),
    M("parallel.worker_busy_s_max", "s", "lower", "busiest worker's stage seconds",
      program(lambda t: max(_worker_busy(t), default=0.0))),
    M("parallel.worker_busy_s_sum", "s", "lower", "all workers' stage seconds",
      program(lambda t: sum(_worker_busy(t)))),
    M("parallel.worker_skew", "ratio", "lower", "busiest worker / mean worker",
      program(lambda t: _worker_skew(_worker_busy(t)))),
    # -- runtime.shm -----------------------------------------------------
    M("shm.segments", "count", "lower", "snapshots relayed over shared memory",
      program(lambda t: t.fact("shm_segments"))),
    M("shm.bytes", "B", "lower", "raw snapshot bytes that crossed processes",
      program(lambda t: t.fact("shm_bytes"))),
    M("shm.encode_s", "s", "lower", "worker-side encode + segment write",
      program(lambda t: t.reg.seconds("transport.encode_seconds"))),
    M("shm.decode_s", "s", "lower", "parent-side read + decode",
      program(lambda t: t.reg.seconds("transport.decode_seconds"))),
    M("shm.leaked_segments", "count", "lower", "this run's segments left in /dev/shm",
      harness(lambda t: t.fact("shm_leaked"))),
    # -- harness ---------------------------------------------------------
    M("harness.trace_overhead_pct", "%", "lower", "traced vs untraced window wall",
      harness(lambda t: 100.0 * (t.fact("window_s") / t.fact("untraced_window_s") - 1.0))),
    M("harness.unattributed_fraction", "ratio", "lower",
      "window time under no layer span",
      harness(lambda t: ratio(t.spans.self_s(WINDOW), t.spans.busy(WINDOW)))),
    M("harness.span_count", "count", "lower", "spans recorded",
      harness(lambda t: float(t.spans.span_count))),
    M("harness.machine_speed", "ratio", "higher",
      "machine speed over the traced window, 1.0 = reference (see machine.py)",
      harness(lambda t: t.fact("machine_speed"))),
    M("harness.window_raw_s", "s", "lower",
      "traced window wall as the clock read it, before the speed correction",
      harness(lambda t: t.fact("window_raw_s"))),
)


def derive_per_layer(trace: Trace) -> dict[str, dict[str, Any]]:
    """Every per-layer metric as ``{value, unit, source}`` or ``null`` + reason."""
    out: dict[str, dict[str, Any]] = {}
    for metric in PER_LAYER:
        entry: dict[str, Any] = {"value": None, "unit": metric.unit}
        reasons = []
        for source, derive in metric.sources:
            try:
                entry["value"] = derive(trace)
                entry["source"] = source
                break
            except Unavailable as exc:
                reasons.append(str(exc))
        if entry["value"] is None:
            entry["reason"] = "; ".join(dict.fromkeys(reasons))
        out[metric.name] = entry
    return out
