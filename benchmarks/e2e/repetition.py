"""The body of one repetition: set-up, window, recovery, checks.

Imported by ``rep.py`` *inside* the timed set-up, because importing this
module pulls in ``repro``.
"""

from __future__ import annotations

import gc
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.api import LedmsClient, SimulatedDriver

import checks
from catalog import Registry, Trace, derive_per_layer
from machine import Pilot
from spans import SpanRecorder, SpanSummary, Unavailable
from workloads import WORKLOADS, Prepared, prepare

HERE = Path(__file__).resolve().parent

#: Scratch root for ledger directories; inside the checkout, git-ignored.
WORK_ROOT = HERE / ".work"

IN_WORKER = "lives inside a forked worker process"


def _cpu_seconds() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def _roots(prepared: Prepared) -> tuple[dict[str, list[Any]], dict[str, str]]:
    """Instances per wrap-point role, and the roles out of reach."""
    clients = list(prepared.clients.values())
    target = prepared.target
    roots: dict[str, list[Any]] = {
        "client": clients,
        "service": [c.service for c in clients],
        "ledger": [c.ledger for c in clients if c.ledger is not None],
        "driver": [target.driver],
    }
    if prepared.workload.kind != "brp":
        roots["cluster"] = [target]
    if prepared.workload.kind == "parallel":
        roots["parallel"] = [target]
    hidden = (
        {"client": IN_WORKER, "service": IN_WORKER}
        if prepared.workload.kind == "parallel"
        else {}
    )
    return roots, hidden


def _registry(prepared: Prepared) -> dict[str, Any]:
    if prepared.workload.kind == "brp":
        return prepared.target.metrics()
    return prepared.target.metrics().as_dict()


def _facts(prepared: Prepared, report: Any) -> dict[str, Any]:
    """Numbers read off public reports/attributes after the window."""
    kind = prepared.workload.kind
    target = prepared.target
    facts: dict[str, Any] = {
        "accepted": report.offers_accepted,
        "tso_name": "tso",
        "plan_evaluations": float(sum(prepared.plan_evaluations)),
        "assignment": [],
    }
    for name in (
        "ledger_appends", "ledger_bytes", "ledger_duplicates",
        "ledger_dead_letters", "replay_events", "recovery_s",
        "bus_delivered", "bus_dropped", "bus_retries", "tso_snapshots",
        "tso_runs", "tso_macros_returned", "remote_commits", "epochs",
        "parent_cpu_s", "parent_wait_s", "shm_segments", "shm_bytes",
        "shm_leaked",
    ):
        facts[name] = 0.0
    if kind == "brp":
        facts["driver_events"] = report.events_processed
        ledger = target.ledger
        if ledger is not None:
            facts["ledger_appends"] = ledger.appends
            facts["ledger_duplicates"] = ledger.duplicates
            facts["ledger_dead_letters"] = len(target.dead_letters())
            facts["ledger_bytes"] = sum(
                p.stat().st_size for p in prepared.ledger_dir.iterdir()
            )
        return facts
    facts.update(
        tso_name=target.config.tso_name,
        bus_delivered=report.bus_delivered,
        bus_dropped=report.bus_dropped,
        bus_retries=report.bus_retries,
        tso_snapshots=report.tso_macro_snapshots,
        tso_runs=report.tso_scheduling_runs,
        tso_macros_returned=report.tso_macros_returned,
        remote_commits=report.remote_commits,
    )
    if kind == "cluster":
        facts["driver_events"] = target.driver.processed
        return facts
    facts.update(
        driver_events=target.driver.processed
        + sum(r.events_processed for r in report.brp_reports.values()),
        plan_evaluations=Unavailable(f"plan hook {IN_WORKER}"),
        epochs=report.epochs,
        shm_segments=report.shm_segments,
        shm_bytes=report.shm_bytes,
        shm_leaked=len(checks.shm_residue(target.run_id)),
        assignment=[target.assignment[w] for w in sorted(target.assignment)],
    )
    return facts


def _plan_cost(prepared: Prepared, report: Any) -> float:
    if prepared.workload.kind == "brp":
        return sum(prepared.plan_costs) / len(prepared.plan_costs)
    # Both cluster workloads, so that the pair compares like with like:
    # parallel_k2 commits its BRP plans inside the workers, out of the
    # hook's reach, and the TSO's final system plan is what both reports
    # expose.
    return float(report.tso_plan_cost)


def run_repetition(
    name: str,
    seed: int,
    smoke: bool,
    traced: bool,
    spans_out: Path | None,
    untraced_window_s: float,
    setup_started: float,
    setup_pilot: Pilot,
) -> dict[str, Any]:
    """Set-up (already under way), window, recovery and checks of one rep.

    ``setup_started`` is the ``perf_counter`` reading ``rep.py`` took right
    after ``setup_pilot``'s first burst, before importing this module.
    Each timed section is reported at the machine speed its own pilot
    samples measured (see ``machine``).  ``untraced_window_s`` is the
    window of the run's last untraced repetition (0 if there was none),
    the base of the traced repetition's overhead figure.
    """
    workload = WORKLOADS[name]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        prepared = prepare(workload, seed, smoke, workdir)
        pilot = Pilot()
        recorder = SpanRecorder() if traced else None
        if recorder is not None:
            roots, hidden = _roots(prepared)
            recorder.install({**roots, "pilot": [pilot]}, hidden)
        pilot.arm(prepared.target.driver, prepared.duration)
        gc.collect()
        gc.freeze()
        setup_s = time.perf_counter() - setup_started
        setup_pilot.burst()

        own0, children0 = _cpu_seconds()
        t0 = time.perf_counter()
        if recorder is not None:
            report = recorder.window(prepared.replay)
        else:
            report = prepared.replay()
        elapsed = time.perf_counter() - t0
        own1, children1 = _cpu_seconds()
        window_s = elapsed - pilot.total_s
        window_speed = pilot.speed()
        cpu_s = (own1 - own0) + (children1 - children0) - pilot.total_s

        flat = _registry(prepared)
        registry = Registry(flat)
        latency = flat["latency.e2e_slices"]
        wall = flat["latency.e2e_wall_seconds"]
        end_to_end = {
            "setup_s": setup_s * setup_pilot.speed(),
            "offers_per_sec": report.offers_accepted / (window_s * window_speed),
            "cpu_s": cpu_s * window_speed,
            "commit_latency_slices_p50": latency["p50"],
            "commit_latency_slices_p95": latency["p95"],
            "commit_wall_ms_p95": wall["p95"] * 1e3 * window_speed,
            "plan_cost_eur_mean": _plan_cost(prepared, report),
            "peak_rss_mb": _peak_rss_mb(),
        }
        facts = _facts(prepared, report)
        facts["driver_events"] -= len(pilot.samples)
        facts["machine_speed"] = window_speed
        facts["window_raw_s"] = window_s
        if workload.kind == "parallel":
            facts["parent_cpu_s"] = own1 - own0 - pilot.total_s
            facts["parent_wait_s"] = max(0.0, elapsed - (own1 - own0))

        resumed = None
        if workload.ledger:
            prepared.target.ledger.close()
            # Recovery replays on a driver the harness supplies, so the
            # pilot can sample inside it exactly as it does in the window.
            recovery_pilot = Pilot()
            recovery_driver = SimulatedDriver(0.0)
            recovery_pilot.arm(recovery_driver, prepared.duration)
            t0 = time.perf_counter()
            resumed = LedmsClient.resume_from_ledger(
                prepared.ledger_dir, workload.config(), driver=recovery_driver
            )
            recovery_s = time.perf_counter() - t0 - recovery_pilot.total_s
            end_to_end["recovery_s"] = recovery_s * recovery_pilot.speed()
            facts["recovery_s"] = recovery_s
            facts["replay_events"] = resumed.last_replay.events

        outcome = checks.verify(prepared, report, flat, resumed)
        end_to_end["failed_fraction"] = outcome.failed / outcome.attempted
        if resumed is not None:
            resumed.ledger.close()

        result: dict[str, Any] = {
            "workload": name,
            "seed": seed,
            "traced": traced,
            "window_s": window_s * window_speed,
            "window_raw_s": window_s,
            "machine_speed": window_speed,
            "end_to_end": end_to_end,
            "samples": {
                "offers_accepted": report.offers_accepted,
                "commit_latency": int(latency["count"]),
                "beyond_p95": int(latency["count"] * 0.05),
                "committed_plans": len(prepared.plan_costs),
            },
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "violations": outcome.violations,
            "fingerprint_sha256": outcome.fingerprint_sha256,
            "accepted_sha256": outcome.accepted_sha256,
        }
        if recorder is not None:
            if spans_out is not None:
                recorder.dump(spans_out)
            facts["window_s"] = result["window_s"]
            facts["untraced_window_s"] = untraced_window_s or Unavailable(
                "no untraced repetition in this run"
            )
            summary = SpanSummary(recorder)
            result["per_layer"] = derive_per_layer(
                Trace(summary, registry, facts)
            )
            result["unavailable_spans"] = summary.unavailable
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
