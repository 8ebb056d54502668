"""Streaming runtime micro-benches: engines, re-planning, trigger control.

End-to-end offers/sec and latency of the BRP loop are ``BENCHMARK.json``'s
job (``brp_steady`` and friends, timed from outside); this file keeps the
per-layer comparisons that contract does not make:

* incremental aggregate maintenance beats rebuilding every aggregate from
  scratch on a sustained stream — the optimisation the paper highlights
  ("aggregated flex-offers can be incrementally updated to avoid a
  from-scratch re-computation");
* re-placing only the dirty groups vs re-placing every group, and the
  adaptive trigger holding a latency target;
* the expiry sweep, one aggregate build, and the commit stage of one
  planning run (``commit_pass``), each at ``brp_steady``'s shape;
* admission and its flushes per admitted offer (``admission_pass``) on
  ``brp_ingest_heavy``'s stream;
* an offer revision and the flushes it starts (``update_pass``) on
  ``brp_ledger_churn``'s stream and revision share.

Scale with ``REPRO_SCALE`` (multiplies the arrival rates and stream length).
"""

import os
import time

import numpy as np
from conftest import smoke_mode
from repro.aggregation import AggregationParameters, AggregationPipeline
from repro.aggregation.pipeline import aggregate_from_scratch
from repro.core import TimeSeries, flex_offer
from repro.experiments import scale_factor
from repro.experiments.reporting import print_table
from repro.runtime import (
    AgeTrigger,
    AnyTrigger,
    BrpRuntimeService,
    CountTrigger,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
)
from repro.aggregation.updates import AggregateUpdate, UpdateKind
from repro.runtime.planning import PlanSession
from repro.scheduling import Market, SchedulingProblem

SEED = 42


def test_incremental_beats_rebuild_on_sustained_stream(once, bench_record):
    """Maintain aggregates over a stream: incremental vs from-scratch.

    Both paths consume the identical offer stream in identical batches; the
    rebuild path re-aggregates the full surviving population every batch
    (what a non-incremental deployment would have to do), the incremental
    path feeds the same batches through one long-lived pipeline.
    """
    scale = scale_factor()
    parameters = AggregationParameters(
        start_after_tolerance=8, time_flexibility_tolerance=8, name="bench"
    )
    rate = 50.0 if smoke_mode() else 200.0 * scale
    generator = LoadGenerator(rate_per_hour=rate, seed=SEED)
    offers = generator.offers(0.0, 24.0 if smoke_mode() else 96.0)
    batch_size = 64
    batches = [
        offers[i : i + batch_size] for i in range(0, len(offers), batch_size)
    ]

    def incremental() -> tuple[float, int]:
        pipeline = AggregationPipeline(parameters)
        t0 = time.perf_counter()
        for batch in batches:
            pipeline.submit_inserts(batch)
            pipeline.run()
        return time.perf_counter() - t0, len(pipeline.aggregates)

    def rebuild() -> tuple[float, int]:
        seen: list = []
        t0 = time.perf_counter()
        aggregates = []
        for batch in batches:
            seen.extend(batch)
            aggregates = aggregate_from_scratch(seen, parameters)
        return time.perf_counter() - t0, len(aggregates)

    def run_both():
        return incremental(), rebuild()

    (inc_time, inc_count), (reb_time, reb_count) = once(run_both)

    print_table(
        f"incremental vs rebuild ({len(offers)} offers, "
        f"{len(batches)} batches)",
        ["path", "seconds", "aggregates"],
        [
            ["incremental", f"{inc_time:.3f}", inc_count],
            ["rebuild", f"{reb_time:.3f}", reb_count],
            ["speedup", f"{reb_time / max(inc_time, 1e-9):.1f}x", ""],
        ],
    )

    bench_record(
        "runtime",
        name="incremental_vs_rebuild",
        workload={"offers": len(offers), "batches": len(batches)},
        metrics={
            "incremental_seconds": inc_time,
            "rebuild_seconds": reb_time,
            "speedup": reb_time / max(inc_time, 1e-9),
        },
    )
    # Same final aggregate population either way...
    assert inc_count == reb_count
    # ...but the incremental path must win on a sustained stream (skipped
    # in smoke mode: tiny workloads make the timing comparison noise).
    if not smoke_mode():
        assert inc_time < reb_time


def test_sweep_and_aggregate_build_at_brp_steady_shape(once, bench_record):
    """Two walks of every scheduling trigger, timed on a running BRP.

    A default-config service streams ``brp_steady``'s arrival rate (400
    offers per simulated hour) over its 128 slices, one 8-slice window at
    a time from slice 64 on.  At each window's end, frozen there:
    ``service.sweep`` times expiry sweeps over the live pool (the first
    retires what fell due, each later one retires nothing and times the
    check alone), and ``aggregate_build`` times one aggregate object built
    per pool group through the engine's ``aggregates`` — its bound rows
    made a profile, plus the member walk — as every uplinked group pays
    it (the planner itself builds none).  Only the public surface is
    used, so the same file times a parent commit's ``src/``.
    """
    rate, warmup, window, stops = (
        (100.0, 8.0, 4.0, 2) if smoke_mode() else (400.0, 64.0, 8.0, 8)
    )
    sweeps, rounds = (10, 2) if smoke_mode() else (100, 10)

    def run():
        service = BrpRuntimeService(ServiceConfig())
        arrivals = iter(
            LoadGenerator(rate_per_hour=rate, seed=SEED).stream(
                0.0, warmup + window * stops
            )
        )
        service.run_stream(arrivals, warmup)
        live, sweep_s, build_s, aggregates = [], 0.0, 0.0, []
        for _ in range(stops):
            service.run_stream(arrivals, window)
            service.sweep_expired()
            live.append(service.live_offers)
            t0 = time.perf_counter()
            for _ in range(sweeps):
                service.sweep_expired()
            sweep_s += time.perf_counter() - t0
            pipeline = service.ingest.pipeline
            t0 = time.perf_counter()
            for _ in range(rounds):
                built = pipeline.aggregates
            build_s += time.perf_counter() - t0
            aggregates.extend(built)
        return (
            sum(live) / len(live),
            sweep_s / (stops * sweeps),
            aggregates,
            build_s / (rounds * len(aggregates)),
        )

    live, sweep_s, aggregates, build_s = once(run)
    members = sum(a.member_count for a in aggregates) / len(aggregates)
    slices = sum(a.duration for a in aggregates) / len(aggregates)
    groups = len(aggregates) / stops
    print_table(
        "expiry sweep and aggregate build at brp_steady's shape",
        ["row", "shape (mean over stops)", "us"],
        [
            ["service.sweep", f"{live:.0f} live offers", f"{sweep_s * 1e6:.1f}"],
            [
                "aggregate_build",
                f"{groups:.0f} groups, {members:.0f} members, "
                f"{slices:.1f} slices",
                f"{build_s * 1e6:.1f}",
            ],
        ],
    )
    shape = {
        "rate_per_hour": rate,
        "stops": stops,
        "cpu_count": os.cpu_count(),
    }
    bench_record(
        "runtime",
        name="service.sweep",
        workload={**shape, "live_offers": live, "sweeps_per_stop": sweeps},
        metrics={"us_per_sweep": sweep_s * 1e6},
    )
    bench_record(
        "runtime",
        name="aggregate_build",
        workload={
            **shape,
            "groups": groups,
            "mean_members": members,
            "mean_slices": slices,
            "rounds_per_stop": rounds,
        },
        metrics={"us_per_build": build_s * 1e6},
    )
    assert live > 0 and aggregates


def test_commit_pass_at_brp_steady_shape(once, bench_record):
    """The commit stage of a planning run, on ``brp_steady``'s stream.

    A default-config service runs ``brp_steady``'s seeded arrival stream
    (400 offers per simulated hour over 128 slices).  ``commit_pass`` is
    the time its ``disaggregate`` stage timer saw per non-empty planning
    run: the start commitments of the plan, first commitments and their
    store rows included.  The best of three runs is kept.  Only the
    public surface is read, so the same file times a parent commit's
    ``src/``.
    """
    duration, rounds = (32.0, 1) if smoke_mode() else (128.0, 3)

    def run():
        best = None
        for _ in range(rounds):
            service = BrpRuntimeService(ServiceConfig())
            stream = LoadGenerator(rate_per_hour=400.0, seed=SEED).stream(
                0.0, duration
            )
            service.run_stream(stream, duration)
            stage = service.metrics.histogram(
                "stage.wall_seconds",
                labels={"brp": service.name, "stage": "disaggregate"},
            )
            per_run = stage.total / stage.count
            if best is None or per_run < best[0]:
                best = (
                    per_run,
                    stage.count,
                    service.metrics.counter("disaggregate.assignments").value,
                    service.scheduled_total,
                )
        return best

    per_run, runs, commits, first = once(run)
    print_table(
        "commit stage per planning run at brp_steady's shape",
        ["row", "runs", "member commits", "first commits", "us per run"],
        [["commit_pass", runs, f"{commits:.0f}", first, f"{per_run * 1e6:.1f}"]],
    )
    bench_record(
        "runtime",
        name="commit_pass",
        workload={
            "rate_per_hour": 400.0,
            "duration_slices": duration,
            "planning_runs": runs,
            "member_commits": commits,
            "first_commits": first,
            "cpu_count": os.cpu_count(),
        },
        metrics={"us_per_run": per_run * 1e6},
    )
    assert runs > 0 and first > 0


def test_admission_pass_at_brp_ingest_heavy_shape(once, bench_record):
    """Admission and its aggregation flushes, on ``brp_ingest_heavy``'s stream.

    ``brp_ingest_heavy``'s seeded arrival stream (3 200 offers per
    simulated hour over 48 slices) goes through
    :meth:`BrpRuntimeService.submit` one arrival at a time, with its ingest
    batch of 256, and a last ``run_aggregation`` flushes the rest.  Its
    trigger never fires, so no planning run, commitment or sweep is timed:
    ``admission_pass`` is the wall time of the submits (their store facts
    and the flushes a full batch starts included) per admitted offer.  The
    best of three runs is kept.  Only the public surface is read, so the
    same file times a parent commit's ``src/``.
    """
    duration, rounds = (8.0, 1) if smoke_mode() else (48.0, 3)
    arrivals = list(
        LoadGenerator(rate_per_hour=3200.0, seed=SEED).stream(0.0, duration)
    )
    config = ServiceConfig(
        ingest=IngestConfig(batch_size=256),
        scheduling=SchedulingConfig(trigger=CountTrigger(10**9)),
    )

    def run():
        best = None
        for _ in range(rounds):
            service = BrpRuntimeService(config)
            advance, submit = service.driver.advance_to, service.submit
            t0 = time.perf_counter()
            for at, offer in arrivals:
                advance(at)
                submit(offer)
            service.run_aggregation()
            elapsed = time.perf_counter() - t0
            admitted = service.metrics.counter("ingest.accepted").value
            if best is None or elapsed < best[0]:
                best = (elapsed, admitted, service.live_offers)
        return best

    elapsed, admitted, live = once(run)
    per_offer = elapsed / admitted
    print_table(
        "admission and its flushes at brp_ingest_heavy's shape",
        ["row", "arrivals", "admitted", "us per admitted offer"],
        [["admission_pass", len(arrivals), f"{admitted:.0f}",
          f"{per_offer * 1e6:.2f}"]],
    )
    bench_record(
        "runtime",
        name="admission_pass",
        workload={
            "rate_per_hour": 3200.0,
            "duration_slices": duration,
            "batch_size": 256,
            "arrivals": len(arrivals),
            "admitted": admitted,
            "cpu_count": os.cpu_count(),
        },
        metrics={"us_per_offer": per_offer * 1e6},
    )
    assert admitted > 0 and live == admitted


def test_update_pass_at_brp_ledger_churn_shape(once, bench_record):
    """Offer revisions and the flushes they start, on ``brp_ledger_churn``'s stream.

    ``brp_ledger_churn``'s seeded arrival stream (200 offers per simulated
    hour over 56 slices) goes through :meth:`BrpRuntimeService.submit`, and
    every tenth distinct offer is revised half a slice after its arrival
    through :meth:`BrpRuntimeService.update`, its start window one slice
    narrower, as that workload's harness does.  The trigger never fires, so
    no planning run is timed.  ``us_per_update`` is the wall time of the
    update calls (the flushes they start included) per update, and
    ``us_per_arrival`` the wall time of the whole stream (submits, updates
    and a last ``run_aggregation``) per arrival, so work an update leaves
    to a later flush is counted there.  ``flushes`` is the stream's
    ``ingest.flushes``.  The best of three runs is kept.  Only the public
    surface is read, so the same file times a parent commit's ``src/``.
    """
    duration, rounds = (8.0, 1) if smoke_mode() else (56.0, 3)
    arrivals = list(LoadGenerator(rate_per_hour=200.0, seed=SEED).stream(0.0, duration))
    operations = [(at, 0, offer) for at, offer in arrivals]
    for position, (at, offer) in enumerate(arrivals, start=1):
        if position % 10 == 0 and at + 0.5 < duration:
            revised = offer.with_times(offer.earliest_start, offer.latest_start - 1)
            operations.append((at + 0.5, 1, revised))
    operations.sort(key=lambda item: (item[0], item[1]))
    config = ServiceConfig(
        scheduling=SchedulingConfig(trigger=CountTrigger(10**9)),
    )

    def run():
        best = None
        for _ in range(rounds):
            service = BrpRuntimeService(config)
            advance = service.driver.advance_to
            submit, update = service.submit, service.update
            clock = time.perf_counter
            in_updates = 0.0
            accepted = 0
            t0 = clock()
            for at, is_update, offer in operations:
                advance(at)
                if is_update:
                    u0 = clock()
                    accepted += bool(update(offer))
                    in_updates += clock() - u0
                else:
                    submit(offer)
            service.run_aggregation()
            elapsed = clock() - t0
            flushes = service.metrics.counter("ingest.flushes").value
            if best is None or in_updates < best[0]:
                best = (in_updates, elapsed, accepted, flushes)
        return best

    in_updates, elapsed, accepted, flushes = once(run)
    updates = len(operations) - len(arrivals)
    per_update = in_updates / updates
    per_arrival = elapsed / len(arrivals)
    print_table(
        "offer revisions and their flushes at brp_ledger_churn's shape",
        ["row", "arrivals", "updates", "accepted", "flushes",
         "us per update", "us per arrival"],
        [["update_pass", len(arrivals), updates, accepted, f"{flushes:.0f}",
          f"{per_update * 1e6:.2f}", f"{per_arrival * 1e6:.2f}"]],
    )
    bench_record(
        "runtime",
        name="update_pass",
        workload={
            "rate_per_hour": 200.0,
            "duration_slices": duration,
            "arrivals": len(arrivals),
            "updates": updates,
            "accepted_updates": accepted,
            "cpu_count": os.cpu_count(),
        },
        metrics={
            "us_per_update": per_update * 1e6,
            "us_per_arrival": per_arrival * 1e6,
            "flushes": flushes,
        },
    )
    assert accepted > 0


def _delta_offer(rng: np.random.Generator, horizon: int):
    """One random runtime-shaped flex-offer inside the horizon."""
    duration = int(rng.integers(2, 7))
    earliest = int(rng.integers(0, horizon - duration + 1))
    latest = int(rng.integers(earliest, horizon - duration + 1))
    lo = rng.uniform(-2.0, 2.0, duration)
    hi = lo + rng.uniform(0.5, 3.0, duration)
    return flex_offer(
        list(zip(lo, hi)),
        earliest_start=earliest,
        latest_start=latest,
        unit_price=0.01,
    )


def test_delta_scheduler_vs_full_replan(once, bench_record):
    """Keeping clean placements vs re-placing the whole pool.

    A pool of live groups evolves by mutating a small dirty fraction per
    round (the steady state of a large deployment: most aggregates are
    untouched between trigger firings).  Two :class:`PlanSession` s plan
    the same problems: one is told which groups changed and re-places only
    those, the other is told every group changed, so both run the same
    passes of the same scheduler and the comparison isolates exactly the
    work the kept placements avoid.
    """
    horizon = 192
    n = 60 if smoke_mode() else max(600, int(600 * scale_factor()))
    dirty_fraction = 0.05
    rounds = 3 if smoke_mode() else 10
    per_round = max(1, int(n * dirty_fraction))
    rng = np.random.default_rng(SEED)

    keys = tuple(f"g{i:05d}" for i in range(n))
    pool = {key: _delta_offer(rng, horizon) for key in keys}
    net = TimeSeries(0, rng.uniform(-30.0, 30.0, horizon))
    market = Market(
        np.full(horizon, 0.20), np.full(horizon, 0.05)
    )

    def problem_from_pool() -> SchedulingProblem:
        return SchedulingProblem(
            net,
            tuple(pool[key] for key in keys),
            market,
            shortage_penalty=np.array(0.5),
            surplus_penalty=np.array(0.2),
        )

    def changed(session: PlanSession, dirty) -> None:
        session.absorb(
            AggregateUpdate(UpdateKind.MODIFIED, key, lambda: None)
            for key in dirty
        )

    def run_rounds():
        kept = PlanSession(seed=SEED)
        full = PlanSession(seed=SEED)
        # Both sessions' first run places every group (untimed, so the
        # steady state is what the records compare).
        seed_problem = problem_from_pool()
        kept.plan(seed_problem, keys)
        full.plan(seed_problem, keys)

        kept_seconds = 0.0
        full_seconds = 0.0
        for _ in range(rounds):
            dirty = rng.choice(np.array(keys), size=per_round, replace=False)
            for key in dirty:
                pool[key] = _delta_offer(rng, horizon)
            problem = problem_from_pool()
            changed(kept, dirty)
            changed(full, keys)

            t0 = time.perf_counter()
            kept.plan(problem, keys)
            kept_seconds += time.perf_counter() - t0

            t0 = time.perf_counter()
            full.plan(problem, keys)
            full_seconds += time.perf_counter() - t0
        reused = kept.metrics.counter("delta.reused_placements").value
        assert full.metrics.counter("delta.reused_placements").value == 0
        return kept_seconds, full_seconds, int(reused)

    delta_seconds, full_seconds, reused = once(run_rounds)
    speedup = full_seconds / max(delta_seconds, 1e-9)

    print_table(
        f"kept placements vs full re-plan ({n} live groups, "
        f"{per_round}/{n} dirty per round, {rounds} rounds)",
        ["path", "seconds", "per round ms"],
        [
            ["kept", f"{delta_seconds:.3f}", f"{delta_seconds / rounds * 1e3:.1f}"],
            ["full", f"{full_seconds:.3f}", f"{full_seconds / rounds * 1e3:.1f}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
    )
    bench_record(
        "runtime",
        name="delta.replan_speedup",
        workload={
            "live_groups": n,
            "dirty_fraction": dirty_fraction,
            "rounds": rounds,
        },
        metrics={
            "delta_seconds": delta_seconds,
            "full_seconds": full_seconds,
            "speedup": speedup,
            "reused_placements": reused,
        },
    )
    # Every clean placement must have been kept.
    assert reused == rounds * (n - per_round)
    if not smoke_mode():
        # The acceptance bar: at >= 500 live groups and <= 5% dirt, keeping
        # the clean placements beats re-placing them by at least 3x.
        assert n >= 500 and per_round / n <= 0.05
        assert speedup >= 3.0


def test_adaptive_trigger_holds_latency_target(once, bench_record):
    """Closed-loop trigger control vs static thresholds that miss the target.

    Both services replay the identical Poisson stream.  The static
    configuration's thresholds (count 4000 / age 48) let offers wait far
    past the 8-slice p95 target; the adaptive trigger starts from the
    runtime defaults and tightens its thresholds after each run until the
    measured p95 holds at or under the target.
    """
    target = 8.0
    rate = 50.0 if smoke_mode() else 200.0 * scale_factor()
    duration = 24.0 if smoke_mode() else 384.0

    def run_service(**loop):
        config = ServiceConfig.from_flat(
            batch_size=64,
            horizon_slices=192,
            scheduler_passes=1,
            min_run_interval_slices=1.0,
            seed=SEED,
            **loop,
        )
        service = BrpRuntimeService(config)
        generator = LoadGenerator(rate_per_hour=rate, seed=SEED)
        report = service.run_stream(generator.stream(0.0, duration), duration)
        adjustments = service.metrics.counter(
            "trigger.adaptive_adjustments"
        ).value
        return report, int(adjustments)

    def run_both():
        static = run_service(
            trigger=AnyTrigger([CountTrigger(4000), AgeTrigger(48.0)])
        )
        adaptive = run_service(target_p95_slices=target)
        return static, adaptive

    (static_report, _), (adaptive_report, adjustments) = once(run_both)

    print_table(
        f"adaptive trigger vs static (target p95 {target:g} slices, "
        f"rate {rate:g}/h)",
        ["config", "p95 sim", "sched runs", "adjustments"],
        [
            [
                "static",
                f"{static_report.latency_slices_p95:.2f}",
                static_report.scheduling_runs,
                0,
            ],
            [
                "adaptive",
                f"{adaptive_report.latency_slices_p95:.2f}",
                adaptive_report.scheduling_runs,
                adjustments,
            ],
        ],
    )
    bench_record(
        "runtime",
        name="adaptive.latency_control",
        workload={
            "rate_per_hour": rate,
            "duration_slices": duration,
            "target_p95_slices": target,
        },
        metrics={
            "static_p95_slices": static_report.latency_slices_p95,
            "adaptive_p95_slices": adaptive_report.latency_slices_p95,
            "adaptive_adjustments": adjustments,
            "static_scheduling_runs": static_report.scheduling_runs,
            "adaptive_scheduling_runs": adaptive_report.scheduling_runs,
        },
    )
    if not smoke_mode():
        # The static thresholds overshoot the target; the control loop must
        # have adjusted at least once and held the p95 at or under it.
        assert static_report.latency_slices_p95 > target
        assert adjustments >= 1
        assert adaptive_report.latency_slices_p95 <= target
