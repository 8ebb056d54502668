"""Streaming runtime micro-benches: engines, re-planning, trigger control.

End-to-end offers/sec and latency of the BRP loop are ``BENCHMARK.json``'s
job (``brp_steady`` and friends, timed from outside); this file keeps the
per-layer comparisons that contract does not make:

* incremental aggregate maintenance beats rebuilding every aggregate from
  scratch on a sustained stream — the optimisation the paper highlights
  ("aggregated flex-offers can be incrementally updated to avoid a
  from-scratch re-computation");
* delta re-planning vs a full re-plan, and the adaptive trigger holding a
  latency target.

Scale with ``REPRO_SCALE`` (multiplies the arrival rates and stream length).
"""

import time

import numpy as np
from conftest import smoke_mode
from repro.aggregation import AggregationParameters, AggregationPipeline
from repro.aggregation.pipeline import aggregate_from_scratch
from repro.core import TimeSeries, flex_offer
from repro.experiments import scale_factor
from repro.experiments.reporting import print_table
from repro.runtime import (
    AdaptiveTrigger,
    AgeTrigger,
    AnyTrigger,
    BrpRuntimeService,
    CountTrigger,
    LoadGenerator,
    ServiceConfig,
)
from repro.scheduling import (
    DeltaRequest,
    DeltaScheduler,
    Market,
    SchedulingProblem,
)

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
    """Dirty-set delta re-planning vs a full one-pass re-plan.

    A pool of live groups evolves by mutating a small dirty fraction per
    round (the steady state of a large deployment: most aggregates are
    untouched between trigger firings).  The delta scheduler re-places only
    the dirty offers over its retained plan; the full baseline re-places
    the whole pool through the *same* one-pass canonical arithmetic, so the
    comparison isolates exactly the work the dirty set avoids.
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

    def run_rounds():
        delta = DeltaScheduler(full_fraction=0.25)
        full = DeltaScheduler(full_fraction=0.25)
        # Warm both planners on the initial pool (delta's first run is a
        # full pass by construction; untimed so the steady state is what
        # the records compare).
        seed_problem = problem_from_pool()
        request = DeltaRequest(keys=keys, dirty=frozenset(keys), window_start=0)
        delta.schedule(seed_problem, delta=request)
        full.schedule(seed_problem, delta=None)

        delta_seconds = 0.0
        full_seconds = 0.0
        reused = 0
        for _ in range(rounds):
            dirty = frozenset(
                rng.choice(np.array(keys), size=per_round, replace=False)
            )
            for key in dirty:
                pool[key] = _delta_offer(rng, horizon)
            problem = problem_from_pool()
            request = DeltaRequest(keys=keys, dirty=dirty, window_start=0)

            t0 = time.perf_counter()
            delta.schedule(problem, delta=request)
            delta_seconds += time.perf_counter() - t0
            assert delta.last_stats["mode"] == "delta"
            reused += int(delta.last_stats["reused"])

            t0 = time.perf_counter()
            full.schedule(problem, delta=None)
            full_seconds += time.perf_counter() - t0
        return delta_seconds, full_seconds, reused

    delta_seconds, full_seconds, reused = once(run_rounds)
    speedup = full_seconds / max(delta_seconds, 1e-9)

    print_table(
        f"delta vs full re-plan ({n} live groups, "
        f"{per_round}/{n} dirty per round, {rounds} rounds)",
        ["path", "seconds", "per round ms"],
        [
            ["delta", f"{delta_seconds:.3f}", f"{delta_seconds / rounds * 1e3:.1f}"],
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
    # Every clean placement must have been retained.
    assert reused == rounds * (n - per_round)
    if not smoke_mode():
        # The acceptance bar: at >= 500 live groups and <= 5% dirt, delta
        # re-planning beats the full pass by at least 3x.
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

    def run_service(trigger):
        config = ServiceConfig.from_flat(
            batch_size=64,
            horizon_slices=192,
            scheduler_passes=1,
            trigger=trigger,
            min_run_interval_slices=1.0,
            seed=SEED,
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
            AnyTrigger([CountTrigger(4000), AgeTrigger(48.0)])
        )
        adaptive = run_service(AdaptiveTrigger(target))
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
