"""Observability overhead: what tracing costs the streaming hot path.

Claims to measure:

* the instrumented service with its default :class:`~repro.obs.NullTracer`
  is the *untraced baseline* — every call site guards on
  ``tracer.enabled``, so the remaining cost is a handful of branch checks
  and no-op context managers per stage;
* a recording :class:`~repro.obs.Tracer` with a sampling stride (1 in 100
  offers) stays within ~10% of the NullTracer baseline — sampling bounds
  the per-offer event volume while macro-level events keep every causal
  chain trunk complete;
* full tracing (every offer, every stage) is the worst case and is
  reported for scale, not gated.

Records land in ``BENCH_runtime.json`` under ``obs.overhead.*`` names;
``overhead_pct`` is relative to the NullTracer run of the same session.
``REPRO_BENCH_SMOKE=1`` shrinks the workload and disables the threshold
assertion (smoke boxes are too noisy to gate on single-digit percentages).
"""

import time

from conftest import smoke_mode
from repro.experiments import scale_factor
from repro.experiments.reporting import print_table
from repro.obs import Tracer
from repro.runtime import (
    BrpRuntimeService,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
)

RATE_PER_HOUR = 200.0
DURATION_SLICES = 96.0
SEED = 42
SAMPLE_STRIDE = 100


def _duration_slices() -> float:
    return 24.0 if smoke_mode() else DURATION_SLICES


def _rate() -> float:
    return 40.0 if smoke_mode() else RATE_PER_HOUR * scale_factor()


def _config() -> ServiceConfig:
    return ServiceConfig(
        scheduling=SchedulingConfig(scheduler_passes=1, seed=SEED),
        ingest=IngestConfig(batch_size=64),
    )


def _run(tracer=None):
    """One seeded run; returns (report, wall_seconds, traced event count)."""
    service = BrpRuntimeService(_config(), tracer=tracer)
    duration = _duration_slices()
    stream = LoadGenerator(rate_per_hour=_rate(), seed=SEED).stream(
        0.0, duration
    )
    t0 = time.perf_counter()
    report = service.run_stream(stream, duration)
    elapsed = time.perf_counter() - t0
    events = len(service.tracer.events) if service.tracer.enabled else 0
    return report, elapsed, events


def test_obs_overhead(once, bench_record):
    def run_all():
        # NullTracer default = the untraced baseline (guarded call sites).
        baseline = _run()
        sampled = _run(Tracer(sample_every=SAMPLE_STRIDE))
        full = _run(Tracer(sample_every=1))
        return baseline, sampled, full

    (baseline, sampled, full) = once(run_all)

    base_rate = baseline[0].offers_per_second
    rows = []
    records = []
    for label, (report, elapsed, events) in (
        ("null (baseline)", baseline),
        (f"sampled 1/{SAMPLE_STRIDE}", sampled),
        ("full (every offer)", full),
    ):
        rate = report.offers_per_second
        overhead = (base_rate - rate) / base_rate * 100.0 if base_rate else 0.0
        rows.append(
            [
                label,
                report.offers_accepted,
                f"{rate:.0f}",
                f"{overhead:+.1f}%",
                events,
            ]
        )
        records.append((label, rate, overhead, events))
    print_table(
        f"tracing overhead ({_rate():g}/h, {_duration_slices():g} slices)",
        ["tracer", "offers", "offers/s", "overhead", "events"],
        rows,
    )

    for name, (label, rate, overhead, events) in zip(
        ("obs.overhead.null", "obs.overhead.sampling", "obs.overhead.full"),
        records,
    ):
        bench_record(
            "runtime",
            name=name,
            workload={
                "rate_per_hour": _rate(),
                "duration_slices": _duration_slices(),
                "tracer": label,
            },
            metrics={
                "offers_per_sec": rate,
                "overhead_pct": overhead,
                "trace_events": float(events),
            },
        )

    # Same seed, same sim clock: tracing must never change behaviour, only
    # record it.
    assert sampled[0].offers_accepted == baseline[0].offers_accepted
    assert full[0].offers_accepted == baseline[0].offers_accepted
    assert full[2] >= sampled[2] > 0
    if not smoke_mode():
        # Sampling budget: 1-in-100 tracing stays within ~10% of baseline
        # (generous slack over the target to keep CI-class noise out).
        assert records[1][2] < 15.0, (
            f"sampled tracing overhead {records[1][2]:.1f}% exceeds budget"
        )
