"""Process-parallel cluster scaling: worker processes vs one thread.

Claims to measure:

* wall-clock scaling of the K-BRP cluster when its BRP stacks run in
  worker processes (``ParallelClusterRuntime``) against the in-file
  single-thread ``ClusterRuntime`` baseline on the identical workload —
  same seeded streams, same service/TSO configs;
* equal behaviour at every worker count: admission is process-layout
  independent, so accepted totals must match the single-thread baseline
  exactly, with zero dropped bus messages and a live level-3 path
  (TSO runs, macros returned, micro commitments);
* where the residual overhead lives: the merged registry's
  ``transport.encode_seconds`` / ``transport.decode_seconds`` histograms
  attribute the shared-memory bus cost per snapshot, recorded alongside
  each scaling row.

Records land in ``BENCH_runtime.json`` as ``cluster.parallel_k<N>`` (plus
the ``cluster.parallel_baseline`` single-thread row); every parallel row
carries ``workers`` and ``cpu_count`` in its workload, so a scaling claim
can always be read against the parallelism the host actually offered.
Worker counts above the host's core count are not run: they would time
oversubscription, not scaling.  No speedup is asserted — the recorded
wall times are the evidence, and the end-to-end contract
(``benchmarks/e2e``, workloads ``parallel_k2`` vs ``cluster_k2``) is what
gates the parallel path's speed.

Scale with ``REPRO_SCALE``; ``REPRO_BENCH_SMOKE=1`` shrinks to a tiny
2-worker run.
"""

import os

from conftest import smoke_mode
from repro.experiments import scale_factor
from repro.experiments.reporting import print_table
from repro.runtime import (
    ClusterConfig,
    ClusterRuntime,
    IngestConfig,
    LoadGenerator,
    SchedulingConfig,
    ServiceConfig,
    TsoConfig,
)
from repro.runtime.parallel import ParallelClusterRuntime

RATE_PER_BRP = 100.0
DURATION_SLICES = 96.0  # one simulated day per configuration
SEED = 42
BRPS = 4
WORKER_COUNTS = (1, 2, 4)


def _duration_slices() -> float:
    return 24.0 if smoke_mode() else DURATION_SLICES


def _rate() -> float:
    return 20.0 if smoke_mode() else RATE_PER_BRP * scale_factor()


def _worker_counts() -> tuple[int, ...]:
    if smoke_mode():
        return (2,)
    cores = max(2, os.cpu_count() or 2)
    return tuple(k for k in WORKER_COUNTS if k <= cores)


def _service_config() -> ServiceConfig:
    return ServiceConfig(
        scheduling=SchedulingConfig(scheduler_passes=1, seed=SEED),
        ingest=IngestConfig(batch_size=64),
    )


def _cluster_config() -> ClusterConfig:
    return ClusterConfig.uniform(
        BRPS,
        _service_config(),
        tso=TsoConfig.from_dict({"scheduling": {"scheduler_passes": 1}}),
    )


def _streams(names, duration: float):
    # Every BRP replays the identical seeded stream, so behaviour
    # comparisons are exact.
    return {
        name: LoadGenerator(rate_per_hour=_rate(), seed=SEED).stream(
            0.0, duration
        )
        for name in names
    }


def _run_single_thread():
    cluster = ClusterRuntime(_cluster_config())
    duration = _duration_slices()
    return cluster.run(_streams(cluster.clients, duration), duration)


def _run_parallel(workers: int):
    cluster = ParallelClusterRuntime(_cluster_config(), workers=workers)
    duration = _duration_slices()
    report = cluster.run(_streams(cluster.config.brps, duration), duration)
    merged = cluster.metrics()
    return report, merged


def test_parallel_scaling(once, bench_record):
    def run_all():
        return _run_single_thread(), [
            (k, *_run_parallel(k)) for k in _worker_counts()
        ]

    baseline, runs = once(run_all)
    cpu_count = os.cpu_count() or 1

    rows = [
        [
            "single thread",
            baseline.offers_accepted,
            f"{baseline.wall_seconds:.2f}",
            "1.00",
            "-",
            "-",
        ]
    ]
    for workers, report, merged in runs:
        encode = merged.histogram("transport.encode_seconds")
        decode = merged.histogram("transport.decode_seconds")
        rows.append(
            [
                f"{workers} workers",
                report.offers_accepted,
                f"{report.wall_seconds:.2f}",
                f"{baseline.wall_seconds / report.wall_seconds:.2f}",
                report.shm_segments,
                f"{(encode.total + decode.total) * 1e3:.1f}ms",
            ]
        )
    print_table(
        f"process-parallel cluster scaling ({BRPS} BRPs, {_rate():g}/h per "
        f"BRP, {_duration_slices():g} slices, {cpu_count} cores)",
        ["config", "offers", "wall s", "speedup", "shm segs", "bus cost"],
        rows,
    )

    bench_record(
        "runtime",
        name="cluster.parallel_baseline",
        workload={
            "rate_per_hour": _rate(),
            "duration_slices": _duration_slices(),
            "brps": BRPS,
            "cpu_count": cpu_count,
        },
        metrics={
            "offers_accepted": baseline.offers_accepted,
            "offers_per_sec": baseline.offers_per_second,
            "wall_seconds": baseline.wall_seconds,
        },
    )
    for workers, report, merged in runs:
        encode = merged.histogram("transport.encode_seconds")
        decode = merged.histogram("transport.decode_seconds")
        bench_record(
            "runtime",
            name=f"cluster.parallel_k{workers}",
            workload={
                "rate_per_hour": _rate(),
                "duration_slices": _duration_slices(),
                "brps": BRPS,
                "workers": workers,
                "cpu_count": cpu_count,
            },
            metrics={
                "offers_accepted": report.offers_accepted,
                "offers_per_sec": report.offers_per_second,
                "wall_seconds": report.wall_seconds,
                "speedup_vs_single": baseline.wall_seconds
                / report.wall_seconds,
                "latency_slices_p95": report.latency_slices_p95,
                "tso_scheduling_runs": report.tso_scheduling_runs,
                "remote_commits": report.remote_commits,
                "bus_delivered": report.bus_delivered,
                "bus_dropped": report.bus_dropped,
                "epochs": report.epochs,
                "shm_segments": report.shm_segments,
                "shm_bytes": report.shm_bytes,
                "shm_encode_seconds_total": encode.total,
                "shm_encode_seconds_p95": encode.p95,
                "shm_decode_seconds_total": decode.total,
                "shm_decode_seconds_p95": decode.p95,
            },
        )

    for workers, report, _merged in runs:
        # Behaviour is process-layout independent: every worker count
        # admits exactly the single-thread cluster's offers, nothing is
        # dropped on the bus, and the level-3 path stays live.
        assert report.offers_accepted == baseline.offers_accepted
        assert report.offers_submitted == baseline.offers_submitted
        assert report.bus_dropped == 0
        assert report.tso_scheduling_runs > 0
        assert report.remote_commits > 0
        assert report.shm_segments > 0
