"""Figure 5(b): cumulative aggregation time vs flex-offer count for P0-P3.

Paper claims to reproduce: aggregation time grows roughly linearly with the
offer count; the combinations that tolerate start-after variation (P2, P3)
aggregate more slowly because their aggregate profiles carry more intervals
to traverse on every insert.

On top of the paper protocol this module records the **engine trajectory**
into ``BENCH_aggregation.json``: the scalar pipeline and the columnar packed
engine run the identical Fig-5b insert stream (per threshold combination),
and a mixed insert/delete stream additionally measures incremental-update
throughput against the reference oracle (rebuild-on-remove) baseline — both
baselines and the packed engine are measured in the same run, so speedups
carry a recorded before/after rather than a one-off claim.
"""

import time

from conftest import smoke_mode
from repro.aggregation import AggregationParameters, make_pipeline
from repro.experiments import run_fig5, scale_factor
from repro.experiments.reporting import print_table


def _fig5_total() -> int:
    base = 6_000 if smoke_mode() else 60_000
    return int(base * scale_factor())


def test_fig5b_aggregation_time(once, bench_record):
    result = once(
        run_fig5,
        total_offers=_fig5_total(),
        measure_disaggregation=False,
    )

    final = {c: result.series(c)[-1] for c in ("P0", "P1", "P2", "P3")}
    for combo, point in final.items():
        bench_record(
            "aggregation",
            name="fig5b_reference",
            workload={"combination": combo, "offers": point.offer_count},
            metrics={
                "aggregation_seconds": point.aggregation_time_s,
                "offers_per_sec": point.offer_count
                / max(point.aggregation_time_s, 1e-9),
                "aggregates": point.aggregate_count,
            },
        )
    # Timing relations only hold at real workload sizes; the smoke job
    # exercises the harness, not performance.
    if not smoke_mode():
        # start-after tolerance slows aggregation down (P2/P3 vs P0/P1)
        fast = min(final["P0"].aggregation_time_s, final["P1"].aggregation_time_s)
        assert final["P2"].aggregation_time_s > fast
        assert final["P3"].aggregation_time_s > fast

        # roughly linear growth: doubling the count less than ~quadruples time
        for combo in ("P0", "P2"):
            series = result.series(combo)
            mid, last = series[len(series) // 2], series[-1]
            ratio = last.aggregation_time_s / max(mid.aggregation_time_s, 1e-9)
            count_ratio = last.offer_count / mid.offer_count
            assert ratio < count_ratio**2


def test_fig5b_packed_engine(once, bench_record):
    """The columnar engine on the identical Fig-5b insert stream."""
    result = once(
        run_fig5,
        total_offers=_fig5_total(),
        measure_disaggregation=False,
        engine="packed",
        verbose=False,
    )
    final = {c: result.series(c)[-1] for c in ("P0", "P1", "P2", "P3")}
    rows = []
    for combo, point in final.items():
        rate = point.offer_count / max(point.aggregation_time_s, 1e-9)
        rows.append([combo, point.offer_count, f"{point.aggregation_time_s:.3f}",
                     f"{rate:.0f}", point.aggregate_count])
        bench_record(
            "aggregation",
            name="fig5b_packed",
            workload={"combination": combo, "offers": point.offer_count},
            metrics={
                "aggregation_seconds": point.aggregation_time_s,
                "offers_per_sec": rate,
                "aggregates": point.aggregate_count,
            },
        )
    print_table(
        "fig5b workload, packed engine",
        ["combo", "offers", "agg_time_s", "offers/s", "aggregates"],
        rows,
    )
    for point in final.values():
        assert point.aggregate_count > 0


def test_incremental_update_throughput(once, bench_record):
    """Mixed insert/delete stream: packed vs scalar vs reference rebuild.

    A sliding window over the Fig-5b offer population: each batch inserts
    new offers and deletes the oldest window — the streaming runtime's
    steady state.  The reference oracle pays a full group rebuild per
    delete; the live scalar state subtracts per slice in Python; the packed
    engine subtracts with one NumPy sweep per touched group.
    """
    from repro.datagen import paper_dataset

    total = 2_000 if smoke_mode() else int(40_000 * scale_factor())
    window = total * 7 // 10
    batch = 256
    parameters = AggregationParameters(
        start_after_tolerance=8, time_flexibility_tolerance=8, name="stream"
    )
    offers = paper_dataset(total, seed=7)
    for offer in offers:
        # The scalar and reference engines iterate each offer's constraint
        # tuple, which a profile builds on first use (the packed engine
        # reads the bound arrays every profile holds); build it outside the
        # timed region so the comparison isolates pipeline maintenance.
        offer.profile[0]

    def drive(engine: str, n_offers: int) -> tuple[float, int, int]:
        pipeline = make_pipeline(parameters, engine=engine)
        updates = 0
        t0 = time.perf_counter()
        for i in range(0, n_offers, batch):
            chunk = offers[i : i + batch]
            pipeline.submit_inserts(chunk)
            updates += len(chunk)
            tail = i - window
            if tail >= 0:
                dead = offers[tail : tail + batch]
                pipeline.submit_deletes(dead)
                updates += len(dead)
            pipeline.run()
        return time.perf_counter() - t0, updates, len(pipeline.aggregates)

    def run_all():
        # The reference rebuild path is O(group²) under deletes; run it just
        # long enough to reach the sliding window's steady state (several
        # delete batches) and compare by rate.
        reference_cap = min(total, window + 8 * batch)
        return {
            "packed": drive("packed", total),
            "scalar": drive("scalar", total),
            "reference": drive("reference", reference_cap),
        }

    results = once(run_all)

    rates = {
        name: updates / max(seconds, 1e-9)
        for name, (seconds, updates, _) in results.items()
    }
    rows = [
        [name, results[name][1], f"{results[name][0]:.3f}", f"{rates[name]:.0f}"]
        for name in ("reference", "scalar", "packed")
    ]
    rows.append(
        ["packed/scalar", "", "", f"{rates['packed'] / rates['scalar']:.1f}x"]
    )
    rows.append(
        ["packed/reference", "", "", f"{rates['packed'] / rates['reference']:.1f}x"]
    )
    print_table(
        f"incremental update throughput (window={window}, batch={batch})",
        ["engine", "updates", "seconds", "updates/s"],
        rows,
    )
    bench_record(
        "aggregation",
        name="incremental_update_throughput",
        workload={"offers": total, "window": window, "batch": batch},
        metrics={
            "packed_updates_per_sec": rates["packed"],
            "scalar_updates_per_sec": rates["scalar"],
            "reference_updates_per_sec": rates["reference"],
            "speedup_vs_scalar": rates["packed"] / rates["scalar"],
            "speedup_vs_reference": rates["packed"] / rates["reference"],
        },
    )
    # Same steady-state population whichever live engine maintained it.
    assert results["packed"][2] == results["scalar"][2]
    if not smoke_mode():
        # The acceptance bar: ≥5x incremental-update throughput over the
        # pre-PR scalar baseline (the reference engine is that code, kept
        # verbatim).  The live scalar state was itself fixed by this PR
        # (subtract-based removal), so the packed engine only has to beat
        # it clearly, not five-fold.
        assert rates["packed"] >= 5.0 * rates["reference"]
        assert rates["packed"] >= 1.2 * rates["scalar"]
