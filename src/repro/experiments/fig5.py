"""Figure 5: the aggregation experiment (compression, time, loss, disagg).

The paper aggregates ~800 000 artificial flex-offers incrementally (inserts
only, bin-packer disabled) under the four threshold combinations P0-P3 and
reports, as functions of the flex-offer count:

* (a) the number of aggregated flex-offers — compression;
* (b) cumulative aggregation time;
* (c) time-flexibility loss per flex-offer;
* (d) disaggregation vs aggregation time (disaggregation ≈ 3× faster,
  fit y ≈ 0.36 x in the paper).

``run_fig5`` replays exactly that protocol at a configurable scale
(``REPRO_SCALE=8`` reaches the paper's 800 000).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..aggregation import (
    AggregationParameters,
    AggregationPipeline,
    disaggregate,
    evaluate_aggregation,
    make_pipeline,
    paper_combinations,
)
from ..core.schedule import ScheduledFlexOffer
from .reporting import print_table, scale_factor

__all__ = ["Fig5Point", "Fig5Result", "run_fig5"]


@dataclass
class Fig5Point:
    """Metrics after processing ``offer_count`` inserts under one combo."""

    combination: str
    offer_count: int
    aggregate_count: int
    aggregation_time_s: float
    flexibility_loss_per_offer: float
    disaggregation_time_s: float = float("nan")


@dataclass
class Fig5Result:
    """All measurement points plus the Fig. 5(d) regression."""

    points: list[Fig5Point] = field(default_factory=list)
    disaggregation_slope: float = float("nan")

    def series(self, combination: str) -> list[Fig5Point]:
        """Measurement points of one threshold combination, by count."""
        return [p for p in self.points if p.combination == combination]

    def rows(self) -> list[list]:
        return [
            [
                p.combination,
                p.offer_count,
                p.aggregate_count,
                p.offer_count / p.aggregate_count if p.aggregate_count else 0.0,
                p.aggregation_time_s,
                p.flexibility_loss_per_offer,
                p.disaggregation_time_s,
            ]
            for p in self.points
        ]


def _disaggregation_time(pipeline: AggregationPipeline) -> float:
    """Schedule every aggregate mid-window/mid-energy and disaggregate it."""
    aggregates = pipeline.aggregates
    t0 = time.perf_counter()
    for aggregate in aggregates:
        scheduled = ScheduledFlexOffer.at_fraction(
            aggregate,
            0.5,
            start=aggregate.earliest_start + aggregate.time_flexibility // 2,
        )
        disaggregate(scheduled)
    return time.perf_counter() - t0


def run_fig5(
    *,
    total_offers: int | None = None,
    n_points: int = 5,
    combinations: tuple[AggregationParameters, ...] | None = None,
    seed: int = 42,
    measure_disaggregation: bool = True,
    verbose: bool = True,
    engine: str = "reference",
) -> Fig5Result:
    """Replay the paper's aggregation experiment.

    The offer stream is inserted in ``n_points`` equal chunks; after each
    chunk the pipeline state is measured, giving the count-axis of the
    figures.  Disaggregation is timed on the final state of each
    combination.  ``engine`` selects the aggregation pipeline; the default
    is the **reference** engine, deliberately: the paper's Fig. 5(b) claim —
    P2/P3 aggregate more slowly because their profiles carry more intervals
    to traverse per insert — is a statement about the rebuild-per-insert
    cost model, which only the reference state preserves.  Pass
    ``"packed"`` (or ``"scalar"``) to run the optimised engines on the
    identical stream; the Fig-5b benchmark records those trajectories into
    ``BENCH_aggregation.json``.
    """
    from ..datagen import paper_dataset  # local import: heavy module

    if total_offers is None:
        total_offers = int(100_000 * scale_factor())
    combinations = combinations or paper_combinations()
    offers = paper_dataset(total_offers, seed=seed)
    if engine != "packed":
        # The object engines iterate each offer's constraint tuple, which a
        # profile builds on first use: build it here, outside the timer.
        for offer in offers:
            offer.profile[0]
    chunk = max(1, total_offers // n_points)

    result = Fig5Result()
    for params in combinations:
        pipeline = make_pipeline(params, engine=engine)
        elapsed = 0.0
        processed = 0
        for i in range(0, total_offers, chunk):
            batch = offers[i : i + chunk]
            pipeline.submit_inserts(batch)
            t0 = time.perf_counter()
            pipeline.run()
            elapsed += time.perf_counter() - t0
            processed += len(batch)
            quality = evaluate_aggregation(pipeline.aggregates)
            result.points.append(
                Fig5Point(
                    combination=params.name,
                    offer_count=processed,
                    aggregate_count=quality.aggregate_count,
                    aggregation_time_s=elapsed,
                    flexibility_loss_per_offer=quality.flexibility_loss_per_offer,
                )
            )
        if measure_disaggregation:
            result.points[-1].disaggregation_time_s = _disaggregation_time(pipeline)

    # Fig. 5(d): disaggregation vs aggregation time across combinations.
    pairs = [
        (p.aggregation_time_s, p.disaggregation_time_s)
        for p in result.points
        if p.disaggregation_time_s == p.disaggregation_time_s  # not NaN
    ]
    if len(pairs) >= 2:
        x = np.array([a for a, _ in pairs])
        y = np.array([d for _, d in pairs])
        result.disaggregation_slope = float((x * y).sum() / (x * x).sum())

    if verbose:
        print_table(
            "Fig 5(a-d): aggregation experiment",
            ["combo", "offers", "aggregates", "ratio", "agg_time_s",
             "tf_loss_per_offer", "disagg_time_s"],
            result.rows(),
        )
        print(
            f"Fig 5(d) fit: disaggregation_time ≈ "
            f"{result.disaggregation_slope:.2f} × aggregation_time "
            f"(paper: ≈ 0.36×)"
        )
    return result
