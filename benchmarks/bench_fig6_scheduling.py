"""Figure 6: schedule cost over time for EA and GS at growing problem sizes.

Paper claims to reproduce: both metaheuristics drive the cost down over
time; greedy search is strong almost immediately while the EA needs time;
convergence slows considerably as the number of aggregated flex-offers grows
(1000 is still efficiently solvable; beyond that, aggregate harder first).

This module also carries the scheduling perf trajectory: the vectorized
:class:`~repro.scheduling.engine.CostEngine` greedy kernel is timed against
the scalar :mod:`~repro.scheduling.reference` baseline on the same workload
and both rates land in ``BENCH_scheduling.json`` (run with ``--json``), so
the speedup is a recorded number rather than a one-off claim.
"""

import os
import time

import numpy as np

from conftest import smoke_mode
from repro.core import TimeSeries, flex_offer
from repro.experiments import run_fig6, scale_factor
from repro.experiments.fig6 import intraday_scenario
from repro.experiments.reporting import print_table
from repro.scheduling import Market, RandomizedGreedyScheduler, SchedulingProblem
from repro.scheduling.reference import reference_one_pass

MIN_KERNEL_SPEEDUP = 5.0
"""Vectorized greedy passes/sec must beat the scalar baseline by this factor
(asserted at full size; the smoke run only checks the harness plumbing)."""

FIG6_SHAPE = "fig6 intraday micro-offers (d 2-7, median n 13-18)"
RUNTIME_SHAPE = "runtime aggregates (d 14-40, n 5-33, horizon 96)"
RUNTIME_MIXED_SHAPE = RUNTIME_SHAPE + ", mixed-sign slices"
RUNTIME_CAPPED_SHAPE = RUNTIME_SHAPE + ", volume-capped market"


def runtime_shape_problem(
    seed: int = 0, *, mixed_sign: bool = False, capped: bool = False
) -> SchedulingProblem:
    """48 aggregates at the shapes the streaming runtime schedules.

    The Figure-6 micro-offers are short (median 5 slices) and the kernel's
    cost there is per-call overhead; the end-to-end workloads hand it
    aggregates of 14-40 slices with 5-33 admissible starts on a 96-slice
    window, a flat market and no compensation price, where the cost is
    element work.  A kernel change can move one and not the other, so both
    are recorded.

    ``mixed_sign`` shifts every aggregate's bounds down so that slices with
    ``lo < 0 < hi`` occur in all of them: the kernel then prices its fourth
    (zero) candidate row, which consumption-only aggregates never need.

    ``capped`` puts per-slice volume limits on the same prices, forecast
    and aggregates (they are drawn last): the engine then prices its
    six-row table — caps and penalties next to the two rates — where the
    flat market, like every market the runtime builds, needs the two rates
    only.  The pair is the cost of the rows an uncapped market leaves out.
    """
    rng = np.random.default_rng(seed)
    horizon = 96
    offers = []
    for _ in range(48):
        duration = int(rng.integers(14, 41))
        n_starts = int(rng.integers(5, 34))
        earliest = int(rng.integers(0, horizon - (n_starts + duration - 1) + 1))
        scale = rng.uniform(1.0, 8.0)
        lo = scale * rng.uniform(0.0, 2.0, duration)
        hi = lo + scale * rng.uniform(0.0, 3.0, duration)
        if mixed_sign:
            lo, hi = lo - scale, hi - scale
        offers.append(
            flex_offer(
                list(zip(lo, hi)),
                earliest_start=earliest,
                latest_start=earliest + n_starts - 1,
            )
        )
    net_forecast = TimeSeries(0, rng.uniform(-40.0, 40.0, horizon))
    market = Market.flat(horizon)
    if capped:
        market = Market(
            market.buy_price,
            market.sell_price,
            max_buy=rng.uniform(0.0, 60.0, horizon),
            max_sell=rng.uniform(0.0, 20.0, horizon),
        )
    return SchedulingProblem(net_forecast, tuple(offers), market)


def test_fig6_scheduling_convergence(once, bench_record):
    if smoke_mode():
        sizes = [10]
        budgets = {10: 0.2}
    else:
        sizes = [10, 100, 1000]
        budgets = {10: 1.0, 100: 2.0, 1000: 6.0}
        if scale_factor() >= 4:  # the paper's largest instance, 15 min there
            sizes.append(10_000)
            budgets[10_000] = 30.0
    result = once(run_fig6, sizes=sizes, budgets=budgets, repetitions=2)

    greedy = "greedy-search"
    ea = "evolutionary-algorithm"
    for size in sizes:
        for algorithm in (greedy, ea):
            curve = result.curves[(size, algorithm)]
            assert curve, f"no improvements recorded for {algorithm}@{size}"
            costs = [c for _, c in curve]
            assert costs[-1] <= costs[0]  # anytime improvement
            bench_record(
                "scheduling",
                name=f"fig6_{algorithm}",
                workload={"offers": size, "budget_seconds": budgets[size]},
                metrics={
                    "cost_at_quarter_budget": result.cost_at(
                        size, algorithm, 0.25
                    ),
                    "cost_at_half_budget": result.cost_at(size, algorithm, 0.5),
                    "cost_at_budget": result.final_costs[(size, algorithm)],
                    "improvements_recorded": len(curve),
                },
            )

    if smoke_mode():
        return

    # the EA's relative disadvantage grows with problem size: convergence
    # slows down, so at the fixed budget the gap to greedy widens
    def gap(size):
        g = result.final_costs[(size, greedy)]
        e = result.final_costs[(size, ea)]
        return (e - g) / max(abs(g), 1e-9)

    assert gap(1000) >= gap(10) - 0.01


def test_greedy_kernel_speedup_vs_reference(once, bench_record):
    """Batched placement kernel vs the scalar baseline, same workload.

    Both run complete greedy passes on the Figure-6 intraday scenario and
    on :func:`runtime_shape_problem` (consumption-only, mixed-sign, and
    consumption-only under a volume-capped market); the recorded passes/sec
    pair is the before/after trajectory this repo's perf work is judged
    against.
    """
    sizes = [10] if smoke_mode() else [10, 100, 1000]
    seconds = 0.1 if smoke_mode() else 1.5
    scheduler = RandomizedGreedyScheduler()
    problems = [(FIG6_SHAPE, intraday_scenario(size, seed=0)) for size in sizes]
    problems.append((RUNTIME_SHAPE, runtime_shape_problem()))
    problems.append(
        (RUNTIME_MIXED_SHAPE, runtime_shape_problem(mixed_sign=True))
    )
    problems.append((RUNTIME_CAPPED_SHAPE, runtime_shape_problem(capped=True)))

    def passes_per_second(fn, problem) -> float:
        fn(problem, np.random.default_rng(0))  # warm engine caches
        t0 = time.perf_counter()
        count = 0
        while time.perf_counter() - t0 < seconds:
            fn(problem, np.random.default_rng(count))
            count += 1
        return count / (time.perf_counter() - t0)

    def run_all():
        rows = []
        for shape, problem in problems:
            baseline = passes_per_second(reference_one_pass, problem)
            vectorized = passes_per_second(
                lambda p, rng: scheduler._one_pass(p, rng), problem
            )
            rows.append((shape, problem.offer_count, baseline, vectorized))
        return rows

    rows = once(run_all)
    print_table(
        "greedy kernel: scalar baseline vs vectorized engine (passes/sec)",
        ["shape", "offers", "baseline/s", "vectorized/s", "speedup"],
        [
            [shape, size, f"{base:.2f}", f"{fast:.2f}", f"{fast / base:.1f}x"]
            for shape, size, base, fast in rows
        ],
    )
    for shape, size, baseline, vectorized in rows:
        bench_record(
            "scheduling",
            name="greedy_kernel",
            workload={
                "offers": size,
                "shape": shape,
                "timebox_seconds": seconds,
                "cpu_count": os.cpu_count(),
            },
            metrics={
                "baseline_passes_per_sec": baseline,
                "vectorized_passes_per_sec": vectorized,
                "speedup": vectorized / baseline,
            },
        )
    if not smoke_mode():
        for shape, size, baseline, vectorized in rows:
            assert vectorized / baseline >= MIN_KERNEL_SPEEDUP, (
                f"kernel speedup regressed at {size} offers, {shape}: "
                f"{vectorized / baseline:.1f}x < {MIN_KERNEL_SPEEDUP}x"
            )
