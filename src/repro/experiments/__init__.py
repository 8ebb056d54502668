"""Experiment harnesses regenerating every figure of the paper's §9.

One module per figure (plus the §6 anecdote, the Fig. 1 end-to-end story and
the §8 interplay ablations); ``benchmarks/`` wraps these into pytest-benchmark
targets whose rows land in ``bench_output.txt`` and in the ``BENCH_*.json``
trajectories (README, "Benchmark trajectories").
"""

from .balancing import run_balancing
from .exhaustive import OptimalityResult, run_exhaustive
from .fig4a import Fig4aResult, run_fig4a
from .fig4b import Fig4bResult, run_fig4b
from .fig5 import Fig5Point, Fig5Result, run_fig5
from .fig6 import Fig6Result, intraday_scenario, run_fig6
from .interplay import (
    AggSchedPoint,
    ForecastSchedPoint,
    run_aggregation_scheduling_interplay,
    run_forecast_scheduling_interplay,
    run_pubsub_savings,
)
from .reporting import format_table, print_table, scale_factor

__all__ = [
    "run_balancing",
    "OptimalityResult",
    "run_exhaustive",
    "Fig4aResult",
    "run_fig4a",
    "Fig4bResult",
    "run_fig4b",
    "Fig5Point",
    "Fig5Result",
    "run_fig5",
    "Fig6Result",
    "intraday_scenario",
    "run_fig6",
    "AggSchedPoint",
    "ForecastSchedPoint",
    "run_aggregation_scheduling_interplay",
    "run_forecast_scheduling_interplay",
    "run_pubsub_savings",
    "format_table",
    "print_table",
    "scale_factor",
]
