"""The §6 optimality anecdote at the paper's size: 10 offers, exact optimum.

Paper claims to reproduce: the start-time solution space explodes
combinatorially (~850 M for 10 offers, hours of enumeration); metaheuristics
reach (near-)optimal schedules in a fraction of the time.  The optimum comes
from the MILP oracle, which needs no enumeration, so every scale runs the
paper's 10 offers.
"""

import pytest

from repro.experiments import run_exhaustive

pytest.importorskip("scipy")


def test_exhaustive_optimum(once):
    result = once(
        run_exhaustive,
        n_offers=10,
        time_flex=8,
        metaheuristic_seconds=1.0,
    )

    assert result.status == "optimal"
    assert result.solution_count == 9**10
    # both heuristics land within 2% of the true optimum, much faster
    assert result.greedy_gap < 0.02
    assert result.ea_gap < 0.02
    assert result.optimal_cost <= result.greedy_cost + 1e-9
    assert result.optimal_cost <= result.ea_cost + 1e-9
