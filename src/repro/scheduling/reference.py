"""Scalar reference implementation of the placement kernel.

This is the pre-vectorization greedy hot path, kept verbatim for two jobs:

* **correctness oracle** — ``tests/test_scheduling_engine.py`` property-tests
  that the batched :class:`~repro.scheduling.engine.CostEngine` kernel
  returns bit-identical placements and matching costs;
* **recorded baseline** — ``benchmarks/bench_fig6_scheduling.py`` times this
  kernel on the same workload as the vectorized one and records both in
  ``BENCH_scheduling.json``, so the speedup has a trajectory rather than a
  one-off claim.

It deliberately evaluates costs through the settlement-derived
:meth:`SchedulingProblem.settled_slice_costs` oracle (per-start, per-candidate
calls on tiny windows) — do not "optimize" it.
"""

from __future__ import annotations

import numpy as np

from .problem import CandidateSolution, SchedulingProblem

__all__ = ["reference_optimal_energies", "reference_one_pass"]


def reference_optimal_energies(
    problem: SchedulingProblem,
    offer,
    window: np.ndarray,
    offset: int,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exact per-slice optimal energies for one placement (scalar loop).

    Given the other offers' placements, each slice's cost is piecewise
    linear in this offer's energy with kinks only where the residual or the
    energy crosses zero — so the per-slice optimum is at one of four
    candidates: the bounds, the imbalance-nulling energy, or zero.
    """
    candidates = (
        lo,
        hi,
        np.clip(-window, lo, hi),
        np.clip(0.0, lo, hi),
    )
    before = problem.settled_slice_costs(window, offset)
    best_energy = lo
    per_slice_best = None
    for energy in candidates:
        delta = (
            problem.settled_slice_costs(window + energy, offset)
            - before
            + offer.unit_price * np.abs(energy)
        )
        if per_slice_best is None:
            per_slice_best = delta.copy()
            best_energy = energy.copy()
        else:
            better = delta < per_slice_best
            per_slice_best[better] = delta[better]
            best_energy = np.where(better, energy, best_energy)
    return best_energy, float(per_slice_best.sum())


def reference_one_pass(
    problem: SchedulingProblem, rng: np.random.Generator
) -> CandidateSolution:
    """One greedy pass with the per-start Python loop (pre-vectorization)."""
    horizon_start = problem.horizon_start
    residual = problem.net_forecast.values.copy()
    starts = np.zeros(problem.offer_count, dtype=np.int64)
    energies: list[np.ndarray | None] = [None] * problem.offer_count

    for j in rng.permutation(problem.offer_count):
        offer = problem.offers[j]
        lo = offer.profile.min_array
        hi = offer.profile.max_array
        duration = offer.duration

        best_cost = np.inf
        best_start = offer.earliest_start
        best_energy = lo
        for start in offer.start_times():
            i = start - horizon_start
            window = residual[i : i + duration]
            energy, delta = reference_optimal_energies(
                problem, offer, window, i, lo, hi
            )
            if delta < best_cost:
                best_cost = delta
                best_start = start
                best_energy = energy
        starts[j] = best_start
        energies[j] = best_energy
        i = best_start - horizon_start
        residual[i : i + duration] += best_energy

    return CandidateSolution(starts, [e for e in energies])
