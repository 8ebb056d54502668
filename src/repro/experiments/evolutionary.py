"""Evolutionary scheduling algorithm (paper §6).

"We also developed an evolutionary algorithm that starts with a population of
randomly created solutions and uses evolutionary principles of selection,
crossover and mutation to find progressively better solutions."

Genome: per flex-offer, an integer start time within its admissible window
and one energy value per profile slice within its bounds.  Operators:

* tournament selection;
* uniform per-offer crossover (a child inherits each offer's complete
  placement — start plus energies — from one parent);
* mutation: per offer, re-draw the start (small shift or full re-draw) and
  Gaussian-perturb energies, clipped to the bounds;
* elitism: the best individual always survives.

Individuals are stored *packed*: one flat energy array per genome (see
:class:`~repro.scheduling.engine.PackedOffers`), so crossover is two
``np.where`` calls, mutation touches only the drawn offers through flat
index arrays, and evaluating a child is one ``bincount`` residual rebuild
plus one vectorized :class:`~repro.scheduling.engine.CostEngine` sweep —
no per-offer Python loop anywhere in the generation loop.  Per-offer
:class:`~repro.scheduling.problem.CandidateSolution` views are materialized
only when the tracker records an improvement.

``seed_with_greedy_pass=True`` hybridises the EA with the randomized greedy
search (one greedy pass joins the initial population) — the paper's
"hybridizing the existing [algorithms]" research direction, evaluated in
``benchmarks/bench_ablation_scheduling.py``.

The streaming runtime never runs the EA: greedy beats it at every Fig-6
size against the MILP optimum, so it lives here as the §6 comparison
baseline of :mod:`~repro.experiments.fig6`, :mod:`~repro.experiments.exhaustive`
and :mod:`~repro.experiments.ablations`.  Its tuning is fixed (the
constants below).
"""

from __future__ import annotations

import numpy as np

from ..scheduling import (
    CandidateSolution,
    CostTracker,
    RandomizedGreedyScheduler,
    SchedulingProblem,
    SchedulingResult,
)
from ..scheduling.engine import PackedOffers

__all__ = ["EvolutionaryScheduler"]

POPULATION_SIZE = 24
TOURNAMENT_SIZE = 3
CROSSOVER_RATE = 0.9
#: Share of offers a child's mutation re-draws.
MUTATION_RATE = 0.15
#: Gaussian energy jitter, as a fraction of each slice's bound span.
ENERGY_MUTATION_SCALE = 0.25
#: Largest local start shift, in slices.
START_SHIFT = 2


def _random_starts(
    packing: PackedOffers, rng: np.random.Generator
) -> np.ndarray:
    """Uniform start per offer within its admissible window."""
    return rng.integers(packing.earliest, packing.latest + 1, dtype=np.int64)


def _random_packed(
    packing: PackedOffers, rng: np.random.Generator
) -> np.ndarray:
    """Uniform per-slice energies within bounds, already packed."""
    return packing.lo + rng.random(packing.total) * (packing.hi - packing.lo)


def _slice_indices(packing: PackedOffers, members: np.ndarray) -> np.ndarray:
    """Packed-array indices covered by the given offer indices.

    Vectorized concatenation of ``arange(offsets[j], offsets[j+1])`` for
    every ``j`` in ``members`` (order preserved, standard cumsum trick).
    """
    lengths = packing.durations[members]
    if not len(lengths):
        return np.zeros(0, dtype=np.int64)
    return np.repeat(packing.offsets[members], lengths) + (
        np.arange(int(lengths.sum()), dtype=np.int64)
        - np.repeat(np.cumsum(lengths) - lengths, lengths)
    )


class _PackedGenome:
    """Starts plus one flat energy array; quacks like a recordable solution.

    :meth:`copy` materializes a real :class:`CandidateSolution`, which is
    all :class:`~repro.scheduling.result.CostTracker` needs — and it only
    calls it on improvements, so the per-offer split stays off the hot path.
    """

    __slots__ = ("packing", "starts", "packed")

    def __init__(
        self, packing: PackedOffers, starts: np.ndarray, packed: np.ndarray
    ):
        self.packing = packing
        self.starts = starts
        self.packed = packed

    def copy(self) -> CandidateSolution:
        return CandidateSolution(
            self.starts.copy(), self.packing.split(self.packed)
        )


class EvolutionaryScheduler:
    """A steady generational EA over flex-offer placements."""

    name = "evolutionary-algorithm"

    def __init__(self, *, seed_with_greedy_pass: bool = False) -> None:
        self.seed_with_greedy_pass = seed_with_greedy_pass

    # ------------------------------------------------------------------
    def schedule(
        self,
        problem: SchedulingProblem,
        *,
        budget_seconds: float | None = None,
        max_evaluations: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> SchedulingResult:
        """Evolve placements until the time/evaluation budget expires."""
        rng = rng if rng is not None else np.random.default_rng(0)
        tracker = CostTracker(budget_seconds, max_evaluations)
        packing = problem.packed_offers
        net = problem.net_forecast.values

        def evaluate(genome: _PackedGenome) -> float:
            residual = net + packing.flex_series(genome.starts, genome.packed)
            return problem.engine.total_cost(residual) + packing.flex_cost(
                genome.packed
            )

        population = [
            _PackedGenome(
                packing,
                _random_starts(packing, rng),
                _random_packed(packing, rng),
            )
            for _ in range(POPULATION_SIZE)
        ]
        if self.seed_with_greedy_pass:
            seed_solution, _ = RandomizedGreedyScheduler()._one_pass(problem, rng)
            population[0] = _PackedGenome(
                packing,
                seed_solution.starts.copy(),
                packing.pack(seed_solution.energies),
            )
        costs = np.array([evaluate(genome) for genome in population])
        for genome, cost in zip(population, costs):
            tracker.record(cost, genome)

        while not tracker.exhausted():
            elite = int(np.argmin(costs))
            next_population = [population[elite]]
            next_costs = [costs[elite]]
            while len(next_population) < POPULATION_SIZE:
                parent_a = self._tournament(population, costs, rng)
                parent_b = self._tournament(population, costs, rng)
                child = self._crossover(packing, parent_a, parent_b, rng)
                self._mutate(packing, child, rng)
                cost = evaluate(child)
                tracker.record(cost, child)
                next_population.append(child)
                next_costs.append(cost)
                if tracker.exhausted():
                    break
            population = next_population
            costs = np.array(next_costs)
        return tracker.result()

    # ------------------------------------------------------------------
    def _tournament(
        self,
        population: list[_PackedGenome],
        costs: np.ndarray,
        rng: np.random.Generator,
    ) -> _PackedGenome:
        contenders = rng.integers(0, len(population), TOURNAMENT_SIZE)
        winner = contenders[np.argmin(costs[contenders])]
        return population[int(winner)]

    def _crossover(
        self,
        packing: PackedOffers,
        a: _PackedGenome,
        b: _PackedGenome,
        rng: np.random.Generator,
    ) -> _PackedGenome:
        if rng.random() > CROSSOVER_RATE:
            return _PackedGenome(packing, a.starts.copy(), a.packed.copy())
        take_from_a = rng.random(packing.count) < 0.5
        starts = np.where(take_from_a, a.starts, b.starts)
        packed = np.where(
            np.repeat(take_from_a, packing.durations), a.packed, b.packed
        )
        return _PackedGenome(packing, starts, packed)

    def _mutate(
        self,
        packing: PackedOffers,
        genome: _PackedGenome,
        rng: np.random.Generator,
    ) -> None:
        mutated = np.nonzero(rng.random(packing.count) < MUTATION_RATE)[0]
        if not len(mutated):
            return

        # Starts: offers with time flexibility take a local shift or a full
        # re-draw, half/half.
        earliest = packing.earliest[mutated]
        latest = packing.latest[mutated]
        local = rng.random(len(mutated)) < 0.5
        shifted = np.clip(
            genome.starts[mutated]
            + rng.integers(-START_SHIFT, START_SHIFT + 1, len(mutated)),
            earliest,
            latest,
        )
        redrawn = rng.integers(earliest, latest + 1, dtype=np.int64)
        genome.starts[mutated] = np.where(local, shifted, redrawn)

        # Energies: snap to a bound (optima are mostly bang-bang) or
        # Gaussian-explore the range, per offer, applied through the flat
        # per-slice index arrays.
        move = rng.random(len(mutated))
        packed = genome.packed
        for pick, apply in (
            (move < 0.25, lambda idx: packing.lo[idx]),
            ((move >= 0.25) & (move < 0.5), lambda idx: packing.hi[idx]),
        ):
            idx = _slice_indices(packing, mutated[pick])
            packed[idx] = apply(idx)
        idx = _slice_indices(packing, mutated[move >= 0.5])
        span = packing.hi[idx] - packing.lo[idx]
        jitter = rng.normal(0.0, ENERGY_MUTATION_SCALE, len(idx)) * span
        packed[idx] = np.clip(
            packed[idx] + jitter, packing.lo[idx], packing.hi[idx]
        )
