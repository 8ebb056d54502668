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
"""

from __future__ import annotations

import numpy as np

from .engine import PackedOffers
from .problem import CandidateSolution, SchedulingProblem
from .result import CostTracker, SchedulingResult

__all__ = ["EvolutionaryScheduler"]


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

    def __init__(
        self,
        *,
        population_size: int = 24,
        tournament_size: int = 3,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.15,
        energy_mutation_scale: float = 0.25,
        start_shift: int = 2,
        seed_with_greedy_pass: bool = False,
    ) -> None:
        if population_size < 4:
            raise ValueError("population_size must be at least 4")
        if not 0 < mutation_rate <= 1:
            raise ValueError("mutation_rate must be in (0, 1]")
        self.population_size = population_size
        self.tournament_size = tournament_size
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.energy_mutation_scale = energy_mutation_scale
        self.start_shift = start_shift
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
                packing, packing.random_starts(rng), packing.random_packed(rng)
            )
            for _ in range(self.population_size)
        ]
        if self.seed_with_greedy_pass:
            from .greedy import RandomizedGreedyScheduler  # avoid module cycle

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
            while len(next_population) < self.population_size:
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
        contenders = rng.integers(0, len(population), self.tournament_size)
        winner = contenders[np.argmin(costs[contenders])]
        return population[int(winner)]

    def _crossover(
        self,
        packing: PackedOffers,
        a: _PackedGenome,
        b: _PackedGenome,
        rng: np.random.Generator,
    ) -> _PackedGenome:
        if rng.random() > self.crossover_rate:
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
        mutated = np.nonzero(rng.random(packing.count) < self.mutation_rate)[0]
        if not len(mutated):
            return

        # Starts: offers with time flexibility take a local shift or a full
        # re-draw, half/half.
        earliest = packing.earliest[mutated]
        latest = packing.latest[mutated]
        local = rng.random(len(mutated)) < 0.5
        shifted = np.clip(
            genome.starts[mutated]
            + rng.integers(-self.start_shift, self.start_shift + 1, len(mutated)),
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
            idx = packing.slice_indices(mutated[pick])
            packed[idx] = apply(idx)
        idx = packing.slice_indices(mutated[move >= 0.5])
        span = packing.hi[idx] - packing.lo[idx]
        jitter = rng.normal(0.0, self.energy_mutation_scale, len(idx)) * span
        packed[idx] = np.clip(
            packed[idx] + jitter, packing.lo[idx], packing.hi[idx]
        )
