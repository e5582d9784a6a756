"""The genetic algorithm driver.

Generational GA with elitism: tournament parents, random-weighted
average crossover, gaussian mutation, Deb-penalized fitness.  Budgeted
by surrogate evaluations — the paper reports ~3,350 evaluations per
search at ~45 us each (§4.8) — so results carry an evaluation count the
search-efficiency experiments can convert into simulated benchmark time
saved.

Fitness can be supplied two ways:

* ``fitness_fn(genes) -> float`` — the scalar reference path, one call
  per individual;
* ``fitness_batch_fn(genes_matrix) -> (n,) array`` — the fast path, one
  call per *generation* scoring the whole population at once.

When both are given the batched path runs; the scalar path is retained
as the reference implementation the equivalence tests compare against.
The two paths consume the RNG identically and count evaluations
identically, so a batch function whose rows match the scalar function
bit-for-bit yields a bit-identical :class:`GAResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.config.space import Configuration
from repro.errors import SearchError
from repro.ga.encoding import ConfigurationEncoder
from repro.ga.operators import (
    gaussian_mutation_many,
    tournament_select_many,
    weighted_average_crossover_many,
)
from repro.runtime.events import EventBus
from repro.sim.rng import SeedLike, derive_rng

#: Defaults sized so a full run costs ~3,400 evaluations, matching §4.8.
DEFAULT_POPULATION = 48
DEFAULT_GENERATIONS = 70
DEFAULT_ELITES = 2
DEFAULT_STAGNATION_LIMIT = 25


@dataclass
class GAResult:
    """Outcome of one GA search."""

    best_configuration: Configuration
    best_fitness: float
    evaluations: int
    generations: int
    history: List[float] = field(default_factory=list)  # best-so-far per gen


class GeneticAlgorithm:
    """Maximizes ``fitness(genes_features)`` over a configuration space.

    Parameters
    ----------
    encoder:
        Gene <-> configuration mapping for the tuned parameters.
    fitness_fn:
        Maps a raw gene vector to a raw (unpenalized) fitness; in Rafiki
        this queries the surrogate with the workload fixed (Equation 4).
    fitness_batch_fn:
        Maps a ``(n, n_genes)`` matrix to ``(n,)`` raw fitnesses in one
        call.  Preferred when present: the surrogate then runs once per
        generation instead of once per individual.  Each batch also
        carries the previous generation's snapped winner as its first
        row, so a row must score the same bits alone as in a batch.
    penalty_scale:
        Deb-penalty coefficient; if None it is set adaptively to the
        spread of the initial population's fitness.
    bus:
        Optional :class:`~repro.runtime.events.EventBus`; when given,
        ``run`` publishes ``search.start`` / ``search.generation`` /
        ``search.done`` progress events.
    """

    def __init__(
        self,
        encoder: ConfigurationEncoder,
        fitness_fn: Optional[Callable[[np.ndarray], float]] = None,
        population_size: int = DEFAULT_POPULATION,
        generations: int = DEFAULT_GENERATIONS,
        elites: int = DEFAULT_ELITES,
        mutation_rate: float = 0.2,
        mutation_scale: float = 0.08,
        stagnation_limit: int = DEFAULT_STAGNATION_LIMIT,
        penalty_scale: Optional[float] = None,
        fitness_batch_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        bus: Optional[EventBus] = None,
    ):
        if population_size < 4:
            raise SearchError("population must be at least 4")
        if generations < 1:
            raise SearchError("need at least one generation")
        if not (0 <= elites < population_size):
            raise SearchError("elites must fit inside the population")
        if fitness_fn is None and fitness_batch_fn is None:
            raise SearchError("need fitness_fn or fitness_batch_fn")
        self.encoder = encoder
        self.fitness_fn = fitness_fn
        self.fitness_batch_fn = fitness_batch_fn
        self.population_size = population_size
        self.generations = generations
        self.elites = elites
        self.mutation_rate = mutation_rate
        self.mutation_scale = mutation_scale
        self.stagnation_limit = stagnation_limit
        self.penalty_scale = penalty_scale
        self.bus = bus
        self.evaluations = 0

    # -- evaluation ------------------------------------------------------------

    def _raw_fitness(self, genes: np.ndarray) -> np.ndarray:
        """Raw fitness of every row of ``genes``; one batched call if possible."""
        if self.fitness_batch_fn is not None:
            out = np.asarray(self.fitness_batch_fn(genes), dtype=float).ravel()
            if out.shape[0] != genes.shape[0]:
                raise SearchError(
                    f"fitness_batch_fn returned {out.shape[0]} scores "
                    f"for {genes.shape[0]} individuals"
                )
            return out
        return np.array([float(self.fitness_fn(g)) for g in genes])

    def _penalized(
        self, population: np.ndarray, raw: np.ndarray, penalty_scale: float
    ) -> np.ndarray:
        """Deb-penalized fitness for the whole population.

        Elementwise ``np.where`` matches :func:`penalized_fitness` bit
        for bit: feasible rows pass through untouched, infeasible rows
        subtract the same product.
        """
        violations = self.encoder.violation_batch(population)
        return np.where(violations > 0.0, raw - penalty_scale * violations, raw)

    def _offspring(
        self, population: np.ndarray, fitness: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """The next generation: the elites, then the children.

        Variation runs population-at-a-time: every child's parents,
        crossover weights, and mutation draws come from one block RNG
        call each, so per-generation python overhead is O(1) in the
        population size.  Both fitness modes share this block, which
        keeps their RNG streams — and hence their trajectories —
        identical.
        """
        order = np.argsort(fitness)[::-1]
        n_children = self.population_size - self.elites
        ia = tournament_select_many(fitness, rng, n_children)
        ib = tournament_select_many(fitness, rng, n_children)
        children = weighted_average_crossover_many(population[ia], population[ib], rng)
        children = gaussian_mutation_many(
            children,
            self.encoder.lower,
            self.encoder.upper,
            rng,
            rate=self.mutation_rate,
            scale=self.mutation_scale,
        )
        return np.concatenate([population[order[: self.elites]], children])

    def _publish(self, topic: str, message: str, **payload) -> None:
        if self.bus is not None:
            self.bus.publish(topic, message, **payload)

    # -- main loop ---------------------------------------------------------------

    def run(
        self,
        seed: SeedLike = 0,
        initial: Optional[List[np.ndarray]] = None,
    ) -> GAResult:
        """Run the GA; returns the best *feasible* configuration found."""
        rng = derive_rng(seed)
        self.evaluations = 0
        self._publish(
            "search.start",
            f"GA search over {self.encoder.n_genes} genes",
            population=self.population_size,
            generations=self.generations,
            batched=self.fitness_batch_fn is not None,
        )

        n = self.population_size
        population = np.stack([self.encoder.random_genes(rng) for _ in range(n)])
        if initial:
            for i, genes in enumerate(initial[:n]):
                population[i] = np.asarray(genes, dtype=float)

        raw_first = self._raw_fitness(population)
        self.evaluations = n
        if self.penalty_scale is not None:
            penalty_scale = self.penalty_scale
        else:
            spread = max(np.ptp(raw_first), abs(np.mean(raw_first)) * 0.1, 1e-9)
            penalty_scale = 2.0 * spread
        fitness = self._penalized(population, raw_first, penalty_scale)

        # Each generation's best individual is re-scored on its *snapped*
        # genes, so the reported fitness belongs to an applicable
        # configuration.  That row rides at the head of the next
        # generation's batch, and the generation is judged once the
        # batch returns.  A stop therefore wastes one speculative batch,
        # whose rows are not counted; the last generation's winner is
        # scored alone.  With a row-stable batch function every result
        # and event is the one scoring each winner alone would give.
        best_genes, best_fit = None, 0.0
        history: List[float] = []
        stagnant = 0
        for generation in range(self.generations + 1):
            winner = self.encoder.snap(population[int(np.argmax(fitness))])
            last = generation == self.generations
            if last:
                batch = winner[None, :]
            else:
                population = self._offspring(population, fitness, rng)
                batch = np.concatenate([winner[None, :], population])
            scores = self._raw_fitness(batch)
            self.evaluations += 1

            winner_fit = float(scores[0])
            if best_genes is None or winner_fit > best_fit + 1e-12:
                best_genes, best_fit = winner, winner_fit
                stagnant = 0
            else:
                stagnant += 1
            history.append(best_fit)
            if generation > 0:
                self._publish(
                    "search.generation",
                    f"generation {generation}: best {best_fit:,.1f}",
                    generation=generation,
                    best_fitness=best_fit,
                    evaluations=self.evaluations,
                )
                if stagnant >= self.stagnation_limit:
                    break
            if last:
                break
            self.evaluations += n
            fitness = self._penalized(population, scores[1:], penalty_scale)

        config = self.encoder.decode(best_genes)
        self._publish(
            "search.done",
            f"search finished after {generation} generations",
            generations=generation,
            best_fitness=best_fit,
            evaluations=self.evaluations,
        )
        return GAResult(
            best_configuration=config,
            best_fitness=best_fit,
            evaluations=self.evaluations,
            generations=generation,
            history=history,
        )
