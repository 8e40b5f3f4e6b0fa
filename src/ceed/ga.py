"""Binary-coded genetic algorithm: roulette selection, one-point crossover, bit flips.

Each unit's power is a gene of `bits_per_gene` bits decoded onto
[p_min, p_max], so the limit constraint holds by construction; the decoded
vector is balance-repaired before evaluation.  Fitness rescales objectives
into [0, 1] within each generation, the best individual always at 1.

The operators act on a whole population at once, so one generation is a
fixed number of array operations whatever its size.  Its draws from the
run's one seeded Generator come in this order: the roulette spins, the pool
shuffle, the crossover coins and cut points of every pair, then the
mutation mask of every child bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DispatchProblem, DispatchSolution, HLike, combined_objective_batch, evaluate_dispatch
from .repair import repair_batch


@dataclass(frozen=True)
class GaConfig:
    individuals: int = 10
    generations: int = 500
    p_crossover: float = 0.96
    p_mutation: float = 0.033
    bits_per_gene: int = 16
    elitism: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.individuals < 1:
            raise ValueError(f"individuals must be >= 1, got {self.individuals}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        for name in ("p_crossover", "p_mutation"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.bits_per_gene < 4:
            raise ValueError(f"bits_per_gene must be >= 4, got {self.bits_per_gene}")
        if not 0 <= self.elitism < self.individuals:
            raise ValueError(
                f"elitism must lie in [0, individuals), got {self.elitism} of {self.individuals}"
            )


def decode(bits: np.ndarray, problem: DispatchProblem, config: GaConfig) -> np.ndarray:
    """Map a bitstring (or a population of them) onto the unit power ranges.

    Gene i, read MSB first as an unsigned integer u, decodes to
    p_i = p_min + u * (p_max - p_min) / (2^bits - 1), hitting both interval
    endpoints exactly at the all-zero and all-one genes.
    """
    n, width = problem.n_units, config.bits_per_gene
    arr = np.asarray(bits)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.shape[1] != n * width:
        raise ValueError(
            f"bitstring length {arr.shape[1]} does not match {n} units x {width} bits"
        )
    weights = 2.0 ** np.arange(width - 1, -1, -1)
    u = arr.reshape(arr.shape[0], n, width) @ weights
    lo, hi = problem.p_min_arr, problem.p_max_arr
    powers = lo + u * (hi - lo) / (2.0**width - 1.0)
    return powers[0] if single else powers


def fitness_scale(objectives: np.ndarray) -> np.ndarray:
    """(worst - obj) / (worst - best) within a generation; all-equal -> all 1."""
    worst = float(np.max(objectives))
    best = float(np.min(objectives))
    if worst == best:
        return np.ones_like(objectives)
    return (worst - objectives) / (worst - best)


def roulette_select(fitness: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """n indices, each drawn with probability fitness / sum(fitness); all-zero -> uniform."""
    total = float(fitness.sum())
    if total <= 0.0:
        return rng.integers(len(fitness), size=n)
    spins = rng.random(n) * total
    return np.searchsorted(np.cumsum(fitness), spins, side="right").clip(max=len(fitness) - 1)


def crossover(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    rng: np.random.Generator,
    config: GaConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point suffix exchange between row k of each, per pair with probability p_crossover."""
    if parents_a.shape != parents_b.shape:
        raise ValueError(f"parent shapes differ: {parents_a.shape} vs {parents_b.shape}")
    pairs, length = parents_a.shape
    crossed = rng.random(pairs) < config.p_crossover
    site = rng.integers(1, length, pairs)
    swap = (np.arange(length) >= site[:, None]) & crossed[:, None]
    return np.where(swap, parents_b, parents_a), np.where(swap, parents_a, parents_b)


def mutate(children: np.ndarray, rng: np.random.Generator, config: GaConfig) -> np.ndarray:
    """Flip every bit independently at p_mutation, in place; returns children."""
    children ^= rng.random(children.shape) < config.p_mutation
    return children


def run(
    problem: DispatchProblem, config: Optional[GaConfig] = None, h: HLike = None
) -> tuple[DispatchSolution, np.ndarray]:
    """Full GA run; returns the best-ever dispatch and the per-generation best trace."""
    config = config or GaConfig()
    rng = np.random.default_rng(config.seed)
    length = problem.n_units * config.bits_per_gene
    population = rng.integers(0, 2, size=(config.individuals, length), dtype=np.uint8)
    best_powers: Optional[np.ndarray] = None
    best_obj = np.inf
    trace = np.empty(config.generations)
    for generation in range(config.generations):
        powers = repair_batch(problem, decode(population, problem, config))
        objectives = combined_objective_batch(problem, powers, h)
        leader = int(np.argmin(objectives))
        if objectives[leader] < best_obj:
            best_obj = float(objectives[leader])
            best_powers = powers[leader].copy()
        trace[generation] = objectives[leader]
        if generation == config.generations - 1:
            break
        population = _next_generation(population, objectives, rng, config)
    if best_powers is None:  # zero generations: fall back to the raw population
        powers = repair_batch(problem, decode(population, problem, config))
        objectives = combined_objective_batch(problem, powers, h)
        best_powers = powers[int(np.argmin(objectives))]
    return evaluate_dispatch(problem, best_powers, h), trace


def _next_generation(
    population: np.ndarray,
    objectives: np.ndarray,
    rng: np.random.Generator,
    config: GaConfig,
) -> np.ndarray:
    n, length = population.shape
    elites = population[np.argsort(objectives, kind="stable")[: config.elitism]]
    needed = n - config.elitism
    # the wheel is spun once per population slot, then the pool is shuffled
    # and consumed in sequential pairs; a pair past its end wraps round
    pool = roulette_select(fitness_scale(objectives), rng, n)
    rng.shuffle(pool)
    parents = population[pool[np.arange(2 * ((needed + 1) // 2)) % n]]
    children_a, children_b = crossover(parents[0::2], parents[1::2], rng, config)
    # pair k side by side, then one row each: a0, b0, a1, b1, ...
    children = np.concatenate([children_a, children_b], axis=1).reshape(-1, length)[:needed]
    return np.concatenate([elites, mutate(children, rng, config)])
