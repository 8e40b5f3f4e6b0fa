"""Binary-coded genetic algorithm: roulette selection, one-point crossover, bit flips.

Each unit's power is a gene of `bits_per_gene` bits decoded onto
[p_min, p_max], so the limit constraint holds by construction; the decoded
vector is balance-repaired before evaluation.  Fitness rescales objectives
into [0, 1] within each generation, the best individual always at 1.

The operators act on a whole population at once, so one generation is a
fixed number of array operations whatever its size.  Its draws from the
trial's one seeded Generator come in this order: the roulette spins, the
pool shuffle, the crossover coins and cut points of every pair, then the
mutation mask of every child bit.  run_trials breeds each trial on its own
and evaluates every trial's population in one decode, repair and
objective call.
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
    """Map each bitstring, one per row, onto the unit power ranges.

    Gene i, read MSB first as an unsigned integer u, decodes to
    p_i = p_min + u * (p_max - p_min) / (2^bits - 1), hitting both interval
    endpoints exactly at the all-zero and all-one genes.
    """
    n, width = problem.n_units, config.bits_per_gene
    arr = np.asarray(bits)
    if arr.ndim != 2 or arr.shape[1] != n * width:
        raise ValueError(f"bitstrings of shape {arr.shape} are not rows of {n} units x {width} bits")
    weights = 2.0 ** np.arange(width - 1, -1, -1)
    u = arr.reshape(arr.shape[0], n, width) @ weights
    lo, hi = problem.p_min_arr, problem.p_max_arr
    return lo + u * (hi - lo) / (2.0**width - 1.0)


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


def run_trials(
    problem: DispatchProblem, config: Optional[GaConfig], h: HLike, trials: int
) -> list[tuple[DispatchSolution, np.ndarray]]:
    """GA runs with seeds config.seed + i, evaluated together generation by generation.

    Entry i is the best-ever dispatch and the per-generation best trace of
    trial i, bitwise equal to run() with seed config.seed + i: each trial
    breeds from its own Generator, and only the decode, repair and
    objective calls take every trial's population at once.
    """
    config = config or GaConfig()
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rngs = [np.random.default_rng(config.seed + i) for i in range(trials)]
    length = problem.n_units * config.bits_per_gene
    populations = np.stack(
        [rng.integers(0, 2, size=(config.individuals, length), dtype=np.uint8) for rng in rngs]
    )
    powers, objectives = _evaluate(populations, problem, config, h)
    each = np.arange(trials)
    leader = objectives.argmin(axis=1)
    best_powers, best_obj = powers[each, leader], objectives[each, leader]
    lead = best_obj
    trace = np.empty((trials, config.generations))
    for generation in range(config.generations):
        if generation:
            for i, rng in enumerate(rngs):
                populations[i] = _next_generation(populations[i], objectives[i], rng, config)
            powers, objectives = _evaluate(populations, problem, config, h)
            lead = objectives.min(axis=1)
            better = lead < best_obj
            if better.any():
                leader = objectives.argmin(axis=1)
                best_powers = np.where(better[:, None], powers[each, leader], best_powers)
                best_obj = np.where(better, lead, best_obj)
        trace[:, generation] = lead
    return [(evaluate_dispatch(problem, best, h), tr) for best, tr in zip(best_powers, trace)]


def run(
    problem: DispatchProblem, config: Optional[GaConfig] = None, h: HLike = None
) -> tuple[DispatchSolution, np.ndarray]:
    """Full GA run; returns the best-ever dispatch and the per-generation best trace."""
    return run_trials(problem, config, h, 1)[0]


def _evaluate(
    populations: np.ndarray, problem: DispatchProblem, config: GaConfig, h: HLike
) -> tuple[np.ndarray, np.ndarray]:
    """Repaired powers and objectives of every individual of (trials, individuals, bits)."""
    trials, individuals, length = populations.shape
    powers = repair_batch(problem, decode(populations.reshape(-1, length), problem, config))
    objectives = combined_objective_batch(problem, powers, h)
    return powers.reshape(trials, individuals, -1), objectives.reshape(trials, individuals)


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
