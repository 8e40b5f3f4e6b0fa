"""Binary-coded genetic algorithm: roulette selection, one-point crossover, bit flips.

Each unit's power is a gene of `bits_per_gene` bits decoded onto
[p_min, p_max] up to rounding; the decoded vector is clamped to the limits
and balance-repaired before evaluation.  Fitness rescales objectives
into [0, 1] within each generation, the best individual always at 1.
The operator rates are the fixed module constants P_CROSSOVER and
P_MUTATION, and the ELITISM best individuals of each generation pass on
unchanged, so every generation holds the best row seen so far.

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
from functools import lru_cache
from typing import Optional

import numpy as np

from .model import DispatchProblem, DispatchSolution, HLike, combined_objective_batch, evaluate_dispatch
from .repair import repair_batch

P_CROSSOVER = 0.96  # chance that a parent pair exchanges suffixes
P_MUTATION = 0.033  # chance that a child bit flips
ELITISM = 1  # best individuals copied unchanged into the next generation


@dataclass(frozen=True)
class GaConfig:
    individuals: int = 10
    generations: int = 500
    bits_per_gene: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.individuals < ELITISM + 1:
            raise ValueError(f"individuals must be >= {ELITISM + 1}, got {self.individuals}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if self.bits_per_gene < 4:
            raise ValueError(f"bits_per_gene must be >= 4, got {self.bits_per_gene}")


def decode(bits: np.ndarray, problem: DispatchProblem, config: GaConfig) -> np.ndarray:
    """Map each bitstring, one per row, onto the unit power ranges.

    Gene i, read MSB first as an unsigned integer u, decodes to
    p_i = p_min + u * (p_max - p_min) / (2^bits - 1).  The all-zero gene
    gives p_min exactly; the all-one gene gives p_max only up to rounding
    and may land an ulp above it, which repair_batch clamps away before any
    row is evaluated.  Up to 53 bits u is an exact integer, so the order in
    which its bits are summed is immaterial.
    """
    n, width = problem.n_units, config.bits_per_gene
    arr = np.asarray(bits)
    if arr.ndim != 2 or arr.shape[1] != n * width:
        raise ValueError(f"bitstrings of shape {arr.shape} are not rows of {n} units x {width} bits")
    u = arr.reshape(-1, width).dot(_gene_weights(width)).reshape(arr.shape[0], n)
    lo, hi = problem.p_min_arr, problem.p_max_arr
    return lo + u * (hi - lo) / (2.0**width - 1.0)


@lru_cache(maxsize=8)
def _gene_weights(width: int) -> np.ndarray:
    """Place values 2^(width-1) ... 1 of a gene's bits, MSB first (read-only, shared)."""
    weights = 2.0 ** np.arange(width - 1, -1, -1)
    weights.flags.writeable = False
    return weights


def fitness_scale(objectives: np.ndarray) -> np.ndarray:
    """(worst - obj) / (worst - best) within a generation; all-equal -> all 1."""
    worst, best = objectives.max(), objectives.min()
    if worst == best:
        return np.ones_like(objectives)
    return (worst - objectives) / (worst - best)


def roulette_select(fitness: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """n indices, each drawn with probability fitness / sum(fitness); all-zero -> uniform."""
    total = fitness.sum()
    if total <= 0.0:
        return rng.integers(len(fitness), size=n)
    spins = rng.random(n) * total
    picks = fitness.cumsum().searchsorted(spins, side="right")
    return np.minimum(picks, len(fitness) - 1, out=picks)


def crossover(
    parents_a: np.ndarray,
    parents_b: np.ndarray,
    rng: np.random.Generator,
    p: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point suffix exchange between row k of each, per pair with probability p."""
    if parents_a.shape != parents_b.shape:
        raise ValueError(f"parent shapes differ: {parents_a.shape} vs {parents_b.shape}")
    pairs, length = parents_a.shape
    crossed = rng.random(pairs) < p
    site = rng.integers(1, length, pairs)
    swap = (np.arange(length) >= site[:, None]) & crossed[:, None]
    return np.where(swap, parents_b, parents_a), np.where(swap, parents_a, parents_b)


def mutate(children: np.ndarray, rng: np.random.Generator, p: float) -> np.ndarray:
    """Flip every bit independently with probability p, in place; returns children."""
    children ^= rng.random(children.shape) < p
    return children


def run_trials(
    problem: DispatchProblem, config: Optional[GaConfig], h: HLike, trials: int
) -> list[tuple[DispatchSolution, np.ndarray]]:
    """GA runs with seeds config.seed + i, evaluated together generation by generation.

    Entry i is the last generation's leader and the per-generation best
    trace of trial i, bitwise equal to run() with seed config.seed + i:
    each trial breeds from its own Generator, and only the decode, repair
    and objective calls take every trial's population at once.  The elite
    re-evaluates to the same objective, as repair and the objective treat
    each row on its own, so the leader is the best row ever seen and the
    trace never rises.
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
    trace = np.empty((trials, config.generations))
    for generation in range(config.generations):
        if generation:
            for i, rng in enumerate(rngs):
                populations[i] = _next_generation(populations[i], objectives[i], rng, config)
            powers, objectives = _evaluate(populations, problem, config, h)
        trace[:, generation] = objectives.min(axis=1)
    best = powers[np.arange(trials), objectives.argmin(axis=1)]
    return [(evaluate_dispatch(problem, p, h), tr) for p, tr in zip(best, trace)]


def run(
    problem: DispatchProblem, config: Optional[GaConfig] = None, h: HLike = None
) -> tuple[DispatchSolution, np.ndarray]:
    """Full GA run; returns the best dispatch found and the per-generation best trace."""
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
    elites = population[objectives.argsort(kind="stable")[:ELITISM]]
    needed = n - ELITISM
    # the wheel is spun once per population slot, then the pool is shuffled
    # and consumed in sequential pairs; a pair past its end wraps round
    pool = roulette_select(fitness_scale(objectives), rng, n)
    rng.shuffle(pool)
    parents = population[pool[np.arange(2 * ((needed + 1) // 2)) % n]]
    children_a, children_b = crossover(parents[0::2], parents[1::2], rng, P_CROSSOVER)
    # pair k side by side, then one row each: a0, b0, a1, b1, ...
    children = np.concatenate([children_a, children_b], axis=1).reshape(-1, length)[:needed]
    return np.concatenate([elites, mutate(children, rng, P_MUTATION)])
