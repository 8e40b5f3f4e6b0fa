"""Binary-coded genetic algorithm: roulette selection, one-point crossover, bit flips.

Each unit's power is a gene of `bits_per_gene` bits decoded onto
[p_min, p_max] up to rounding; the decoded vector is clamped to the limits
and balance-repaired before evaluation.  An individual's fitness is the
generation's worst objective minus its own, the odds of rescaling
objectives onto [0, 1].  The operator rates are the fixed module constants
P_CROSSOVER and P_MUTATION, and the best individual of each generation
passes on unchanged, so every generation holds the best row seen so far.

breed makes the next generation of every trial at once, on arrays of
shape (trials, individuals, bits), and no operation mixes two trials'
rows.  Each trial draws from its own seeded Generator in blocks of whole
generations, at most DRAW_BLOCK child bits to a block.  A block is one call
for the uniforms, laid out generation by generation as the two roulette
spins of every pair of parents, then a crossover coin and a cut uniform per
pair; then the sorted positions of the block's flipped child bits, drawn as
geometric gaps (flip_positions) and set in a 0/1 mask that breed XORs into
the children.  A block also yields the crossover masks of all its
generations, built in one step from their coins and cuts (crossover_masks),
which depend on nothing else.  The block length depends on the
configuration alone, so a trial draws the same in a batch as alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .model import DispatchProblem, DispatchSolution, PenaltyFactors, combined_objective_batch, evaluate_dispatch
from .repair import repair_batch

P_CROSSOVER = 0.96  # chance that a parent pair exchanges suffixes
P_MUTATION = 0.033  # chance that a child bit flips
DRAW_BLOCK = 1 << 14  # most child bits of one trial whose flips are drawn in one call


@dataclass(frozen=True)
class GaConfig:
    individuals: int = 10
    generations: int = 500
    bits_per_gene: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        # the elite needs a child beside it
        if self.individuals < 2:
            raise ValueError(f"individuals must be >= 2, got {self.individuals}")
        if self.generations < 0:
            raise ValueError(f"generations must be >= 0, got {self.generations}")
        if not 4 <= self.bits_per_gene <= 53:
            raise ValueError(f"bits_per_gene must be in [4, 53] to decode exactly, got {self.bits_per_gene}")


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


def roulette_select(objectives: np.ndarray, spins: np.ndarray) -> np.ndarray:
    """One index per spin, row by row, drawn with odds worst - objective.

    objectives is (trials, n) and spins (trials, m) uniforms in [0, 1).  A
    spin u picks the count of cumulative fitness values at or below
    u * total, found as the first one above it, so individual k wins with
    probability fitness_k / total, as with fitness rescaled onto [0, 1].  A
    row whose objectives are all equal has no fitness to share and draws
    uniformly.
    """
    n = objectives.shape[1]
    wheel = (objectives.max(axis=1, keepdims=True) - objectives).cumsum(axis=1)
    if np.count_nonzero(wheel[:, -1]) < len(wheel):
        wheel[wheel[:, -1] == 0.0] = np.arange(1.0, n + 1.0)
    # a spin that rounds up to the total (odds about 2^-53) finds no entry and picks 0
    return (wheel[:, None, :] > spins[:, :, None] * wheel[:, None, -1:]).argmax(axis=2)


def crossover_masks(coins: np.ndarray, cuts: np.ndarray, length: int, p: float) -> np.ndarray:
    """Per pair of parents, a 0/1 mask of the bits a single-point suffix exchange swaps.

    coins and cuts are uniforms of one shape, one of each per pair; the
    mask adds an axis of `length` bits.  A pair whose coin is below p
    exchanges its bits from 1 + floor(cut * (length - 1)) on; a pair that
    does not cross swaps none.  The mask is uint8, the type of the bits it
    is applied to.
    """
    positions = _bit_positions(length)
    # bit j lies at or past the cut 1 + floor(x) exactly when j > floor(x)
    kept = np.where(coins < p, cuts * (length - 1), length).astype(positions.dtype)
    return (positions > kept[..., None]).view(np.uint8)


def crossover(parents: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Exchange the masked bits within each pair of rows, in place; returns parents.

    parents is (trials, 2 * pairs, bits), rows 2k and 2k + 1 of a trial
    forming pair k, and masks is (trials, pairs, bits), as crossover_masks
    gives, so the children take their parents' places.
    """
    first, second = parents[:, 0::2], parents[:, 1::2]
    differ = first ^ second
    differ &= masks
    first ^= differ
    second ^= differ
    return parents


@lru_cache(maxsize=8)
def _bit_positions(length: int) -> np.ndarray:
    """0 ... length - 1 in the narrowest unsigned type that holds length (read-only, shared)."""
    positions = np.arange(length, dtype=np.min_scalar_type(length))
    positions.flags.writeable = False
    return positions


def flip_positions(rng: np.random.Generator, span: int, p: float) -> np.ndarray:
    """Sorted positions in range(span) of the bits that flip, each with probability p.

    The gaps between successive flips are geometric: the first flip lands
    at gap - 1 and each later one a gap past the one before.  A gap is
    ceil(E / -log(1 - p)) of a standard exponential E, the inversion that
    Generator.geometric itself uses below p = 1/3, so it gives the same
    integers from the same stream at a third of the cost.  The draw costs
    O(flips), not O(span).  p = 0 flips nothing and p = 1 every bit.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(span, dtype=np.int64)
    expected = span * p
    # enough gaps to pass the end of the span, nearly always in one call
    chunk = int(expected + 6.0 * math.sqrt(expected) + 8.0)
    rate = -math.log1p(-p)
    # a gap past the span ends the flips whatever its length, so E is capped
    # where its gap passes span + 1: a tiny p cannot overflow the division or
    # the integer cast
    cap = (span + 1.0) * rate

    def gaps() -> np.ndarray:
        return np.ceil(np.minimum(rng.standard_exponential(chunk), cap) / rate).astype(np.int64)

    ends = gaps().cumsum()
    while ends[-1] <= span:
        ends = np.concatenate([ends, ends[-1] + gaps().cumsum()])
    return ends[: ends.searchsorted(span, side="right")] - 1


def breed(
    populations: np.ndarray, objectives: np.ndarray, uniforms: np.ndarray, masks: np.ndarray, flips: np.ndarray
) -> np.ndarray:
    """The next generation of every trial: its elite, then its mutated children.

    populations is (trials, n, bits) with objectives (trials, n), and
    uniforms holds each trial's 2 spins, then a coin and a cut uniform, for
    each of its n // 2 pairs, as (trials, 4 * pairs); breed reads the spins,
    and masks is the (trials, pairs, bits) crossover_masks of the coins and
    cuts.  flips is a (trials, n - 1, bits) 0/1 mask of the child bits that
    flip.  When n is even the last pair's second child has no place and is
    dropped.
    """
    trials, n, _ = populations.shape
    pairs = n // 2
    # two spins per pair; the spins are independent, so mating the picks in
    # sequence pairs the parents at random
    lineup = np.empty((trials, 1 + 2 * pairs), dtype=np.intp)
    lineup[:, 0] = objectives.argmin(axis=1)
    lineup[:, 1:] = roulette_select(objectives, uniforms[:, : 2 * pairs])
    nxt = populations[np.arange(trials)[:, None], lineup]
    crossover(nxt[:, 1:], masks)
    nxt[:, 1:n] ^= flips
    return nxt[:, :n]


def run_trials(
    problem: DispatchProblem, config: Optional[GaConfig], h: Optional[PenaltyFactors], trials: int
) -> list[tuple[DispatchSolution, np.ndarray]]:
    """GA runs with seeds config.seed + i, evaluated together generation by generation.

    Entry i is the last generation's leader and the per-generation best
    trace of trial i, bitwise equal to run() with seed config.seed + i:
    each trial draws from its own Generator, and the breeding, decode,
    repair and objective calls take every trial's population at once
    without mixing their rows.  The elite re-evaluates to the same
    objective, as repair and the objective treat each row on its own, so
    the leader is the best row ever seen and the trace never rises.
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
    draws = _draws(rngs, max(config.generations - 1, 0), config.individuals, length)
    trace = np.empty((trials, config.generations))
    for generation in range(config.generations):
        if generation:
            populations = breed(populations, objectives, *next(draws))
            powers, objectives = _evaluate(populations, problem, config, h)
        trace[:, generation] = objectives.min(axis=1)
    best = powers[np.arange(trials), objectives.argmin(axis=1)]
    return [(evaluate_dispatch(problem, p, h), tr) for p, tr in zip(best, trace)]


def run(
    problem: DispatchProblem, config: Optional[GaConfig] = None, h: Optional[PenaltyFactors] = None
) -> tuple[DispatchSolution, np.ndarray]:
    """Full GA run; returns the best dispatch found and the per-generation best trace."""
    return run_trials(problem, config, h, 1)[0]


def _evaluate(
    populations: np.ndarray, problem: DispatchProblem, config: GaConfig, h: Optional[PenaltyFactors]
) -> tuple[np.ndarray, np.ndarray]:
    """Repaired powers and objectives of every individual of (trials, individuals, bits)."""
    trials, individuals, length = populations.shape
    powers = repair_batch(problem, decode(populations.reshape(-1, length), problem, config))
    objectives = combined_objective_batch(problem, powers, h)
    return powers.reshape(trials, individuals, -1), objectives.reshape(trials, individuals)


def _draws(
    rngs: list[np.random.Generator], breedings: int, individuals: int, length: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """breed's uniforms, crossover masks and flip mask for each of `breedings` generations.

    A block covers as many whole generations as fit DRAW_BLOCK child bits
    of one trial (at least one).  Each trial draws the block's uniforms in
    one call, then the flip positions of all its child bits in the block;
    the crossover masks of every generation of the block are then built in
    one step from its coins and cuts.  Every block is drawn into the same
    uniform and flip buffers, so each yielded triple is valid until the
    next one is asked for.
    """
    trials, pairs = len(rngs), individuals // 2
    span = (individuals - 1) * length  # child bits of one trial's generation
    per_block = max(1, DRAW_BLOCK // span)
    uniforms = np.empty((trials, min(per_block, breedings), 4 * pairs))
    flips = np.empty((trials, min(per_block, breedings), individuals - 1, length), dtype=np.uint8)
    for first in range(0, breedings, per_block):
        block = min(per_block, breedings - first)
        flips.fill(0)
        for rng, trial_uniforms, trial_flips in zip(rngs, uniforms[:, :block], flips[:, :block]):
            rng.random(out=trial_uniforms)
            trial_flips.reshape(-1)[flip_positions(rng, block * span, P_MUTATION)] = 1
        drawn = uniforms[:, :block]
        masks = crossover_masks(drawn[..., 2 * pairs : 3 * pairs], drawn[..., 3 * pairs :], length, P_CROSSOVER)
        for g in range(block):
            yield uniforms[:, g], masks[:, g], flips[:, g]
