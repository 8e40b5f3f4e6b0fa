"""Binary-coded genetic algorithm: roulette selection, one-point crossover, bit flips.

Each unit's power is a gene of GaConfig.bits_per_gene = 16 bits decoded
onto [p_min, p_max] up to rounding; the decoded vector is clamped to the
limits and balance-repaired before evaluation.  A batch's genes are read
in one flat pack of its bits as big-endian 16-bit words, each an exact
integer.  An individual's fitness is the generation's worst objective
minus its own, the odds of rescaling objectives onto [0, 1].  The operator
rates are the module constants P_CROSSOVER and P_MUTATION, which
crossover_masks and flip_positions read themselves, and the best individual
of each generation passes on unchanged, so every generation holds the best
row seen so far.

breed makes the next generation of every trial at once, on arrays of shape
(trials, individuals, bits), and no operation mixes two trials' rows, so
harness.run_trials, which steps a GaState, gives each trial bitwise the
result of a lone run with its seed.  Each trial draws from two streams of
its own: its seeded Generator gives its first population and then its
uniforms, laid out generation by generation as the two roulette spins of
every pair of parents, then a crossover coin and a cut uniform per pair; a
Generator spawned from it gives the positions of its flipped child bits,
one renewal process of geometric gaps over the whole run (flip_positions),
set in a 0/1 mask that breed XORs into the children.  Both are drawn ahead
in blocks of whole generations, bounded per trial and per batch
(DRAW_BLOCK, DRAW_BATCH); a block also yields the crossover masks of all
its generations, built in one step from their coins and cuts
(crossover_masks).  Neither stream depends on where a block ends, so the
block length is a speed setting only: a trial draws the same in any batch
as alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import ClassVar, Iterable, Iterator, Optional

import numpy as np

from .model import (
    DispatchProblem, PenaltyFactors, block_steps, check_integer, combined_objective_batch, frozen_scalar,
)
from .repair import repair_batch

P_CROSSOVER = 0.96  # chance that a parent pair exchanges suffixes
P_MUTATION = 0.033  # chance that a child bit flips
_FLIP_RATE = -math.log1p(-P_MUTATION)  # a flip gap is ceil(E / _FLIP_RATE) of a standard exponential E
DRAW_BLOCK = 1 << 18  # most child bits of one trial drawn in one block
DRAW_BATCH = 1 << 21  # most child bits of a batch drawn in one block, over all its trials


@dataclass(frozen=True)
class GaConfig:
    individuals: int = 10
    generations: int = 500
    seed: int = 0
    bits_per_gene: ClassVar[int] = 16  # a constant of the encoding, not a setting

    def __post_init__(self) -> None:
        check_integer("individuals", self.individuals, 2)  # the elite needs a child beside it
        check_integer("generations", self.generations, 0)
        check_integer("seed", self.seed, 0)


# 2^16 - 1, the largest gene: decode's divisor, an array as in repair.py
_GENE_MAX = frozen_scalar(2.0**GaConfig.bits_per_gene - 1.0)


def decode(bits: np.ndarray, problem: DispatchProblem, config: GaConfig) -> np.ndarray:
    """Map each bitstring, one per row, onto the unit power ranges.

    Gene i, read MSB first as an unsigned 16-bit integer u, decodes to
    p_i = p_min + u * (p_max - p_min) / (2^16 - 1).  The all-zero gene
    gives p_min exactly; the all-one gene gives p_max only up to rounding
    and may land an ulp above it, which repair_batch clamps away before any
    row is evaluated.  bits may be bool or any integer type of 0s and 1s.

    A gene fills two whole bytes, so the batch is packed in one flat pass,
    whatever its layout, and each gene read as one big-endian word; u is an
    exact integer in a double.
    """
    n, width = problem.n_units, config.bits_per_gene
    arr = np.asarray(bits)
    if arr.ndim != 2 or arr.shape[1] != n * width:
        raise ValueError(f"bitstrings of shape {arr.shape} are not rows of {n} units x {width} bits")
    if arr.dtype.kind not in "biu":
        raise ValueError(f"bitstrings of dtype {arr.dtype} are not bool or integer")
    rows = arr.shape[0]
    u = np.packbits(arr, axis=None).view(">u2").astype(np.float64).reshape(rows, n)
    lo, hi = problem.limit_rows(rows)
    return lo + u * (hi - lo) / _GENE_MAX


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


def crossover_masks(coins: np.ndarray, cuts: np.ndarray, length: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per pair of parents, a 0/1 mask of the bits a single-point suffix exchange swaps.

    coins and cuts are uniforms of one shape, one of each per pair; the
    mask adds an axis of `length` bits.  A pair whose coin is below
    P_CROSSOVER exchanges its bits from 1 + floor(cut * (length - 1)) on; a
    pair that does not cross swaps none.  The mask is uint8, the type of the
    bits it is applied to, written into the bool array `out` when one is given.
    """
    positions = np.arange(length, dtype=np.min_scalar_type(length))
    # bit j lies at or past the cut 1 + floor(x) exactly when j > floor(x)
    kept = np.where(coins < P_CROSSOVER, cuts * (length - 1), length).astype(positions.dtype)
    return np.greater(positions, kept[..., None], out=out).view(np.uint8)


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


def flip_positions(rng: np.random.Generator, spans: Iterable[int]) -> Iterator[np.ndarray]:
    """For each span in turn, the sorted positions in range(span) of its bits that flip.

    Each bit flips with probability P_MUTATION.  The spans lie end to end
    and the gaps between successive flips over all of them are geometric:
    the first flip lands at gap - 1 and each later one a gap past the one
    before.  Gaps drawn past a span are kept for the next, so the flips do
    not depend on how the bits are split into spans.  A gap is
    ceil(E / -log(1 - P_MUTATION)) of a standard exponential E, the
    inversion that Generator.geometric itself uses below a rate of 1/3, so
    it gives the same integers from the same stream at a third of the cost.
    The draw costs O(flips), not O(bits).
    """
    flips = np.full(1, -1, dtype=np.int64)  # the last flip before the span, then those drawn past it
    for span in spans:
        expected = span * P_MUTATION
        # enough gaps to pass the end of the span, nearly always in one call
        chunk = int(expected + 6.0 * math.sqrt(expected) + 8.0)
        while flips[-1] < span:
            gaps = np.ceil(rng.standard_exponential(chunk) / _FLIP_RATE).astype(np.int64)
            flips = np.concatenate([flips, flips[-1] + gaps.cumsum()])
        cut = flips.searchsorted(span)
        yield flips[1:cut]
        flips = flips[cut - 1 :] - span


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


@dataclass
class GaState:
    """The populations of one or more trials, their repaired powers and objectives, and their draws."""

    populations: np.ndarray  # (trials, individuals, bits)
    powers: np.ndarray  # (trials, individuals, units)
    objectives: np.ndarray  # (trials, individuals); the elite keeps its objective, so no minimum ever rises
    draws: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)  # _draws, one per breeding


def init_population(
    problem: DispatchProblem, config: GaConfig, h: Optional[PenaltyFactors] = None, trials: int = 1
) -> GaState:
    """Uniform random bitstrings, evaluated; trial i draws from its own Generator, seeded config.seed + i."""
    check_integer("trials", trials, 1)
    rngs = [np.random.default_rng(config.seed + i) for i in range(trials)]
    length = problem.n_units * config.bits_per_gene
    populations = np.stack([rng.integers(0, 2, (config.individuals, length), dtype=np.uint8) for rng in rngs])
    draws = _draws(rngs, max(config.generations - 1, 0), config.individuals, length)
    return GaState(populations, *_evaluate(populations, problem, config, h), draws)


def step(
    state: GaState, problem: DispatchProblem, config: GaConfig, h: Optional[PenaltyFactors] = None, generation: int = 0
) -> np.ndarray:
    """Breed and evaluate every trial's next generation, none at generation 0; returns each trial's best objective."""
    if generation:
        state.populations = breed(state.populations, state.objectives, *next(state.draws))
        state.powers, state.objectives = _evaluate(state.populations, problem, config, h)
    return state.objectives.min(axis=1)


def leaders(state: GaState) -> np.ndarray:
    """Each trial's individual of lowest objective, the first one on ties, as powers: (trials, units)."""
    return state.powers[np.arange(len(state.powers)), state.objectives.argmin(axis=1)]


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

    Each trial draws its uniforms from its own Generator and its flips from
    a second one spawned from it, as one flip_positions stream over all its
    child bits, so both are the same for any block length.  A block holds
    whole generations, as few blocks of even length as keep each trial's
    part to DRAW_BLOCK child bits and the batch's to DRAW_BATCH (at least
    one generation).  Per block, each trial draws its uniforms in one call
    and its flips in another; the crossover masks of the block's generations
    are then built in one step from their coins and cuts.  The last block
    may draw more than it yields, from the ends of the streams.  Every block
    is drawn into the same buffers, so each yielded triple is valid until
    the next one is asked for.
    """
    trials, pairs = len(rngs), individuals // 2
    span = (individuals - 1) * length  # child bits of one trial's generation
    per_block = block_steps(breedings, trials, span, DRAW_BLOCK, DRAW_BATCH)
    uniforms = np.empty((trials, per_block, 4 * pairs))
    flips = np.empty((trials, per_block, individuals - 1, length), dtype=np.uint8)
    crossings = np.empty((trials, per_block, pairs, length), dtype=bool)
    streams = [flip_positions(rng.spawn(1)[0], repeat(flips[0].size)) for rng in rngs]
    for first in range(0, breedings, per_block):
        flips.fill(0)
        for rng, stream, trial_uniforms, trial_flips in zip(rngs, streams, uniforms, flips):
            rng.random(out=trial_uniforms)
            trial_flips.reshape(-1)[next(stream)] = 1
        coins, cuts = uniforms[..., 2 * pairs : 3 * pairs], uniforms[..., 3 * pairs :]
        masks = crossover_masks(coins, cuts, length, out=crossings)
        for g in range(min(per_block, breedings - first)):
            yield uniforms[:, g], masks[:, g], flips[:, g]
