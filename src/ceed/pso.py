"""Constriction-factor particle swarm for the scalarized dispatch objective.

The velocity law composes the linearly decreasing inertia weight with the
constriction multiplier:

    v <- CONSTRICTION * (w(t) * v + C1 * r1 * (pbest - x) + C2 * r2 * (gbest - x))

which degenerates to the standard constriction update at w = 1.  The
coefficients are the paper's constants, not settings: w(t) falls from W_MAX
to W_MIN, C1 = C2 = 2.05, and CONSTRICTION is derived from phi = C1 + C2 by
the Clerc-Kennedy formula (0.72984).  Every candidate position is clamped to
the unit limits and projected onto the power balance before evaluation, so
the objective never needs a penalty term for constraint violations.

init_swarm and step hold the swarms of several seeded trials at once, on
arrays of shape (trials, particles, units), and no operation mixes two
trials' rows: each trial draws from its own Generator and keeps its own
gbest, so harness.run_trials, which steps them, gives each trial bitwise
the result of a lone run with its seed.  Each iteration takes a trial's r1,
then its r2, from blocks of whole iterations drawn ahead (_draws);
Generator.random consumes its stream in order, so the block length is a
speed setting only.

An iteration does only per-iteration work.  init_swarm computes the velocity
bounds once; step writes the velocity law into the swarm's own velocities
in the formula's order, so the result is bitwise that of the formula
evaluated into new arrays, and copies improved rows into pbest in place.

init_swarm and step keep one invariant: each trial's gbest_obj is the
minimum of its particles' pbest_obj, and gbest_pos is the pbest row of a
particle that holds it: the first minimum, unless a later pbest only tied
it, which gbest's strict test does not take.  An iteration that improves no
particle's pbest therefore cannot move gbest either, and step stops right
after the comparison: it skips the pbest copies, the per-trial argmin and
the gbest test, with the same bits as running them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from .model import (
    DispatchProblem, PenaltyFactors, block_steps, check_integer, combined_objective_batch, frozen_scalar,
)
from .repair import repair_batch


# Inertia schedule, acceleration coefficients and velocity cap.
W_MAX, W_MIN = 0.9, 0.4
C1 = C2 = 2.05
V_MAX_FRACTION = 0.5  # of each unit's p_max - p_min
DRAW_BLOCK = 1 << 14  # most uniforms one trial draws ahead
DRAW_BATCH = 1 << 17  # most uniforms a batch draws ahead, over all its trials (1 MB)

_PHI = C1 + C2  # > 4, so the swarm contracts
# Clerc-Kennedy chi = 2 / |2 - phi - sqrt(phi^2 - 4 phi)|
CONSTRICTION = 2.0 / abs(2.0 - _PHI - math.sqrt(_PHI * _PHI - 4.0 * _PHI))
_CHI = frozen_scalar(CONSTRICTION)  # the operand velocity_update scales by: an array, as in repair.py
# C1 and C2 against the (r1, r2) axis of a draw block, applied once per block
_COEFFS = np.array([C1, C2])[:, None, None]


@dataclass(frozen=True)
class PsoConfig:
    particles: int = 10
    iterations: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        check_integer("particles", self.particles, 1)
        check_integer("iterations", self.iterations, 0)
        check_integer("seed", self.seed, 0)

    def inertia(self, iteration: int) -> float:
        """w(t), decreasing linearly from W_MAX to W_MIN over the run."""
        if self.iterations == 0:
            return W_MAX
        frac = iteration / self.iterations
        return W_MAX - (W_MAX - W_MIN) * frac


@dataclass
class PsoState:
    """The swarms of one or more trials as struct-of-arrays.

    positions, velocities and pbest_pos are (trials, particles, units), the
    layout of GA's populations, and each trial has its own gbest.  The
    arrays are separate: step writes velocities and pbest in place and
    replaces positions and gbest.  Invariant: gbest_obj[i] is the minimum of
    pbest_obj[i], and gbest_pos[i] is the pbest_pos row that holds it, so a
    step that improves no pbest changes nothing and stops after the comparison.
    """

    positions: np.ndarray
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_obj: np.ndarray
    gbest_pos: np.ndarray  # (trials, units)
    gbest_obj: np.ndarray  # (trials,)
    v_max: np.ndarray = field(repr=False)  # V_MAX_FRACTION * (p_max - p_min), per particle: one flat clamp loop
    v_min: np.ndarray = field(repr=False)  # -v_max
    draws: Iterator[tuple[np.ndarray, np.ndarray]] = field(repr=False)  # _draws, one pair per step
    inertia: np.ndarray = field(default_factory=lambda: np.empty(()), repr=False)  # step's w(t), a 0-d array


def velocity_update(
    v: np.ndarray,
    x: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    w: Union[float, np.ndarray],
    c1r1: np.ndarray,
    c2r2: np.ndarray,
) -> np.ndarray:
    """v <- CONSTRICTION * (w * v + c1r1 * (pbest - x) + c2r2 * (gbest - x)), in place; returns v.

    Kept separate so the kernel is testable in closed form.  The operations
    are those of the formula in its order, so the result is bitwise that of
    evaluating it into a new array.
    """
    v *= w
    pull = pbest - x
    pull *= c1r1
    v += pull
    np.subtract(gbest, x, out=pull)
    pull *= c2r2
    v += pull
    v *= _CHI
    return v


def _leaders(objs: np.ndarray) -> np.ndarray:
    """Each trial's particle of lowest objective, the first one on ties."""
    return objs.argmin(axis=1)


def _draws(
    rngs: list[np.random.Generator], iterations: int, swarm: tuple[int, int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each trial's C1 * r1 and C2 * r2 per iteration, as two (trials, particles, units) arrays.

    A block holds whole iterations, as few blocks of even length over the
    first `iterations` as keep a trial's part to DRAW_BLOCK uniforms and the
    batch's to DRAW_BATCH; each trial fills its part in one call, and the
    block is scaled once.  The stream never ends, so a state can be stepped
    past its budget.  Each yielded pair is valid until the next is asked for.
    """
    trials, span = len(rngs), 2 * math.prod(swarm)  # uniforms of one trial's iteration
    per_block = block_steps(iterations, trials, span, DRAW_BLOCK, DRAW_BATCH)
    block = np.empty((trials, per_block, 2, *swarm))
    while True:
        for rng, trial_block in zip(rngs, block):
            rng.random(out=trial_block)
        block *= _COEFFS
        for g in range(per_block):
            yield block[:, g, 0], block[:, g, 1]


def init_swarm(
    problem: DispatchProblem, config: PsoConfig, h: Optional[PenaltyFactors] = None, trials: int = 1
) -> PsoState:
    """Uniform random positions repaired onto the balance; zero velocities.

    Trial i draws from its own Generator, seeded with config.seed + i.
    """
    check_integer("trials", trials, 1)
    rngs = [np.random.default_rng(config.seed + i) for i in range(trials)]
    lo, hi = problem.p_min_arr, problem.p_max_arr
    swarm = (config.particles, problem.n_units)
    rows = repair_batch(problem, np.concatenate([rng.uniform(lo, hi, size=swarm) for rng in rngs]))
    objs = combined_objective_batch(problem, rows, h).reshape(trials, -1)
    positions = rows.reshape(trials, *swarm)
    leaders = np.arange(trials), _leaders(objs)
    v_max = np.tile(V_MAX_FRACTION * (hi - lo), (trials, config.particles, 1))
    return PsoState(
        positions=positions,
        velocities=np.zeros_like(positions),
        pbest_pos=positions.copy(),
        pbest_obj=objs,
        gbest_pos=positions[leaders],
        gbest_obj=objs[leaders],
        v_max=v_max,
        v_min=-v_max,
        draws=_draws(rngs, config.iterations, swarm),
    )


def step(
    state: PsoState,
    problem: DispatchProblem,
    config: PsoConfig,
    h: Optional[PenaltyFactors] = None,
    iteration: int = 0,
) -> np.ndarray:
    """Advance every trial's swarm one iteration in place; returns each trial's gbest_obj."""
    c1r1, c2r2 = next(state.draws)
    v, w = state.velocities, state.inertia
    w[()] = config.inertia(iteration)  # same bits as the float, without its per-call surcharge
    velocity_update(v, state.positions, state.pbest_pos, state.gbest_pos[:, None], w, c1r1, c2r2)
    np.minimum(np.maximum(v, state.v_min, out=v), state.v_max, out=v)
    # repair_batch clamps x onto the limits in a new array, so the sum can
    # overwrite the positions it replaces
    x = np.add(state.positions, v, out=state.positions)
    rows = repair_batch(problem, x.reshape(-1, problem.n_units))
    state.positions = rows.reshape(x.shape)
    objs = combined_objective_batch(problem, rows, h).reshape(state.pbest_obj.shape)
    improved = objs < state.pbest_obj
    if not np.count_nonzero(improved):
        return state.gbest_obj  # no pbest moved, so by the gbest invariant nothing else can
    np.copyto(state.pbest_obj, objs, where=improved)
    np.copyto(state.pbest_pos, state.positions, where=improved[..., None])
    leaders = np.arange(len(objs)), _leaders(state.pbest_obj)
    better = state.pbest_obj[leaders] < state.gbest_obj
    if np.count_nonzero(better):
        state.gbest_obj = np.where(better, state.pbest_obj[leaders], state.gbest_obj)
        state.gbest_pos = np.where(better[:, None], state.pbest_pos[leaders], state.gbest_pos)
    return state.gbest_obj


def leaders(state: PsoState) -> np.ndarray:
    """Each trial's best position so far, gbest_pos: (trials, units)."""
    return state.gbest_pos
