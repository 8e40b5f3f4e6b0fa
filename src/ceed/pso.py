"""Constriction-factor particle swarm for the scalarized dispatch objective.

The velocity law composes the linearly decreasing inertia weight with the
constriction multiplier:

    v <- CONSTRICTION * (w(t) * v + C1 * r1 * (pbest - x) + C2 * r2 * (gbest - x))

which degenerates to the standard constriction update at w = 1.  The
coefficients are the paper's constants, not settings: w(t) falls from W_MAX
to W_MIN, C1 = C2 = 2.05, and CONSTRICTION is derived from phi = C1 + C2 by
the Clerc-Kennedy formula (0.72984).  Every
candidate position is clamped to the unit limits and projected onto the
power balance before evaluation, so the objective never needs a penalty
term for constraint violations.

run_trials steps the swarms of several seeded trials as one set of rows:
each trial draws from its own Generator and keeps its own gbest, so its
result is bitwise that of a lone run with its seed.  Each iteration takes a
trial's r1, then its r2.  A trial draws them for several iterations in one
call, at most DRAW_BLOCK entries per trial and DRAW_BATCH for the whole
batch; Generator.random consumes its stream in order, so the block length
leaves every draw as it would be one iteration at a time and is a speed
setting only.  A block holds C1 * r1 and C2 * r2, scaled once when it is
drawn: the same products the velocity law would form.

An iteration does only per-iteration work.  init_swarm computes the velocity
bounds and each trial's first row once; step writes the velocity law into
the swarm's own velocities in the formula's order, so the result is bitwise
that of the formula evaluated into new arrays, and copies improved rows into
pbest in place.

init_swarm and step keep one invariant: each trial's gbest_obj is the
minimum of its rows' pbest_obj, and gbest_pos is the pbest row of a
particle that holds it: the first minimum, unless a later pbest only tied
it, which gbest's strict test does not take.  An iteration that improves no
particle's pbest therefore cannot move gbest either, and step stops right
after the comparison: it skips the pbest copies, the per-trial argmin and
the gbest test, with the same bits as running them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import DispatchProblem, DispatchSolution, PenaltyFactors, combined_objective_batch, evaluate_dispatch
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
# C1 and C2 against the (r1, r2) axis of a draw block, applied once per block
_COEFFS = np.array([C1, C2])[:, None, None]


@dataclass(frozen=True)
class PsoConfig:
    particles: int = 10
    iterations: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")

    def inertia(self, iteration: int) -> float:
        """w(t), decreasing linearly from W_MAX to W_MIN over the run."""
        if self.iterations == 0:
            return W_MAX
        frac = iteration / self.iterations
        return W_MAX - (W_MAX - W_MIN) * frac


@dataclass
class PsoState:
    """The swarms of one or more trials as struct-of-arrays.

    Rows index particles trial by trial (trial i owns the i-th block of
    `particles` rows) and columns index units; each trial has its own gbest
    and its own seeded Generator.  positions, velocities, pbest_pos and
    gbest_pos are separate arrays: step writes velocities and pbest in place
    and replaces positions and gbest.  What no iteration changes is computed
    once by init_swarm: the velocity bounds and each trial's first row.
    Invariant: gbest_obj[i] is the minimum of trial i's pbest_obj, and
    gbest_pos[i] is the pbest_pos row that holds it, so a step that improves
    no pbest changes nothing and stops after the comparison.
    """

    positions: np.ndarray
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_obj: np.ndarray
    gbest_pos: np.ndarray  # (trials, units)
    gbest_obj: np.ndarray  # (trials,)
    rngs: tuple[np.random.Generator, ...] = field(repr=False)
    v_max: np.ndarray = field(repr=False)  # V_MAX_FRACTION * (p_max - p_min) per row: one flat clamp loop
    v_min: np.ndarray = field(repr=False)  # -v_max, per row
    offsets: np.ndarray = field(repr=False)  # first row of each trial
    # C1 * r1 and C2 * r2 drawn ahead, (trials, iterations, 2, particles,
    # units) within DRAW_BLOCK per trial and DRAW_BATCH in all, refilled in
    # place, and how many of those iterations step has used
    draws: np.ndarray = field(default_factory=lambda: np.empty((0, 0)), repr=False)
    used: int = 0


def velocity_update(
    v: np.ndarray,
    x: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    w: float,
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
    v *= CONSTRICTION
    return v


def _leaders(objs: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row of each trial's lowest objective, the first one on ties."""
    return objs.reshape(len(offsets), -1).argmin(axis=1) + offsets


def init_swarm(
    problem: DispatchProblem, config: PsoConfig, h: Optional[PenaltyFactors] = None, trials: int = 1
) -> PsoState:
    """Uniform random positions repaired onto the balance; zero velocities.

    Trial i draws from its own Generator, seeded with config.seed + i.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rngs = tuple(np.random.default_rng(config.seed + i) for i in range(trials))
    lo, hi = problem.p_min_arr, problem.p_max_arr
    shape = (config.particles, problem.n_units)
    positions = repair_batch(problem, np.concatenate([rng.uniform(lo, hi, size=shape) for rng in rngs]))
    objs = combined_objective_batch(problem, positions, h)
    offsets = config.particles * np.arange(trials)
    leaders = _leaders(objs, offsets)
    v_max = np.repeat(V_MAX_FRACTION * (hi - lo)[None], len(positions), axis=0)
    return PsoState(
        positions=positions,
        velocities=np.zeros_like(positions),
        pbest_pos=positions.copy(),
        pbest_obj=objs.copy(),
        gbest_pos=positions[leaders],
        gbest_obj=objs[leaders],
        rngs=rngs,
        v_max=v_max,
        v_min=-v_max,
        offsets=offsets,
    )


def step(
    state: PsoState,
    problem: DispatchProblem,
    config: PsoConfig,
    h: Optional[PenaltyFactors] = None,
    iteration: int = 0,
) -> PsoState:
    """Advance every trial's swarm one iteration in place and return the state."""
    trials = len(state.offsets)
    grid = (trials, len(state.positions) // trials, problem.n_units)
    if state.used == state.draws.shape[1]:
        ahead = min(DRAW_BLOCK * trials, DRAW_BATCH) // (2 * state.positions.size)
        ahead = max(1, min(ahead, config.iterations - iteration))
        if ahead != state.draws.shape[1]:
            state.draws = np.empty((trials, ahead, 2, *grid[1:]))
        for rng, block in zip(state.rngs, state.draws):
            rng.random(out=block)
        state.draws *= _COEFFS
        state.used = 0
    r = state.draws[:, state.used]
    state.used += 1
    v = state.velocities
    velocity_update(
        v.reshape(grid),
        state.positions.reshape(grid),
        state.pbest_pos.reshape(grid),
        state.gbest_pos[:, None],
        config.inertia(iteration),
        r[:, 0],
        r[:, 1],
    )
    np.minimum(np.maximum(v, state.v_min, out=v), state.v_max, out=v)
    # repair_batch clamps x onto the limits in a new array, so the sum can
    # overwrite the positions it replaces
    x = np.add(state.positions, v, out=state.positions)
    state.positions = repair_batch(problem, x)
    objs = combined_objective_batch(problem, state.positions, h)
    improved = objs < state.pbest_obj
    if not np.count_nonzero(improved):
        return state  # no pbest moved, so by the gbest invariant nothing else can
    np.copyto(state.pbest_obj, objs, where=improved)
    np.copyto(state.pbest_pos, state.positions, where=improved[:, None])
    leaders = _leaders(state.pbest_obj, state.offsets)
    better = state.pbest_obj[leaders] < state.gbest_obj
    if np.count_nonzero(better):
        state.gbest_obj = np.where(better, state.pbest_obj[leaders], state.gbest_obj)
        state.gbest_pos = np.where(better[:, None], state.pbest_pos[leaders], state.gbest_pos)
    return state


def run_trials(
    problem: DispatchProblem, config: Optional[PsoConfig], h: Optional[PenaltyFactors], trials: int
) -> list[tuple[DispatchSolution, np.ndarray]]:
    """PSO runs with seeds config.seed + i, stepped together as one swarm batch.

    Entry i is the best dispatch and the per-iteration gbest trace of trial
    i, bitwise equal to run() with seed config.seed + i: trials share no
    draws and no rows, only the array calls.
    """
    config = config or PsoConfig()
    state = init_swarm(problem, config, h, trials)
    trace = np.empty((trials, config.iterations))
    for t in range(config.iterations):
        step(state, problem, config, h, t)
        trace[:, t] = state.gbest_obj
    return [(evaluate_dispatch(problem, best, h), tr) for best, tr in zip(state.gbest_pos, trace)]


def run(
    problem: DispatchProblem, config: Optional[PsoConfig] = None, h: Optional[PenaltyFactors] = None
) -> tuple[DispatchSolution, np.ndarray]:
    """Full PSO run; returns the best dispatch and the per-iteration gbest trace."""
    return run_trials(problem, config, h, 1)[0]
