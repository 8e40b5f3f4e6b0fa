"""Constriction-factor particle swarm for the scalarized dispatch objective.

The velocity law composes the linearly decreasing inertia weight with the
constriction multiplier:

    v <- CF * (w(t) * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x))

which degenerates to the standard constriction update at w = 1.  CF is
derived from phi = c1 + c2 by the Clerc-Kennedy formula (0.72984 at the
default c1 = c2 = 2.05), not set on its own.  Every
candidate position is clamped to the unit limits and projected onto the
power balance before evaluation, so the objective never needs a penalty
term for constraint violations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import DispatchProblem, DispatchSolution, HLike, combined_objective_batch, evaluate_dispatch
from .repair import repair_batch


@dataclass(frozen=True)
class PsoConfig:
    particles: int = 10
    iterations: int = 500
    w_max: float = 0.9
    w_min: float = 0.4
    c1: float = 2.05
    c2: float = 2.05
    v_max_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not self.c1 + self.c2 > 4.0:
            raise ValueError(
                f"c1 + c2 must exceed 4 for a contracting swarm, got {self.c1 + self.c2}"
            )
        if not 0.0 < self.v_max_fraction <= 1.0:
            raise ValueError(f"v_max_fraction must lie in (0, 1], got {self.v_max_fraction}")
        if self.w_min > self.w_max:
            raise ValueError(f"w_min must not exceed w_max, got {self.w_min} > {self.w_max}")

    @property
    def constriction(self) -> float:
        """Clerc-Kennedy chi = 2 / |2 - phi - sqrt(phi^2 - 4 phi)| with phi = c1 + c2."""
        phi = self.c1 + self.c2
        return 2.0 / abs(2.0 - phi - math.sqrt(phi * phi - 4.0 * phi))

    def inertia(self, iteration: int) -> float:
        """w(t), decreasing linearly from w_max to w_min over the run."""
        if self.iterations == 0:
            return self.w_max
        frac = iteration / self.iterations
        return self.w_max - (self.w_max - self.w_min) * frac


@dataclass
class PsoState:
    """Swarm as struct-of-arrays; rows index particles, columns units."""

    positions: np.ndarray
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_obj: np.ndarray
    gbest_pos: np.ndarray
    gbest_obj: float
    rng: np.random.Generator = field(repr=False)


def velocity_update(
    v: np.ndarray,
    x: np.ndarray,
    pbest: np.ndarray,
    gbest: np.ndarray,
    w: float,
    cf: float,
    c1: float,
    c2: float,
    r1: np.ndarray,
    r2: np.ndarray,
) -> np.ndarray:
    """One velocity step, kept separate so the kernel is testable in closed form."""
    return cf * (w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x))


def init_swarm(problem: DispatchProblem, config: PsoConfig, h: HLike = None) -> PsoState:
    """Uniform random positions repaired onto the balance; zero velocities."""
    rng = np.random.default_rng(config.seed)
    lo, hi = problem.p_min_arr, problem.p_max_arr
    positions = rng.uniform(lo, hi, size=(config.particles, problem.n_units))
    positions = repair_batch(problem, positions)
    objs = combined_objective_batch(problem, positions, h)
    best = int(np.argmin(objs))
    return PsoState(
        positions=positions,
        velocities=np.zeros_like(positions),
        pbest_pos=positions.copy(),
        pbest_obj=objs.copy(),
        gbest_pos=positions[best].copy(),
        gbest_obj=float(objs[best]),
        rng=rng,
    )


def step(
    state: PsoState,
    problem: DispatchProblem,
    config: PsoConfig,
    h: HLike = None,
    iteration: int = 0,
) -> PsoState:
    """Advance the swarm one iteration in place and return it."""
    lo, hi = problem.p_min_arr, problem.p_max_arr
    v_max = config.v_max_fraction * (hi - lo)
    shape = state.positions.shape
    r1 = state.rng.random(shape)
    r2 = state.rng.random(shape)
    v = velocity_update(
        state.velocities,
        state.positions,
        state.pbest_pos,
        state.gbest_pos,
        config.inertia(iteration),
        config.constriction,
        config.c1,
        config.c2,
        r1,
        r2,
    )
    np.clip(v, -v_max, v_max, out=v)
    state.velocities = v
    x = np.clip(state.positions + v, lo, hi)
    state.positions = repair_batch(problem, x)
    objs = combined_objective_batch(problem, state.positions, h)
    improved = objs < state.pbest_obj
    state.pbest_obj = np.where(improved, objs, state.pbest_obj)
    state.pbest_pos = np.where(improved[:, None], state.positions, state.pbest_pos)
    best = int(np.argmin(state.pbest_obj))
    if state.pbest_obj[best] < state.gbest_obj:
        state.gbest_obj = float(state.pbest_obj[best])
        state.gbest_pos = state.pbest_pos[best].copy()
    return state


def run(
    problem: DispatchProblem, config: Optional[PsoConfig] = None, h: HLike = None
) -> tuple[DispatchSolution, np.ndarray]:
    """Full PSO run; returns the best dispatch and the per-iteration gbest trace."""
    config = config or PsoConfig()
    state = init_swarm(problem, config, h)
    trace = np.empty(config.iterations)
    for t in range(config.iterations):
        step(state, problem, config, h, t)
        trace[t] = state.gbest_obj
    return evaluate_dispatch(problem, state.gbest_pos, h), trace
