"""Particle swarm: determinism, feasibility of every iterate, convergence."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ceed.model import BALANCE_TOL, balance_residual, check_limits, evaluate_dispatch
from ceed.oracle import lambda_solve
from ceed.penalty import penalty_factors_all
from ceed.pso import PsoConfig, init_swarm, run, run_trials, step, velocity_update

from conftest import make_problem, make_unit, random_problem, weighted_problems


def small_config(**kw):
    defaults = dict(particles=8, iterations=60, seed=7)
    defaults.update(kw)
    return PsoConfig(**defaults)


def test_config_rejects_phi_at_most_four():
    with pytest.raises(ValueError, match="c1 \\+ c2"):
        PsoConfig(c1=2.0, c2=2.0)


def test_constriction_is_derived_from_c1_plus_c2():
    # Clerc-Kennedy at phi = 4.1: 0.7298437881..., not the rounded 0.7298
    assert PsoConfig().constriction == 2 / abs(2 - 4.1 - math.sqrt(4.1**2 - 4 * 4.1))


def test_config_rejects_bad_velocity_fraction():
    with pytest.raises(ValueError):
        PsoConfig(v_max_fraction=0.0)
    with pytest.raises(ValueError):
        PsoConfig(v_max_fraction=1.5)


def test_inertia_schedule_endpoints():
    cfg = PsoConfig(iterations=500)
    assert cfg.inertia(0) == pytest.approx(0.9)
    assert cfg.inertia(500) == pytest.approx(0.4)
    assert cfg.inertia(250) == pytest.approx(0.65)


def test_init_swarm_is_deterministic(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    s1 = init_swarm(problem, small_config(), h)
    s2 = init_swarm(problem, small_config(), h)
    assert np.array_equal(s1.positions, s2.positions)
    assert np.array_equal(s1.pbest_obj, s2.pbest_obj)
    assert s1.gbest_obj == s2.gbest_obj


def test_init_swarm_positions_are_feasible():
    units = [make_unit(i + 1, 50.0, 300.0 + 40.0 * i) for i in range(6)]
    problem = make_problem(units, demand=1500.0)
    h = penalty_factors_all(problem)
    state = init_swarm(problem, small_config(particles=10), h)
    assert state.positions.shape == (10, 6)
    for p in state.positions:
        assert check_limits(problem, p) == []
        assert abs(balance_residual(problem, p)) <= BALANCE_TOL
    assert np.array_equal(state.pbest_pos, state.positions)
    assert np.all(state.velocities == 0.0)


def test_init_single_unit_lands_on_demand():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=120.0)
    h = penalty_factors_all(problem)
    state = init_swarm(problem, small_config(), h)
    assert state.positions == pytest.approx(np.full((8, 1), 120.0), abs=BALANCE_TOL)


def test_velocity_update_drift_closed_form():
    # with w = cf = 1 and c1 = c2 = 0 the velocity is carried unchanged,
    # so positions follow x + v0 exactly
    v0 = np.array([[3.0, -2.0]])
    x = np.array([[100.0, 200.0]])
    r = np.zeros_like(x)
    v = velocity_update(v0, x, x, x[0], 1.0, 1.0, 0.0, 0.0, r, r)
    assert v == pytest.approx(v0)
    assert (x + v)[0] == pytest.approx([103.0, 198.0])


def test_step_fixed_point_when_converged():
    problem = make_problem([make_unit(1, 50.0, 300.0), make_unit(2, 50.0, 300.0)], demand=400.0)
    h = penalty_factors_all(problem)
    state = init_swarm(problem, small_config(particles=4), h)
    # force full agreement: pbest = gbest = x with zero velocity
    state.positions[:] = state.gbest_pos
    state.pbest_pos[:] = state.gbest_pos
    state.pbest_obj[:] = state.gbest_obj
    state.velocities[:] = 0.0
    before = state.positions.copy()
    step(state, problem, small_config(particles=4), h, iteration=0)
    assert state.positions == pytest.approx(before, abs=1e-12)


def test_every_iterate_stays_feasible(rng):
    problem = random_problem(rng, 5)
    h = penalty_factors_all(problem)
    cfg = small_config(iterations=40)
    for trials in (1, 3):
        state = init_swarm(problem, cfg, h, trials)
        assert state.positions.shape == (trials * cfg.particles, 5)
        for t in range(cfg.iterations):
            step(state, problem, cfg, h, t)
            for p in state.positions:
                assert check_limits(problem, p) == []
                assert abs(balance_residual(problem, p)) <= BALANCE_TOL


def test_gbest_never_worsens_within_a_run(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    cfg = small_config(iterations=50)
    for trials in (1, 3):
        state = init_swarm(problem, cfg, h, trials)
        last = state.gbest_obj
        assert last.shape == (trials,)
        for t in range(cfg.iterations):
            step(state, problem, cfg, h, t)
            assert np.all(state.gbest_obj <= last + 1e-12)
            last = state.gbest_obj


def test_run_trace_is_monotone_and_sized(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    solution, trace = run(problem, small_config(iterations=80), h)
    assert trace.shape == (80,)
    assert np.all(np.diff(trace) <= 1e-12)
    assert solution.total_cost == pytest.approx(trace[-1])
    assert solution.feasible


def test_zero_iterations_return_best_of_initial_swarm(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    solution, trace = run(problem, small_config(iterations=0), h)
    assert trace.shape == (0,)
    assert solution.feasible
    initial = init_swarm(problem, small_config(iterations=0), h)
    assert solution.powers == tuple(initial.gbest_pos[0])
    assert initial.gbest_obj[0] == initial.pbest_obj.min()


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    problem=weighted_problems(max_units=4),
    particles=st.integers(1, 8),
    iterations=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_trace_never_rises(problem, particles, iterations, seed):
    config = PsoConfig(particles=particles, iterations=iterations, seed=seed)
    _, trace = run(problem, config, penalty_factors_all(problem))
    assert np.all(np.diff(trace) <= 0.0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    problem=weighted_problems(max_units=4),
    trials=st.integers(1, 4),
    particles=st.integers(1, 6),
    iterations=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 8),
)
def test_property_batched_trials_equal_lone_runs(problem, trials, particles, iterations, seed):
    config = PsoConfig(particles=particles, iterations=iterations, seed=seed)
    h = penalty_factors_all(problem)
    batch = run_trials(problem, config, h, trials)
    assert len(batch) == trials
    for i, (solution, trace) in enumerate(batch):
        lone, lone_trace = run(problem, replace(config, seed=seed + i), h)
        assert solution.powers == lone.powers
        assert solution.total_cost == lone.total_cost
        assert trace.tobytes() == lone_trace.tobytes()


def test_run_is_deterministic(rng):
    problem = random_problem(rng, 5)
    h = penalty_factors_all(problem)
    s1, t1 = run(problem, small_config(), h)
    s2, t2 = run(problem, small_config(), h)
    assert s1.powers == s2.powers
    assert np.array_equal(t1, t2)


def test_seed_changes_the_search(rng):
    problem = random_problem(rng, 5)
    h = penalty_factors_all(problem)
    _, t1 = run(problem, small_config(seed=1, iterations=20), h)
    _, t2 = run(problem, small_config(seed=2, iterations=20), h)
    assert not np.array_equal(t1, t2)


def test_single_unit_run_is_forced():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=175.0)
    h = penalty_factors_all(problem)
    solution, _ = run(problem, small_config(iterations=5), h)
    assert solution.powers[0] == pytest.approx(175.0, abs=BALANCE_TOL)
    assert solution.total_cost == pytest.approx(evaluate_dispatch(problem, [175.0], h).total_cost)


def test_two_unit_run_matches_lambda_oracle():
    units = [
        make_unit(1, 20.0, 250.0, cost=(120.0, 4.0, 0.010)),
        make_unit(2, 30.0, 300.0, cost=(90.0, 6.5, 0.006)),
    ]
    problem = make_problem(units, demand=330.0, k2=0)
    solution, _ = run(problem, PsoConfig(particles=12, iterations=300, seed=3))
    reference = lambda_solve(problem).solution(problem)
    assert solution.total_cost <= reference.total_cost * (1.0 + 1e-4)
