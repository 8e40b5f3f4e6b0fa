"""Particle swarm: determinism, feasibility of every iterate, convergence."""

import hashlib
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ceed import pso
from ceed.harness import run_trials
from ceed.model import BALANCE_TOL, balance_residual, check_limits
from ceed.penalty import penalty_factors_all
from ceed.problem_file import load_problem
from ceed.pso import PsoConfig, init_swarm, step, velocity_update

from conftest import make_problem, make_unit, random_problem, run_one, weighted_problems


def small_config(**kw):
    defaults = dict(particles=8, iterations=60, seed=7)
    defaults.update(kw)
    return PsoConfig(**defaults)


def test_constriction_is_derived_from_c1_plus_c2():
    # Clerc-Kennedy at phi = C1 + C2 = 4.1: 0.7298437881..., not the rounded 0.7298
    assert pso.C1 + pso.C2 == 4.1
    assert pso.CONSTRICTION == 2 / abs(2 - 4.1 - math.sqrt(4.1**2 - 4 * 4.1))


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
    assert state.positions.shape == (1, 10, 6)
    for p in state.positions[0]:
        assert check_limits(problem, p) == []
        assert abs(balance_residual(problem, p)) <= BALANCE_TOL
    assert np.array_equal(state.pbest_pos, state.positions)
    assert np.all(state.velocities == 0.0)


def test_init_single_unit_lands_on_demand():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=120.0)
    h = penalty_factors_all(problem)
    state = init_swarm(problem, small_config(), h)
    assert state.positions == pytest.approx(np.full((1, 8, 1), 120.0), abs=BALANCE_TOL)


def test_velocity_update_drift_closed_form():
    # with w = 1 and c1 * r1 = c2 * r2 = 0 the velocity only contracts by
    # CONSTRICTION, so positions follow x + CONSTRICTION * v0
    v0 = np.array([[3.0, -2.0]])
    x = np.array([[100.0, 200.0]])
    zero = np.zeros_like(x)
    v = velocity_update(v0.copy(), x, x, x[0], 1.0, zero, zero)
    assert v == pytest.approx(pso.CONSTRICTION * v0)
    assert (x + v)[0] == pytest.approx([100.0 + 3.0 * pso.CONSTRICTION, 200.0 - 2.0 * pso.CONSTRICTION])


def test_velocity_update_writes_the_formula_into_v():
    # the in-place kernel equals the velocity law evaluated into a new array, bitwise
    rng = np.random.default_rng(5)
    v, x, pbest, c1r1, c2r2 = (rng.uniform(-50.0, 50.0, (3, 4, 5)) for _ in range(5))
    gbest = rng.uniform(-50.0, 50.0, (3, 1, 5))
    expected = pso.CONSTRICTION * (0.6 * v + c1r1 * (pbest - x) + c2r2 * (gbest - x))
    out = velocity_update(v, x, pbest, gbest, 0.6, c1r1, c2r2)
    assert out is v
    assert v.tobytes() == expected.tobytes()


def _swarm_arrays(state):
    return state.positions, state.velocities, state.pbest_pos, state.gbest_pos


def test_swarm_arrays_share_no_memory_and_velocities_stay_capped(rng):
    # step writes velocities and pbest in place, so no two of the swarm's
    # arrays may be views of one buffer
    problem = random_problem(rng, 5)
    h = penalty_factors_all(problem)
    cfg = small_config(iterations=30)
    state = init_swarm(problem, cfg, h, 3)
    cap = pso.V_MAX_FRACTION * (problem.p_max_arr - problem.p_min_arr)
    for t in range(cfg.iterations + 1):
        arrays = _swarm_arrays(state)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        assert np.all(np.abs(state.velocities) <= cap)
        if t < cfg.iterations:
            step(state, problem, cfg, h, t)


def test_step_runs_the_module_velocity_kernel_once(monkeypatch, rng):
    # the kernel tested in closed form above is the one the solver runs
    calls = []

    def counted(*args):
        calls.append(args[0].shape)
        return velocity_update(*args)

    monkeypatch.setattr(pso, "velocity_update", counted)
    problem = random_problem(rng, 4)
    cfg = small_config(iterations=7)
    run_trials(problem, cfg, penalty_factors_all(problem), 2)
    assert calls == [(2, cfg.particles, 4)] * cfg.iterations


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
        assert state.positions.shape == (trials, cfg.particles, 5)
        for t in range(cfg.iterations):
            step(state, problem, cfg, h, t)
            for p in state.positions.reshape(-1, 5):
                assert check_limits(problem, p) == []
                assert abs(balance_residual(problem, p)) <= BALANCE_TOL


def test_a_state_steps_past_its_budget(rng):
    # bench/layers.py times step thousands of times on one state, far past
    # config.iterations: the draws go on, every iterate stays feasible, and
    # the steps within the budget are those of run_trials
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    cfg = small_config(iterations=20)
    state = init_swarm(problem, cfg, h, 2)
    gbest = []
    for t in range(3 * cfg.iterations):
        gbest.append(step(state, problem, cfg, h, t if t < cfg.iterations else 0))
        for p in state.positions.reshape(-1, 4):
            assert check_limits(problem, p) == []
            assert abs(balance_residual(problem, p)) <= BALANCE_TOL
    traces = np.array([trace for _, trace in run_trials(problem, cfg, h, 2)])
    assert np.array(gbest[: cfg.iterations]).T.tobytes() == traces.tobytes()


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


def _assert_gbest_invariant(state):
    # each trial's gbest is the minimum of its pbests, at the pbest row of a
    # particle holding it: the first minimum, unless a later pbest tied it,
    # which gbest's strict test does not take
    assert state.gbest_obj.tobytes() == state.pbest_obj.min(axis=1).tobytes()
    for lowest, pos, trial_objs, trial_rows in zip(state.gbest_obj, state.gbest_pos, state.pbest_obj, state.pbest_pos):
        holders = trial_rows[trial_objs == lowest]
        assert any(row.tobytes() == pos.tobytes() for row in holders)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    problem=weighted_problems(max_units=4),
    trials=st.integers(1, 4),
    particles=st.integers(1, 8),
    iterations=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 4),
)
def test_property_gbest_is_the_minimum_pbest(problem, trials, particles, iterations, seed):
    config = PsoConfig(particles=particles, iterations=iterations, seed=seed)
    h = penalty_factors_all(problem)
    state = init_swarm(problem, config, h, trials)
    _assert_gbest_invariant(state)
    for t in range(iterations):
        step(state, problem, config, h, t)
        _assert_gbest_invariant(state)


def test_step_that_improves_no_pbest_leaves_the_bests_alone(monkeypatch, rng):
    # no candidate can beat a pbest of -1e300, so the step stops after the comparison
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    cfg = small_config(iterations=5)
    state = init_swarm(problem, cfg, h, 3)
    state.pbest_obj -= 1e300
    state.gbest_obj -= 1e300
    bests = [a.copy() for a in (state.pbest_obj, state.pbest_pos, state.gbest_obj, state.gbest_pos)]
    calls = []
    monkeypatch.setattr(pso, "_leaders", lambda *args: calls.append(args))
    step(state, problem, cfg, h, 0)
    after = (state.pbest_obj, state.pbest_pos, state.gbest_obj, state.gbest_pos)
    assert [a.tobytes() for a in after] == [b.tobytes() for b in bests]
    assert calls == []


@pytest.mark.parametrize("demand", [1500.0, 2000.0])
def test_most_paper_protocol_steps_skip_the_gbest_bookkeeping(monkeypatch, six_unit_path, demand):
    # in a seeded two-trial, 500-iteration run most iterations improve no
    # pbest; 134-168 calls were counted over seeds 0-5 at both demands
    problem = load_problem(six_unit_path, demand)
    leaders, calls = pso._leaders, []

    def counted(*args):
        calls.append(None)
        return leaders(*args)

    monkeypatch.setattr(pso, "_leaders", counted)
    run_trials(problem, PsoConfig(iterations=500), penalty_factors_all(problem), 2)
    assert 1 < len(calls) < 250


@settings(deadline=None, derandomize=True, max_examples=60)
@given(
    problem=weighted_problems(max_units=4),
    particles=st.integers(1, 8),
    iterations=st.integers(1, 15),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_trace_never_rises(problem, particles, iterations, seed):
    config = PsoConfig(particles=particles, iterations=iterations, seed=seed)
    _, trace = run_one(problem, config, penalty_factors_all(problem))
    assert np.all(np.diff(trace) <= 0.0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    problem=weighted_problems(max_units=4),
    trials=st.integers(1, 4),
    particles=st.integers(1, 6),
    iterations=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 8),
)
# ten trials of 100 four-unit particles meet DRAW_BATCH: the batch draws 16
# iterations to a block and a lone run, held to DRAW_BLOCK, 20, so 40
# iterations cross block boundaries at different steps
@example(
    problem=random_problem(np.random.default_rng(3), 4),
    trials=10,
    particles=100,
    iterations=40,
    seed=2**32 - 11,
)
# over 300 iterations the trials stop improving at different steps, so a batch
# step that improves some trial's pbest improves none in the others
@example(
    problem=random_problem(np.random.default_rng(3), 4),
    trials=3,
    particles=10,
    iterations=300,
    seed=2**32 - 9,
)
def test_property_batched_trials_equal_lone_runs(problem, trials, particles, iterations, seed):
    config = PsoConfig(particles=particles, iterations=iterations, seed=seed)
    h = penalty_factors_all(problem)
    batch = run_trials(problem, config, h, trials)
    assert len(batch) == trials
    for i, (solution, trace) in enumerate(batch):
        lone, lone_trace = run_one(problem, replace(config, seed=seed + i), h)
        assert solution.powers == lone.powers
        assert solution.total_cost == lone.total_cost
        assert trace.tobytes() == lone_trace.tobytes()


def _batch_digest(problem, h, trials):
    sha = hashlib.sha256()
    for solution, trace in run_trials(problem, PsoConfig(), h, trials):
        sha.update(np.array(solution.powers).tobytes())
        sha.update(trace.tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("demand", [1500.0, 2000.0])
def test_a_50_trial_batch_does_not_depend_on_the_draw_cap(monkeypatch, six_unit_path, demand):
    # the old cap of 16384 uniforms for the whole batch drew 2 iterations ahead
    problem = load_problem(six_unit_path, demand)
    h = penalty_factors_all(problem)
    bounded = _batch_digest(problem, h, 50)
    monkeypatch.setattr(pso, "DRAW_BATCH", 1 << 14)
    assert _batch_digest(problem, h, 50) == bounded


def test_a_50_trial_batch_draws_each_trial_in_few_calls():
    # the paper's swarm of 10 six-unit particles, 50 trials of 500 iterations
    config, trials, swarm = PsoConfig(iterations=500), 50, (10, 6)
    calls = [0] * trials

    def counted(i):
        rng = np.random.default_rng(i)

        def random(**kwargs):
            calls[i] += 1
            return rng.random(**kwargs)

        return SimpleNamespace(random=random)

    draws = pso._draws([counted(i) for i in range(trials)], config.iterations, swarm)
    for _ in range(config.iterations):
        next(draws)
    ahead = min(pso.DRAW_BLOCK, pso.DRAW_BATCH // trials) // (2 * math.prod(swarm))
    assert ahead >= 20  # 250 calls a trial at the old cap
    assert calls == [math.ceil(config.iterations / ahead)] * trials


def test_seed_changes_the_search(rng):
    problem = random_problem(rng, 5)
    h = penalty_factors_all(problem)
    _, t1 = run_one(problem, small_config(seed=1, iterations=20), h)
    _, t2 = run_one(problem, small_config(seed=2, iterations=20), h)
    assert not np.array_equal(t1, t2)
