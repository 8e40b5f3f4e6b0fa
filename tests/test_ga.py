"""Genetic algorithm: decode endpoints, operator statistics, convergence."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ceed.model import BALANCE_TOL, balance_residual, check_limits
from ceed.oracle import lambda_solve
from ceed.penalty import penalty_factors_all
from ceed.ga import (
    GaConfig,
    _next_generation,
    crossover,
    decode,
    fitness_scale,
    mutate,
    roulette_select,
    run,
    run_trials,
)

from conftest import make_problem, make_unit, random_problem, weighted_problems


def small_config(**kw):
    defaults = dict(individuals=10, generations=80, seed=11)
    defaults.update(kw)
    return GaConfig(**defaults)


def test_config_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        GaConfig(p_crossover=1.2)
    with pytest.raises(ValueError):
        GaConfig(p_mutation=-0.1)


def test_config_rejects_narrow_genes_and_full_elitism():
    with pytest.raises(ValueError):
        GaConfig(bits_per_gene=3)
    with pytest.raises(ValueError):
        GaConfig(individuals=5, elitism=5)


def test_decode_endpoints():
    problem = make_problem([make_unit(1, 50.0, 300.0), make_unit(2, 80.0, 200.0)], demand=400.0)
    cfg = GaConfig(bits_per_gene=8)
    powers = decode(np.array([[0] * 16, [1] * 16], dtype=np.uint8), problem, cfg)
    assert powers.shape == (2, 2)
    assert powers[0] == pytest.approx([50.0, 80.0])
    assert powers[1] == pytest.approx([300.0, 200.0])


def test_decode_interior_code_on_known_grid():
    # bits=4 on [0, 300]: code 0b0001 = 1 of 15 steps -> exactly 20.0
    problem = make_problem([make_unit(1, 0.0, 300.0)], demand=150.0)
    cfg = GaConfig(bits_per_gene=4)
    assert decode(np.array([[0, 0, 0, 1]], dtype=np.uint8), problem, cfg)[0] == pytest.approx([20.0])


def test_decode_matches_the_formula_across_problems_and_widths(rng):
    # decode keeps one weight vector per gene width; alternating problems and
    # widths must still give p_min + u * (p_max - p_min) / (2^w - 1) per gene
    problems = [random_problem(rng, 3), random_problem(rng, 5)]
    for _ in range(3):
        for problem in problems:
            for width in (8, 16):
                bits = rng.integers(0, 2, size=(4, problem.n_units * width), dtype=np.uint8)
                powers = decode(bits, problem, GaConfig(bits_per_gene=width))
                for row, decoded in zip(bits.tolist(), powers.tolist()):
                    for i, unit in enumerate(problem.units):
                        u = int("".join(map(str, row[i * width : (i + 1) * width])), 2)
                        span = unit.p_max - unit.p_min
                        assert decoded[i] == unit.p_min + u * span / (2.0**width - 1.0)


def test_decode_rejects_length_mismatch():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=100.0)
    for bits in (np.zeros((1, 7), dtype=np.uint8), np.zeros(8, dtype=np.uint8)):
        with pytest.raises(ValueError, match="rows of 1 units x 8 bits"):
            decode(bits, problem, GaConfig(bits_per_gene=8))


def test_fitness_scale_range_and_all_equal():
    objs = np.array([120.0, 100.0, 180.0])
    fit = fitness_scale(objs)
    assert fit[1] == 1.0 and fit[2] == 0.0
    assert fit[0] == pytest.approx(0.75)
    assert fitness_scale(np.array([50.0, 50.0])) == pytest.approx([1.0, 1.0])


def test_roulette_single_and_zero_fitness():
    rng = np.random.default_rng(0)
    assert np.array_equal(roulette_select(np.array([0.3]), rng, 5), np.zeros(5))
    picks = set(roulette_select(np.zeros(4), rng, 200).tolist())
    assert picks == {0, 1, 2, 3}


def test_roulette_frequency_matches_fitness_share():
    rng = np.random.default_rng(5)
    fitness = np.array([3.0, 1.0])
    hits = int((roulette_select(fitness, rng, 10_000) == 0).sum())
    assert hits / 10_000 == pytest.approx(0.75, abs=0.02)


def test_crossover_suffix_swap_and_bit_conservation():
    rng = np.random.default_rng(9)
    cfg = GaConfig(p_crossover=1.0)
    a = np.zeros((1, 4), dtype=np.uint8)
    b = np.ones((1, 4), dtype=np.uint8)
    ca, cb = crossover(a, b, rng, cfg)
    assert ca.sum() + cb.sum() == 4  # bits conserved across the pair
    assert not np.array_equal(ca, a)  # p_c = 1 always crosses
    # one suffix swap: child a keeps a prefix of a and takes the suffix of b
    assert np.array_equal(ca, np.sort(ca, axis=1)) and np.array_equal(cb, 1 - ca)
    pa = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    pb = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    ca, cb = crossover(pa, pb, rng, cfg)
    assert np.array_equal(ca + cb, pa + pb)  # per-position multiset of every pair


def test_crossover_disabled_copies_parents():
    rng = np.random.default_rng(3)
    cfg = GaConfig(p_crossover=0.0)
    a = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    b = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    ca, cb = crossover(a, b, rng, cfg)
    assert np.array_equal(ca, a) and np.array_equal(cb, b)


def test_mutation_extremes_and_rate():
    rng = np.random.default_rng(21)
    children = rng.integers(0, 2, (4, 64), dtype=np.uint8)
    frozen = mutate(children.copy(), rng, GaConfig(p_mutation=0.0))
    assert np.array_equal(frozen, children)
    flipped = mutate(children.copy(), rng, GaConfig(p_mutation=1.0))
    assert np.array_equal(flipped, 1 - children)
    big = np.zeros((100, 100), dtype=np.uint8)
    flips = mutate(big, rng, GaConfig(p_mutation=0.033)).sum()
    assert 300 <= flips <= 360  # binomial(10000, 0.033) well within 3 sigma


def generation_inputs(individuals, seed, length=24):
    rng = np.random.default_rng(seed)
    population = rng.integers(0, 2, (individuals, length), dtype=np.uint8)
    return population, rng.permutation(individuals).astype(float), rng


@pytest.mark.parametrize("individuals, elitism", [(10, 1), (10, 2), (9, 0), (8, 0), (7, 3)])
def test_next_generation_shape_dtype_and_elites(individuals, elitism):
    population, objectives, rng = generation_inputs(individuals, individuals + elitism)
    cfg = GaConfig(individuals=individuals, elitism=elitism)
    nxt = _next_generation(population, objectives, rng, cfg)
    assert nxt.shape == population.shape and nxt.dtype == np.uint8
    best = np.argsort(objectives)[:elitism]
    assert np.array_equal(nxt[:elitism], population[best])  # elites survive bitwise


@pytest.mark.parametrize("individuals, elitism", [(10, 0), (11, 0), (10, 1)])
def test_next_generation_conserves_bits_per_pair(individuals, elitism):
    # with p_c = 1 and p_m = 0 every child pair holds the bits of two parents
    population, objectives, rng = generation_inputs(individuals, 40 + individuals)
    cfg = GaConfig(individuals=individuals, elitism=elitism, p_crossover=1.0, p_mutation=0.0)
    children = _next_generation(population, objectives, rng, cfg)[elitism:]
    pair_sums = {(a + b).tobytes() for a in population for b in population}
    for k in range(0, len(children) - 1, 2):
        assert (children[k] + children[k + 1]).tobytes() in pair_sums


def test_run_is_deterministic(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    s1, t1 = run(problem, small_config(), h)
    s2, t2 = run(problem, small_config(), h)
    assert s1.powers == s2.powers
    assert np.array_equal(t1, t2)


def test_run_trace_monotone_under_elitism(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    solution, trace = run(problem, small_config(generations=120), h)
    assert trace.shape == (120,)
    assert np.all(np.diff(trace) <= 1e-12)
    assert solution.total_cost == pytest.approx(trace.min())
    assert solution.feasible


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.data())
def test_property_trace_never_rises(data):
    problem = data.draw(weighted_problems(max_units=4))
    individuals = data.draw(st.integers(2, 8))
    config = GaConfig(
        individuals=individuals,
        generations=data.draw(st.integers(1, 15)),
        elitism=data.draw(st.integers(1, individuals - 1)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    _, trace = run(problem, config, penalty_factors_all(problem))
    assert np.all(np.diff(trace) <= 0.0)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.data())
def test_property_batched_trials_equal_lone_runs(data):
    problem = data.draw(weighted_problems(max_units=4))
    individuals = data.draw(st.integers(2, 6))
    config = GaConfig(
        individuals=individuals,
        generations=data.draw(st.integers(0, 8)),
        elitism=data.draw(st.integers(0, individuals - 1)),
        seed=data.draw(st.integers(0, 2**32 - 8)),
    )
    trials = data.draw(st.integers(1, 4))
    h = penalty_factors_all(problem)
    batch = run_trials(problem, config, h, trials)
    assert len(batch) == trials
    for i, (solution, trace) in enumerate(batch):
        lone, lone_trace = run(problem, replace(config, seed=config.seed + i), h)
        assert solution.powers == lone.powers
        assert solution.total_cost == lone.total_cost
        assert trace.tobytes() == lone_trace.tobytes()


def test_zero_generations_return_best_of_initial_population(rng):
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    solution, trace = run(problem, small_config(generations=0), h)
    assert trace.shape == (0,)
    assert solution.feasible
    # a one-generation run evaluates the same seeded population and nothing else
    first, first_trace = run(problem, small_config(generations=1), h)
    assert solution.powers == first.powers
    assert solution.total_cost == pytest.approx(first_trace[0], rel=1e-12)


def test_every_reported_solution_is_feasible(rng):
    for _ in range(5):
        problem = random_problem(rng, int(rng.integers(2, 6)))
        h = penalty_factors_all(problem)
        solution, _ = run(problem, small_config(generations=30), h)
        assert check_limits(problem, solution.powers) == []
        assert abs(balance_residual(problem, solution.powers)) <= BALANCE_TOL


def test_single_unit_run_is_forced():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=220.0)
    h = penalty_factors_all(problem)
    solution, _ = run(problem, small_config(generations=5), h)
    assert solution.powers[0] == pytest.approx(220.0, abs=BALANCE_TOL)


def test_two_unit_run_matches_lambda_oracle():
    units = [
        make_unit(1, 20.0, 250.0, cost=(120.0, 4.0, 0.010)),
        make_unit(2, 30.0, 300.0, cost=(90.0, 6.5, 0.006)),
    ]
    problem = make_problem(units, demand=330.0, k2=0)
    solution, _ = run(problem, GaConfig(individuals=16, generations=400, seed=13))
    reference = lambda_solve(problem).solution(problem)
    assert solution.total_cost <= reference.total_cost * (1.0 + 5e-4)
