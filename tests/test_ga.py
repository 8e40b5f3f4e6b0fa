"""Genetic algorithm: decode endpoints, operator statistics, convergence."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ceed.model import BALANCE_TOL, balance_residual, check_limits
from ceed.oracle import lambda_solve
from ceed.penalty import penalty_factors_all
from ceed import ga
from ceed.ga import GaConfig, breed, crossover, crossover_masks, decode, flip_positions, roulette_select, run, run_trials

from conftest import make_problem, make_unit, random_problem, weighted_problems


def small_config(**kw):
    defaults = dict(individuals=10, generations=80, seed=11)
    defaults.update(kw)
    return GaConfig(**defaults)


def test_config_rejects_narrow_genes_and_a_lone_individual():
    with pytest.raises(ValueError):
        GaConfig(bits_per_gene=3)
    # decode is exact up to a double's 53-bit significand; wider genes fail when built, not when run
    assert GaConfig(bits_per_gene=53).bits_per_gene == 53
    for width in (54, 1100):
        with pytest.raises(ValueError, match=rf"bits_per_gene must be in \[4, 53\].*got {width}"):
            GaConfig(bits_per_gene=width)
    # a lone individual would be all elite: the one elite needs a child beside it
    with pytest.raises(ValueError, match="individuals"):
        GaConfig(individuals=1)
    assert GaConfig(individuals=2).individuals == 2


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


def test_roulette_odds_follow_worst_minus_objective():
    # odds worst - obj, those of fitness rescaled onto [0, 1]: 60 : 80 : 0
    rng = np.random.default_rng(4)
    picks = roulette_select(np.array([[120.0, 100.0, 180.0]]), rng.random((1, 10_000)))[0]
    shares = np.bincount(picks, minlength=3) / 10_000
    assert shares[2] == 0.0  # the worst individual has no fitness
    assert shares[:2] == pytest.approx([60 / 140, 80 / 140], abs=0.02)


def test_roulette_single_and_zero_fitness():
    rng = np.random.default_rng(0)
    assert np.array_equal(roulette_select(np.array([[0.3]]), rng.random((1, 5))), np.zeros((1, 5)))
    # all-equal objectives leave no fitness to share: every index stays reachable
    picks = set(roulette_select(np.full((1, 4), 7.0), rng.random((1, 200)))[0].tolist())
    assert picks == {0, 1, 2, 3}


def test_roulette_frequency_matches_fitness_share():
    rng = np.random.default_rng(5)
    objectives = np.array([[0.0, 2.0, 3.0]])  # fitness 3 : 1 : 0
    hits = int((roulette_select(objectives, rng.random((1, 10_000))) == 0).sum())
    assert hits / 10_000 == pytest.approx(0.75, abs=0.02)


def test_roulette_rows_are_separate_trials():
    rng = np.random.default_rng(6)
    objectives = np.array([[1.0, 5.0, 5.0], [5.0, 5.0, 1.0], [2.0, 2.0, 2.0]])
    spins = rng.random((3, 50))
    picks = roulette_select(objectives, spins)
    assert set(picks[0].tolist()) == {0} and set(picks[1].tolist()) == {2}
    for row in range(3):
        assert np.array_equal(picks[row], roulette_select(objectives[row : row + 1], spins[row : row + 1])[0])


def pairs_of(a, b):
    """(1, 2 * pairs, bits) parents with pair k formed by row k of a and of b."""
    return np.stack([a, b], axis=1).reshape(1, 2 * len(a), a.shape[1])


def test_crossover_suffix_swap_and_bit_conservation():
    rng = np.random.default_rng(9)
    a = np.zeros((1, 4), dtype=np.uint8)
    b = np.ones((1, 4), dtype=np.uint8)
    ca, cb = crossover(pairs_of(a, b), crossover_masks(rng.random((1, 1)), rng.random((1, 1)), 4, 1.0))[0]
    assert ca.sum() + cb.sum() == 4  # bits conserved across the pair
    assert not np.array_equal(ca, a[0])  # p_c = 1 always crosses
    # one suffix swap: child a keeps a prefix of a and takes the suffix of b
    assert np.array_equal(ca, np.sort(ca)) and np.array_equal(cb, 1 - ca)
    # the cut 1 + floor(u * (bits - 1)) runs over 1 ... bits - 1 and no further
    zeros, ones = np.zeros((2, 4), dtype=np.uint8), np.ones((2, 4), dtype=np.uint8)
    cuts = np.array([[0.0, np.nextafter(1.0, 0.0)]])
    edges = crossover(pairs_of(zeros, ones), crossover_masks(np.zeros((1, 2)), cuts, 4, 1.0))[0]
    assert edges[0].tolist() == [0, 1, 1, 1] and edges[2].tolist() == [0, 0, 0, 1]
    pa = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    pb = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    children = crossover(pairs_of(pa, pb), crossover_masks(rng.random((1, 50)), rng.random((1, 50)), 32, 1.0))[0]
    assert np.array_equal(children[0::2] + children[1::2], pa + pb)  # per-position multiset of every pair


def test_crossover_disabled_copies_parents():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    b = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    children = crossover(pairs_of(a, b), crossover_masks(rng.random((1, 4)), rng.random((1, 4)), 16, 0.0))[0]
    assert np.array_equal(children[0::2], a) and np.array_equal(children[1::2], b)


def test_mutation_extremes_and_rate():
    rng = np.random.default_rng(21)
    assert flip_positions(rng, 256, 0.0).size == 0
    assert np.array_equal(flip_positions(rng, 256, 1.0), np.arange(256))
    flips = flip_positions(rng, 10_000, 0.033)
    assert np.all(np.diff(flips) > 0) and 0 <= flips[0] and flips[-1] < 10_000
    assert 300 <= flips.size <= 360  # binomial(10000, 0.033) well within 3 sigma


def test_mutation_first_and_last_bit_flip_at_the_rate():
    # a geometric off-by-one would skip bit 0 or let a flip land one past the end
    rng = np.random.default_rng(22)
    span, draws, pm = 16, 10_000, 0.033
    first = last = 0
    for _ in range(draws):
        flips = flip_positions(rng, span, pm)
        assert flips.size == 0 or (flips[0] >= 0 and flips[-1] < span)
        first += flips.size > 0 and flips[0] == 0
        last += flips.size > 0 and flips[-1] == span - 1
    sigma = np.sqrt(draws * pm * (1 - pm))
    assert abs(first - draws * pm) <= 3 * sigma
    assert abs(last - draws * pm) <= 3 * sigma


@pytest.mark.parametrize("p", [1e-20, 5e-324])
def test_mutation_at_a_tiny_rate_stays_in_the_span(p):
    # a gap of ~1e20 bits would wrap in the integer cast, and p = 5e-324 would
    # overflow the division; both warn, and pytest turns warnings into errors
    rng = np.random.default_rng(24)
    for _ in range(100):
        flips = flip_positions(rng, 1000, p)
        assert np.all((0 <= flips) & (flips < 1000))


def one_generation(population, objectives, rng):
    """breed one trial through the run's own draws."""
    return breed(population[None], objectives[None], *next(ga._draws([rng], 1, *population.shape)))[0]


def generation_inputs(individuals, seed, length=24):
    rng = np.random.default_rng(seed)
    population = rng.integers(0, 2, (individuals, length), dtype=np.uint8)
    return population, rng.permutation(individuals).astype(float), rng


@pytest.mark.parametrize("individuals", [2, 7, 8, 9, 10])
def test_breed_shape_dtype_and_elite(individuals):
    population, objectives, rng = generation_inputs(individuals, individuals)
    nxt = one_generation(population, objectives, rng)
    assert nxt.shape == population.shape and nxt.dtype == np.uint8
    assert np.array_equal(nxt[0], population[np.argmin(objectives)])  # the elite survives bitwise


@pytest.mark.parametrize("individuals", [10, 11, 12])
def test_breed_conserves_bits_per_pair(individuals, monkeypatch):
    # with p_c = 1 and p_m = 0 every child pair holds the bits of two parents
    monkeypatch.setattr(ga, "P_CROSSOVER", 1.0)
    monkeypatch.setattr(ga, "P_MUTATION", 0.0)
    population, objectives, rng = generation_inputs(individuals, 40 + individuals)
    nxt = one_generation(population, objectives, rng)
    children = nxt[1:]
    pair_sums = {(a + b).tobytes() for a in population for b in population}
    for k in range(0, len(children) - 1, 2):
        assert (children[k] + children[k + 1]).tobytes() in pair_sums


def test_breed_flips_every_child_bit_at_rate_one(monkeypatch):
    # with p_c = 0 and p_m = 1 each child is the complement of a parent
    monkeypatch.setattr(ga, "P_CROSSOVER", 0.0)
    monkeypatch.setattr(ga, "P_MUTATION", 1.0)
    population, objectives, rng = generation_inputs(9, 60)
    nxt = one_generation(population, objectives, rng)
    assert np.array_equal(nxt[0], population[np.argmin(objectives)])
    complements = {(1 - row).tobytes() for row in population}
    assert all(child.tobytes() in complements for child in nxt[1:])


def test_breed_keeps_trials_apart():
    # trial 1 bred beside trial 0 is bitwise trial 1 bred alone
    rng = np.random.default_rng(31)
    populations = rng.integers(0, 2, (2, 9, 40), dtype=np.uint8)
    objectives = rng.random((2, 9))
    batch = ga._draws([np.random.default_rng(1), np.random.default_rng(2)], 3, 9, 40)
    alone = ga._draws([np.random.default_rng(2)], 3, 9, 40)
    for draws, lone_draws in zip(batch, alone):
        for drawn, lone_drawn in zip(draws, lone_draws):
            assert np.array_equal(drawn[1:], lone_drawn)
        together = breed(populations, objectives, *draws)
        assert np.array_equal(together[1:], breed(populations[1:], objectives[1:], *lone_draws))


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
    assert solution.total_cost == pytest.approx(trace[-1])
    assert solution.feasible


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.data())
def test_property_trace_never_rises(data):
    problem = data.draw(weighted_problems(max_units=4))
    config = GaConfig(
        individuals=data.draw(st.integers(2, 8)),
        generations=data.draw(st.integers(1, 15)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    solution, trace = run(problem, config, penalty_factors_all(problem))
    assert np.all(np.diff(trace) <= 0.0)
    # the answer is the last generation's leader, which holds the best row seen
    assert solution.total_cost == pytest.approx(trace[-1], rel=1e-12)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    problem=weighted_problems(max_units=4),
    trials=st.integers(1, 4),
    individuals=st.integers(2, 6),
    generations=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 8),
)
# 128 children of 64 bits fill half a draw block: 5 breedings cross two block boundaries
@example(
    problem=random_problem(np.random.default_rng(3), 4),
    trials=3,
    individuals=129,
    generations=6,
    seed=2**32 - 9,
)
# 2 individuals of 64 bits: a block of 256 generations, then one of 3
@example(
    problem=random_problem(np.random.default_rng(3), 4),
    trials=3,
    individuals=2,
    generations=260,
    seed=17,
)
def test_property_batched_trials_equal_lone_runs(problem, trials, individuals, generations, seed):
    config = GaConfig(individuals=individuals, generations=generations, seed=seed)
    # every generation's crossover masks are those of its own coins and cuts
    length, pairs = problem.n_units * config.bits_per_gene, individuals // 2
    rngs = [np.random.default_rng(seed + i) for i in range(trials)]
    for uniforms, masks, _ in ga._draws(rngs, max(generations - 1, 0), individuals, length):
        coins, cuts = uniforms[:, 2 * pairs : 3 * pairs], uniforms[:, 3 * pairs :]
        assert np.array_equal(masks, crossover_masks(coins, cuts, length, ga.P_CROSSOVER))
    h = penalty_factors_all(problem)
    batch = run_trials(problem, config, h, trials)
    assert len(batch) == trials
    for i, (solution, trace) in enumerate(batch):
        lone, lone_trace = run(problem, replace(config, seed=seed + i), h)
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
