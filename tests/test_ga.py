"""Genetic algorithm: decode endpoints, operator statistics, convergence."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ceed.harness import run_trials
from ceed.model import BALANCE_TOL, balance_residual, check_limits
from ceed.penalty import penalty_factors_all
from ceed import ga
from ceed.ga import GaConfig, breed, crossover, crossover_masks, decode, flip_positions, roulette_select

from conftest import make_problem, make_unit, random_problem, run_one, weighted_problems


def small_config(**kw):
    defaults = dict(individuals=10, generations=80, seed=11)
    defaults.update(kw)
    return GaConfig(**defaults)


def test_config_rejects_narrow_genes_and_a_lone_individual():
    # the gene width is a constant of the encoding, not a setting
    assert GaConfig.bits_per_gene == 16 and GaConfig().bits_per_gene == 16
    with pytest.raises(TypeError):
        GaConfig(bits_per_gene=8)
    with pytest.raises(TypeError):
        replace(GaConfig(), bits_per_gene=8)
    # a lone individual would be all elite: the one elite needs a child beside it
    with pytest.raises(ValueError, match="individuals"):
        GaConfig(individuals=1)
    assert GaConfig(individuals=2).individuals == 2


def test_decode_endpoints():
    problem = make_problem([make_unit(1, 50.0, 300.0), make_unit(2, 80.0, 200.0)], demand=400.0)
    powers = decode(np.array([[0] * 32, [1] * 32], dtype=np.uint8), problem, GaConfig())
    assert powers.shape == (2, 2)
    assert powers[0] == pytest.approx([50.0, 80.0])
    assert powers[1] == pytest.approx([300.0, 200.0])


def test_decode_interior_code_on_known_grid():
    # on [0, 65535] each of the 2^16 - 1 steps is 1 MW: code 1 -> exactly 1.0, code 0x8001 -> 32769.0
    problem = make_problem([make_unit(1, 0.0, 65535.0)], demand=150.0)
    codes = np.array([[0] * 15 + [1], [1] + [0] * 14 + [1]], dtype=np.uint8)
    assert decode(codes, problem, GaConfig()).tolist() == [[1.0], [32769.0]]


def _formula(bits, problem, width):
    """p_min + u * (p_max - p_min) / (2^w - 1) per gene, u read from the bits in Python."""
    scale = 2.0**width - 1.0
    return [
        [
            unit.p_min + int("".join(map(str, row[i * width : (i + 1) * width])), 2) * (unit.p_max - unit.p_min) / scale
            for i, unit in enumerate(problem.units)
        ]
        for row in bits.tolist()
    ]


def test_decode_matches_the_formula_across_problems_and_widths(rng):
    # alternating problems, the bench's 500 x 96 and 100 x 640 batches and
    # three layouts of each must all give the formula bitwise
    width, config = GaConfig.bits_per_gene, GaConfig()
    shapes = [(4, 3 * width), (4, 5 * width), (4, 3 * width), (500, 96), (100, 640)]
    problems = {}
    for rows, length in shapes:
        units = length // width
        problem = problems.setdefault(units, random_problem(rng, units))
        bits = rng.integers(0, 2, size=(rows, length), dtype=np.uint8)
        expected = np.array(_formula(bits, problem, width))
        twice = np.ones((2 * rows, length), dtype=np.uint8)
        twice[::2] = bits
        for layout, batch in (("C", bits), ("row-strided", twice[::2]), ("Fortran", np.asfortranarray(bits))):
            got = decode(batch, problem, config)
            assert got.tobytes() == expected.tobytes(), (rows, length, layout)


@pytest.mark.parametrize("dtype", (np.float64, np.float32, np.complex128, object))
def test_decode_refuses_bits_that_are_not_bool_or_integer(dtype):
    # a float 0/1 array would otherwise fail inside np.packbits
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=100.0)
    bits = np.zeros((2, GaConfig.bits_per_gene), dtype=dtype)
    with pytest.raises(ValueError, match=rf"dtype {np.dtype(dtype)} are not bool or integer"):
        decode(bits, problem, GaConfig())


def test_decode_takes_bool_and_any_integer_type():
    problem = make_problem([make_unit(1, 0.0, 300.0)], demand=100.0)
    ones = np.ones((1, GaConfig.bits_per_gene), dtype=np.uint8)
    expected = decode(ones, problem, GaConfig())
    for dtype in (bool, np.int8, np.int64, np.uint32):
        assert decode(ones.astype(dtype), problem, GaConfig()).tobytes() == expected.tobytes()


def test_decode_rejects_length_mismatch():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=100.0)
    for bits in (np.zeros((1, 15), dtype=np.uint8), np.zeros(16, dtype=np.uint8)):
        with pytest.raises(ValueError, match="rows of 1 units x 16 bits"):
            decode(bits, problem, GaConfig())


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
    # the last coin below P_CROSSOVER crosses
    below = np.full((1, 1), np.nextafter(ga.P_CROSSOVER, 0.0))
    ca, cb = crossover(pairs_of(a, b), crossover_masks(below, rng.random((1, 1)), 4))[0]
    assert ca.sum() + cb.sum() == 4  # bits conserved across the pair
    assert not np.array_equal(ca, a[0])  # a coin below P_CROSSOVER always crosses
    # one suffix swap: child a keeps a prefix of a and takes the suffix of b
    assert np.array_equal(ca, np.sort(ca)) and np.array_equal(cb, 1 - ca)
    # the cut 1 + floor(u * (bits - 1)) runs over 1 ... bits - 1 and no further
    zeros, ones = np.zeros((2, 4), dtype=np.uint8), np.ones((2, 4), dtype=np.uint8)
    cuts = np.array([[0.0, np.nextafter(1.0, 0.0)]])
    edges = crossover(pairs_of(zeros, ones), crossover_masks(np.zeros((1, 2)), cuts, 4))[0]
    assert edges[0].tolist() == [0, 1, 1, 1] and edges[2].tolist() == [0, 0, 0, 1]
    pa = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    pb = rng.integers(0, 2, (50, 32), dtype=np.uint8)
    crossing = ga.P_CROSSOVER * rng.random((1, 50))  # uniform below P_CROSSOVER: every pair crosses
    children = crossover(pairs_of(pa, pb), crossover_masks(crossing, rng.random((1, 50)), 32))[0]
    assert np.array_equal(children[0::2] + children[1::2], pa + pb)  # per-position multiset of every pair


def test_crossover_disabled_copies_parents():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    b = rng.integers(0, 2, (4, 16), dtype=np.uint8)
    # coins from P_CROSSOVER itself up to 1: no pair crosses
    staying = np.array([[ga.P_CROSSOVER, 0.97, 0.99, np.nextafter(1.0, 0.0)]])
    children = crossover(pairs_of(a, b), crossover_masks(staying, rng.random((1, 4)), 16))[0]
    assert np.array_equal(children[0::2], a) and np.array_equal(children[1::2], b)


def test_mutation_extremes_and_rate():
    rng = np.random.default_rng(21)
    flips = next(flip_positions(rng, [10_000]))
    assert np.all(np.diff(flips) > 0) and 0 <= flips[0] and flips[-1] < 10_000
    assert 300 <= flips.size <= 360  # binomial(10000, 0.033) well within 3 sigma


def test_mutation_first_and_last_bit_flip_at_the_rate():
    # a geometric off-by-one would skip bit 0 or let a flip land one past the end
    rng = np.random.default_rng(22)
    span, draws, pm = 16, 10_000, ga.P_MUTATION
    first = last = 0
    for _ in range(draws):
        flips = next(flip_positions(rng, [span]))
        assert flips.size == 0 or (flips[0] >= 0 and flips[-1] < span)
        first += flips.size > 0 and flips[0] == 0
        last += flips.size > 0 and flips[-1] == span - 1
    sigma = np.sqrt(draws * pm * (1 - pm))
    assert abs(first - draws * pm) <= 3 * sigma
    assert abs(last - draws * pm) <= 3 * sigma


@settings(deadline=None, derandomize=True, max_examples=60)
@given(cuts=st.lists(st.integers(0, 3000), max_size=6), seed=st.integers(0, 2**32 - 1))
def test_property_split_spans_flip_the_bits_of_one_span(cuts, seed):
    # one flip stream over 3000 bits, drawn as one span or as consecutive ones
    bounds = [0, *sorted(cuts), 3000]
    whole = next(flip_positions(np.random.default_rng(seed), [3000]))
    parts = flip_positions(np.random.default_rng(seed), np.diff(bounds).tolist())
    joined = np.concatenate([start + part for start, part in zip(bounds, parts)])
    assert joined.tobytes() == whole.tobytes()


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


def hand_built_generation(population, objectives, rng, coin, flip):
    """breed one trial with every pair's coin set to `coin` and every child bit's flip to `flip`."""
    individuals, length = population.shape
    pairs = individuals // 2
    uniforms = rng.random((1, 4 * pairs))
    uniforms[:, 2 * pairs : 3 * pairs] = coin
    masks = crossover_masks(uniforms[:, 2 * pairs : 3 * pairs], uniforms[:, 3 * pairs :], length)
    flips = np.full((1, individuals - 1, length), flip, dtype=np.uint8)
    return breed(population[None], objectives[None], uniforms, masks, flips)[0]


@pytest.mark.parametrize("individuals", [10, 11, 12])
def test_breed_conserves_bits_per_pair(individuals):
    # when every pair crosses and no bit flips, every child pair holds the bits of two parents
    population, objectives, rng = generation_inputs(individuals, 40 + individuals)
    nxt = hand_built_generation(population, objectives, rng, coin=0.0, flip=0)
    children = nxt[1:]
    pair_sums = {(a + b).tobytes() for a in population for b in population}
    for k in range(0, len(children) - 1, 2):
        assert (children[k] + children[k + 1]).tobytes() in pair_sums


def test_breed_flips_every_child_bit_at_rate_one():
    # when no pair crosses and every child bit flips, each child is the complement of a parent
    population, objectives, rng = generation_inputs(9, 60)
    nxt = hand_built_generation(population, objectives, rng, coin=0.99, flip=1)
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


@pytest.mark.parametrize("trials", [1, 3])
def test_run_trials_do_not_depend_on_the_draw_block(monkeypatch, rng, trials):
    # one generation to a block, then the whole run in one block
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    config = small_config(generations=40)
    masks, blocks = ga.crossover_masks, []

    def counted(*args, **kwargs):
        blocks.append(None)
        return masks(*args, **kwargs)

    def digest():
        blocks.clear()
        return [(solution.powers, trace.tobytes()) for solution, trace in run_trials(problem, config, h, trials)]

    monkeypatch.setattr(ga, "crossover_masks", counted)
    monkeypatch.setattr(ga, "DRAW_BLOCK", 1)
    one = digest()
    assert len(blocks) == config.generations - 1
    monkeypatch.setattr(ga, "DRAW_BLOCK", 1 << 40)
    monkeypatch.setattr(ga, "DRAW_BATCH", 1 << 40)
    assert digest() == one
    assert len(blocks) == 1


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.data())
def test_property_trace_never_rises(data):
    problem = data.draw(weighted_problems(max_units=4))
    config = GaConfig(
        individuals=data.draw(st.integers(2, 8)),
        generations=data.draw(st.integers(1, 15)),
        seed=data.draw(st.integers(0, 2**32 - 1)),
    )
    solution, trace = run_one(problem, config, penalty_factors_all(problem))
    assert np.all(np.diff(trace) <= 0.0)
    # the answer is the last generation's leader, which holds the best row seen
    assert solution.total_cost == trace[-1]


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    problem=weighted_problems(max_units=4),
    trials=st.integers(1, 4),
    individuals=st.integers(2, 6),
    generations=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 8),
)
# 2048 children of 64 bits fill half of DRAW_BLOCK: 5 breedings cross two block boundaries
@example(
    problem=random_problem(np.random.default_rng(3), 4),
    trials=3,
    individuals=2049,
    generations=6,
    seed=2**32 - 9,
)
# ten trials meet DRAW_BATCH: the batch draws one generation to a block where a
# lone run, held to DRAW_BLOCK, draws two
@example(
    problem=random_problem(np.random.default_rng(3), 4),
    trials=10,
    individuals=2049,
    generations=4,
    seed=2**32 - 11,
)
# 2 individuals of 64 bits: all 259 breedings in one block
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
        assert np.array_equal(masks, crossover_masks(coins, cuts, length))
    h = penalty_factors_all(problem)
    batch = run_trials(problem, config, h, trials)
    assert len(batch) == trials
    for i, (solution, trace) in enumerate(batch):
        lone, lone_trace = run_one(problem, replace(config, seed=seed + i), h)
        assert solution.powers == lone.powers
        assert solution.total_cost == lone.total_cost
        assert trace.tobytes() == lone_trace.tobytes()


def test_every_reported_solution_is_feasible(rng):
    for _ in range(5):
        problem = random_problem(rng, int(rng.integers(2, 6)))
        h = penalty_factors_all(problem)
        solution, _ = run_one(problem, small_config(generations=30), h)
        assert check_limits(problem, solution.powers) == []
        assert abs(balance_residual(problem, solution.powers)) <= BALANCE_TOL
