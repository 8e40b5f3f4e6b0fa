"""Penalty-factor ratios and the capacity-ranked selection rule."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ceed.model import ALL_GASES, Gas, PenaltyFactors
from ceed.penalty import penalty_factors_all, unit_ratios

from conftest import make_problem, make_unit, random_problem, weighted_problems


def ratio_unit(uid, p_max, h, p_min=10.0):
    """Unit engineered so cost(p_max)/nox(p_max) equals h exactly."""
    cost = (0.0, 0.0, 1.0)  # cost(p_max) = p_max^2
    nox = (0.0, 0.0, 1.0 / h)  # nox(p_max) = p_max^2 / h
    return make_unit(uid, p_min, p_max, cost=cost, nox=nox)


def nox_factor(units, demand):
    return penalty_factors_all(make_problem(units, demand))[Gas.NOX]


def ratio(unit, gas):
    """cost(p_max) / emission(p_max), in the model's order of operations."""

    def at_max(curve):
        a, b, c = curve
        return a + b * unit.p_max + c * unit.p_max * unit.p_max

    return at_max(unit.cost) / at_max(unit.emissions[gas])


def walk(problem, gas):
    """The per-gas sorted walk that penalty_factors_all replaced, kept as its reference."""
    ranked = sorted((ratio(u, gas), u.id, u.p_max) for u in problem.units)
    capacity = 0.0
    for h, _, p_max in ranked:
        capacity += p_max
        if capacity >= problem.demand:
            return h
    return ranked[-1][0]


def test_unit_ratio_is_cost_over_emission_at_pmax():
    unit = make_unit(1, 10.0, 100.0, cost=(0.0, 0.0, 1.0), nox=(0.0, 0.0, 0.5))
    problem = make_problem([unit], demand=50.0, gases=(Gas.COX, Gas.NOX))
    ratios = unit_ratios(problem)
    assert ratios.shape == (2, 1)
    assert ratios[1, 0] == pytest.approx(2.0, abs=1e-12)


def test_zero_emission_at_pmax_is_an_error():
    units = [make_unit(3, 10.0, 100.0), make_unit(4, 10.0, 100.0, sox=(0.0, 0.0, 0.0))]
    problem = make_problem(units, demand=50.0)
    with pytest.raises(ValueError, match="unit 4: sox"):
        unit_ratios(problem)
    with pytest.raises(ValueError, match="unit 4: sox"):
        penalty_factors_all(problem)


def test_selection_walks_sorted_ratios_until_capacity_covers_demand():
    units = [ratio_unit(1, 100.0, 1.0), ratio_unit(2, 100.0, 2.0)]
    assert nox_factor(units, 150.0) == pytest.approx(2.0)
    # demand exactly covered by the first unit selects the first ratio
    assert nox_factor(units, 100.0) == pytest.approx(1.0)
    assert nox_factor(units, 100.0001) == pytest.approx(2.0)


def test_selection_is_invariant_under_unit_order():
    units = [ratio_unit(1, 120.0, 3.0), ratio_unit(2, 80.0, 1.5), ratio_unit(3, 60.0, 2.2)]
    assert nox_factor(units, 150.0) == nox_factor([units[2], units[0], units[1]], 150.0)


def test_ties_break_by_unit_id():
    # equal ratios: the lower id is walked first, and demand lands on the tie
    units = [ratio_unit(2, 100.0, 1.0), ratio_unit(1, 50.0, 1.0), ratio_unit(3, 100.0, 3.0)]
    for demand in (50.0, 100.0, 150.0):
        assert nox_factor(units, demand) == nox_factor(units[::-1], demand) == 1.0
    assert nox_factor(units, 150.0001) == pytest.approx(3.0)


@st.composite
def tied_problems(draw):
    """Units whose ratios tie often, at a demand that may equal a capacity on a walk."""
    n = draw(st.integers(1, 8))
    units = []
    for uid in draw(st.permutations(range(1, n + 1))):
        curves = [
            (0.0, draw(st.sampled_from([0.0, 1.0, 3.5])), draw(st.sampled_from([0.5, 1.0, 2.0])))
            for _ in range(4)
        ]
        p_max = draw(st.sampled_from([20.0, 50.0, 100.0]))
        units.append(make_unit(uid, 1.0, p_max, *curves))
    lo, hi = sum(u.p_min for u in units), sum(u.p_max for u in units)
    if draw(st.booleans()):
        # every p_max is a whole number, so each capacity on a walk is exact
        gas = draw(st.sampled_from(ALL_GASES))
        ranked = sorted(units, key=lambda u: (ratio(u, gas), u.id))
        demand = sum(u.p_max for u in ranked[: draw(st.integers(1, n))])
    else:
        demand = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return make_problem(units, min(demand, hi))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(problem=st.one_of(tied_problems(), weighted_problems(max_units=8)))
@example(make_problem([ratio_unit(2, 100.0, 1.0), ratio_unit(1, 100.0, 1.0)], demand=100.0))
def test_property_factors_equal_the_sorted_walk(problem):
    factors = penalty_factors_all(problem)
    assert factors.demand == problem.demand
    assert list(factors.values) == list(problem.gases)
    for gas in problem.gases:
        assert factors[gas] == walk(problem, gas)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(
    problem=weighted_problems(max_units=8),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
)
def test_factor_never_decreases_with_demand(problem, fractions):
    lo = sum(u.p_min for u in problem.units)
    hi = sum(u.p_max for u in problem.units)
    demands = sorted(min(lo + f * (hi - lo), hi) for f in fractions)
    for gas in problem.gases:
        factors = [penalty_factors_all(make_problem(problem.units, d))[gas] for d in demands]
        assert factors == sorted(factors)


def test_factor_is_one_of_the_unit_ratios(rng):
    for _ in range(15):
        problem = random_problem(rng, int(rng.integers(2, 7)))
        factors = penalty_factors_all(problem)
        for gas, ratios in zip(problem.gases, unit_ratios(problem)):
            assert factors[gas] in ratios.tolist()


def test_penalty_factors_all_covers_every_gas(rng):
    problem = random_problem(rng, 4)
    factors = penalty_factors_all(problem)
    assert set(factors.values) == set(problem.gases)
    assert factors.demand == problem.demand
    for gas in problem.gases:
        assert factors[gas] == walk(problem, gas)


def test_penalty_factors_must_be_positive():
    # checked once, when built: finite and > 0
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="must be > 0"):
            PenaltyFactors({Gas.NOX: bad}, demand=100.0)


def test_penalty_factors_are_read_only_and_pickle(rng):
    source = {Gas.NOX: 1.5, Gas.SOX: np.float64(2.5)}
    factors = PenaltyFactors(source, demand=100.0)
    source[Gas.NOX] = -1.0  # the caller's mapping is copied, not kept
    assert factors[Gas.NOX] == 1.5 and type(factors[Gas.SOX]) is float
    with pytest.raises(TypeError):
        factors.values[Gas.NOX] = -1.0
    with pytest.raises(TypeError):
        del factors.values[Gas.NOX]
    with pytest.raises(AttributeError):
        factors.demand = 200.0
    built = penalty_factors_all(random_problem(rng, 5))
    for h in (factors, built):
        copy = pickle.loads(pickle.dumps(h))
        assert copy == h and dict(copy.values) == dict(h.values)
        with pytest.raises(TypeError):
            copy.values[Gas.NOX] = 1.0
