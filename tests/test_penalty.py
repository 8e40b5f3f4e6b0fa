"""Penalty-factor ratios and the capacity-ranked selection rule."""

import pytest
from hypothesis import given, settings, strategies as st

from ceed.model import Gas, GeneratorUnit
from ceed.penalty import PenaltyFactors, penalty_factor, penalty_factors_all, unit_ratios

from conftest import make_problem, make_unit, random_problem, weighted_problems


def ratio_unit(uid, p_max, h, p_min=10.0):
    """Unit engineered so cost(p_max)/nox(p_max) equals h exactly."""
    cost = (0.0, 0.0, 1.0)  # cost(p_max) = p_max^2
    nox = (0.0, 0.0, 1.0 / h)  # nox(p_max) = p_max^2 / h
    return make_unit(uid, p_min, p_max, cost=cost, nox=nox)


def test_unit_ratio_is_cost_over_emission_at_pmax():
    unit = make_unit(1, 10.0, 100.0, cost=(0.0, 0.0, 1.0), nox=(0.0, 0.0, 0.5))
    problem = make_problem([unit], demand=50.0)
    (r,) = unit_ratios(problem, Gas.NOX)
    assert r.h == pytest.approx(2.0, abs=1e-12)
    assert r.p_max == 100.0
    assert r.unit_id == 1


def test_zero_emission_at_pmax_is_an_error():
    unit = make_unit(4, 10.0, 100.0, nox=(0.0, 0.0, 0.0))
    problem = make_problem([unit], demand=50.0)
    with pytest.raises(ValueError, match="unit 4"):
        unit_ratios(problem, Gas.NOX)


def test_untracked_gas_is_an_error():
    problem = make_problem([make_unit(1, 10.0, 100.0)], demand=50.0, gases=(Gas.NOX,))
    with pytest.raises(ValueError, match="does not track sox"):
        unit_ratios(problem, Gas.SOX)


def test_selection_walks_sorted_ratios_until_capacity_covers_demand():
    units = [ratio_unit(1, 100.0, 1.0), ratio_unit(2, 100.0, 2.0)]
    assert penalty_factor(make_problem(units, 150.0), Gas.NOX) == pytest.approx(2.0)
    # demand exactly covered by the first unit selects the first ratio
    assert penalty_factor(make_problem(units, 100.0), Gas.NOX) == pytest.approx(1.0)
    assert penalty_factor(make_problem(units, 100.0001), Gas.NOX) == pytest.approx(2.0)


def test_selection_is_invariant_under_unit_order():
    units = [ratio_unit(1, 120.0, 3.0), ratio_unit(2, 80.0, 1.5), ratio_unit(3, 60.0, 2.2)]
    problem = make_problem(units, demand=150.0)
    shuffled = make_problem([units[2], units[0], units[1]], demand=150.0)
    assert penalty_factor(problem, Gas.NOX) == penalty_factor(shuffled, Gas.NOX)


def test_ties_break_by_unit_id():
    # equal ratios: the lower id is walked first, demand lands on it
    units = [ratio_unit(2, 100.0, 1.0), ratio_unit(1, 100.0, 1.0)]
    problem = make_problem(units, demand=100.0)
    ranked = sorted(unit_ratios(problem, Gas.NOX), key=lambda r: (r.h, r.unit_id))
    assert [r.unit_id for r in ranked] == [1, 2]


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
        factors = [penalty_factor(make_problem(problem.units, d), gas) for d in demands]
        assert factors == sorted(factors)


def test_factor_is_one_of_the_unit_ratios(rng):
    for _ in range(15):
        problem = random_problem(rng, int(rng.integers(2, 7)))
        for gas in problem.gases:
            h = penalty_factor(problem, gas)
            assert h in [r.h for r in unit_ratios(problem, gas)]


def test_penalty_factors_all_covers_every_gas(rng):
    problem = random_problem(rng, 4)
    factors = penalty_factors_all(problem)
    assert set(factors.values) == set(problem.gases)
    assert factors.demand == problem.demand
    for gas in problem.gases:
        assert factors[gas] == penalty_factor(problem, gas)


def test_penalty_factors_must_be_positive():
    with pytest.raises(ValueError, match="must be > 0"):
        PenaltyFactors({Gas.NOX: -1.0}, demand=100.0)
