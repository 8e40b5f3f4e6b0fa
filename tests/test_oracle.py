"""Equal-incremental-cost iteration and brute-force grid search.

The two oracles are implemented independently, so their mutual agreement on
random instances is the main correctness evidence for both.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import ceed.model
from ceed.model import (
    BALANCE_TOL,
    DispatchError,
    Gas,
    LossMatrix,
    combined_objective_batch,
    evaluate_dispatch,
    transmission_loss,
)
from ceed.oracle import _close_balance, _effective_coeffs, grid_search, kkt_residual, lambda_solve
from ceed.penalty import PenaltyFactors, penalty_factors_all
from ceed.problem_file import load_problem
from ceed.harness import run_trials
from ceed.pso import PsoConfig

from conftest import make_problem, make_unit, random_problem, weighted_problems


def cost_only_unit(uid, p_min, p_max, b, c):
    return make_unit(uid, p_min, p_max, cost=(0.0, b, c))


def test_single_unit_is_forced_to_demand():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=120.0, k2=0)
    res = lambda_solve(problem)
    assert res.powers[0] == pytest.approx(120.0, abs=BALANCE_TOL)
    assert abs(res.residual) <= BALANCE_TOL
    assert res.solution(problem).feasible  # the oracle stops at the package's own tolerance


def test_two_unit_closed_form_interior():
    # marginal costs p1 and 2 p2 equalize at lambda = 200
    units = [cost_only_unit(1, 0.5, 400.0, 0.0, 0.5), cost_only_unit(2, 0.5, 400.0, 0.0, 1.0)]
    problem = make_problem(units, demand=300.0, k2=0)
    res = lambda_solve(problem)
    assert res.powers[0] == pytest.approx(200.0, abs=1e-4)
    assert res.powers[1] == pytest.approx(100.0, abs=1e-4)
    assert res.lambda_ == pytest.approx(200.0, abs=1e-3)


def test_two_unit_closed_form_clamped():
    units = [cost_only_unit(1, 0.5, 150.0, 0.0, 0.5), cost_only_unit(2, 0.5, 400.0, 0.0, 1.0)]
    problem = make_problem(units, demand=300.0, k2=0)
    res = lambda_solve(problem)
    assert res.powers[0] == pytest.approx(150.0, abs=1e-4)
    assert res.powers[1] == pytest.approx(150.0, abs=1e-4)
    assert res.lambda_ == pytest.approx(300.0, abs=1e-3)


def test_lambda_solve_rejects_nonconvex_units():
    units = [make_unit(1, 10.0, 100.0, cost=(0.0, 1.0, 0.0))]
    problem = make_problem(units, demand=50.0, k2=0)
    with pytest.raises(ValueError, match="quadratic"):
        lambda_solve(problem)


def test_lambda_solve_raises_when_the_bisection_cannot_close():
    # near-linear units 1 and 2 make output so steep in lambda that one ulp of
    # it moves p by more than BALANCE_TOL, so the steps run out short of demand
    units = [cost_only_unit(1, 10.0, 500.0, 20.0, 1e-13), cost_only_unit(2, 10.0, 500.0, 20.0, 1e-13),
             cost_only_unit(3, 10.0, 500.0, 25.0, 0.01)]
    with pytest.raises(DispatchError, match=r"did not close the balance: residual -0\.00773 MW"):
        lambda_solve(make_problem(units, demand=700.3, k2=0))


def test_lambda_solve_rejects_lossy_problems():
    problem = make_problem(
        [make_unit(1, 10.0, 200.0)], demand=99.0, losses=LossMatrix([[1e-4]]), k2=0
    )
    with pytest.raises(ValueError, match="lossless"):
        lambda_solve(problem)


def test_kkt_interior_units_share_incremental_cost(rng):
    for _ in range(20):
        problem = random_problem(rng, int(rng.integers(2, 6)))
        h = penalty_factors_all(problem)
        res = lambda_solve(problem, h)
        _, c_eff = _effective_coeffs(problem, h)
        slack = 2.0 * BALANCE_TOL * float(np.max(c_eff))
        assert 0.0 <= kkt_residual(problem, h, res.powers) <= 2.0 * max(slack, 1e-6)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(problem=weighted_problems(max_units=6))
def test_property_lambda_solve_at_full_capacity_runs_every_unit_at_p_max(problem):
    # the largest demand a problem admits: lambda's upper bracket pins every unit at p_max,
    # so the bisection closes the balance there and no capacity check is needed before it
    full = replace(problem, demand=sum(u.p_max for u in problem.units))
    res = lambda_solve(full, penalty_factors_all(full))
    assert abs(res.residual) <= BALANCE_TOL
    np.testing.assert_allclose(res.powers, full.p_max_arr, rtol=0, atol=2 * BALANCE_TOL)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(problem=weighted_problems(max_units=6))
def test_property_kkt_residual_vanishes_at_the_lambda_dispatch(problem):
    # the free units' powers are (lambda - b) / 2c, so their incremental
    # costs agree with lambda to rounding
    h = penalty_factors_all(problem)
    assert kkt_residual(problem, h, lambda_solve(problem, h).powers) <= 1e-9


def test_kkt_residual_is_positive_after_moving_power_between_free_units(rng):
    # moving 1 MW from free unit i to free unit j spreads their incremental
    # costs by 2 (c_i + c_j) $/MWh
    moved = 0
    for _ in range(20):
        problem = random_problem(rng, int(rng.integers(2, 6)))
        h = penalty_factors_all(problem)
        p = np.array(lambda_solve(problem, h).powers)
        roomy = np.flatnonzero((p > problem.p_min_arr + 1.0) & (p < problem.p_max_arr - 1.0))
        if len(roomy) < 2:
            continue
        i, j = roomy[:2]
        p[i] -= 1.0
        p[j] += 1.0
        _, c_eff = _effective_coeffs(problem, h)
        assert kkt_residual(problem, h, p) >= 2.0 * (c_eff[i] + c_eff[j]) - 1e-6
        moved += 1
    assert moved > 5


def test_kkt_residual_of_pinned_units():
    # cost-only units with incremental costs 1 + p and 2 + 2 p
    units = [cost_only_unit(1, 10.0, 100.0, 1.0, 0.5), cost_only_unit(2, 10.0, 100.0, 2.0, 1.0)]
    problem = make_problem(units, demand=110.0, k2=0)
    # unit 1 at p_max costs 101 and unit 2 at p_min 22: each MW moved to unit 2 saves 79
    assert kkt_residual(problem, None, [100.0, 10.0]) == 79.0
    # unit 1 at p_min costs 11 and unit 2 at p_max 202
    assert kkt_residual(problem, None, [10.0, 100.0]) == 191.0
    # with unit 2 at 200 + 2 p, any lambda in [101, 220] fits the first dispatch
    units[1] = cost_only_unit(2, 10.0, 100.0, 200.0, 1.0)
    assert kkt_residual(make_problem(units, demand=110.0, k2=0), None, [100.0, 10.0]) == 0.0
    with pytest.raises(ValueError, match="lossless"):
        kkt_residual(replace(problem, losses=LossMatrix([[1e-4, 0.0], [0.0, 1e-4]])), None, [55.0, 55.0])


@pytest.mark.parametrize(
    "powers", (500.0, [500.0], [[250.0] * 6] * 2, [250.0] * 5), ids=("scalar", "one-value", "2x6-batch", "five-values")
)
def test_kkt_residual_refuses_a_malformed_power_vector(six_unit_path, powers):
    # the first three used to return a residual: 178.6, 178.6 and 91.3 for the batch
    problem = load_problem(six_unit_path, 1500.0)
    with pytest.raises(ValueError, match="expected 6 power values"):
        kkt_residual(problem, penalty_factors_all(problem), powers)


def test_grid_search_two_unit_closed_form():
    units = [cost_only_unit(1, 0.5, 400.0, 0.0, 0.5), cost_only_unit(2, 0.5, 400.0, 0.0, 1.0)]
    problem = make_problem(units, demand=300.0, k2=0)
    sol = grid_search(problem, resolution=1.0)
    assert sol.powers[0] == pytest.approx(200.0, abs=1.0)
    assert sol.powers[1] == pytest.approx(100.0, abs=1.0)
    assert abs(sol.balance_residual) <= 1e-9


def test_oracles_do_not_use_the_solvers_objective(rng, monkeypatch):
    # only the final scoring of the oracles' answer shares the solvers' fold;
    # a skewed fold moves that score and nothing the oracles search with
    problem = random_problem(rng, 3)
    h = penalty_factors_all(problem)
    fold = ceed.model._fold

    def skewed_fold(problem, h, rows):
        sum_a, b, c = fold(problem, h, rows)
        return sum_a + 1.0, 2.0 * b, c

    grid, lam = grid_search(problem, h), lambda_solve(problem, h)
    lam_tc = lam.solution(problem, h).total_cost
    monkeypatch.setattr(ceed.model, "_fold", skewed_fold)
    skewed_grid, skewed_lam = grid_search(problem, h), lambda_solve(problem, h)
    assert skewed_grid.powers == grid.powers
    assert (skewed_lam.lambda_, skewed_lam.powers) == (lam.lambda_, lam.powers)
    assert skewed_grid.total_cost != grid.total_cost
    assert skewed_lam.solution(problem, h).total_cost != lam_tc


def test_grid_search_refuses_large_problems(rng):
    problem = random_problem(rng, 4)
    with pytest.raises(ValueError, match="at most 3"):
        grid_search(problem)
    # nan would fail inside np.arange, and inf would search only each leading unit's limits
    for resolution in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="resolution must be > 0"):
            grid_search(random_problem(rng, 2), resolution=resolution)


def test_lossy_grid_search_matches_best_of_five_pso_trials(rng):
    # the last unit closes p'Bp by a quadratic; B is PSD and loses about 1-3% of demand
    for n in (2, 2, 3):
        base = random_problem(rng, n)
        m = rng.normal(size=(n, n))
        problem = make_problem(base.units, base.demand, losses=LossMatrix(1e-4 * (m @ m.T) / n))
        h = penalty_factors_all(problem)
        grid = grid_search(problem, h, resolution=0.5)
        assert grid.feasible
        assert transmission_loss(problem, grid.powers) > 0.0
        best = min(sol.total_cost for sol, _ in run_trials(problem, PsoConfig(seed=1), h, 5))
        assert grid.total_cost == pytest.approx(best, rel=1e-3)


def test_close_balance_branches_on_hand_made_rows():
    # two units at 300 MW: the last unit's power x solves ca x^2 + cb x + cc = 0
    # with ca = B11, cb = 2 B01 l - 1, cc = 300 + B00 l^2 - l for a first unit at l
    def closing(b, leading):
        problem = make_problem(
            [make_unit(1, 0.0, 1000.0), make_unit(2, 0.0, 1000.0)], demand=300.0, losses=LossMatrix(b)
        )
        return _close_balance(problem, np.array(leading)[:, None])

    # |B11| < 1e-15: linear, x = -cc / cb = 210 / 0.9
    assert closing([[1e-3, 5e-4], [5e-4, 0.0]], [100.0]) == pytest.approx([210.0 / 0.9], rel=1e-12)
    got = closing([[0.0, 1e-3], [1e-3, 1e-3]], [0.0, 250.0, 400.0])
    # l = 0: discriminant 1 - 1.2 < 0
    assert np.isnan(got[0])
    # l = 250: roots (0.5 -+ sqrt(0.05)) / 0.002, both nonnegative; the smaller one
    assert got[1] == pytest.approx((0.5 - np.sqrt(0.05)) / 0.002, rel=1e-12)
    # l = 400: roots (0.2 -+ sqrt(0.44)) / 0.002, only the larger one nonnegative
    assert got[2] == pytest.approx((0.2 + np.sqrt(0.44)) / 0.002, rel=1e-12)
    # l = 600 with cb = 1.4 and cc = 60: both roots negative
    assert np.isnan(closing([[1e-3, 2e-3], [2e-3, 1e-6]], [600.0])).all()


def test_oracles_agree_on_random_instances(rng):
    resolution = 1.0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        problem = random_problem(rng, n)
        h = penalty_factors_all(problem)
        lam = lambda_solve(problem, h)
        grid = grid_search(problem, h, resolution=resolution)
        step = resolution * (n - 1) + 1e-6
        for a, g in zip(lam.powers, grid.powers):
            assert abs(a - g) <= step, f"lambda {lam.powers} vs grid {grid.powers}"
        # lambda closes the balance to 1e-6 MW, so the grid may undercut its
        # objective by about lambda * 1e-6
        lam_obj = evaluate_dispatch(problem, lam.powers, h).total_cost
        assert grid.total_cost >= lam_obj - (abs(lam.lambda_) + 1.0) * 1e-5


def test_lambda_solution_record_matches_objective(rng):
    problem = random_problem(rng, 3)
    h = penalty_factors_all(problem)
    res = lambda_solve(problem, h)
    sol = res.solution(problem, h)
    objective = combined_objective_batch(problem, np.array([res.powers]), h)[0]
    assert sol.total_cost == objective
    assert sol.feasible
