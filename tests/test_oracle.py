"""Equal-incremental-cost iteration and brute-force grid search.

The two oracles are implemented independently, so their mutual agreement on
random instances is the main correctness evidence for both.
"""

import numpy as np
import pytest

from ceed.model import Gas, LossMatrix, combined_objective_batch, evaluate_dispatch, transmission_loss
from ceed.oracle import LAMBDA_TOL, grid_search, lambda_solve
from ceed.penalty import PenaltyFactors, penalty_factors_all
from ceed.pso import PsoConfig, run_trials

from conftest import make_problem, make_unit, random_problem


def cost_only_unit(uid, p_min, p_max, b, c):
    return make_unit(uid, p_min, p_max, cost=(0.0, b, c))


def test_single_unit_is_forced_to_demand():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=120.0, k2=0)
    res = lambda_solve(problem)
    assert res.powers[0] == pytest.approx(120.0, abs=LAMBDA_TOL)
    assert abs(res.residual) <= LAMBDA_TOL


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
        from ceed.oracle import _effective_coeffs

        b_eff, c_eff = _effective_coeffs(problem, h)
        slack = 2.0 * LAMBDA_TOL * float(np.max(c_eff))
        for i, unit in enumerate(problem.units):
            p = res.powers[i]
            if unit.p_min + 1e-6 < p < unit.p_max - 1e-6:
                assert b_eff[i] + 2 * c_eff[i] * p == pytest.approx(res.lambda_, abs=max(slack, 1e-6))


def test_grid_search_two_unit_closed_form():
    units = [cost_only_unit(1, 0.5, 400.0, 0.0, 0.5), cost_only_unit(2, 0.5, 400.0, 0.0, 1.0)]
    problem = make_problem(units, demand=300.0, k2=0)
    sol = grid_search(problem, resolution=1.0)
    assert sol.powers[0] == pytest.approx(200.0, abs=1.0)
    assert sol.powers[1] == pytest.approx(100.0, abs=1.0)
    assert abs(sol.balance_residual) <= 1e-9


def test_grid_search_refuses_large_problems(rng):
    problem = random_problem(rng, 4)
    with pytest.raises(ValueError, match="at most 3"):
        grid_search(problem)
    with pytest.raises(ValueError, match="resolution"):
        grid_search(random_problem(rng, 2), resolution=0.0)


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
    assert sol.total_cost == pytest.approx(objective, rel=1e-12)
    assert sol.feasible
