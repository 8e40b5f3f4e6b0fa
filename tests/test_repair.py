"""Balance repair: every repaired vector sits inside limits with a closed balance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ceed.model import BALANCE_TOL, InfeasibleError, LossMatrix, balance_residual, check_limits
from ceed.repair import repair_batch

from conftest import make_problem, make_unit, random_problem


def assert_repaired(problem, p):
    assert check_limits(problem, p) == []
    assert abs(balance_residual(problem, p)) <= BALANCE_TOL


def test_random_vectors_are_repaired(rng):
    for _ in range(30):
        problem = random_problem(rng, int(rng.integers(1, 7)))
        raw = rng.uniform(0.0, 2.0 * problem.p_max_arr, size=problem.n_units)
        assert_repaired(problem, repair_batch(problem, raw[None, :])[0])


def test_single_unit_lands_exactly_on_demand():
    problem = make_problem([make_unit(1, 50.0, 300.0)], demand=120.0)
    p = repair_batch(problem, np.array([[291.3]]))[0]
    assert p[0] == pytest.approx(120.0, abs=BALANCE_TOL)


def test_balanced_vector_passes_through(rng):
    problem = make_problem([make_unit(1, 50.0, 300.0), make_unit(2, 50.0, 300.0)], demand=400.0)
    p = repair_batch(problem, np.array([[250.0, 150.0]]))[0]
    assert p == pytest.approx([250.0, 150.0], abs=1e-9)


def test_demand_at_full_capacity_pins_every_unit():
    units = [make_unit(1, 10.0, 100.0), make_unit(2, 20.0, 150.0)]
    problem = make_problem(units, demand=250.0)
    p = repair_batch(problem, np.array([[15.0, 30.0]]))[0]
    assert p == pytest.approx([100.0, 150.0], abs=BALANCE_TOL)


def test_demand_at_minimum_pins_every_unit():
    units = [make_unit(1, 10.0, 100.0), make_unit(2, 20.0, 150.0)]
    problem = make_problem(units, demand=30.0)
    p = repair_batch(problem, np.array([[90.0, 140.0]]))[0]
    assert p == pytest.approx([10.0, 20.0], abs=BALANCE_TOL)


def test_lossy_single_unit_covers_demand_plus_loss():
    problem = make_problem(
        [make_unit(1, 10.0, 200.0)], demand=99.0, losses=LossMatrix([[0.0001]])
    )
    p = repair_batch(problem, np.array([[42.0]]))[0]
    # p - 0.0001 p^2 = 99 has the physical root p = 100
    assert p[0] == pytest.approx(100.0, abs=1e-4)
    assert abs(balance_residual(problem, p)) <= BALANCE_TOL


def test_lossy_random_problems_close_the_balance(rng):
    for _ in range(15):
        n = int(rng.integers(2, 5))
        problem = random_problem(rng, n)
        m = rng.normal(size=(n, n))
        losses = LossMatrix(1e-7 * (m @ m.T))
        lossy = make_problem(problem.units, problem.demand, losses=losses)
        raw = rng.uniform(lossy.p_min_arr, 2.0 * lossy.p_max_arr)
        assert_repaired(lossy, repair_batch(lossy, raw[None, :])[0])


def test_repair_does_not_mutate_input(rng):
    problem = random_problem(rng, 3)
    raw = rng.uniform(0.0, 2.0 * problem.p_max_arr, size=(4, 3))
    before = raw.copy()
    repair_batch(problem, raw)
    assert np.array_equal(raw, before)


@pytest.mark.parametrize(
    "raw, demand",
    [([0.0, 0.0], 90.0), ([0.0, 0.0], 250.0), ([0.0, 50.0], 250.0), ([5e-324, 0.0], 250.0)],
)
def test_rows_the_ray_cannot_move_still_close(raw, demand):
    # a zero entry stays at zero for every scale; p_min = 0 lets it through
    problem = make_problem([make_unit(1, 0.0, 100.0), make_unit(2, 0.0, 200.0)], demand=demand)
    batch = repair_batch(problem, np.array([raw]))
    assert_repaired(problem, batch[0])


def test_lossy_demand_beyond_net_capacity_raises():
    # at full output the units deliver 300 - 2 * 150^2 * 5e-4 = 277.5 MW net
    units = [make_unit(1, 10.0, 150.0), make_unit(2, 10.0, 150.0)]
    problem = make_problem(units, demand=290.0, losses=LossMatrix(np.diag([5e-4, 5e-4])))
    with pytest.raises(InfeasibleError, match="residual -12.5 MW"):
        repair_batch(problem, np.array([[100.0, 120.0], [140.0, 150.0]]))


# --- properties over random feasible problems --------------------------------


@st.composite
def feasible_problems(draw, lossy=None):
    """1-40 units, some with p_min = 0, lossless or with a small PSD B."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_min = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 50.0, n))
    p_max = p_min + rng.uniform(80.0, 250.0, n)
    units = [make_unit(i + 1, float(lo), float(hi)) for i, (lo, hi) in enumerate(zip(p_min, p_max))]
    lo_total, hi_total = sum(u.p_min for u in units), sum(u.p_max for u in units)
    demand = min(lo_total + draw(st.floats(0.0, 1.0)) * (hi_total - lo_total), hi_total)
    losses = None
    if draw(st.booleans()) if lossy is None else lossy:
        g = rng.normal(size=(n, n))
        b = g @ g.T
        # marginal losses stay below 1/4 on the whole box, so net output grows
        # with every unit, and full output keeps half the spare capacity
        spare = hi_total - demand
        scale = min(0.125 / (np.abs(b) @ p_max).max(), 0.5 * spare / (p_max @ b @ p_max))
        losses = LossMatrix(scale * b)
    return make_problem(units, demand, losses=losses)


def finite_rows(n, max_rows=12):
    return arrays(
        float, st.tuples(st.integers(1, max_rows), st.just(n)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.data())
def test_property_any_finite_rows_are_repaired(data):
    problem = data.draw(feasible_problems())
    for row in repair_batch(problem, data.draw(finite_rows(problem.n_units))):
        assert_repaired(problem, row)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.data())
def test_property_rows_do_not_depend_on_their_batch(data):
    problem = data.draw(feasible_problems())
    P = data.draw(finite_rows(problem.n_units))
    batch = repair_batch(problem, P)
    for i in range(P.shape[0]):
        assert np.array_equal(batch[i], repair_batch(problem, P[i : i + 1])[0])


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.data())
def test_property_row_that_scales_without_clipping_is_scaled(data):
    problem = data.draw(feasible_problems(lossy=False))
    lo, hi = problem.p_min_arr, problem.p_max_arr
    # a row whose scaled image sits well inside the limits
    share = data.draw(arrays(float, problem.n_units, elements=st.floats(0.2, 0.8)))
    target = lo + share * (hi - lo)
    demand = float(target.sum())
    problem = make_problem(problem.units, demand)
    x = target * data.draw(st.floats(0.95, 1.05))
    repaired = repair_batch(problem, x[None, :])[0]
    np.testing.assert_allclose(repaired, x * (demand / x.sum()), rtol=1e-12)
