"""Balance repair: every repaired vector sits inside limits with a closed balance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ceed.repair
from ceed.model import BALANCE_TOL, InfeasibleError, LossMatrix, balance_residual, check_limits
from ceed.problem_file import load_problem
from ceed.repair import _correction, repair_batch

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


@pytest.mark.parametrize("demand", [90.0, 250.0])
def test_stuck_rows_restart_beside_rows_that_move(demand):
    # only some rows of the batch restart from the limit midpoints: at 90 MW
    # the all-zero row, at 250 MW also [0, 50], which pins unit 2 and cannot move
    problem = make_problem([make_unit(1, 0.0, 100.0), make_unit(2, 0.0, 200.0)], demand=demand)
    P = np.array([[0.0, 0.0], [30.0, 60.0], [0.0, 50.0], [5e-324, 0.0]])
    batch = repair_batch(problem, P)
    for i, row in enumerate(batch):
        assert_repaired(problem, row)
        assert np.array_equal(row, repair_batch(problem, P[i : i + 1])[0]), i


def test_lossy_demand_beyond_net_capacity_raises():
    # at full output the units deliver 300 - 2 * 150^2 * 5e-4 = 277.5 MW net
    units = [make_unit(1, 10.0, 150.0), make_unit(2, 10.0, 150.0)]
    problem = make_problem(units, demand=290.0, losses=LossMatrix(np.diag([5e-4, 5e-4])))
    with pytest.raises(InfeasibleError, match="residual -12.5 MW"):
        repair_batch(problem, np.array([[100.0, 120.0], [140.0, 150.0]]))


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("demand", [1500.0, 2000.0])
def test_large_batch_rows_equal_lone_rows(six_unit_path, demand, lossy):
    # 600 rows, as in a 50-trial GA batch: rows that land early wait, frozen,
    # for the rest without moving a bit of any row
    problem = load_problem(six_unit_path, demand)
    if lossy:
        b = 2e-5 * (np.eye(6) + 0.1)
        problem = make_problem(problem.units, problem.demand, losses=LossMatrix(b))
    P = np.random.default_rng(7).uniform(problem.p_min_arr, problem.p_max_arr, (600, 6))
    batch = repair_batch(problem, P)
    for i in range(P.shape[0]):
        assert np.array_equal(batch[i], repair_batch(problem, P[i : i + 1])[0])
        assert_repaired(problem, batch[i])


def test_lossy_lone_row_lands_on_its_batch_bits(six_unit_path):
    # d @ B on a one-row batch takes BLAS's one-row path, which rounds otherwise
    # than on a batch; with it, row 40 of these rows landed on other bits alone
    base = load_problem(six_unit_path, 2000.0)
    problem = make_problem(base.units, base.demand, losses=LossMatrix(2e-5 * (np.eye(6) + 0.1)))
    P = np.random.default_rng(50).uniform(problem.p_min_arr, problem.p_max_arr, (50, 6))
    batch = repair_batch(problem, P)
    for i in range(P.shape[0]):
        assert np.array_equal(batch[i], repair_batch(problem, P[i : i + 1])[0]), i


# Residual evaluations per repair_batch call on seeded uniform six-unit rows,
# batches of 1, 1, 10, 10, 10 and 500 rows, then the 500 repaired rows again:
# one for the first scale and one per correction step.
RESIDUAL_CALLS = {
    (1500.0, False): [2, 2, 2, 3, 3, 3, 1],
    (2000.0, False): [3, 3, 4, 3, 4, 4, 1],
    (2000.0, True): [3, 3, 3, 3, 4, 4, 1],
}


@pytest.mark.parametrize("demand, lossy", list(RESIDUAL_CALLS))
def test_each_correction_step_evaluates_the_residual_once(six_unit_path, monkeypatch, demand, lossy):
    # a step counter wraps the module attribute repair looks up at call time
    problem = load_problem(six_unit_path, demand)
    if lossy:
        problem = make_problem(problem.units, problem.demand, losses=LossMatrix(2e-5 * (np.eye(6) + 0.1)))
    calls = []
    monkeypatch.setattr(ceed.repair, "balance_residual", lambda *args: calls.append(1) or balance_residual(*args))
    rng = np.random.default_rng(12)
    counts = []
    for rows in (1, 1, 10, 10, 10, 500):
        calls.clear()
        repaired = repair_batch(problem, rng.uniform(problem.p_min_arr, problem.p_max_arr, (rows, 6)))
        counts.append(len(calls))
    calls.clear()
    repair_batch(problem, repaired)
    assert counts + [len(calls)] == RESIDUAL_CALLS[demand, lossy]


# --- the correction step ------------------------------------------------------

# Per row: x, a scale s, and 1 for each unit off its limits at s and at the
# root.  Row 0 scales up, row 1 up with unit 1 pinned at p_max, row 2 down.
STEP_X = np.array([[100.0, 150.0, 200.0], [190.0, 100.0, 120.0], [150.0, 280.0, 390.0]])
STEP_S = np.array([1.0, 1.2, 1.0])
STEP_ACTIVE = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])


def step_problem(losses=None):
    units = [make_unit(1, 10.0, 200.0), make_unit(2, 20.0, 300.0), make_unit(3, 30.0, 400.0)]
    return make_problem(units, demand=500.0, losses=losses)


def step_inputs(problem):
    p = np.clip(STEP_S[:, None] * STEP_X, problem.p_min_arr, problem.p_max_arr)
    # the active set is as STEP_ACTIVE says before the step too
    assert np.array_equal(p == STEP_S[:, None] * STEP_X, STEP_ACTIVE.astype(bool))
    return STEP_X, STEP_S, p, balance_residual(problem, p)


def test_lossy_correction_lands_when_the_active_set_holds():
    b = [[1e-4, 1e-5, 0.0], [1e-5, 2e-4, 2e-5], [0.0, 2e-5, 1.5e-4]]
    problem = step_problem(LossMatrix(b))
    x, s, p, r = step_inputs(problem)
    assert np.all(np.abs(r) > 10.0)
    t = _correction(problem, STEP_ACTIVE * x, s, p, r)
    landed = np.clip(t[:, None] * x, problem.p_min_arr, problem.p_max_arr)
    # the root keeps every row's active set
    assert np.array_equal(landed == t[:, None] * x, STEP_ACTIVE.astype(bool))
    np.testing.assert_array_less(np.abs(balance_residual(problem, landed)), 1e-9)


def test_lossless_correction_is_the_newton_step_on_the_active_set():
    problem = step_problem()
    x, s, p, r = step_inputs(problem)
    d = STEP_ACTIVE * x
    assert np.array_equal(_correction(problem, d, s, p, r), s - r / d.sum(axis=1))


@settings(deadline=None, derandomize=True, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), at=st.sampled_from(["p_min", "inside", "p_max"]))
def test_property_lossless_steps_stay_on_one_side_of_the_root(seed, n, at):
    # from a first scale >= 1 only upper limits bind, total output is concave
    # in the scale and every Newton step lands at or below the root; below 1
    # only lower limits bind, it is convex and every step lands at or above.
    # Lossless repair keeps no bracket on that ground
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n)
    if at != "inside":
        problem = make_problem(problem.units, sum(getattr(u, at) for u in problem.units))
    P = rng.uniform(0.0, 1.3 * problem.p_max_arr, (int(rng.integers(1, 10)), n))
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ceed.repair, "balance_residual", lambda *args: seen.append(balance_residual(*args)) or seen[-1])
        repaired = repair_batch(problem, P)
    # one evaluation for the first scale, then at most N + 1 steps; every row
    # stays in the loop, so each evaluation covers the whole batch
    assert len(seen) <= n + 2
    r = np.array(seen)
    assert np.all(np.sign(r[0]) * r >= -BALANCE_TOL), r
    for row in repaired:
        assert_repaired(problem, row)


def test_lossy_step_that_leaves_the_bracket_bisects(six_unit_path, monkeypatch):
    # both rows scale down onto a unit at p_min, so each first residual is > 0
    # and each bracket is (0, s0); a first step thrown below 0 must bisect it
    base = load_problem(six_unit_path, 1500.0)
    problem = make_problem(base.units, base.demand, losses=LossMatrix(2e-5 * (np.eye(6) + 0.1)))
    P = np.array([[50.0, 300.0, 500.0, 180.0, 500.0, 300.0], [60.0, 50.0, 560.0, 80.0, 500.0, 300.0]])
    calls = []

    def thrown_out(problem, d, s, p, r):
        calls.append((s.copy(), r.copy()))
        return s - 1e9 if len(calls) == 1 else _correction(problem, d, s, p, r)

    monkeypatch.setattr(ceed.repair, "_correction", thrown_out)
    repaired = repair_batch(problem, P)
    (s0, r0), (s1, _) = calls[:2]
    assert np.all(r0 > BALANCE_TOL)
    assert np.array_equal(s1, 0.5 * s0)
    for row in repaired:
        assert_repaired(problem, row)


def test_lossy_correction_of_a_row_does_not_depend_on_its_batch(six_unit_path):
    # d @ B on a lone row takes BLAS's one-row path, which rounds otherwise
    # than on a batch, so the step's loss terms are formed row by row
    base = load_problem(six_unit_path, 2000.0)
    rng = np.random.default_rng(23)
    m = rng.uniform(0.0, 1.0, (6, 6))
    problem = make_problem(base.units, base.demand, losses=LossMatrix(1e-5 * (m @ m.T)))
    x = rng.uniform(problem.p_min_arr, problem.p_max_arr, (601, 6))
    s = rng.uniform(0.9, 1.3, 601)
    sx = s[:, None] * x
    p = np.clip(sx, problem.p_min_arr, problem.p_max_arr)
    d, r = x * (p == sx), balance_residual(problem, p)
    alone = np.array([_correction(problem, d[i : i + 1], s[i : i + 1], p[i : i + 1], r[i : i + 1])[0]
                      for i in range(601)])
    assert np.isfinite(alone).all() and (d == 0).any()
    for size in (2, 7, 64, 601):
        assert np.array_equal(_correction(problem, d[:size], s[:size], p[:size], r[:size]), alone[:size]), size

    def stack(a):  # the first 600 rows as (R, K, ...), strided as a view
        return a[:600].reshape(75, 8, *a.shape[1:]).swapaxes(0, 1)

    assert np.array_equal(_correction(problem, stack(d), stack(s), stack(p), stack(r)), stack(alone))


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
