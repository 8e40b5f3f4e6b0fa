"""Balance repair: every repaired vector sits inside limits with a closed balance."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import ceed.repair
from ceed.model import BALANCE_TOL, InfeasibleError, LossMatrix, balance_residual, check_limits
from ceed.problem_file import load_problem
from ceed.repair import _share, repair_batch

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
def test_rows_the_ray_cannot_move_close_beside_rows_that_move(demand):
    # only some rows of the batch need the step from their limits' side: at
    # 90 MW the all-zero row, at 250 MW also [0, 50], which pins unit 2
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


def first_scale(problem, P):
    """The first scale written out on its own: clip, scale as if no unit clips, clip."""
    x = np.clip(P, problem.p_min_arr, problem.p_max_arr)
    total, demand = np.vecdot(x, problem.ones), problem.demand
    if problem.losses is None:
        s = demand / total
    else:
        q = problem.losses.loss(x)
        s = 2.0 * demand / (total + np.sqrt(np.maximum(total * total - 4.0 * demand * q, 0.0)))
    return np.clip(s[:, None] * x, problem.p_min_arr, problem.p_max_arr)


def lossy_six_unit(six_unit_path, demand):
    base = load_problem(six_unit_path, demand)
    return make_problem(base.units, base.demand, losses=LossMatrix(2e-5 * (np.eye(6) + 0.1)))


def counting_residuals(monkeypatch):
    """The residual arrays repair evaluates, through the module attribute it looks up at call time."""
    seen = []
    monkeypatch.setattr(ceed.repair, "balance_residual", lambda *args: seen.append(balance_residual(*args)) or seen[-1])
    return seen


# Residual evaluations per repair_batch call on seeded uniform six-unit rows,
# batches of 1, 1, 10, 10, 10 and 500 rows, then the 500 repaired rows again:
# one for the first scale, and one after the step when a row needs it.
RESIDUAL_CALLS = {
    (1500.0, False): [2, 2, 2, 2, 2, 2, 1],
    (2000.0, False): [2, 2, 2, 2, 2, 2, 1],
    (2000.0, True): [2, 2, 2, 2, 2, 2, 1],
}


@pytest.mark.parametrize("demand, lossy", list(RESIDUAL_CALLS))
def test_a_call_evaluates_the_residual_once_or_twice(six_unit_path, monkeypatch, demand, lossy):
    problem = lossy_six_unit(six_unit_path, demand) if lossy else load_problem(six_unit_path, demand)
    seen = counting_residuals(monkeypatch)
    rng = np.random.default_rng(12)
    counts = []
    for rows in (1, 1, 10, 10, 10, 500, 0):
        P = rng.uniform(problem.p_min_arr, problem.p_max_arr, (rows, 6)) if rows else repaired
        seen.clear()
        repaired = repair_batch(problem, P)
        at_first_scale = np.all(np.abs(balance_residual(problem, first_scale(problem, P))) <= BALANCE_TOL)
        assert len(seen) == (1 if at_first_scale else 2)
        counts.append(len(seen))
    assert counts == RESIDUAL_CALLS[demand, lossy]


@pytest.mark.parametrize("lossy", [False, True])
def test_rows_that_land_at_the_first_scale_keep_its_bits(six_unit_path, monkeypatch, lossy):
    # rows whose scaled image sits inside the limits, as PSO's moves produce them
    problem = lossy_six_unit(six_unit_path, 1500.0) if lossy else load_problem(six_unit_path, 1500.0)
    lo, hi = problem.p_min_arr, problem.p_max_arr
    P = np.random.default_rng(31).uniform(lo + 0.3 * (hi - lo), lo + 0.5 * (hi - lo), (400, 6))
    expected = first_scale(problem, P)
    P = P[np.all((lo < expected) & (expected < hi), axis=1)]
    assert len(P) > 100
    seen = counting_residuals(monkeypatch)
    assert np.array_equal(repair_batch(problem, P), first_scale(problem, P))
    assert len(seen) == 1


@settings(deadline=None, derandomize=True, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), at=st.sampled_from(["p_min", "inside", "p_max"]))
def test_property_a_call_evaluates_the_residual_at_most_twice(seed, n, at):
    # the first scale, then at most the one step; every row stays in the
    # batch, so each evaluation covers all of it
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n)
    if at != "inside":
        problem = make_problem(problem.units, sum(getattr(u, at) for u in problem.units))
    P = rng.uniform(0.0, 1.3 * problem.p_max_arr, (int(rng.integers(1, 10)), n))
    with pytest.MonkeyPatch.context() as patch:
        seen = counting_residuals(patch)
        repaired = repair_batch(problem, P)
    assert 1 <= len(seen) <= 2
    assert all(r.shape == (len(P),) for r in seen)
    for row in repaired:
        assert_repaired(problem, row)


@pytest.mark.parametrize("tiny", [False, True])
def test_nan_rows_raise_value_error(tiny):
    # at p_min = 0 the first scale runs under its quiet branch; NaN still reaches the check
    units = [make_unit(1, 0.0 if tiny else 10.0, 100.0), make_unit(2, 0.0 if tiny else 20.0, 200.0)]
    problem = make_problem(units, demand=150.0)
    P = np.array([[30.0, 60.0], [50.0, 100.0], [np.nan, 60.0], [30.0, np.nan]])
    with pytest.raises(ValueError, match="row 2 of the candidates holds NaN"):
        repair_batch(problem, P)
    with pytest.raises(ValueError, match="row 0 of"):
        repair_batch(problem, P[3:])


def test_a_nan_row_is_named_before_an_infeasible_row():
    units = [make_unit(1, 10.0, 150.0), make_unit(2, 10.0, 150.0)]
    problem = make_problem(units, demand=290.0, losses=LossMatrix(np.diag([5e-4, 5e-4])))
    with pytest.raises(ValueError, match="row 1 of"):
        repair_batch(problem, np.array([[100.0, 120.0], [np.nan, 150.0]]))


# --- the step -----------------------------------------------------------------

# Per row, a dispatch within the limits 10-200, 20-300 and 30-400 MW of a
# 500 MW demand: row 0 is short, row 1 short with unit 1 at p_max, row 2 over.
STEP_P = np.array([[100.0, 150.0, 200.0], [200.0, 100.0, 120.0], [150.0, 280.0, 390.0]])


def step_problem(losses=None):
    units = [make_unit(1, 10.0, 200.0), make_unit(2, 20.0, 300.0), make_unit(3, 30.0, 400.0)]
    return make_problem(units, demand=500.0, losses=losses)


def step_inputs(problem, p=STEP_P):
    """p, its residual and d = p - c for the limit c each row needs."""
    r = balance_residual(problem, p)
    return p, r, p - np.where(r[:, None] < 0, problem.p_max_arr, problem.p_min_arr)


def test_lossless_share_is_the_residual_over_the_room():
    problem = step_problem()
    p, r, d = step_inputs(problem)
    assert np.array_equal(r, [-50.0, -80.0, 320.0])
    t = _share(problem, d, p, r)
    assert np.array_equal(t, r / d.sum(axis=1))
    assert t == pytest.approx([50.0 / 450.0, 80.0 / 480.0, 320.0 / 760.0], rel=1e-15)


def test_lossy_step_lands_within_a_nanowatt():
    b = [[1e-4, 1e-5, 0.0], [1e-5, 2e-4, 2e-5], [0.0, 2e-5, 1.5e-4]]
    problem = step_problem(LossMatrix(b))
    p, r, d = step_inputs(problem)
    assert np.all(np.abs(r) > 10.0)
    t = _share(problem, d, p, r)
    assert np.all((t > 0.0) & (t < 1.0))
    np.testing.assert_array_less(np.abs(balance_residual(problem, p - t[:, None] * d)), 1e-9)


def test_lossy_share_of_a_row_does_not_depend_on_its_batch(six_unit_path):
    # d @ B on a lone row takes BLAS's one-row path, which rounds otherwise
    # than on a batch, so the step's loss terms are formed row by row
    base = load_problem(six_unit_path, 2000.0)
    rng = np.random.default_rng(23)
    g = rng.uniform(0.0, 1.0, (6, 6))
    problem = make_problem(base.units, base.demand, losses=LossMatrix(1e-5 * (g @ g.T)))
    p = np.clip(rng.uniform(0.9, 1.3, (601, 1)) * rng.uniform(problem.p_min_arr, problem.p_max_arr, (601, 6)),
                problem.p_min_arr, problem.p_max_arr)
    p, r, d = step_inputs(problem, p)
    alone = np.array([_share(problem, d[i : i + 1], p[i : i + 1], r[i : i + 1])[0] for i in range(601)])
    assert np.isfinite(alone).all() and (d == 0).any()
    for size in (2, 7, 64, 601):
        assert np.array_equal(_share(problem, d[:size], p[:size], r[:size]), alone[:size]), size

    def stack(a):  # the first 600 rows as (R, K, ...), strided as a view
        return a[:600].reshape(75, 8, *a.shape[1:]).swapaxes(0, 1)

    assert np.array_equal(_share(problem, stack(d), stack(p), stack(r)), stack(alone))


# The step's two selects as repair_batch wrote them before they became copyto
# calls: the new forms must give the same bits on every share, NaN, -0.0 and
# the infinities included.


def where_limits(r, lo, hi):
    return np.where(r[:, None] < 0.0, hi, lo)


def where_share(t, landed):
    return np.where(landed, 0.0, np.where(t >= 0.0, np.fmin(t, 1.0), 1.0))


def lossy_pair(demand, b, p_min=0.0, p_max=100.0):
    units = [make_unit(1, p_min, p_max), make_unit(2, p_min, p_max)]
    return make_problem(units, demand, losses=LossMatrix(np.diag([b, b])))


# Hand-built rows within the limits, as the step receives them.  With B = 2^-5
# every figure of row [10, 20] is exact: it loses 15.625 MW, lands at
# 14.375 MW with r = +0.0 past the loss peak, and takes the share
# 0 / negative = -0.0.
SELECT_CASES = {
    # at demand sum(p_min) a landed row at p_min has no room: 0 / 0
    "lossless-at-p_min": (make_problem(step_problem().units, 60.0), [[10.0, 20.0, 30.0], [100.0, 150.0, 200.0]]),
    "lossless": (step_problem(), [[100.0, 200.0, 200.0], *STEP_P]),
    # negative shares, a row with no root (NaN), and a row at p_max short of demand: r / 0
    "lossy-past-the-peak": (
        lossy_pair(14.375, 2.0**-5),
        [[10.0, 20.0], [20.0, 10.0], [16.0, 20.0], [30.0, 2.0], [100.0, 100.0], [5.0, 5.0]],
    ),
    # demand beyond net capacity: shares past 1
    "lossy-short": (lossy_pair(290.0, 5e-4, 10.0, 150.0), [[100.0, 120.0], [140.0, 150.0], [150.0, 150.0]]),
}


def step_operands(name):
    """A case's r, landed rows, limits and share t, as the step sees them; d by the old select."""
    problem, rows = SELECT_CASES[name]
    p = np.array(rows)
    lo, hi = problem.limit_rows(len(p))
    r = balance_residual(problem, p)
    d = p - where_limits(r, lo, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _share(problem, d, p, r)
    return r, np.abs(r) <= BALANCE_TOL, lo, hi, t


def test_step_select_cases_cover_every_kind_of_share():
    operands = [step_operands(name) for name in SELECT_CASES]
    landed, t = (np.concatenate([ops[i] for ops in operands]) for i in (1, 4))
    assert all(ops[1].any() and not ops[1].all() for ops in operands[:3])  # landed rows beside moving ones
    assert np.isnan(t[landed]).any() and np.isnan(t[~landed]).any()  # 0 / 0, and no root
    assert np.isneginf(t).any()  # r / 0
    assert (t < 0.0).any() and (t > 1.0).any() and ((t > 0.0) & (t < 1.0)).any()
    assert (np.signbit(t) & (t == 0.0)).any() and (~np.signbit(t) & (t == 0.0)).any()


@pytest.mark.parametrize("name", list(SELECT_CASES))
def test_step_selects_give_the_nested_where_bits(name):
    r, landed, lo, hi, t = step_operands(name)
    c = ceed.repair._limits_toward(r, lo, hi)
    assert c.tobytes() == where_limits(r, lo, hi).tobytes()
    assert c.flags.writeable and not np.shares_memory(c, lo)
    expected = where_share(t, landed)
    got = ceed.repair._step_share(t, landed)
    assert got is t and got.tobytes() == expected.tobytes()


def test_step_share_gives_the_nested_where_bits_on_every_special_value():
    t = np.array([np.nan, np.inf, -np.inf, -2.5, -5e-324, -0.0, 0.0, 5e-324, 0.25, 1.0, 1.0 + 2**-52, 3.0])
    for landed in (np.zeros(len(t), bool), np.arange(len(t)) % 2 == 0, np.ones(len(t), bool)):
        expected = where_share(t, landed)
        assert ceed.repair._step_share(t.copy(), landed).tobytes() == expected.tobytes()
    r = np.array([np.nan, -np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.inf])
    lo, hi = np.zeros((len(r), 2)), np.ones((len(r), 2))
    assert ceed.repair._limits_toward(r, lo, hi).tobytes() == where_limits(r, lo, hi).tobytes()


@pytest.mark.parametrize("name", list(SELECT_CASES))
def test_repair_with_the_nested_where_selects_gives_the_same_outcome(monkeypatch, name):
    # rows that end off the balance raise; their residuals after the step still compare
    problem, rows = SELECT_CASES[name]
    P = np.array(rows)
    seen = counting_residuals(monkeypatch)

    def outcome():
        seen.clear()
        try:
            result = repair_batch(problem, P).tobytes()
        except InfeasibleError as exc:
            result = str(exc)
        return result, [r.tobytes() for r in seen]

    new = outcome()
    monkeypatch.setattr(ceed.repair, "_limits_toward", where_limits)
    monkeypatch.setattr(ceed.repair, "_step_share", where_share)
    assert outcome() == new and len(new[1]) == 2


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
    P = data.draw(finite_rows(problem.n_units))
    with pytest.MonkeyPatch.context() as patch:
        seen = counting_residuals(patch)
        repaired = repair_batch(problem, P)
    assert len(seen) <= 2
    for row in repaired:
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


@st.composite
def lossy_problems_around_net_capacity(draw):
    """feasible_problems(lossy=True)'s units and B, demand either side of the net output at all-p_max."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_min = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 50.0, n))
    p_max = p_min + rng.uniform(80.0, 250.0, n)
    units = [make_unit(i + 1, float(lo), float(hi)) for i, (lo, hi) in enumerate(zip(p_min, p_max))]
    g = rng.normal(size=(n, n))
    b = g @ g.T
    # marginal losses stay below 1/4 on the whole box, so net output grows with
    # every unit and peaks at all-p_max, above sum(p_min)
    losses = LossMatrix(0.125 / (np.abs(b) @ p_max).max() * b)
    lo_total, hi_total = sum(u.p_min for u in units), sum(u.p_max for u in units)
    net = float(p_max.sum() - losses.loss(p_max))
    assume(hi_total - net > 1e-3)
    share = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        demand = max(net - share * (net - lo_total), lo_total)
    else:
        demand = min(net + share * (hi_total - net), hi_total)
    return make_problem(units, demand, losses=losses)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.data())
def test_property_lossy_rows_close_exactly_when_net_capacity_meets_demand(data):
    problem = data.draw(lossy_problems_around_net_capacity())
    P = data.draw(finite_rows(problem.n_units))
    short = float(balance_residual(problem, problem.p_max_arr))
    if short >= 0.0:
        for row in repair_batch(problem, P):
            assert_repaired(problem, row)
        return
    with pytest.MonkeyPatch.context() as patch:
        seen = counting_residuals(patch)
        with pytest.raises(InfeasibleError) as raised:
            repair_batch(problem, P)
    # every row ends at all-p_max, so the error reports the net shortfall
    np.testing.assert_allclose(seen[-1], short, rtol=0.0, atol=1e-9)
    assert f"residual {seen[-1][0]:.6g} MW" in str(raised.value)
