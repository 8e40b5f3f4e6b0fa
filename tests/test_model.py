"""Objective arithmetic, constraint checks and problem validation.

Covers the hand-computable values first, then randomized structural
properties (additivity, scalarization identities, loss-matrix behavior),
then construction-time validation.
"""

import json
import pickle
import re
from dataclasses import fields, replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ceed import ga, model, pso, repair
from ceed.ga import GaConfig, decode
from ceed.harness import ExperimentSpec, run_trials
from ceed.model import (
    BALANCE_TOL,
    DispatchProblem,
    Gas,
    GeneratorUnit,
    InfeasibleError,
    LossMatrix,
    balance_residual,
    check_limits,
    combined_objective_batch,
    evaluate_dispatch,
    transmission_loss,
)
from ceed.oracle import grid_search, lambda_solve
from ceed.penalty import PenaltyFactors, penalty_factors_all
from ceed.problem_file import load_problem
from ceed.pso import PsoConfig
from ceed.repair import repair_batch

from conftest import make_problem, make_unit, random_problem, weighted_problems


def fuel_cost_unit(unit, p):
    """Quadratic fuel cost a + b*p + c*p^2 of one unit, $/h: the model tests' scalar reference."""
    return unit.cost[0] + unit.cost[1] * p + unit.cost[2] * p * p


# --- fixed values -----------------------------------------------------------


def test_fuel_cost_unit_quadratic_value():
    unit = make_unit(1, 0.5, 10.0, cost=(1.0, 2.0, 3.0))
    assert fuel_cost_unit(unit, 2.0) == pytest.approx(17.0, abs=1e-12)


def test_total_fuel_cost_single_unit_matches_unit_cost():
    unit = make_unit(1, 10.0, 200.0, cost=(5.0, 1.5, 0.01))
    problem = make_problem([unit], demand=100.0, k2=0)
    assert evaluate_dispatch(problem, [100.0]).fuel_cost == pytest.approx(
        fuel_cost_unit(unit, 100.0), abs=1e-12
    )


def test_gas_emission_single_unit_value():
    unit = make_unit(1, 10.0, 200.0, nox=(10.0, 0.0, 0.01))
    problem = make_problem([unit], demand=100.0, k2=0)
    assert evaluate_dispatch(problem, [100.0]).emissions[Gas.NOX] == pytest.approx(110.0, abs=1e-12)


def test_transmission_loss_single_unit():
    problem = make_problem(
        [make_unit(1, 10.0, 200.0)], demand=99.0, losses=LossMatrix([[0.0001]])
    )
    assert transmission_loss(problem, [100.0]) == pytest.approx(1.0, abs=1e-12)


def test_transmission_loss_diagonal_two_units():
    losses = LossMatrix([[0.0001, 0.0], [0.0, 0.0002]])
    problem = make_problem(
        [make_unit(1, 10.0, 200.0), make_unit(2, 10.0, 200.0)], demand=150.0, losses=losses
    )
    assert transmission_loss(problem, [100.0, 100.0]) == pytest.approx(3.0, abs=1e-12)


def test_lossless_problem_has_zero_loss():
    problem = make_problem([make_unit(1, 10.0, 200.0)], demand=100.0)
    assert transmission_loss(problem, [150.0]) == 0.0


def test_balance_residual_absorbs_loss_exactly():
    problem = make_problem(
        [make_unit(1, 10.0, 200.0)], demand=99.0, losses=LossMatrix([[0.0001]])
    )
    # 100 generated = 99 demanded + 1 lost
    assert balance_residual(problem, [100.0]) == pytest.approx(0.0, abs=1e-12)


def test_check_limits_signed_violations():
    units = [make_unit(1, 50.0, 300.0), make_unit(3, 100.0, 576.0)]
    problem = make_problem(units, demand=500.0)
    assert check_limits(problem, [40.0, 580.0]) == [(1, pytest.approx(-10.0)), (3, pytest.approx(4.0))]
    assert check_limits(problem, [60.0, 500.0]) == []


def test_check_limits_matches_the_unit_loop(rng):
    # the per-unit loop that check_limits replaced, kept as its reference
    def loop(problem, p):
        out = []
        for unit, pi in zip(problem.units, p):
            if pi > unit.p_max:
                out.append((unit.id, float(pi - unit.p_max)))
            elif pi < unit.p_min:
                out.append((unit.id, float(pi - unit.p_min)))
        return out

    for _ in range(50):
        problem = random_problem(rng, int(rng.integers(1, 8)))
        lo, hi = problem.p_min_arr, problem.p_max_arr
        # a mix of units inside, outside, exactly on either limit and NaN
        pick = rng.integers(0, 4, problem.n_units)
        p = np.select([pick == 1, pick == 2, pick == 3], [lo, hi, np.nan], rng.uniform(lo - 30, hi + 30))
        got = check_limits(problem, p)
        assert got == loop(problem, p)
        assert all(type(v) is float for _, v in got)


# --- structural properties --------------------------------------------------


def test_total_fuel_cost_is_sum_of_unit_costs(rng):
    for _ in range(25):
        problem = random_problem(rng, int(rng.integers(1, 7)), k2=0)
        p = rng.uniform(problem.p_min_arr, problem.p_max_arr)
        expected = sum(fuel_cost_unit(u, pi) for u, pi in zip(problem.units, p))
        assert evaluate_dispatch(problem, p).fuel_cost == pytest.approx(expected, rel=1e-12)


def test_gas_emission_ignores_other_gas_coefficients(rng):
    base = make_unit(1, 10.0, 200.0, nox=(10.0, 0.2, 0.001), cox=(50.0, 2.0, 0.01))
    changed = make_unit(1, 10.0, 200.0, nox=(10.0, 0.2, 0.001), cox=(99.0, 7.0, 0.09))
    p1 = make_problem([base], demand=100.0, k2=0)
    p2 = make_problem([changed], demand=100.0, k2=0)
    for p in rng.uniform(10.0, 200.0, size=10):
        nox1 = evaluate_dispatch(p1, [p]).emissions[Gas.NOX]
        assert nox1 == evaluate_dispatch(p2, [p]).emissions[Gas.NOX]


def test_transmission_loss_nonnegative_for_psd_matrix(rng):
    n = 4
    units = [make_unit(i + 1, 10.0, 300.0) for i in range(n)]
    m = rng.normal(size=(n, n))
    b = 1e-6 * (m @ m.T)  # PSD by construction
    problem = make_problem(units, demand=400.0, losses=LossMatrix(b))
    for _ in range(20):
        p = rng.uniform(10.0, 300.0, size=n)
        assert transmission_loss(problem, p) >= 0.0


def test_transmission_loss_invariant_under_symmetrization(rng):
    # the quadratic form only sees the symmetric part of B
    n = 3
    units = [make_unit(i + 1, 10.0, 300.0) for i in range(n)]
    sym = rng.normal(size=(n, n))
    sym = 1e-5 * (sym + sym.T)
    problem = make_problem(units, demand=300.0, losses=LossMatrix(sym))
    for _ in range(10):
        p = rng.uniform(10.0, 300.0, size=n)
        direct = float(p @ sym @ p)
        assert transmission_loss(problem, p) == pytest.approx(direct, rel=1e-12)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(n=st.integers(1, 40), rows=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_property_loss_is_the_quadratic_of_each_row(n, rows, seed):
    # nonnegative B and powers: no cancellation, so the sums agree to rounding
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1e-4, (n, n))
    losses = LossMatrix(m + m.T)
    P = rng.uniform(0.0, 500.0, (rows, n))
    got = losses.loss(P)
    assert got.shape == (rows,)
    for p, q in zip(P, got):
        assert q == pytest.approx(p @ losses.b @ p, rel=1e-13, abs=0.0)


def test_balance_residual_linear_in_uniform_shift(rng):
    problem = random_problem(rng, 5)
    p = rng.uniform(problem.p_min_arr, problem.p_max_arr)
    base = balance_residual(problem, p)
    for delta in (-3.0, 0.5, 12.25):
        shifted = balance_residual(problem, p + delta)
        assert shifted == pytest.approx(base + 5 * delta, abs=1e-9)


def test_balance_residual_of_a_row_does_not_depend_on_its_batch(six_unit_path):
    # a loss kernel that blocks over rows could give a row other bits in another batch,
    # and a seeded trial's result would then depend on the trials batched with it
    base = load_problem(six_unit_path, 1500.0)
    rng = np.random.default_rng(17)
    m = rng.uniform(0.0, 1.0, (6, 6))
    b = 1e-5 * (m @ m.T)
    problem = make_problem(base.units, 1500.0, gases=base.gases, losses=LossMatrix((b + b.T) / 2))
    rows = rng.uniform(problem.p_min_arr, problem.p_max_arr, (601, 6))
    alone = np.array([balance_residual(problem, row) for row in rows])
    for size in (2, 7, 64, 601):
        assert np.array_equal(balance_residual(problem, rows[:size]), alone[:size]), size
    stack = rows[:600].reshape(75, 8, 6).transpose(1, 0, 2)  # (R, K, N), strided as a view
    assert np.array_equal(balance_residual(problem, stack), alone[:600].reshape(75, 8).T)


def test_combined_objective_with_k2_zero_ignores_h(rng):
    problem = random_problem(rng, 3, k2=0)
    p = rng.uniform(problem.p_min_arr, problem.p_max_arr)
    h1 = PenaltyFactors({g: rng.uniform(0.1, 5.0) for g in problem.gases}, problem.demand)
    h2 = PenaltyFactors({g: rng.uniform(0.1, 5.0) for g in problem.gases}, problem.demand)
    batch = [combined_objective_batch(problem, p[None, :], h)[0] for h in (h1, h2, None)]
    assert batch[0] == batch[1] == batch[2]
    totals = [evaluate_dispatch(problem, p, h).total_cost for h in (h1, h2, None)]
    assert totals[0] == totals[1] == totals[2] == evaluate_dispatch(problem, p).fuel_cost


def test_emission_cost_is_weighted_sum(rng):
    problem = random_problem(rng, 4)
    p = rng.uniform(problem.p_min_arr, problem.p_max_arr)
    h = PenaltyFactors({g: rng.uniform(0.1, 6.0) for g in problem.gases}, problem.demand)
    # every unit's emission curves summed by hand, apart from the model's arrays
    expected = 0.0
    for g in problem.gases:
        for unit, pi in zip(problem.units, p):
            a, b, c = unit.emissions[g]
            expected += h[g] * (a + b * pi + c * pi * pi)
    assert evaluate_dispatch(problem, p, h).emission_cost == pytest.approx(expected, rel=1e-12)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(problem=weighted_problems(max_units=8), seed=st.integers(0, 2**32 - 1))
def test_property_total_cost_identity(problem, seed):
    # TC = k1 FC + k2 EC holds to rounding; with k2 = 0, TC is FC bit for bit
    rng = np.random.default_rng(seed)
    h = PenaltyFactors({g: rng.uniform(0.1, 6.0) for g in problem.gases}, problem.demand)
    for p in rng.uniform(problem.p_min_arr, problem.p_max_arr, (15, problem.n_units)):
        sol = evaluate_dispatch(problem, p, h)
        assert sol.total_cost == pytest.approx(problem.k1 * sol.fuel_cost + problem.k2 * sol.emission_cost, rel=1e-12)
        if not problem.k2:
            assert sol.total_cost == sol.fuel_cost == evaluate_dispatch(problem, p).total_cost


def test_evaluate_dispatch_reports_residual_and_violations(rng):
    problem = make_problem([make_unit(1, 50.0, 300.0), make_unit(2, 50.0, 300.0)], demand=400.0)
    h = PenaltyFactors({g: 1.0 for g in problem.gases}, 400.0)
    sol = evaluate_dispatch(problem, [310.0, 90.0], h)
    assert sol.limit_violations == ((1, 10.0),)
    assert not sol.feasible
    balanced = evaluate_dispatch(problem, [250.0, 150.0], h)
    assert balanced.feasible
    assert abs(balanced.balance_residual) <= BALANCE_TOL


@settings(deadline=None, derandomize=True, max_examples=150)
@given(problem=weighted_problems(max_units=8), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_property_batch_objective_matches_evaluate_dispatch(problem, rows, seed):
    h = penalty_factors_all(problem)
    P = np.random.default_rng(seed).uniform(problem.p_min_arr, problem.p_max_arr, (rows, problem.n_units))
    batch = combined_objective_batch(problem, P, h)
    for i in range(rows):
        assert batch[i] == evaluate_dispatch(problem, P[i], h).total_cost


def test_objective_fold_never_goes_stale(six_unit_path):
    # the fold of h into one quadratic per unit is memoized on the problem;
    # every call must equal the same call on a freshly loaded problem
    problem = load_problem(six_unit_path, 1500.0)
    rows = np.random.default_rng(7).uniform(problem.p_min_arr, problem.p_max_arr, (5, problem.n_units))
    h1 = penalty_factors_all(problem)
    h2 = PenaltyFactors({g: 2.0 * v for g, v in h1.values.items()}, problem.demand)

    def check(h):
        got = combined_objective_batch(problem, rows, h)
        assert np.array_equal(got, combined_objective_batch(load_problem(six_unit_path, 1500.0), rows, h))
        return got

    first = check(h1)
    assert not np.array_equal(check(h2), first)
    assert np.array_equal(check(h1), first)
    assert np.array_equal(check(PenaltyFactors(h1.values, problem.demand)), first)
    # a memoized fold never stands in for matching h to the problem, and an h
    # that is rejected leaves the last valid h scoring as on a fresh problem
    no_sox = PenaltyFactors({g: v for g, v in h1.values.items() if g is not Gas.SOX}, problem.demand)
    for rejected, error, message in (
        (PenaltyFactors(h1.values, 2000.0), ValueError, "demand"),
        (no_sox, ValueError, "missing"),
        (None, ValueError, "required"),
        (dict(h1.values), TypeError, "PenaltyFactors"),
    ):
        with pytest.raises(error, match=message):
            combined_objective_batch(problem, rows, rejected)
        assert np.array_equal(check(h1), first)


def test_objective_prices_a_repeated_h_only_once(monkeypatch, six_unit_path):
    # the memo is keyed by the identity of h: a repeat call with the same h
    # object never reaches _prices, and any other h object does, once
    problem = load_problem(six_unit_path, 1500.0)
    rows = np.random.default_rng(3).uniform(problem.p_min_arr, problem.p_max_arr, (4, problem.n_units))
    h = penalty_factors_all(problem)
    seen = []
    original = model._prices

    def counted(problem, h):
        seen.append(h)
        return original(problem, h)

    monkeypatch.setattr(model, "_prices", counted)
    first = combined_objective_batch(problem, rows, h)
    for _ in range(3):
        assert np.array_equal(combined_objective_batch(problem, rows, h), first)
    assert seen == [h]
    # a taller batch re-tiles the kept fold and prices nothing
    taller = np.concatenate([rows] * 10)
    assert np.array_equal(combined_objective_batch(problem, taller, h), np.tile(first, 10))
    assert seen == [h]
    equal = PenaltyFactors(h.values, problem.demand)
    assert np.array_equal(combined_objective_batch(problem, rows, equal), first)
    assert np.array_equal(combined_objective_batch(problem, rows, equal), first)
    assert seen == [h, equal] and seen[1] is equal


def test_tiles_serve_every_batch_height(six_unit_path):
    # the per-unit rows are kept as tiles of the tallest batch seen; a lower
    # batch reads their leading rows and a taller one re-tiles, so each call
    # must equal the same call on a freshly loaded problem
    problem = load_problem(six_unit_path, 1500.0)
    h = penalty_factors_all(problem)
    config = GaConfig()
    rng = np.random.default_rng(11)
    for rows in (500, 10, 600):
        bits = rng.integers(0, 2, (rows, problem.n_units * config.bits_per_gene), dtype=np.uint8)
        P = rng.uniform(0.0, 1.3 * problem.p_max_arr, (rows, problem.n_units))
        fresh = load_problem(six_unit_path, 1500.0)
        for layer in (
            lambda problem: decode(bits, problem, config),
            lambda problem: repair_batch(problem, P),
            lambda problem: combined_objective_batch(problem, P, h),
        ):
            assert np.array_equal(layer(problem), layer(fresh)), rows
    lo, hi = problem.limit_rows(600)
    assert np.shares_memory(problem.limit_rows(10)[0], lo)
    _, b, c = model._fold(problem, h, 10)
    for tile in (lo, hi, problem.limit_rows(3)[1], b, c):
        with pytest.raises(ValueError, match="read-only"):
            tile[0, 0] = 1.0


def test_per_step_constants_are_read_only_0d_copies_of_their_literals(six_unit_path):
    # the solvers' per-step ufunc operands are 0-d arrays; each shared one must
    # hold its literal's bits and refuse a write, through out= as through an index
    problem = load_problem(six_unit_path, 1777.7)
    h = penalty_factors_all(problem)
    sum_a, _, _ = model._fold(problem, h, 10)
    weights = np.array([problem.k1, *(h[gas] for gas in problem.gases)])
    a = (weights @ problem.coeff_stack.reshape(len(weights), -1)).reshape(3, -1)[0]
    twice, four_times = problem.demand_2x_4x
    constants = {
        "repair._ZERO": (repair._ZERO, 0.0),
        "repair._HALF": (repair._HALF, 0.5),
        "repair._ONE": (repair._ONE, 1.0),
        "repair._TOL": (repair._TOL, BALANCE_TOL),
        "pso._CHI": (pso._CHI, pso.CONSTRICTION),
        "ga._GENE_MAX": (ga._GENE_MAX, 2.0**16 - 1.0),
        "demand_arr": (problem.demand_arr, 1777.7),
        "2 demand": (twice, 2.0 * 1777.7),
        "4 demand": (four_times, 4.0 * 1777.7),
        "fold sum_a": (sum_a, a.sum()),
    }
    for name, (constant, literal) in constants.items():
        assert isinstance(constant, np.ndarray) and constant.shape == () and constant.dtype == np.float64, name
        assert constant.tobytes() == np.float64(literal).tobytes(), name
        assert not constant.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            np.add(constant, 1.0, out=constant)


def _read_every_cache(problem, h):
    """Fill each cache of the problem: every cached property, a 10-row tile and the objective's fold."""
    for name, attr in vars(DispatchProblem).items():
        if isinstance(attr, cached_property):
            getattr(problem, name)
    rows = repair_batch(problem, np.tile(problem.p_max_arr, (10, 1)))
    return rows, combined_objective_batch(problem, rows, h)


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    return [a for item in value for a in _arrays(item)] if isinstance(value, tuple) else []


def test_a_pickled_problem_rebuilds_its_caches_read_only(six_unit_path):
    # run_experiment pickles each problem to its pool workers once its caches
    # are filled, and NumPy unpickles every array writable: a copy carries
    # the fields only, and the loss matrix goes through its constructor
    base = load_problem(six_unit_path, 1500.0)
    problem = replace(base, losses=LossMatrix(np.diag(np.full(base.n_units, 1e-5))))
    h = penalty_factors_all(problem)
    rows, objectives = _read_every_cache(problem, h)
    copy = pickle.loads(pickle.dumps(problem))
    assert set(vars(copy)) == {f.name for f in fields(DispatchProblem)}
    assert copy.losses.b.tobytes() == problem.losses.b.tobytes()
    copy_rows, copy_objectives = _read_every_cache(copy, h)
    assert copy_rows.tobytes() == rows.tobytes() and copy_objectives.tobytes() == objectives.tobytes()
    arrays = [copy.losses.b, *copy.limit_rows(10), *_arrays(tuple(vars(copy).values()))]
    assert len(arrays) > 10
    for array in arrays:
        assert not array.flags.writeable


# --- validation at construction ---------------------------------------------


@pytest.mark.parametrize("uid", [2.5, "two", True], ids=["fraction", "string", "bool"])
def test_unit_rejects_an_id_that_is_no_integer(uid):
    # a mix of int and str ids would turn the penalty walk's tie-break key into strings
    with pytest.raises(ValueError, match=f"^'id' must be an integer, got {re.escape(repr(uid))}$"):
        make_unit(uid, 10.0, 100.0)


def test_unit_takes_a_numpy_integer_id_as_a_plain_int():
    unit = make_unit(np.int64(3), 10.0, 100.0)
    assert unit.id == 3 and type(unit.id) is int


def test_unit_rejects_inverted_limits():
    with pytest.raises(ValueError, match="p_min must be < p_max"):
        make_unit(7, 100.0, 50.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_unit(1, 10.0, float("inf")),
        lambda: make_unit(1, float("nan"), 100.0),
        lambda: make_unit(1, 10.0, 100.0, cost=(0.0, float("nan"), 0.001)),
        lambda: make_unit(1, 10.0, 100.0, sox=(2.0, float("inf"), 0.0008)),
        lambda: LossMatrix([[1e-4, float("nan")], [float("nan"), 1e-4]]),
        lambda: make_problem([make_unit(1, 10.0, 100.0)], demand=float("nan")),
    ],
    ids=["p_max", "p_min", "cost", "emission", "loss_matrix", "demand"],
)
def test_non_finite_inputs_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_loss_matrix_entries_must_be_numbers():
    # np.array(b, dtype=float) would read each of these as a number
    for b in ([["1e-4", "0"], ["0", "1e-4"]], [[1e-4, "0"], ["0", 1e-4]], [[True, False], [False, True]],
              np.eye(2, dtype=bool), [[1e-4, None], [None, 1e-4]]):
        with pytest.raises(ValueError, match="loss matrix entries must be numbers"):
            LossMatrix(b)
    for b in ([[1, 0], [0, 1]], np.eye(2, dtype=np.uint8), np.eye(2, dtype=np.float32)):
        kept = LossMatrix(b).b
        assert kept.dtype == np.float64 and (kept == np.eye(2)).all()


def _file_with_demand(path, tmp_path, value):
    """A copy of the problem file at path whose demand is value as JSON writes it."""
    doc = json.loads(path.read_text())
    if isinstance(value, np.generic):
        value = value.item()
    doc["demand"] = value.decode() if isinstance(value, bytes) else value
    out = tmp_path / "demand.json"
    out.write_text(json.dumps(doc))
    return out


# Every entry point that takes a caller's real number, as (name in its error, build from the number)
REAL_INPUTS = {
    "load_problem": ("demand", lambda v, path, tmp: load_problem(path, v)),
    "file_demand": ("demand", lambda v, path, tmp: load_problem(_file_with_demand(path, tmp, v))),
    "ExperimentSpec": ("demand", lambda v, path, tmp: ExperimentSpec(str(path), demands=(v,))),
    "DispatchProblem": ("demand", lambda v, path, tmp: replace(load_problem(path, 1500.0), demand=v)),
    "PenaltyFactors_price": ("penalty factor for nox", lambda v, path, tmp: PenaltyFactors({Gas.NOX: v}, 1500.0)),
    "PenaltyFactors_demand": ("demand", lambda v, path, tmp: PenaltyFactors({Gas.NOX: 3.1}, v)),
    "grid_search": ("resolution", lambda v, path, tmp: grid_search(
        make_problem([make_unit(1, 10.0, 100.0), make_unit(2, 10.0, 100.0)], 150.0, k2=0), resolution=v)),
}
REFUSED_REALS = ["1500", b"1500", True, np.True_, np.nan, np.inf]
ACCEPTED_REALS = [1500, np.int64(1500), np.float64(1500.0)]


@pytest.mark.parametrize("value", REFUSED_REALS + ACCEPTED_REALS, ids=repr)
@pytest.mark.parametrize("entry", REAL_INPUTS)
def test_every_real_input_must_be_a_finite_real(entry, value, six_unit_path, tmp_path):
    # digit strings, bytes and bools are refused as problem_file refuses them; integers and
    # NumPy reals are held as the float they equal, so they build what 1500.0 builds
    name, build = REAL_INPUTS[entry]
    if any(value is v for v in ACCEPTED_REALS):
        built, expected = build(value, six_unit_path, tmp_path), build(1500.0, six_unit_path, tmp_path)
        assert built == expected and repr(built) == repr(expected)
    else:
        with pytest.raises(ValueError, match=name):
            build(value, six_unit_path, tmp_path)


def test_problem_rejects_demand_outside_capacity():
    units = [make_unit(1, 50.0, 300.0), make_unit(2, 50.0, 300.0)]
    with pytest.raises(InfeasibleError):
        make_problem(units, demand=601.0)
    with pytest.raises(InfeasibleError):
        make_problem(units, demand=99.0)
    make_problem(units, demand=600.0)  # boundary demand is allowed
    make_problem(units, demand=100.0)


def test_problem_rejects_bad_weights():
    units = [make_unit(1, 50.0, 300.0)]
    with pytest.raises(ValueError, match="k1"):
        make_problem(units, demand=100.0, k1=2, k2=0)
    with pytest.raises(ValueError, match="at least one"):
        make_problem(units, demand=100.0, k1=0, k2=0)
    # True == 1 and 1.0 == 1 would pass the {0, 1} test
    for name, value in (("k1", True), ("k1", 1.0), ("k2", np.False_), ("k2", 0.0)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(value))}$"):
            make_problem(units, demand=100.0, **{"k1": 1, "k2": 0, name: value})
    assert make_problem(units, demand=100.0, k1=np.int64(1), k2=np.int8(0)).k1 == 1


def test_problem_rejects_missing_gas_coefficients():
    unit = GeneratorUnit(
        id=1, p_min=10.0, p_max=100.0, cost=(0.0, 1.0, 0.001), emissions={Gas.NOX: (1, 0.1, 0.001)}
    )
    with pytest.raises(ValueError, match="cox"):
        make_problem([unit], demand=50.0)
    make_problem([unit], demand=50.0, gases=(Gas.NOX,))


def test_problem_rejects_duplicate_unit_ids():
    units = [make_unit(1, 10.0, 100.0), make_unit(1, 10.0, 100.0)]
    with pytest.raises(ValueError, match="duplicate"):
        make_problem(units, demand=100.0)


def test_problem_rejects_a_gas_listed_twice():
    # one policy with unit ids: a repeat is refused, not merged
    units = [make_unit(1, 10.0, 100.0)]
    with pytest.raises(ValueError, match=r"duplicate gases: \['nox', 'sox', 'nox'\]"):
        make_problem(units, demand=50.0, gases=(Gas.NOX, Gas.SOX, Gas.NOX))


def test_loss_matrix_symmetry_tolerance():
    with pytest.raises(ValueError, match="asymmetric"):
        LossMatrix([[1e-4, 1e-5], [3e-5, 1e-4]])
    # asymmetry below the relative tolerance is averaged away, with a warning
    eps = 1e-4 * 0.9e-9
    with pytest.warns(UserWarning, match="symmetrizing"):
        lm = LossMatrix([[1e-4, 1e-5 + eps], [1e-5, 1e-4]])
    assert lm.b[0, 1] == lm.b[1, 0]


def test_loss_matrix_must_match_unit_count():
    units = [make_unit(1, 10.0, 100.0), make_unit(2, 10.0, 100.0)]
    with pytest.raises(ValueError, match="loss matrix"):
        make_problem(units, demand=100.0, losses=LossMatrix([[1e-4]]))


def test_penalty_factors_demand_mismatch_is_an_error(rng):
    problem = random_problem(rng, 3)
    h = PenaltyFactors({g: 1.0 for g in problem.gases}, demand=problem.demand + 50.0)
    p = problem.p_min_arr.copy()
    with pytest.raises(ValueError, match="demand"):
        evaluate_dispatch(problem, p, h)
    with pytest.raises(ValueError, match="demand"):
        combined_objective_batch(problem, p[None, :], h)


def test_every_price_reader_rejects_a_bad_plain_price(six_unit_path):
    # prices are checked once, when PenaltyFactors is built; a plain mapping
    # would skip that check, so every reader refuses one, good prices or bad,
    # even once a good fold is memoized on the problem
    problem = load_problem(six_unit_path, 1500.0)
    h = penalty_factors_all(problem)
    good = dict(h.values)
    rows = np.random.default_rng(3).uniform(problem.p_min_arr, problem.p_max_arr, (4, problem.n_units))
    readers = (
        lambda h: combined_objective_batch(problem, rows, h),
        lambda h: evaluate_dispatch(problem, rows[0], h),
        lambda h: lambda_solve(problem, h),
        lambda h: run_trials(problem, PsoConfig(particles=2, iterations=1), h, 1),
    )
    for v in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="penalty factor for sox"):
            PenaltyFactors({**good, Gas.SOX: v}, problem.demand)
    for plain in (good, {**good, Gas.SOX: -1.0}):
        for read in readers:
            read(h)
            with pytest.raises(TypeError, match="PenaltyFactors"):
                read(plain)


def test_dimension_mismatch_is_an_error(rng):
    problem = random_problem(rng, 3)
    with pytest.raises(ValueError, match="expected 3"):
        evaluate_dispatch(problem, [10.0, 20.0])
    # balance_residual takes one vector or rows; either must be 3 wide
    for bad in ([10.0, 20.0], np.zeros((4, 2)), np.zeros((2, 4))):
        with pytest.raises(ValueError, match="expected 3"):
            balance_residual(problem, bad)
