"""Acceptance criteria for the six-unit benchmark reproduction.

Each test covers one criterion and prints a single PASS/FAIL line; the
numeric tolerances are pinned here and nowhere else.  Reference values are
the published six-unit results this package reproduces: best total cost
out of 50 seeded trials per solver at 1500 and 2000 MW, the per-demand
penalty factors, and the table's arithmetic identities.
"""

import numpy as np

from ceed.ga import P_MUTATION, GaConfig, crossover, crossover_masks, flip_positions, roulette_select
from ceed.harness import ExperimentSpec, run_experiment, run_trials
from ceed.model import (
    BALANCE_TOL,
    Gas,
    LossMatrix,
    balance_residual,
    check_limits,
    evaluate_dispatch,
    transmission_loss,
)
from ceed.oracle import grid_search, lambda_solve
from ceed.penalty import penalty_factors_all
from ceed.problem_file import load_problem
from ceed.pso import PsoConfig, init_swarm, step

from conftest import make_problem, make_unit, random_problem, run_one

# -- pinned tolerances --------------------------------------------------------
TC_IDENTITY_ABS = 0.02  # $/h, criterion 1
EC_IDENTITY_REL = 1e-3  # criterion 2
H_REL = 1e-4  # criterion 3
SOLVER_TC_REL = 1e-2  # criterion 4
ORACLE_REL = 1e-3  # criterion 5
GA_WORST_REL = 5e-3  # the GA's worst trial against the lambda oracle

# -- published six-unit results -----------------------------------------------
# columns: (PSO, 1500), (GA, 1500), (PSO, 2000), (GA, 2000)
TABLE_E = {
    Gas.NOX: (1719.67, 1748.28, 2540.68, 2573.48),
    Gas.COX: (39626.51, 38949.38, 73738.76, 75848.25),
    Gas.SOX: (9623.04, 9669.29, 13601.05, 13221.23),
}
TABLE_EC = (19121.26, 19171.65, 37543.01, 37631.82)
TABLE_FC = (14827.57, 14833.87, 19445.29, 19465.34)
TABLE_TC = (33948.83, 34005.52, 56988.30, 57097.16)
TABLE_H = {
    1500.0: {Gas.NOX: 3.1669, Gas.COX: 0.1221, Gas.SOX: 0.9182},
    2000.0: {Gas.NOX: 5.7107, Gas.COX: 0.1307, Gas.SOX: 0.9850},
}
COLUMN_DEMAND = (1500.0, 1500.0, 2000.0, 2000.0)
COLUMN_SOLVER = ("pso", "ga", "pso", "ga")


def report(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_scalarization_identity():
    gaps = [abs(fc + ec - tc) for fc, ec, tc in zip(TABLE_FC, TABLE_EC, TABLE_TC)]
    report(
        1,
        max(gaps) <= TC_IDENTITY_ABS,
        f"FC + EC = TC on all four columns, max gap {max(gaps):.4f} $/h "
        f"(allowed {TC_IDENTITY_ABS})",
    )


def test_criterion_2_penalty_sum_identity():
    rels = []
    for col in range(4):
        h = TABLE_H[COLUMN_DEMAND[col]]
        ec = sum(h[gas] * TABLE_E[gas][col] for gas in h)
        rels.append(abs(ec / TABLE_EC[col] - 1.0))
    report(
        2,
        max(rels) <= EC_IDENTITY_REL,
        f"sum of h_g * E_g rebuilds EC on all four columns, max rel err "
        f"{max(rels):.2e} (allowed {EC_IDENTITY_REL})",
    )


def test_criterion_3_penalty_factor_reproduction(six_unit_path):
    rels = []
    for demand, expected in TABLE_H.items():
        h = penalty_factors_all(load_problem(six_unit_path, demand))
        rels += [abs(h[gas] / want - 1.0) for gas, want in expected.items()]
    report(
        3,
        max(rels) <= H_REL,
        f"fixture reproduces all six penalty factors, max rel err "
        f"{max(rels):.2e} (allowed {H_REL})",
    )


def test_criterion_4_solver_quality_on_benchmark(six_unit_path):
    spec = ExperimentSpec(
        problem_path=str(six_unit_path),
        demands=(1500.0, 2000.0),
        solver="both",
        trials=50,
        base_seed=0,
    )
    best = {(r.solver, r.demand): min(r.total_costs) for r in run_experiment(spec)}
    rels = {}
    for col in range(4):
        key = (COLUMN_SOLVER[col], COLUMN_DEMAND[col])
        rels[key] = best[key] / TABLE_TC[col] - 1.0
    detail = "  ".join(
        f"{solver}@{demand:g}: best={best[(solver, demand)]:.2f} ({rel * 100:+.3f}%)"
        for (solver, demand), rel in rels.items()
    )
    report(
        4,
        max(abs(r) for r in rels.values()) <= SOLVER_TC_REL,
        f"best-of-50 within 1% of the published TC for every pair — {detail}",
    )


def meet_column(problem, targets, seed, steps=50):
    """A dispatch within the limits whose FC and emissions are `targets` and whose sum is the demand.

    Damped Gauss-Newton on the relative errors of the 1 + G curve sums and
    the balance (five equations in six unknowns here), each step the
    least-norm solution of the linearized equations, halved until the
    largest error falls.  The powers are p_min + (p_max - p_min)(1 + sin
    theta) / 2, so every iterate lies within the limits; theta starts
    uniform in [-1, 1] from the seed.
    """
    a, b, c = problem.coeff_stack.transpose(1, 0, 2)
    lo, half = problem.p_min_arr, 0.5 * (problem.p_max_arr - problem.p_min_arr)
    targets = np.append(targets, problem.demand)

    def power(theta):
        return lo + half * (1.0 + np.sin(theta))

    def errors(p):
        return np.append(a.sum(axis=-1) + (b + c * p) @ p, p.sum()) / targets - 1.0

    theta = np.random.default_rng(seed).uniform(-1.0, 1.0, problem.n_units)
    f = errors(power(theta))
    for _ in range(steps):
        p = power(theta)
        jacobian = np.vstack([b + 2.0 * c * p, np.ones_like(p)]) / targets[:, None] * (half * np.cos(theta))
        step = np.linalg.lstsq(jacobian, -f, rcond=None)[0]
        for scale in 0.5 ** np.arange(40):
            g = errors(power(theta + scale * step))
            if np.abs(g).max() < np.abs(f).max():
                theta, f = theta + scale * step, g
                break
        else:
            break  # at the rounding floor
    return power(theta)


def test_each_published_column_is_a_feasible_dispatch(six_unit_path):
    # the table's FC and three emissions are met together by a balanced
    # dispatch within the limits: the published points are points of this model
    worst = 0.0
    for col in range(4):
        problem = load_problem(six_unit_path, COLUMN_DEMAND[col])
        targets = np.array([TABLE_FC[col], *(TABLE_E[gas][col] for gas in problem.gases)])
        solution = evaluate_dispatch(problem, meet_column(problem, targets, seed=col), penalty_factors_all(problem))
        assert solution.feasible, col
        got = np.array([solution.fuel_cost, *(solution.emissions[gas] for gas in problem.gases)])
        worst = max(worst, np.abs(got / targets - 1.0).max(), abs(solution.balance_residual) / problem.demand)
    assert worst <= 1e-8, worst


def test_published_costs_lie_above_the_optimum_and_the_package_at_or_below_them(six_unit_path):
    # so criterion 4's two-sided bound holds because the package beats the
    # table: it is 0.40-0.59% above the lambda optimum (README, Testing)
    spec = ExperimentSpec(problem_path=str(six_unit_path), demands=(1500.0, 2000.0), solver="both", trials=50)
    best = {(r.solver, r.demand): min(r.total_costs) for r in run_experiment(spec)}
    above = []
    for col in range(4):
        problem = load_problem(six_unit_path, COLUMN_DEMAND[col])
        h = penalty_factors_all(problem)
        optimum = lambda_solve(problem, h).solution(problem, h).total_cost
        assert optimum < TABLE_TC[col], col
        assert best[COLUMN_SOLVER[col], COLUMN_DEMAND[col]] <= TABLE_TC[col], col
        above.append(TABLE_TC[col] / optimum - 1.0)
    assert 0.40 <= round(100 * min(above), 2) and round(100 * max(above), 2) <= 0.59, above


def test_ga_worst_trial_ends_near_the_oracle(six_unit_path):
    # the CLI protocol's 50 GA trials at 2000 MW, where repair moves most rows
    problem = load_problem(six_unit_path, 2000.0)
    h = penalty_factors_all(problem)
    optimum = lambda_solve(problem, h).solution(problem, h).total_cost
    worst = max(sol.total_cost for sol, _ in run_trials(problem, GaConfig(seed=0), h, 50))
    assert worst / optimum - 1.0 <= GA_WORST_REL, f"worst GA trial {worst:.2f} $/h against the optimum {optimum:.2f}"


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(424242)
    worst_solver = 0.0
    worst_grid = -np.inf
    for k in range(100):
        problem = random_problem(rng, 2 if k % 2 == 0 else 3)
        h = penalty_factors_all(problem)
        reference = lambda_solve(problem, h).solution(problem, h)
        pso_sol, _ = run_one(problem, PsoConfig(iterations=200, seed=k), h)
        ga_sol, _ = run_one(problem, GaConfig(generations=300, seed=k), h)
        for sol in (pso_sol, ga_sol):
            worst_solver = max(
                worst_solver, abs(sol.total_cost / reference.total_cost - 1.0)
            )
        grid = grid_search(problem, h, resolution=1.0)
        # one grid step can cost at most the steepest marginal times the step
        b, c = problem.cost_arr[1], problem.cost_arr[2]
        slope = b + 2.0 * c * problem.p_max_arr
        for gas in problem.gases:
            beta, gamma = problem.emission_arr[gas][1], problem.emission_arr[gas][2]
            slope = slope + h[gas] * (beta + 2.0 * gamma * problem.p_max_arr)
        step_bound = float(np.max(slope))
        gap = grid.total_cost - reference.total_cost
        assert gap >= -1e-6 * reference.total_cost  # the oracle is a true lower bound
        worst_grid = max(worst_grid, gap - step_bound)
    report(
        5,
        worst_solver <= ORACLE_REL and worst_grid <= 0.0,
        f"100 random 2-3 unit instances: solvers within {ORACLE_REL:.1%} of the "
        f"lambda oracle (worst {worst_solver:.2e}); grid search within one step",
    )


def test_criterion_6_invariant_suite(rng):
    failures = []

    # trace monotonicity and determinism, both solvers
    problem = random_problem(rng, 4)
    h = penalty_factors_all(problem)
    p1, tr_p1 = run_one(problem, PsoConfig(iterations=80, seed=3), h)
    p2, tr_p2 = run_one(problem, PsoConfig(iterations=80, seed=3), h)
    g1, tr_g1 = run_one(problem, GaConfig(generations=80, seed=3), h)
    g2, tr_g2 = run_one(problem, GaConfig(generations=80, seed=3), h)
    if np.any(np.diff(tr_p1) > 1e-12) or np.any(np.diff(tr_g1) > 1e-12):
        failures.append("trace not monotone")
    if p1.powers != p2.powers or not np.array_equal(tr_p1, tr_p2):
        failures.append("pso not deterministic")
    if g1.powers != g2.powers or not np.array_equal(tr_g1, tr_g2):
        failures.append("ga not deterministic")

    # every PSO iterate satisfies limits and balance
    cfg = PsoConfig(iterations=50, seed=9)
    state = init_swarm(problem, cfg, h)
    for t in range(cfg.iterations):
        step(state, problem, cfg, h, t)
        for p in state.positions[0]:
            if check_limits(problem, p) or abs(balance_residual(problem, p)) > BALANCE_TOL:
                failures.append(f"infeasible iterate at t={t}")
                break

    # roulette frequencies within 3 sigma of the exact shares (fitness 3 : 1 : 0)
    wheel_rng = np.random.default_rng(77)
    objectives = np.array([[0.0, 2.0, 3.0]])
    hits = int((roulette_select(objectives, wheel_rng.random((1, 10_000))) == 0).sum())
    sigma = np.sqrt(0.75 * 0.25 / 10_000)
    if abs(hits / 10_000 - 0.75) > 3 * sigma:
        failures.append(f"roulette frequency {hits / 10_000:.4f} off 0.75")

    # crossover conserves the per-position bit multiset of every pair
    cross_rng = np.random.default_rng(78)
    a = cross_rng.integers(0, 2, (200, 48), dtype=np.uint8)
    b = cross_rng.integers(0, 2, (200, 48), dtype=np.uint8)
    parents = np.stack([a, b], axis=1).reshape(1, 400, 48)
    children = crossover(parents, crossover_masks(cross_rng.random((1, 200)), cross_rng.random((1, 200)), 48))[0]
    if not np.array_equal(children[0::2] + children[1::2], a + b):
        failures.append("crossover lost bits")

    # mutation flip count within 3 sigma of binomial(n, p_m)
    mut_rng = np.random.default_rng(79)
    n, pm = 10_000, P_MUTATION
    flips = next(flip_positions(mut_rng, [n])).size
    sigma = np.sqrt(n * pm * (1 - pm))
    if abs(flips - n * pm) > 3 * sigma:
        failures.append(f"mutation flips {flips} outside binomial band")

    report(6, not failures, "invariants hold" if not failures else "; ".join(failures))


def test_criterion_7_degenerate_suite():
    failures = []

    # a single unit leaves no freedom: both solvers land exactly on demand
    single = make_problem([make_unit(1, 40.0, 260.0)], demand=190.0)
    h = penalty_factors_all(single)
    for name, sol in (
        ("pso", run_one(single, PsoConfig(iterations=10, seed=1), h)[0]),
        ("ga", run_one(single, GaConfig(generations=10, seed=1), h)[0]),
    ):
        if abs(sol.powers[0] - 190.0) > BALANCE_TOL:
            failures.append(f"{name} missed the forced dispatch")

    # k2 = 0 reduces the objective to pure fuel cost
    cost_only = make_problem(
        [make_unit(1, 20.0, 250.0), make_unit(2, 30.0, 300.0)], demand=330.0, k2=0
    )
    powers = [180.0, 150.0]
    sol = evaluate_dispatch(cost_only, powers)
    if sol.total_cost != sol.fuel_cost:
        failures.append("k2=0 objective is not pure fuel cost")

    # an all-zero loss matrix gives exactly zero loss
    lossy = make_problem(
        [make_unit(1, 20.0, 250.0), make_unit(2, 30.0, 300.0)],
        demand=330.0,
        losses=LossMatrix(np.zeros((2, 2))),
    )
    if transmission_loss(lossy, powers) != 0.0:
        failures.append("zero B matrix produced nonzero loss")

    report(7, not failures, "degenerate cases hold" if not failures else "; ".join(failures))
