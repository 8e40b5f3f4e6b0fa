"""Seeded benchmark inputs and the reference dispatches the quality metrics use.

Every generator writes a problem file in the README's JSON format and reads
it back with ``ceed.load_problem``, so the package sees only files, as it
does under ``ceed solve``.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ceed import ALL_GASES, Gas, evaluate_dispatch, lambda_solve, load_problem, penalty_factors_all

# Published penalty factors of the six-unit system ($/kg); acceptance
# criterion 3 holds the package to them within H_REL.
PUBLISHED_H = {
    1500.0: {"nox": 3.1669, "cox": 0.1221, "sox": 0.9182},
    2000.0: {"nox": 5.7107, "cox": 0.1307, "sox": 0.9850},
}
H_REL = 1e-4

PAPER_DEMANDS = (1500.0, 2000.0)

# Transmission loss of the lossy workload, as a share of demand, at the
# lossless economic dispatch for 1500 MW.  Loss grows with the square of
# generation, so it is about 4% at 2000 MW; 2000 MW plus that loss stays
# well inside the six units' 2306 MW of capacity.
LOSS_SHARE_1500 = 0.03

# Demand of the random systems as a share of their dispatchable range; the
# paper's two demands sit at 0.57 and 0.84 of the six-unit range.
LARGE_UNITS = 40
RANDOM_DEMAND_FRAC = 0.7


def six_unit_path(root: Path) -> Path:
    return root / "src" / "ceed" / "data" / "ieee30_6unit.json"


def _write(path: Path, raw: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(raw, indent=1) + "\n")
    return path


def write_lossy_problem(root: Path, out_dir: Path, seed: int, index: int = 0) -> Path:
    """The six-unit system plus a seeded symmetric positive-definite B-matrix.

    Diagonal terms vary by +-30% and each pair is weakly coupled; the whole
    matrix is then scaled so that the loss at the lossless 1500 MW dispatch
    is LOSS_SHARE_1500 of demand.
    """
    raw = json.loads(six_unit_path(root).read_text())
    rng = np.random.default_rng([seed, 1, index])
    n = len(raw["units"])
    diag = rng.uniform(0.7, 1.3, n)
    rho = rng.uniform(-0.05, 0.15, (n, n))
    rho = np.triu(rho, 1)
    rho = rho + rho.T + np.eye(n)
    b = rho * np.sqrt(np.outer(diag, diag))
    lossless = load_problem(six_unit_path(root), 1500.0)
    p = np.array(lambda_solve(lossless, penalty_factors_all(lossless)).powers)
    b *= LOSS_SHARE_1500 * 1500.0 / float(p @ b @ p)
    raw["name"] = f"six-unit system with seeded B-matrix (seed {seed}, instance {index})"
    raw["b_matrix"] = [[float(x) for x in row] for row in b]
    return _write(out_dir / f"lossy_{seed}_{index}.json", raw)


def write_random_problem(out_dir: Path, seed: int, index: int = 0, n_units: int = LARGE_UNITS) -> Path:
    """A random lossless system drawn like the test suite's random_problem."""
    rng = np.random.default_rng([seed, 2, n_units, index])
    units = []
    for i in range(n_units):
        p_min = rng.uniform(10.0, 50.0)
        p_max = p_min + rng.uniform(80.0, 250.0)
        cost = [rng.uniform(50.0, 400.0), rng.uniform(2.0, 12.0), rng.uniform(0.002, 0.02)]
        emissions = {}
        for gas, scale in (("nox", 1.0), ("cox", 20.0), ("sox", 5.0)):
            emissions[gas] = [
                rng.uniform(5.0, 60.0) * scale * 0.05,
                rng.uniform(0.05, 0.8) * scale * 0.2,
                rng.uniform(0.0005, 0.004) * scale,
            ]
        units.append({"id": i + 1, "p_min": p_min, "p_max": p_max, "cost": cost, "emissions": emissions})
    lo = sum(u["p_min"] for u in units)
    hi = sum(u["p_max"] for u in units)
    raw = {
        "name": f"random {n_units}-unit system (seed {seed}, instance {index})",
        "gases": [g.value for g in ALL_GASES],
        "demand": lo + RANDOM_DEMAND_FRAC * (hi - lo),
        "units": units,
        "b_matrix": None,
    }
    return _write(out_dir / f"random{n_units}_{seed}_{index}.json", raw)


@dataclass(frozen=True)
class Reference:
    """Best known total cost of one (problem, demand), with how it was found."""

    total_cost: float
    method: str


class CheckFailed(RuntimeError):
    """A benchmark input or reference dispatch failed its check."""


def _checked(problem, powers, h, method: str) -> Reference:
    sol = evaluate_dispatch(problem, powers, h)
    if not sol.feasible:
        raise CheckFailed(
            f"{method} reference at {problem.demand:g} MW is infeasible: "
            f"residual {sol.balance_residual:.3g} MW, limit violations {sol.limit_violations}"
        )
    return Reference(sol.total_cost, method)


def reference(problem) -> Reference:
    """lambda_solve for a lossless problem, SLSQP for a lossy one; checked feasible."""
    h = penalty_factors_all(problem)
    if problem.losses is None:
        return _checked(problem, lambda_solve(problem, h).powers, h, "lambda_solve")
    return _checked(problem, _slsqp(problem, h), h, "slsqp")


def _slsqp(problem, h) -> np.ndarray:
    """Minimize the scalarized quadratic subject to sum(p) = demand + p'Bp.

    Started from the lossless equal-incremental-cost dispatch.  The objective
    is written out from the coefficient arrays here so that this reference
    shares no code with the package's objective or repair.
    """
    from scipy.optimize import minimize

    a, b, c = (problem.k1 * row for row in problem.cost_arr)
    for gas in problem.gases:
        alpha, beta, gamma = problem.emission_arr[gas]
        a, b, c = a + h[gas] * alpha, b + h[gas] * beta, c + h[gas] * gamma
    B = problem.losses.b
    lo, span = problem.p_min_arr, problem.p_max_arr - problem.p_min_arr
    # optimize over u = (p - p_min) / (p_max - p_min) so every variable and
    # the objective are of order one
    x0 = np.array(lambda_solve(replace(problem, losses=None), h).powers)
    scale = float(np.sum(a + b * x0 + c * x0 * x0))

    def cost(u):
        p = lo + span * u
        return float(np.sum(a + b * p + c * p * p)) / scale

    def balance(u):
        p = lo + span * u
        return float(p.sum() - problem.demand - p @ B @ p) / problem.demand

    result = minimize(
        cost,
        (x0 - lo) / span,
        jac=lambda u: (b + 2.0 * c * (lo + span * u)) * span / scale,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * problem.n_units,
        constraints=[{
            "type": "eq",
            "fun": balance,
            "jac": lambda u: (1.0 - 2.0 * (B @ (lo + span * u))) * span / problem.demand,
        }],
        options={"ftol": 1e-14, "maxiter": 1000},
    )
    if not result.success:
        raise CheckFailed(f"SLSQP did not converge at {problem.demand:g} MW: {result.message}")
    return lo + span * np.clip(result.x, 0.0, 1.0)


def check_published_factors(path: Path) -> float:
    """Largest relative error of the six-unit penalty factors against the table."""
    worst = 0.0
    for demand, table in PUBLISHED_H.items():
        h = penalty_factors_all(load_problem(path, demand))
        for gas, want in table.items():
            worst = max(worst, abs(h[Gas(gas)] / want - 1.0))
    return worst

