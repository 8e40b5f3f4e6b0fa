"""Independent reference solvers for lossless dispatch.

lambda_solve is the classic equal-incremental-cost iteration on the
scalarized objective; grid_search is a brute-force enumerator for up to
three units.  Both exist to cross-check the population solvers, so neither
shares any search machinery with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    DispatchProblem,
    DispatchSolution,
    HLike,
    InfeasibleError,
    _prices,
    combined_objective_batch,
    evaluate_dispatch,
)

LAMBDA_TOL = 1e-6  # MW, on the balance residual
LAMBDA_MAX_STEPS = 200


@dataclass(frozen=True)
class LambdaResult:
    lambda_: float  # marginal scalarized cost, $/MWh
    powers: tuple[float, ...]
    iterations: int
    residual: float  # MW

    def solution(self, problem: DispatchProblem, h: HLike = None) -> DispatchSolution:
        return evaluate_dispatch(problem, self.powers, h)


def _effective_coeffs(problem: DispatchProblem, h: HLike) -> tuple[np.ndarray, np.ndarray]:
    """Linear and quadratic coefficients of the scalarized per-unit objective."""
    _, b, c = problem.cost_arr
    b_eff = problem.k1 * b
    c_eff = problem.k1 * c
    if problem.k2:
        for price, gas in zip(_prices(problem, h), problem.gases):
            _, beta, gamma = problem.emission_arr[gas]
            b_eff += price * beta
            c_eff += price * gamma
    return b_eff, c_eff


def lambda_solve(problem: DispatchProblem, h: HLike = None) -> LambdaResult:
    """Bisection on the system marginal cost for a lossless problem.

    Each unit follows p_i(lambda) = clamp((lambda - b_i) / (2 c_i)) with the
    scalarized coefficients, so total output is continuous and nondecreasing
    in lambda and plain bisection closes the balance to LAMBDA_TOL MW.  Requires
    strictly positive effective quadratic coefficients.
    """
    if problem.losses is not None:
        raise ValueError("lambda_solve handles lossless problems only")
    b_eff, c_eff = _effective_coeffs(problem, h)
    if np.any(c_eff <= 0):
        bad = [problem.units[i].id for i in np.flatnonzero(c_eff <= 0)]
        raise ValueError(
            f"effective quadratic coefficient not positive for units {bad}; "
            "equal-incremental-cost dispatch is undefined"
        )
    lo_p, hi_p = problem.p_min_arr, problem.p_max_arr
    demand = problem.demand

    def powers_at(lam: float) -> np.ndarray:
        return np.clip((lam - b_eff) / (2.0 * c_eff), lo_p, hi_p)

    lam_lo = float(np.min(b_eff + 2.0 * c_eff * lo_p))
    lam_hi = float(np.max(b_eff + 2.0 * c_eff * hi_p))
    p = powers_at(lam_hi)
    residual = p.sum() - demand
    if residual < -LAMBDA_TOL:
        raise InfeasibleError(f"demand {demand} MW above reachable total {p.sum():g} MW")
    lam = lam_hi
    steps = 0
    for steps in range(1, LAMBDA_MAX_STEPS + 1):
        lam = 0.5 * (lam_lo + lam_hi)
        p = powers_at(lam)
        residual = p.sum() - demand
        if abs(residual) <= LAMBDA_TOL:
            break
        if residual > 0:
            lam_hi = lam
        else:
            lam_lo = lam
    return LambdaResult(
        lambda_=lam,
        powers=tuple(float(x) for x in p),
        iterations=steps,
        residual=float(residual),
    )


def grid_search(
    problem: DispatchProblem, h: HLike = None, resolution: float = 1.0
) -> DispatchSolution:
    """Enumerate the first N-1 units on a grid, close the balance with the last.

    Exponential in N and meant as an oracle, so it refuses more than three
    units.  Candidates whose balancing unit falls outside its limits are
    rejected; the best feasible candidate by combined objective wins.
    """
    n = problem.n_units
    if n > 3:
        raise ValueError(f"grid_search supports at most 3 units, got {n}")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    lo, hi = problem.p_min_arr, problem.p_max_arr

    def axis(i: int) -> np.ndarray:
        # include p_max even when the range is not a multiple of the step
        g = np.arange(lo[i], hi[i], resolution)
        return np.append(g, hi[i])

    grids = [axis(i) for i in range(n - 1)]
    if grids:
        mesh = np.stack([m.ravel() for m in np.meshgrid(*grids, indexing="ij")], axis=1)
    else:
        mesh = np.zeros((1, 0))
    slack = 1e-9 * max(1.0, float(hi[-1]))
    if problem.losses is None:
        closing = problem.demand - mesh.sum(axis=1)
    else:
        raw = (_close_balance(problem, row) for row in mesh)
        closing = np.array([np.nan if r is None else r for r in raw], dtype=float)
    feasible = (closing >= lo[-1] - slack) & (closing <= hi[-1] + slack)
    if not feasible.any():
        raise InfeasibleError("no grid candidate satisfies balance within limits")
    candidates = np.column_stack(
        [mesh[feasible], np.clip(closing[feasible], lo[-1], hi[-1])]
    )
    objs = combined_objective_batch(problem, candidates, h)
    return evaluate_dispatch(problem, candidates[int(np.argmin(objs))], h)


def _close_balance(problem: DispatchProblem, leading: np.ndarray) -> Optional[float]:
    """Power of the last unit that balances a lossy system (a quadratic in it), or None."""
    b = problem.losses.b
    k = problem.n_units - 1
    lead_loss = float(leading @ b[:k, :k] @ leading) if k else 0.0
    ca = float(b[k, k])
    cb = 2.0 * float(b[k, :k] @ leading) - 1.0 if k else -1.0
    cc = problem.demand + lead_loss - float(leading.sum())
    if abs(ca) < 1e-15:
        return -cc / cb
    disc = cb * cb - 4.0 * ca * cc
    if disc < 0:
        return None
    roots = ((-cb - np.sqrt(disc)) / (2 * ca), (-cb + np.sqrt(disc)) / (2 * ca))
    # the physical branch is the smaller nonnegative injection
    candidates = [r for r in roots if r >= 0]
    return min(candidates) if candidates else None
