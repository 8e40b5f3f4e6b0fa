"""Independent reference solvers for lossless dispatch.

lambda_solve is the classic equal-incremental-cost iteration on the
scalarized objective; grid_search is a brute-force enumerator for up to
three units.  Both exist to cross-check the population solvers, so neither
shares any search machinery with them.  kkt_residual measures, in $/MWh, how
far a lossless dispatch is from the first-order optimality conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    BALANCE_TOL,
    DispatchError,
    DispatchProblem,
    DispatchSolution,
    InfeasibleError,
    PenaltyFactors,
    _as_power_vector,
    _prices,
    check_real,
    evaluate_dispatch,
)

LAMBDA_MAX_STEPS = 200


@dataclass(frozen=True)
class LambdaResult:
    lambda_: float  # marginal scalarized cost, $/MWh
    powers: tuple[float, ...]
    iterations: int
    residual: float  # MW

    def solution(self, problem: DispatchProblem, h: Optional[PenaltyFactors] = None) -> DispatchSolution:
        return evaluate_dispatch(problem, self.powers, h)


def _effective_coeffs(problem: DispatchProblem, h: Optional[PenaltyFactors]) -> tuple[np.ndarray, np.ndarray]:
    """Linear and quadratic coefficients of the scalarized per-unit objective."""
    _, b, c = problem.cost_arr
    b_eff = problem.k1 * b
    c_eff = problem.k1 * c
    prices = _prices(problem, h)
    if problem.k2:
        for price, gas in zip(prices, problem.gases):
            _, beta, gamma = problem.emission_arr[gas]
            b_eff += price * beta
            c_eff += price * gamma
    return b_eff, c_eff


def lambda_solve(problem: DispatchProblem, h: Optional[PenaltyFactors] = None) -> LambdaResult:
    """Bisection on the system marginal cost for a lossless problem.

    Each unit follows p_i(lambda) = clamp((lambda - b_i) / (2 c_i)) with the
    scalarized coefficients, so total output is continuous and nondecreasing
    in lambda and plain bisection closes the balance to BALANCE_TOL MW (the
    feasibility tolerance), or raises DispatchError naming the residual it
    reached.  Requires strictly positive effective quadratic coefficients.
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
    for steps in range(1, LAMBDA_MAX_STEPS + 1):
        lam = 0.5 * (lam_lo + lam_hi)
        p = powers_at(lam)
        residual = p.sum() - demand
        if abs(residual) <= BALANCE_TOL:
            break
        if residual > 0:
            lam_hi = lam
        else:
            lam_lo = lam
    else:
        raise DispatchError(f"lambda bisection did not close the balance: residual {residual:.3g} MW")
    return LambdaResult(
        lambda_=lam,
        powers=tuple(float(x) for x in p),
        iterations=steps,
        residual=float(residual),
    )


def kkt_residual(problem: DispatchProblem, h: Optional[PenaltyFactors], powers) -> float:
    """First-order optimality residual of a lossless dispatch, in $/MWh.

    At an optimum the units strictly inside their limits share one
    incremental cost lambda = b_eff + 2 c_eff p, no unit at p_min lies below
    it and no unit at p_max above it.  The residual is the spread of the free
    units' incremental costs plus the worst amount a pinned unit lies on the
    wrong side of them; with no free unit, lambda may be any value between
    the pinned units' costs.  It is 0 at an exact optimum.
    """
    if problem.losses is not None:
        raise ValueError("kkt_residual handles lossless problems only")
    b_eff, c_eff = _effective_coeffs(problem, h)
    p = _as_power_vector(problem, powers)
    marginal = b_eff + 2.0 * c_eff * p
    at_min, at_max = p <= problem.p_min_arr, p >= problem.p_max_arr
    free = marginal[~(at_min | at_max)]
    floor = marginal[at_min].min(initial=np.inf)  # no unit at p_min may cost less than lambda
    ceiling = marginal[at_max].max(initial=-np.inf)  # no unit at p_max may cost more
    if free.size:
        lo, hi = free.min(), free.max()
    else:
        lo = hi = floor if np.isfinite(floor) else ceiling
    return float(hi - lo + max(0.0, ceiling - hi, lo - floor))


def grid_search(
    problem: DispatchProblem, h: Optional[PenaltyFactors] = None, resolution: float = 1.0
) -> DispatchSolution:
    """Enumerate the first N-1 units on a grid, close the balance with the last.

    Exponential in N and meant as an oracle, so it refuses more than three
    units.  Candidates whose balancing unit falls outside its limits are
    rejected; the best feasible candidate by combined objective wins.
    """
    n = problem.n_units
    if n > 3:
        raise ValueError(f"grid_search supports at most 3 units, got {n}")
    resolution = check_real("resolution", resolution, positive=True)  # inf would search only the limits
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
        closing = _close_balance(problem, mesh)
    feasible = (closing >= lo[-1] - slack) & (closing <= hi[-1] + slack)
    if not feasible.any():
        raise InfeasibleError("no grid candidate satisfies balance within limits")
    candidates = np.column_stack(
        [mesh[feasible], np.clip(closing[feasible], lo[-1], hi[-1])]
    )
    # the constant terms are the same for every candidate, so b.p + c.p^2 ranks them
    b_eff, c_eff = _effective_coeffs(problem, h)
    objs = (candidates * (b_eff + c_eff * candidates)).sum(axis=1)
    return evaluate_dispatch(problem, candidates[int(np.argmin(objs))], h)


def _close_balance(problem: DispatchProblem, leading: np.ndarray) -> np.ndarray:
    """Per row of leading powers, the last unit's power that balances a lossy system.

    The balance is a quadratic ca x^2 + cb x + cc = 0 in that power x; ca,
    the last diagonal B term, is the same for every row.  When |ca| < 1e-15
    the linear root is returned; otherwise the smaller nonnegative root, or
    NaN where the discriminant is negative or no root is nonnegative.
    """
    b = problem.losses.b
    k = problem.n_units - 1
    lead_loss = ((leading @ b[:k, :k]) * leading).sum(axis=1)
    ca = float(b[k, k])
    cb = 2.0 * (leading @ b[k, :k]) - 1.0
    cc = problem.demand + lead_loss - leading.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        if abs(ca) < 1e-15:
            return -cc / cb
        root = np.sqrt(cb * cb - 4.0 * ca * cc)  # NaN where the discriminant is negative
        low, high = (-cb - root) / (2.0 * ca), (-cb + root) / (2.0 * ca)
        low, high = np.minimum(low, high), np.maximum(low, high)
    # the physical branch is the smaller nonnegative injection
    return np.where(low >= 0, low, np.where(high >= 0, high, np.nan))
