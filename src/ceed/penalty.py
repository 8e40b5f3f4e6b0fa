"""Price penalty factors: the $/kg rates that merge emissions into the cost objective.

Each unit contributes a candidate ratio h_i = fuel cost at p_max over
emission at p_max, one per gas.  For a given demand a gas's ratios are
walked in ascending order (ties by unit id) while accumulating p_max; the
ratio reached when the accumulated capacity first covers the demand is the
system penalty factor for that gas.  Larger demands therefore never select
a smaller ratio.  Every gas is priced from one evaluation of the curves at
p_max, and the factors come out as a read-only PenaltyFactors.
"""

from __future__ import annotations

import numpy as np

from .model import DispatchProblem, PenaltyFactors, curve_values


def unit_ratios(problem: DispatchProblem) -> np.ndarray:
    """Fuel cost over emission at p_max, $/kg, shape (G, N): gases in `gases` order, units in unit order."""
    at_max = curve_values(problem, problem.p_max_arr)
    cost, emissions = at_max[0], at_max[1:]
    if (emissions <= 0).any():
        g, i = np.argwhere(emissions <= 0)[0]
        raise ValueError(
            f"unit {problem.units[i].id}: {problem.gases[g].value} emission at p_max is "
            f"{emissions[g, i]:g}, cannot form a penalty ratio"
        )
    return cost / emissions


def penalty_factors_all(problem: DispatchProblem) -> PenaltyFactors:
    """Factors for every gas of the problem at its demand.

    Each gas's ratios are sorted ascending, ties broken by unit id, and
    p_max is accumulated along the sorted order; the first ratio at which
    the running capacity reaches the demand is the factor.  The problem
    invariant sum(p_max) >= demand guarantees such a ratio; should float
    drift leave none, the last one is taken.
    """
    ratios = unit_ratios(problem)
    ids = np.broadcast_to([u.id for u in problem.units], ratios.shape)
    order = np.lexsort((ids, ratios))
    capacity = problem.p_max_arr[order].cumsum(axis=1)
    # capacity rises along each row, so the count below the demand indexes the first to reach it
    reached = np.minimum((capacity < problem.demand).sum(axis=1), problem.n_units - 1)
    gases = np.arange(len(ratios))
    picked = ratios[gases, order[gases, reached]]
    return PenaltyFactors(dict(zip(problem.gases, picked.tolist())), problem.demand)
