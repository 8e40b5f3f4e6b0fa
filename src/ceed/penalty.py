"""Price penalty factors: the $/kg rates that merge emissions into the cost objective.

Each unit contributes a candidate ratio h_i = fuel cost at p_max over
emission at p_max.  For a given demand the ratios are walked in ascending
order while accumulating p_max; the ratio reached when the accumulated
capacity first covers the demand is the system penalty factor for that gas.
Larger demands therefore never select a smaller ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .model import DispatchProblem, Gas, _check_prices, curve_values


@dataclass(frozen=True)
class UnitRatio:
    """Candidate penalty factor of one unit for one gas."""

    unit_id: int
    h: float  # $/kg at p_max
    p_max: float


@dataclass(frozen=True)
class PenaltyFactors:
    """Selected $/kg factor per gas, valid only for the demand it was built for."""

    values: Mapping[Gas, float]
    demand: float

    def __post_init__(self) -> None:
        _check_prices(self.values)
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, gas: Gas) -> float:
        return self.values[gas]


def unit_ratios(problem: DispatchProblem, gas: Gas) -> list[UnitRatio]:
    """Per-unit cost/emission ratios at p_max, in unit order."""
    if gas not in problem.gases:
        raise ValueError(f"problem does not track {gas.value}")
    at_max = curve_values(problem, problem.p_max_arr)
    costs, emissions = at_max[0], at_max[1 + problem.gases.index(gas)]
    out = []
    for unit, cost, emission in zip(problem.units, costs.tolist(), emissions.tolist()):
        if emission <= 0:
            raise ValueError(
                f"unit {unit.id}: {gas.value} emission at p_max is {emission:g}, "
                "cannot form a penalty ratio"
            )
        out.append(UnitRatio(unit_id=unit.id, h=cost / emission, p_max=unit.p_max))
    return out


def penalty_factor(problem: DispatchProblem, gas: Gas) -> float:
    """Penalty factor for one gas at the problem's demand.

    Ratios are sorted ascending (ties broken by unit id) and p_max is
    accumulated along the sorted order; the first ratio at which the
    running capacity reaches the demand is returned.  The problem
    invariant sum(p_max) >= demand guarantees the walk terminates.
    """
    ranked = sorted(unit_ratios(problem, gas), key=lambda r: (r.h, r.unit_id))
    capacity = 0.0
    for ratio in ranked:
        capacity += ratio.p_max
        if capacity >= problem.demand:
            return ratio.h
    # unreachable for a valid problem; guard against float drift anyway
    return ranked[-1].h


def penalty_factors_all(problem: DispatchProblem) -> PenaltyFactors:
    """Factors for every gas of the problem at its demand."""
    return PenaltyFactors(
        values={gas: penalty_factor(problem, gas) for gas in problem.gases},
        demand=problem.demand,
    )
