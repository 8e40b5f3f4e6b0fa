"""Problem data and objective arithmetic for combined economic-emission dispatch.

A dispatch problem is a set of thermal generating units, a demand to cover,
an optional transmission-loss matrix and a pair of binary weights (k1, k2)
that switch the fuel-cost and emission terms of the scalarized objective on
or off.  Everything downstream (penalty factors, solvers, oracles) works on
the types defined here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

import numpy as np

# Tolerance (MW) below which a power-balance residual counts as satisfied.
BALANCE_TOL = 1e-6

# Relative asymmetry tolerated in a loss matrix before it is rejected.
LOSS_SYMMETRY_TOL = 1e-9


class DispatchError(Exception):
    """Base class for dispatch-domain errors."""


class InfeasibleError(DispatchError):
    """Demand cannot be met within the unit limits."""


class Gas(enum.Enum):
    """Emission species tracked by the model."""

    NOX = "nox"
    COX = "cox"
    SOX = "sox"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


ALL_GASES = (Gas.NOX, Gas.COX, Gas.SOX)


@dataclass(frozen=True)
class GeneratorUnit:
    """One thermal unit.

    cost holds the quadratic fuel-cost coefficients (a, b, c) in $/h,
    $/MWh and $/MW^2h; emissions maps each gas to its quadratic curve
    (alpha, beta, gamma) in kg/h, kg/MWh and kg/MW^2h.
    """

    id: int
    p_min: float
    p_max: float
    cost: tuple[float, float, float]
    emissions: Mapping[Gas, tuple[float, float, float]]

    def __post_init__(self) -> None:
        coeffs = [c for curve in (self.cost, *self.emissions.values()) for c in curve]
        if not all(math.isfinite(v) for v in (self.p_min, self.p_max, *coeffs)):
            raise ValueError(f"unit {self.id}: limits and coefficients must be finite")
        if self.p_min < 0:
            raise ValueError(f"unit {self.id}: p_min must be >= 0, got {self.p_min}")
        if not self.p_min < self.p_max:
            raise ValueError(
                f"unit {self.id}: p_min must be < p_max, got [{self.p_min}, {self.p_max}]"
            )
        if len(self.cost) != 3:
            raise ValueError(f"unit {self.id}: cost needs exactly (a, b, c)")
        for gas, coeffs in self.emissions.items():
            if len(coeffs) != 3:
                raise ValueError(f"unit {self.id}: {gas.value} needs exactly (alpha, beta, gamma)")
        # freeze the mapping so the dataclass stays hashable and immutable
        object.__setattr__(self, "emissions", dict(self.emissions))

    def fuel_cost(self, p: float) -> float:
        a, b, c = self.cost
        return a + b * p + c * p * p

    def emission(self, gas: Gas, p: float) -> float:
        alpha, beta, gamma = self.emissions[gas]
        return alpha + beta * p + gamma * p * p


class LossMatrix:
    """Symmetric B-coefficient matrix (1/MW) for quadratic transmission losses.

    Matrices asymmetric beyond LOSS_SYMMETRY_TOL (relative) are rejected;
    smaller asymmetries are averaged away so the stored matrix is exactly
    symmetric.
    """

    def __init__(self, b: Sequence[Sequence[float]]):
        arr = np.array(b, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"loss matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("loss matrix entries must be finite")
        scale = float(np.max(np.abs(arr))) or 1.0
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > LOSS_SYMMETRY_TOL * scale:
            raise ValueError(
                f"loss matrix asymmetric beyond tolerance: max |B - B.T| = {asym:g}"
            )
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self._b = arr

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def size(self) -> int:
        return self._b.shape[0]

    def loss(self, powers: np.ndarray) -> float:
        return float(powers @ self._b @ powers)


@dataclass(frozen=True)
class DispatchProblem:
    """Immutable problem instance.

    Invariants enforced at construction: at least one unit, every unit
    carries coefficients for every gas in `gases`, the demand lies within
    [sum p_min, sum p_max], and k1, k2 are binary with k1 + k2 >= 1.
    """

    units: tuple[GeneratorUnit, ...]
    demand: float
    gases: tuple[Gas, ...] = ALL_GASES
    losses: Optional[LossMatrix] = None
    k1: int = 1
    k2: int = 1

    def __post_init__(self) -> None:
        units = tuple(self.units)
        object.__setattr__(self, "units", units)
        if not units:
            raise ValueError("a dispatch problem needs at least one unit")
        seen_ids = [u.id for u in units]
        if len(set(seen_ids)) != len(seen_ids):
            raise ValueError(f"duplicate unit ids: {seen_ids}")
        gases = tuple(dict.fromkeys(self.gases))
        object.__setattr__(self, "gases", gases)
        for unit in units:
            for gas in gases:
                if gas not in unit.emissions:
                    raise ValueError(f"unit {unit.id} has no {gas.value} coefficients")
        if self.k1 not in (0, 1) or self.k2 not in (0, 1):
            raise ValueError(f"k1 and k2 must be 0 or 1, got k1={self.k1} k2={self.k2}")
        if self.k1 + self.k2 < 1:
            raise ValueError("at least one of k1, k2 must be 1")
        if not math.isfinite(self.demand):
            raise ValueError(f"demand must be finite, got {self.demand}")
        if self.losses is not None and self.losses.size != len(units):
            raise ValueError(
                f"loss matrix is {self.losses.size}x{self.losses.size} "
                f"for {len(units)} units"
            )
        lo, hi = sum(u.p_min for u in units), sum(u.p_max for u in units)
        if not lo <= self.demand <= hi:
            raise InfeasibleError(
                f"demand {self.demand} MW outside dispatchable range [{lo}, {hi}] MW"
            )

    @property
    def n_units(self) -> int:
        return len(self.units)

    # --- cached coefficient arrays, used on every objective evaluation ---

    @cached_property
    def p_min_arr(self) -> np.ndarray:
        return _frozen(np.array([u.p_min for u in self.units]))

    @cached_property
    def p_max_arr(self) -> np.ndarray:
        return _frozen(np.array([u.p_max for u in self.units]))

    @cached_property
    def cost_arr(self) -> np.ndarray:
        """Shape (3, N): rows a, b, c."""
        return _frozen(np.array([u.cost for u in self.units]).T)

    @cached_property
    def emission_arr(self) -> dict[Gas, np.ndarray]:
        """Per gas, shape (3, N): rows alpha, beta, gamma."""
        return {
            gas: _frozen(np.array([u.emissions[gas] for u in self.units]).T)
            for gas in self.gases
        }

    @cached_property
    def coeff_stack(self) -> np.ndarray:
        """Shape (1+G, 3, N): cost_arr, then emission_arr of each gas in `gases` order."""
        return _frozen(np.stack([self.cost_arr, *(self.emission_arr[g] for g in self.gases)]))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# Penalty factors are produced by ceed.penalty; the objective only needs a
# gas -> $/kg mapping, so accept either that object or a plain dict.
HLike = Union[Mapping[Gas, float], "object", None]


def _h_mapping(problem: DispatchProblem, h: HLike) -> Mapping[Gas, float]:
    if h is None:
        raise ValueError("penalty factors are required when k2 = 1")
    demand = getattr(h, "demand", None)
    if demand is not None and not math.isclose(demand, problem.demand, rel_tol=0, abs_tol=1e-9):
        raise ValueError(
            f"penalty factors were computed for demand {demand} MW, "
            f"problem demand is {problem.demand} MW"
        )
    values = getattr(h, "values", h)
    missing = [gas.value for gas in problem.gases if gas not in values]
    if missing:
        raise ValueError(f"penalty factors missing for: {', '.join(missing)}")
    return values


def _as_power_vector(problem: DispatchProblem, powers: Sequence[float]) -> np.ndarray:
    arr = np.asarray(powers, dtype=float)
    if arr.shape != (problem.n_units,):
        raise ValueError(
            f"expected {problem.n_units} power values, got shape {arr.shape}"
        )
    return arr


def fuel_cost_unit(unit: GeneratorUnit, p: float) -> float:
    """Quadratic fuel cost a + b*p + c*p^2 of one unit, $/h."""
    return unit.fuel_cost(p)


def total_fuel_cost(problem: DispatchProblem, powers: Sequence[float]) -> float:
    """System fuel cost, $/h."""
    p = _as_power_vector(problem, powers)
    a, b, c = problem.cost_arr
    return float(np.sum(a + b * p + c * p * p))


def gas_emission(problem: DispatchProblem, powers: Sequence[float], gas: Gas) -> float:
    """System emission of one gas, kg/h."""
    p = _as_power_vector(problem, powers)
    if gas not in problem.emission_arr:
        raise ValueError(f"problem does not track {gas.value}")
    alpha, beta, gamma = problem.emission_arr[gas]
    return float(np.sum(alpha + beta * p + gamma * p * p))


def transmission_loss(problem: DispatchProblem, powers: Sequence[float]) -> float:
    """Quadratic network loss p^T B p, MW; zero for a lossless problem."""
    p = _as_power_vector(problem, powers)
    if problem.losses is None:
        return 0.0
    return problem.losses.loss(p)


def balance_residual(problem: DispatchProblem, powers: Sequence[float]) -> float:
    """sum(p) - demand - loss(p); zero when the power balance holds, MW."""
    p = _as_power_vector(problem, powers)
    loss = problem.losses.loss(p) if problem.losses is not None else 0.0
    return float(np.sum(p)) - problem.demand - loss


def check_limits(
    problem: DispatchProblem, powers: Sequence[float]
) -> list[tuple[int, float]]:
    """Limit violations as (unit id, signed MW past the violated bound).

    Above p_max the sign is positive, below p_min negative; units inside
    their limits do not appear.
    """
    p = _as_power_vector(problem, powers)
    out = []
    for unit, pi in zip(problem.units, p):
        if pi > unit.p_max:
            out.append((unit.id, float(pi - unit.p_max)))
        elif pi < unit.p_min:
            out.append((unit.id, float(pi - unit.p_min)))
    return out


def emission_cost(problem: DispatchProblem, powers: Sequence[float], h: HLike) -> float:
    """Penalty-weighted emission cost sum_g h_g * E_g, $/h."""
    values = _h_mapping(problem, h)
    return float(
        sum(values[gas] * gas_emission(problem, powers, gas) for gas in problem.gases)
    )


def combined_objective(
    problem: DispatchProblem, powers: Sequence[float], h: HLike = None
) -> float:
    """Scalarized objective k1 * fuel cost + k2 * penalty-weighted emission.

    h may be omitted when k2 = 0; with k2 = 1 it must supply a factor for
    every gas of the problem, computed at the problem's own demand.
    """
    fc = total_fuel_cost(problem, powers) if problem.k1 else 0.0
    if not problem.k2:
        return problem.k1 * fc
    return problem.k1 * fc + problem.k2 * emission_cost(problem, powers, h)


@dataclass(frozen=True)
class DispatchSolution:
    """An evaluated dispatch: powers plus every reported quantity.

    total_cost is k1 * fuel_cost + k2 * emission_cost by construction, so
    the identity holds exactly for every solution this module produces.
    """

    powers: tuple[float, ...]
    fuel_cost: float
    emissions: Mapping[Gas, float]
    emission_cost: float
    total_cost: float
    balance_residual: float
    limit_violations: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "emissions", dict(self.emissions))

    @property
    def feasible(self) -> bool:
        return not self.limit_violations and abs(self.balance_residual) <= BALANCE_TOL


def evaluate_dispatch(
    problem: DispatchProblem, powers: Sequence[float], h: HLike = None
) -> DispatchSolution:
    """Build the full solution record for a power vector."""
    p = _as_power_vector(problem, powers)
    fc = total_fuel_cost(problem, p)
    em = {gas: gas_emission(problem, p, gas) for gas in problem.gases}
    if h is None and not problem.k2:
        ec = 0.0
    else:
        values = _h_mapping(problem, h)
        ec = float(sum(values[gas] * em[gas] for gas in problem.gases))
    return DispatchSolution(
        powers=tuple(float(x) for x in p),
        fuel_cost=fc,
        emissions=em,
        emission_cost=ec,
        total_cost=problem.k1 * fc + problem.k2 * ec,
        balance_residual=balance_residual(problem, p),
        limit_violations=tuple(check_limits(problem, p)),
    )


# --- batch objective used by the population solvers -------------------------
# Rows of P are candidate power vectors.  The weights k1 and k2 * h_g fold
# the cost and emission curves into one quadratic per unit, so a call costs
# one Horner evaluation whatever the number of gases.  Summed in another
# order than evaluate_dispatch, it agrees with total_cost to rounding, not
# bitwise; tests/test_model.py holds the two together by a property.


def combined_objective_batch(
    problem: DispatchProblem, P: np.ndarray, h: HLike = None
) -> np.ndarray:
    """Scalarized objective of every row of P, $/h; h as in combined_objective."""
    weights = np.zeros(1 + len(problem.gases))
    weights[0] = problem.k1
    if problem.k2:
        values = _h_mapping(problem, h)
        weights[1:] = [values[gas] for gas in problem.gases]
    a, b, c = (weights @ problem.coeff_stack.reshape(len(weights), -1)).reshape(3, -1)
    return (a + P * (b + c * P)).sum(axis=1)
