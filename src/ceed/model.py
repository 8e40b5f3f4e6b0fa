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
import numbers
import warnings
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
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


def check_integer(name: str, value, least: Optional[int] = None) -> None:
    """Refuse a value that is not an integer of any type (a bool included) or is below `least`."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value, positive: bool = False) -> float:
    """value as a float, refused unless a finite real number (no bool, string or bytes), > 0 if `positive`."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    if not (0.0 < number < math.inf if positive else math.isfinite(number)):
        raise ValueError(f"{name} must be {'> 0 and finite' if positive else 'finite'}, got {number}")
    return number


def block_steps(steps: int, trials: int, span: int, per_trial: int, per_batch: int) -> int:
    """Whole steps per draw block for a batch of `trials` trials that each draw `span` numbers a step.

    As few blocks of even length over `steps` as keep each trial's part to
    per_trial numbers and the batch's to per_batch, at least one step each.
    """
    most = max(1, min(per_trial, per_batch // trials) // span)  # steps a block may hold
    return max(1, -(-steps // max(1, -(-steps // most))))  # over the fewest blocks, evened out


class Gas(enum.Enum):
    """Emission species tracked by the model."""

    NOX = "nox"
    COX = "cox"
    SOX = "sox"

    def __str__(self) -> str:
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
        # ids break penalty-walk ties and name units: anything but an integer is
        # rejected, never rounded, and an integer of any type is kept as an int
        check_integer("'id'", self.id)
        object.__setattr__(self, "id", int(self.id))
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
        # a plain-dict copy detaches the unit from the caller's mapping; it is not frozen
        object.__setattr__(self, "emissions", dict(self.emissions))


class LossMatrix:
    """Symmetric B-coefficient matrix (1/MW) for quadratic transmission losses.

    Matrices asymmetric beyond LOSS_SYMMETRY_TOL (relative) are rejected;
    smaller asymmetries are averaged away with a UserWarning, so the stored
    matrix is exactly symmetric.
    """

    def __init__(self, b: Sequence[Sequence[float]]):
        if np.asarray(b).dtype.kind not in "iuf":  # dtype=float alone would read digit strings and bools
            raise ValueError(f"loss matrix entries must be numbers, got {np.asarray(b).dtype} entries")
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
        if asym > 0.0:
            warnings.warn(f"loss matrix asymmetric by {asym:g}, symmetrizing", stacklevel=2)
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self._b = arr

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def size(self) -> int:
        return self._b.shape[0]

    def __reduce__(self):
        # to the constructor, which copies b read-only; b is symmetric, so it is rebuilt bit for bit
        return LossMatrix, (self._b,)

    def loss(self, powers: np.ndarray) -> np.ndarray:
        """p'Bp of one power vector, or of every row of a batch, MW.

        Formed with the row-wise gufuncs vecmat and vecdot, which put every
        row through the same kernel, so a row's loss has the same bits alone
        as in any batch; p @ B would take BLAS's one-row path on a lone row.
        """
        return np.vecdot(np.vecmat(powers, self._b), powers)


@dataclass(frozen=True)
class DispatchProblem:
    """Immutable problem instance.

    Invariants enforced at construction: at least one unit, no id or gas
    listed twice, every unit's coefficients for every gas in `gases`, the
    demand within [sum p_min, sum p_max], and binary k1, k2 with k1 + k2 >= 1.
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
        gases = tuple(self.gases)
        object.__setattr__(self, "gases", gases)
        if len(set(gases)) != len(gases):
            raise ValueError(f"duplicate gases: {[str(gas) for gas in gases]}")
        for unit in units:
            for gas in gases:
                if gas not in unit.emissions:
                    raise ValueError(f"unit {unit.id} has no {gas.value} coefficients")
        for name in ("k1", "k2"):
            check_integer(name, getattr(self, name))
        if self.k1 not in (0, 1) or self.k2 not in (0, 1):
            raise ValueError(f"k1 and k2 must be 0 or 1, got k1={self.k1} k2={self.k2}")
        if self.k1 + self.k2 < 1:
            raise ValueError("at least one of k1, k2 must be 1")
        object.__setattr__(self, "demand", check_real("demand", self.demand))
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

    def __reduce__(self):
        # by the fields only: NumPy unpickles arrays writable, so the copy rebuilds its caches read-only
        return DispatchProblem, (self.units, self.demand, self.gases, self.losses, self.k1, self.k2)

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
    def _limit_tiles(self) -> tuple[np.ndarray, np.ndarray]:
        return self.p_min_arr[None], self.p_max_arr[None]

    def limit_rows(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """p_min and p_max as read-only (rows, N) tiles: the leading rows of the tallest ones built.

        An op at the batch's shape runs one flat loop, where an (N,) row runs one per row; same bits.
        """
        lo, hi = self._limit_tiles
        if len(lo) < rows:
            lo, hi = _tiled(lo, rows), _tiled(hi, rows)
            object.__setattr__(self, "_limit_tiles", (lo, hi))
        return lo[:rows], hi[:rows]

    @cached_property
    def demand_arr(self) -> np.ndarray:
        """The demand as a read-only 0-d array: the residual's operand on every step."""
        return frozen_scalar(self.demand)

    @cached_property
    def demand_2x_4x(self) -> tuple[np.ndarray, np.ndarray]:
        """2 demand and 4 demand as read-only 0-d arrays, the lossy first scale's operands; exact scalings."""
        return frozen_scalar(2.0 * self.demand), frozen_scalar(4.0 * self.demand)

    @cached_property
    def ones(self) -> np.ndarray:
        """N ones: np.vecdot(rows, ones) sums each row through the row-wise dot kernel."""
        return _frozen(np.ones(self.n_units))

    @cached_property
    def p_min_total(self) -> float:
        """sum(p_min), MW: no row of powers within the limits sums to less."""
        return float(self.p_min_arr.sum())

    @cached_property
    def coeff_stack(self) -> np.ndarray:
        """Shape (1+G, 3, N): cost (a, b, c), then (alpha, beta, gamma) per gas in `gases` order."""
        curves = [[u.cost for u in self.units]]
        curves += [[u.emissions[gas] for u in self.units] for gas in self.gases]
        return _frozen(np.array(curves, dtype=float).swapaxes(1, 2).copy())

    @cached_property
    def _fold_memo(self) -> tuple[object, Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
        """combined_objective_batch's memo: the last h and its folded (sum of a, b, c), b and c tiled."""
        return _NO_H, None

    @property
    def cost_arr(self) -> np.ndarray:
        """Shape (3, N): rows a, b, c; a view of coeff_stack."""
        return self.coeff_stack[0]

    @property
    def emission_arr(self) -> dict[Gas, np.ndarray]:
        """Per gas, shape (3, N): rows alpha, beta, gamma; views of coeff_stack."""
        return dict(zip(self.gases, self.coeff_stack[1:]))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def frozen_scalar(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array, a ufunc operand without the Python-float surcharge.

    Read-only because it is shared: no out= can overwrite it.
    """
    return _frozen(np.array(value, dtype=np.float64))


def _tiled(tile: np.ndarray, rows: int) -> np.ndarray:
    return _frozen(np.repeat(tile[:1], rows, axis=0))


@dataclass(frozen=True)
class PenaltyFactors:
    """$/kg price per gas, valid only for the demand it was built for.

    ceed.penalty.penalty_factors_all builds it for a problem.  Each price and
    the demand are checked here, once, by check_real; the prices are then a
    read-only view, so what every reader prices with is what was checked.
    """

    values: Mapping[Gas, float]
    demand: float

    def __post_init__(self) -> None:
        prices = self.values.items()
        values = {gas: check_real(f"penalty factor for {gas}", price, positive=True) for gas, price in prices}
        object.__setattr__(self, "values", MappingProxyType(values))
        object.__setattr__(self, "demand", check_real("demand", self.demand))

    def __getitem__(self, gas: Gas) -> float:
        return self.values[gas]

    def __reduce__(self):
        # a read-only view does not pickle, so a worker process rebuilds h from a copy
        return PenaltyFactors, (dict(self.values), self.demand)


def _prices(problem: DispatchProblem, h: Optional[PenaltyFactors]) -> tuple[float, ...]:
    """h_g per gas in `gases` order, $/kg, matched to the problem's gases and demand.

    Without h the prices are empty, which only k2 = 0 allows.  _prices is
    the one reader of h.
    """
    if h is None:
        if problem.k2:
            raise ValueError("penalty factors are required when k2 = 1")
        return ()
    if not isinstance(h, PenaltyFactors):
        raise TypeError(f"penalty factors must be a PenaltyFactors, got {type(h).__name__}")
    if not math.isclose(h.demand, problem.demand, rel_tol=0, abs_tol=1e-9):
        raise ValueError(
            f"penalty factors were computed for demand {h.demand} MW, "
            f"problem demand is {problem.demand} MW"
        )
    try:
        return tuple(h.values[gas] for gas in problem.gases)
    except KeyError as exc:
        raise ValueError(f"penalty factor missing for {exc.args[0]}") from None


def _as_power_vector(problem: DispatchProblem, powers: Sequence[float]) -> np.ndarray:
    arr = np.asarray(powers, dtype=float)
    if arr.shape != (problem.n_units,):
        raise ValueError(
            f"expected {problem.n_units} power values, got shape {arr.shape}"
        )
    return arr


def curve_values(problem: DispatchProblem, powers: np.ndarray) -> np.ndarray:
    """Per unit, fuel cost ($/h) then each gas's emission (kg/h) in `gases` order.

    Shape (1+G, N) for one power vector of N, (R, 1+G, N) for R rows.
    """
    p = np.asarray(powers, dtype=float)[..., None, :]
    a, b, c = problem.coeff_stack.transpose(1, 0, 2)
    return a + b * p + c * p * p


def transmission_loss(problem: DispatchProblem, powers: Sequence[float]) -> float:
    """Quadratic network loss p^T B p, MW; zero for a lossless problem."""
    p = _as_power_vector(problem, powers)
    return 0.0 if problem.losses is None else float(problem.losses.loss(p))


def balance_residual(problem: DispatchProblem, powers: np.ndarray) -> Union[float, np.ndarray]:
    """sum(p) - demand - p'Bp of one power vector or of every row, MW; zero when balanced."""
    p = np.asarray(powers, dtype=float)
    if p.shape[-1:] != (problem.n_units,):
        raise ValueError(f"expected {problem.n_units} power values per row, got shape {p.shape}")
    r = np.vecdot(p, problem.ones) - problem.demand_arr
    return r if problem.losses is None else r - problem.losses.loss(p)


def check_limits(
    problem: DispatchProblem, powers: Sequence[float]
) -> list[tuple[int, float]]:
    """Limit violations as (unit id, signed MW past the violated bound).

    Above p_max the sign is positive, below p_min negative; units inside
    their limits do not appear.
    """
    p = _as_power_vector(problem, powers)
    # p less its clamp is p - p_max above, p - p_min below, 0 inside; NaN is neither
    past = p - np.minimum(np.maximum(p, problem.p_min_arr), problem.p_max_arr)
    return [(unit.id, v) for unit, v in zip(problem.units, past.tolist()) if v > 0 or v < 0]


@dataclass(frozen=True)
class DispatchSolution:
    """An evaluated dispatch: powers plus every reported quantity.

    Exact: total_cost is the search objective the solvers ranked the powers
    by (combined_objective_batch), and equals fuel_cost when k2 = 0.  Only to
    rounding: total_cost = k1 * fuel_cost + k2 * emission_cost.
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
    problem: DispatchProblem, powers: Sequence[float], h: Optional[PenaltyFactors] = None
) -> DispatchSolution:
    """The full solution record of one power vector, the package's one scalar evaluator.

    Every curve is summed on the objective's row kernel.  emission_cost is
    sum_g h_g * E_g whenever h is given.  h may be omitted only when k2 = 0,
    and the emission cost is then 0; otherwise it must supply a finite,
    positive factor for every gas, computed at the problem's own demand.
    """
    p = _as_power_vector(problem, powers)
    a, b, c = problem.coeff_stack.transpose(1, 0, 2)
    fc, *em = (a.sum(axis=-1) + np.vecdot(p, b + c * p)).tolist()
    ec = float(sum(price * e for price, e in zip(_prices(problem, h), em)))
    return DispatchSolution(
        powers=tuple(p.tolist()),
        fuel_cost=fc,
        emissions=dict(zip(problem.gases, em)),
        emission_cost=ec,
        total_cost=float(combined_objective_batch(problem, p[None], h)[0]),
        balance_residual=float(balance_residual(problem, p)),
        limit_violations=tuple(check_limits(problem, p)),
    )


# --- batch objective used by the population solvers -------------------------
# Rows of P are candidate power vectors.  The weights k1 and k2 * h_g fold the
# cost and emission curves into one quadratic per unit and its constant terms
# into one sum, so a row costs sum(a) + vecdot(p, b + c p) for any number of
# gases; vecdot puts every row through one kernel, as in LossMatrix.loss, so a
# row's bits ignore its batch and layout.  The fold depends only on the problem
# and on h, so the problem keeps one (h, fold) pair and hands the fold back
# when the same h object arrives again, its b and c tiled as limit_rows tiles
# the limits (a taller batch re-tiles them).  Identity is enough: PenaltyFactors
# is frozen with read-only prices checked when it is built, and the pair is
# stored only after _prices has matched that h to this problem.  Any other h,
# equal or not, goes through _prices and replaces the pair, so a rejected h
# leaves the last valid one in place.  evaluate_dispatch scores its row here too.
# sum(a) is held as a read-only 0-d array, not a float: every per-step operand
# is an array (see repair.py), since a Python float or NumPy scalar operand
# costs a ufunc call 0.25-0.4 us more (NumPy 2.4, 10 x 6), about half the call.

# The memo's h before any fold: no h is this object.
_NO_H = object()


def _fold(
    problem: DispatchProblem, h: Optional[PenaltyFactors], rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sum of a, b, c) of k1 * cost + k2 * sum_g h_g * emission_g, b and c tiled to >= rows rows; memoized."""
    last, fold = problem._fold_memo
    if last is not h:
        prices = _prices(problem, h)
        weights = np.zeros(1 + len(problem.gases))
        weights[0] = problem.k1
        if problem.k2:
            weights[1:] = prices
        a, b, c = (weights @ problem.coeff_stack.reshape(len(weights), -1)).reshape(3, -1)
        fold = (frozen_scalar(a.sum()), b[None], c[None])
    elif len(fold[1]) >= rows:
        return fold
    # one pair, replaced whole: a run uses one h, and a sweep over prices must not grow the memo
    fold = (fold[0], _tiled(fold[1], rows), _tiled(fold[2], rows))
    object.__setattr__(problem, "_fold_memo", (h, fold))
    return fold


def combined_objective_batch(
    problem: DispatchProblem, P: np.ndarray, h: Optional[PenaltyFactors] = None
) -> np.ndarray:
    """k1 * fuel cost + k2 * sum_g h_g * E_g of every row of P, $/h; h as in evaluate_dispatch.

    P is (R, N).  The per-unit quadratic that h folds into is computed once
    per (problem, h) and memoized on the problem, keyed by the identity of h.
    """
    rows, _ = P.shape
    sum_a, b, c = _fold(problem, h, rows)
    return sum_a + np.vecdot(P, b[:rows] + c[:rows] * P)
