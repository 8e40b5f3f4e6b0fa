"""Projection of candidate dispatches onto the power-balance constraint.

Both solvers repair every candidate before evaluating it, so each vector they
score lies within the unit limits with a balance residual of at most
BALANCE_TOL.  A row that cannot be closed raises InfeasibleError; a row
holding NaN raises ValueError.

A row is clipped to the limits, giving x, and scaled to clip(S x, p_min, p_max)
at the S exact when no unit clips (demand / sum(x), or the smaller root of
S sum(x) - S^2 x'Bx = demand).  A row still off by r takes one closed-form
step: each unit moves the same share t of its room toward the limit c the row
needs (p_max when short of demand, p_min when over), to p + t (c - p).  For t
in [0, 1] that path stays within the limits, so its balance is exact: linear
without losses, and with B-coefficient losses a quadratic in t, whose root
nearest 0 is taken without cancellation.  A row with no root in [0, 1] ends at
its limits, where the residual check names it.  Every row sum and loss product
is a row-wise np.vecdot or np.vecmat, so a row's result ignores its batch and
layout; the clamps read the limits as tiles of the batch's shape (limit_rows).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .model import BALANCE_TOL, DispatchProblem, InfeasibleError, balance_residual, frozen_scalar

# Stands in for np.errstate on calls where no division can misfire.
_LOUD = nullcontext()

# Every operand of a per-step ufunc call is an array, never a Python float:
# NumPy 2's weak-scalar promotion makes a float operand cost a 10 x 6 call
# 0.25-0.4 us more than a 0-d float64 array does, about half of what the call
# costs, for the same bits.  So the literals are read-only 0-d constants and
# the demand terms come cached from the problem (demand_arr, demand_2x_4x);
# an edit that writes 0.0 into a call here brings that surcharge back.
_ZERO, _HALF, _ONE = frozen_scalar(0.0), frozen_scalar(0.5), frozen_scalar(1.0)
_TOL = frozen_scalar(BALANCE_TOL)


def _quiet():
    """Silence the inf and NaN of rows without a finite scale or step; the clamps and the check handle them."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _ray_start(problem: DispatchProblem, x: np.ndarray) -> np.ndarray:
    """Per row, the scale that closes the balance when no unit clips."""
    total = np.vecdot(x, problem.ones)
    if problem.losses is None:
        return problem.demand_arr / total
    q = problem.losses.loss(x)
    twice, four_times = problem.demand_2x_4x
    # smaller root of S*total - S^2*q = demand, written without cancellation
    return twice / (total + np.sqrt(np.maximum(total * total - four_times * q, _ZERO)))


def _share(problem: DispatchProblem, d: np.ndarray, p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row, the t nearest 0 that closes the balance along p - t d, at p off by r; NaN where none does."""
    total = np.vecdot(d, problem.ones)
    if problem.losses is None:
        return r / total
    # d'B and its products by row-wise gufuncs, as in LossMatrix.loss: d @ B
    # takes BLAS's one-row path on a lone row, which rounds otherwise than on a batch
    db = np.vecmat(d, problem.losses.b)
    half_slope = _HALF * total - np.vecdot(db, p)
    root = np.sqrt(half_slope * half_slope + np.vecdot(db, d) * r)
    # root of r - 2*half_slope*t - d'Bd*t^2 = 0 nearest 0, written without cancellation
    return r / (half_slope + np.copysign(root, half_slope))


def _limits_toward(r: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, a new array of the limits it moves toward: p_max where short of demand (r < 0), else p_min."""
    c = lo.copy()
    np.copyto(c, hi, where=r[:, None] < _ZERO)
    return c


def _step_share(t: np.ndarray, landed: np.ndarray) -> np.ndarray:
    """t as the step takes it, in place: 0 on landed rows, else t within [0, 1] and 1 where t < 0 or NaN.

    Bitwise np.where(landed, 0, np.where(t >= 0, np.fmin(t, 1), 1)), -0.0 kept, at half its cost on 10 rows.
    """
    np.fmin(t, _ONE, out=t)  # NaN and shares past 1 become 1
    np.copyto(t, _ONE, where=t < _ZERO)
    np.copyto(t, _ZERO, where=landed)
    return t


def repair_batch(problem: DispatchProblem, P: np.ndarray) -> np.ndarray:
    """Rows of P clipped to the unit limits and moved onto the power balance."""
    rows, _ = np.shape(P)
    lo, hi = problem.limit_rows(rows)
    # each clamp writes in place on a fresh array, never on the caller's P
    x = np.maximum(np.asarray(P, dtype=float), lo)
    np.minimum(x, hi, out=x)
    # a clipped row sums to at least sum(p_min); only when that is (nearly) zero
    # can the first scale overflow.  Then the largest finite scale pins every x_i
    # but the zeros, which inf * 0 would make NaN; a NaN row stays NaN
    tiny = problem.p_min_total <= 1e-300 * problem.demand
    with _quiet() if tiny else _LOUD:
        s = _ray_start(problem, x)
        if tiny:
            np.fmin(s, np.finfo(float).max, out=s)
        sx = s[:, None] * x
    p = np.maximum(sx, lo)
    np.minimum(p, hi, out=p)
    r = balance_residual(problem, p)
    landed = np.abs(r) <= _TOL
    if np.count_nonzero(landed) == landed.size:
        return p
    # d = p - c for the limit c each row moves toward, so p - t d = p + t (c - p)
    d = _limits_toward(r, lo, hi)
    np.subtract(p, d, out=d)
    with _quiet():
        t = _share(problem, d, p, r)
    # a landed row stays put; a row with no root in [0, 1] goes to its limits
    p -= _step_share(t, landed)[:, None] * d
    np.maximum(p, lo, out=p)  # the clamp against rounding
    np.minimum(p, hi, out=p)
    r = balance_residual(problem, p)
    landed = np.abs(r) <= _TOL
    if np.count_nonzero(landed) == landed.size:
        return p
    nan = np.flatnonzero(np.isnan(x).any(axis=1))
    if nan.size:
        raise ValueError(f"row {nan[0]} of the candidates holds NaN")
    raise InfeasibleError(
        f"cannot close the power balance at demand {problem.demand:g} MW: residual {r[~landed][0]:.6g} MW"
    )
