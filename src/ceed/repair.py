"""Projection of candidate dispatches onto the power-balance constraint.

Both solvers repair every candidate before evaluating it, so each vector they
score lies within the unit limits with a balance residual of at most
BALANCE_TOL; a row that cannot be closed raises InfeasibleError.

A row is clipped to the limits, giving x, and moved along the scaling ray
p(S) = clip(S x, p_min, p_max) to the root of h(S) = sum(p) - demand - p'Bp.
The first step, for the whole batch, is the S that is exact when no unit
clips (demand / sum(x), or the smaller root of S sum(x) - S^2 x'Bx = demand).
Rows still off take correction steps to the exact root of h on the current
active set: with d = x on the units off their limits and 0 elsewhere, p moves
as p + e d, so h(S + e) = r + slope e - curve e^2 with slope = sum(d) - 2 d'Bp
and curve = d'Bd; a step lands unless a further unit pins.  Lossless, the
step S - r / sum(d) is a Newton step on sum(p) that cannot pass the root: from
S0 >= 1 only upper limits bind, sum(p) is concave and every step stays at or
below the root; from S0 < 1 only lower ones, it is convex and every step stays
at or above (a unit exactly at a limit counts as free, which only shortens the
step).  So only lossy rows keep a bracket: the scales tried bracket the root,
and a step that leaves it bisects it.  Every row stays in the loop until all
land, a landed row frozen at its scale; none is gathered or scattered.  A row
the ray cannot move (a zero x_i stays zero) restarts once from the limit
midpoints.  Every row sum and loss product is a row-wise np.vecdot or
np.vecmat, so rows never mix: a row's result ignores its batch and layout.
The clamps read the limits as tiles of the batch's shape (limit_rows).
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .model import BALANCE_TOL, DispatchProblem, InfeasibleError, balance_residual

# Stands in for np.errstate on calls where no division can misfire.
_LOUD = nullcontext()


def _quiet():
    """Silence the inf and NaN of rows the ray cannot move; the restart handles them."""
    return np.errstate(divide="ignore", over="ignore", invalid="ignore")


def _ray_start(problem: DispatchProblem, x: np.ndarray) -> np.ndarray:
    """Per row, the scale that closes the balance when no unit clips."""
    total, demand = np.vecdot(x, problem.ones), problem.demand
    if problem.losses is None:
        return demand / total
    q = problem.losses.loss(x)
    # smaller root of S*total - S^2*q = demand, written without cancellation
    return 2.0 * demand / (total + np.sqrt(np.maximum(total * total - 4.0 * demand * q, 0.0)))


def _correction(
    problem: DispatchProblem, d: np.ndarray, s: np.ndarray, p: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Per row, the scale that closes the balance if no further unit clips.

    At scale s the row is p, with residual r; d is x on the units off their
    limits and 0 elsewhere, so p moves as p + e d until a further unit clips.
    """
    total = np.vecdot(d, problem.ones)
    if problem.losses is None:
        return s - r / total
    # d'B and its products by row-wise gufuncs, as in LossMatrix.loss: d @ B
    # takes BLAS's one-row path on a lone row, which rounds otherwise than on a batch
    db = np.vecmat(d, problem.losses.b)
    half_slope = 0.5 * total - np.vecdot(db, p)
    curve = np.vecdot(db, d)
    # smaller root of r + 2*half_slope*e - curve*e^2 = 0, written without cancellation
    return s - r / (half_slope + np.sqrt(np.maximum(half_slope * half_slope + curve * r, 0.0)))


def repair_batch(problem: DispatchProblem, P: np.ndarray) -> np.ndarray:
    """Rows of P clipped to the unit limits and scaled onto the power balance."""
    rows, _ = np.shape(P)
    lo, hi = problem.limit_rows(rows)
    # each clamp writes in place on a fresh array, never on the caller's P
    x = np.maximum(np.asarray(P, dtype=float), lo)
    np.minimum(x, hi, out=x)
    # a clipped row sums to at least sum(p_min); only when that is (nearly) zero
    # can the first scale overflow, or meet a zero x_i as inf * 0
    with _quiet() if problem.p_min_total <= 1e-300 * problem.demand else _LOUD:
        s = _ray_start(problem, x)
        sx = s[:, None] * x
    p = np.maximum(sx, lo)
    np.minimum(p, hi, out=p)
    r = balance_residual(problem, p)
    landed = np.abs(r) <= BALANCE_TOL
    if np.count_nonzero(landed) == landed.size:
        return p
    # lossless, a start needs at most N + 1 steps; lossy, 64 halvings exhaust a double
    guarded = problem.losses is not None
    if guarded:
        below, above = np.where(r < 0, s, 0.0), np.where(r > 0, s, np.inf)
    restarted = np.zeros(s.size, dtype=bool)
    with _quiet():
        for _ in range(2 * problem.n_units + 64):
            # d as a product, not a select, which mispredicts as the active set
            # changes; they differ only in the sign of a zero, which can only flip
            # an infinite step, and at a NaN x_i, whose row's s is NaN already
            t = _correction(problem, x * (p == sx), s, p, r)
            if guarded:
                inside = ((t > below) & (t < above)) | landed
                if bisect := np.count_nonzero(inside) < inside.size:
                    t = np.where(inside, t, 0.5 * (below + above))
            np.copyto(t, s, where=landed)
            s = t
            # inside a finite bracket a step is finite, so guarded only a midpoint
            # can misfire; unguarded, a row the ray cannot move steps to inf.  A
            # landed row may keep an infinite s whose image is balanced
            if (not guarded or bisect) and not np.isfinite(s).all():
                stuck = ~(np.isfinite(s) | landed)
                if (stuck & restarted).any():
                    landed = ~(stuck & restarted)
                    break
                x[stuck] = 0.5 * (problem.p_min_arr + problem.p_max_arr)
                s = np.where(stuck, _ray_start(problem, x), s)
                restarted |= stuck
                if guarded:
                    below[stuck], above[stuck] = 0.0, np.inf
            sx = s[:, None] * x
            np.maximum(sx, lo, out=p)
            np.minimum(p, hi, out=p)
            r = balance_residual(problem, p)
            landed = np.abs(r) <= BALANCE_TOL
            if np.count_nonzero(landed) == landed.size:
                return p
            if guarded:
                np.copyto(below, s, where=r < 0)
                np.copyto(above, s, where=r > 0)
    raise InfeasibleError(
        f"cannot close the power balance at demand {problem.demand:g} MW: residual {r[~landed][0]:.6g} MW"
    )
