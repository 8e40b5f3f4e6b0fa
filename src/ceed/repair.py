"""Projection of candidate dispatches onto the power-balance constraint.

Both solvers repair every candidate before evaluating it, so each vector they
score lies within the unit limits with a balance residual of at most
BALANCE_TOL; a row that cannot be closed raises InfeasibleError.

A row is clipped to the limits, giving x, and moved along the scaling ray
p(S) = clip(S x, p_min, p_max) to the root of h(S) = sum(p) - demand - p'Bp.
Scaling up from x only pins units at p_max and scaling down only at p_min.
The first step, for the whole batch, is the S that is exact when no unit
clips (demand / sum(x), or the smaller root of S sum(x) - S^2 x'Bx = demand);
rows still off take Newton steps whose slope sums x_i (1 - 2 (Bp)_i) over the
units off their limits, so lossless each step lands or pins one more unit.
A row the ray cannot move (a zero x_i stays zero) restarts once from the
limit midpoints.  Rows never mix: a row's result ignores its batch.
"""

from __future__ import annotations

import numpy as np

from .model import BALANCE_TOL, DispatchProblem, InfeasibleError, balance_residual


def _ray_start(problem: DispatchProblem, x: np.ndarray) -> np.ndarray:
    """Per row, the scale that closes the balance when no unit clips."""
    total, demand = x.sum(axis=1), problem.demand
    if problem.losses is None:
        return demand / total
    q = problem.losses.loss(x)
    # smaller root of S*total - S^2*q = demand, written without cancellation
    return 2.0 * demand / (total + np.sqrt(np.maximum(total * total - 4.0 * demand * q, 0.0)))


def repair_batch(problem: DispatchProblem, P: np.ndarray) -> np.ndarray:
    """Rows of P clipped to the unit limits and scaled onto the power balance."""
    lo, hi = problem.p_min_arr, problem.p_max_arr
    b = None if problem.losses is None else problem.losses.b
    # a row the ray cannot move yields inf or NaN here, which the restart handles
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = np.clip(np.asarray(P, dtype=float), lo, hi)
        s = _ray_start(problem, x)
        out = np.clip(s[:, None] * x, lo, hi)
        r = balance_residual(problem, out)
        off = ~(np.abs(r) <= BALANCE_TOL)
        if not off.any():
            return out
        rows = np.flatnonzero(off)
        x, s, p, r = x[rows], s[rows], out[rows], r[rows]
        # h rises with S, so the scales tried bracket the root; a Newton step
        # that leaves the bracket is replaced by bisection.  Lossless, each of
        # the two starts needs at most N + 1 steps; 64 halvings exhaust a double
        below, above = np.zeros(rows.size), np.full(rows.size, np.inf)
        restarted = np.zeros(rows.size, dtype=bool)
        for _ in range(2 * problem.n_units + 64):
            below, above = np.where(r < 0, s, below), np.where(r > 0, s, above)
            gain = x if b is None else x * (1.0 - 2.0 * np.einsum("ij,jk->ik", p, b))
            t = s - r / np.where(p == s[:, None] * x, gain, 0.0).sum(axis=1)
            inside = (t > below) & (t < above)
            s = t if inside.all() else np.where(inside, t, 0.5 * (below + above))
            stuck = ~np.isfinite(s)
            if stuck.any():
                if (stuck & restarted).any():
                    r = r[stuck & restarted]
                    break
                x[stuck] = 0.5 * (lo + hi)
                s = np.where(stuck, _ray_start(problem, x), s)
                below[stuck], above[stuck], restarted[stuck] = 0.0, np.inf, True
            p = np.clip(s[:, None] * x, lo, hi)
            r = balance_residual(problem, p)
            done = np.abs(r) <= BALANCE_TOL
            if done.any():
                out[rows[done]] = p[done]
                if done.all():
                    return out
                keep = ~done
                rows, x, s, p, r = rows[keep], x[keep], s[keep], p[keep], r[keep]
                below, above, restarted = below[keep], above[keep], restarted[keep]
    raise InfeasibleError(
        f"cannot close the power balance at demand {problem.demand:g} MW: residual {r[0]:.6g} MW"
    )

