"""Rows never mix: a row's result has the same bits in every batch and layout.

The scoring path sums rows through row-wise gufuncs (np.vecdot, np.vecmat)
and reads its per-unit rows from tiles of the batch's shape, so a row's
objective, balance residual, repaired vector and decoded GA powers must not
depend on the rows around it, on its place in memory or on the stride
between rows.
Each row of a batch is compared bit for bit with its result alone, in a
strided view (every other row, as GA crossover reads its parents) and copied
to an address that is an odd multiple of 8 bytes, for every N from 1 to 64:
at an interior demand, and again with about a third of the units at
p_min = 0 and the demand at exactly sum(p_min) or, without losses, sum(p_max).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ceed.ga import GaConfig, decode
from ceed.model import LossMatrix, balance_residual, combined_objective_batch
from ceed.penalty import penalty_factors_all
from ceed.repair import repair_batch

from conftest import make_problem, random_problem


def _cases(problem, rng, lossy):
    """problem itself, then with some units at p_min = 0 and the demand at each limit it can meet."""
    units = [replace(u, p_min=0.0) if rng.random() < 0.3 else u for u in problem.units]
    limits = ("p_min",) if lossy else ("p_min", "p_max")
    return [problem] + [make_problem(units, sum(getattr(u, limit) for u in units)) for limit in limits]


def _lossy(problem, rng):
    """problem with a small PSD B: net output grows with every unit, and full output keeps spare."""
    g = rng.normal(size=(problem.n_units,) * 2)
    b = g @ g.T
    hi = problem.p_max_arr
    spare = float(hi.sum()) - problem.demand
    scale = min(0.125 / (np.abs(b) @ hi).max(), 0.5 * spare / (hi @ b @ hi))
    assert scale > 0, spare
    return make_problem(problem.units, problem.demand, losses=LossMatrix(scale * b))


def _strided(P):
    """P's rows as every other row of a twice-as-long array, with NaN (or ones) between."""
    twice = np.repeat(P, 2, axis=0)
    twice[1::2] = np.nan if P.dtype.kind == "f" else 1
    return twice[::2]


def _at_odd_offset(P):
    """A copy of P whose first element sits at an odd multiple of 8 bytes."""
    buf = np.empty(P.nbytes + 16, dtype=np.uint8)
    start = (8 - buf.ctypes.data) % 16
    out = buf[start : start + P.nbytes].view(P.dtype).reshape(P.shape)
    out[...] = P
    assert out.ctypes.data % 16 == 8
    return out


GA = GaConfig()


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


@pytest.mark.parametrize("lossy", [False, True], ids=["lossless", "lossy"])
@settings(deadline=None, derandomize=True, max_examples=5)
@given(seed=st.integers(0, 2**32 - 1))
def test_property_rows_never_mix(lossy, seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 65):
        for problem in _cases(random_problem(rng, n), rng, lossy):
            if lossy:
                problem = _lossy(problem, rng)
            h = penalty_factors_all(problem)
            P = rng.uniform(0.0, 1.3 * problem.p_max_arr, (int(rng.integers(2, 10)), n))
            # a balanced row lands on the first scale and waits, frozen, in the loop
            P[0] = repair_batch(problem, P[:1])[0]
            bits = rng.integers(0, 2, (len(P), n * GA.bits_per_gene), dtype=np.uint8)
            layers = {
                "objective": (lambda P: combined_objective_batch(problem, P, h), P),
                "residual": (lambda P: balance_residual(problem, P), P),
                "repair": (lambda P: repair_batch(problem, P), P),
                "decode": (lambda bits: decode(bits, problem, GA), bits),
            }
            for name, (layer, rows) in layers.items():
                batch = layer(rows)
                for layout, got in (("strided", layer(_strided(rows))), ("odd offset", layer(_at_odd_offset(rows)))):
                    assert _bits(got) == _bits(batch), (name, n, layout)
                for i in range(len(rows)):
                    assert _bits(layer(rows[i : i + 1].copy())[0]) == _bits(batch[i]), (name, n, i)
