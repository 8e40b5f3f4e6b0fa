"""Shared builders for the test suite."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ceed.harness import run_trials
from ceed.model import ALL_GASES, DispatchProblem, Gas, GeneratorUnit


def make_unit(uid, p_min, p_max, cost=(0.0, 1.0, 0.001), nox=None, cox=None, sox=None):
    """Unit with placeholder emission curves unless overridden."""
    emissions = {
        Gas.NOX: nox or (1.0, 0.1, 0.0005),
        Gas.COX: cox or (5.0, 0.5, 0.0010),
        Gas.SOX: sox or (2.0, 0.2, 0.0008),
    }
    return GeneratorUnit(id=uid, p_min=p_min, p_max=p_max, cost=tuple(cost), emissions=emissions)


def make_problem(units, demand, gases=ALL_GASES, losses=None, k1=1, k2=1):
    return DispatchProblem(
        units=tuple(units), demand=demand, gases=tuple(gases), losses=losses, k1=k1, k2=k2
    )


def random_problem(rng, n_units, k2=1, demand_frac=None):
    """Random lossless instance with positive quadratic coefficients."""
    units = []
    for i in range(n_units):
        p_min = rng.uniform(10.0, 50.0)
        p_max = p_min + rng.uniform(80.0, 250.0)
        cost = (rng.uniform(50.0, 400.0), rng.uniform(2.0, 12.0), rng.uniform(0.002, 0.02))
        emissions = {}
        for gas, scale in ((Gas.NOX, 1.0), (Gas.COX, 20.0), (Gas.SOX, 5.0)):
            emissions[gas] = (
                rng.uniform(5.0, 60.0) * scale * 0.05,
                rng.uniform(0.05, 0.8) * scale * 0.2,
                rng.uniform(0.0005, 0.004) * scale,
            )
        units.append(
            GeneratorUnit(id=i + 1, p_min=p_min, p_max=p_max, cost=cost, emissions=emissions)
        )
    lo = sum(u.p_min for u in units)
    hi = sum(u.p_max for u in units)
    frac = rng.uniform(0.25, 0.9) if demand_frac is None else demand_frac
    demand = lo + frac * (hi - lo)
    return make_problem(units, demand, k2=k2)


@st.composite
def weighted_problems(draw, max_units):
    """random_problem of 1..max_units units under (k1, k2) in {(1, 1), (1, 0), (0, 1)}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_problem(rng, draw(st.integers(1, max_units)))
    k1, k2 = draw(st.sampled_from([(1, 1), (1, 0), (0, 1)]))
    return make_problem(base.units, base.demand, k1=k1, k2=k2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def six_unit_path():
    """Filesystem path of the shipped six-unit benchmark file."""
    return Path(str(resources.files("ceed").joinpath("data/ieee30_6unit.json")))


def run_one(problem, config, h=None):
    """One seeded run of the config's solver: its best dispatch and its trace."""
    return run_trials(problem, config, h, 1)[0]
