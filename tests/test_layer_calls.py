"""The trial driver reaches the solvers' layers through module attributes, batch in place.

bench/spans.py times a PSO step, decode, repair and the objective by
replacing `ceed.pso.step`, `ceed.ga.decode`, `ceed.ga.repair_batch`,
`ceed.ga.combined_objective_batch`, `ceed.pso.repair_batch` and
`ceed.pso.combined_objective_batch` from outside the package, and counts
rows from the batch argument (argument 0 of decode, argument 1 of the other
two).  A driver or solver that bypassed those attributes, say through a
function table bound at import time, or moved the batch, would leave the
per-layer numbers silently empty.
"""

import numpy as np
import pytest

import ceed.ga
import ceed.pso
from ceed.ga import GaConfig
from ceed.harness import run_trials
from ceed.penalty import penalty_factors_all
from ceed.pso import PsoConfig

from conftest import random_problem

ROW_ARG = {"decode": 0, "repair_batch": 1, "combined_objective_batch": 1}


@pytest.mark.parametrize(
    "module, config, names, calls",
    [
        # GA: the initial population, then one evaluation per later generation
        (ceed.ga, GaConfig(generations=4), ("decode", "repair_batch", "combined_objective_batch"), 4),
        # PSO: the initial swarm, then one evaluation per iteration
        (ceed.pso, PsoConfig(iterations=4), ("repair_batch", "combined_objective_batch"), 5),
    ],
)
def test_solvers_call_layers_through_module_attributes(monkeypatch, rng, module, config, names, calls):
    seen = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            batch = args[ROW_ARG[_name]]
            assert isinstance(batch, np.ndarray) and batch.ndim == 2
            seen[_name].append(len(batch))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    problem = random_problem(rng, 3)
    run_trials(problem, config, penalty_factors_all(problem), 1)
    for name in names:
        assert seen[name] == [10] * calls, name


@pytest.mark.parametrize(
    "module, config", [(ceed.pso, PsoConfig(iterations=4)), (ceed.ga, GaConfig(generations=4))], ids=["pso", "ga"]
)
def test_the_driver_steps_through_the_module_attribute(monkeypatch, rng, module, config):
    # one call per step of the budget, each found on the module when it is made
    steps, original = [], module.step

    def counted(state, problem, config, h, t):
        steps.append(t)
        return original(state, problem, config, h, t)

    monkeypatch.setattr(module, "step", counted)
    problem = random_problem(rng, 3)
    run_trials(problem, config, penalty_factors_all(problem), 2)
    assert steps == [0, 1, 2, 3]
