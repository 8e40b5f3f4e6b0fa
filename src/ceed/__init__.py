"""Combined economic-emission dispatch toolkit.

Scalarizes fuel cost and multi-gas emissions through price penalty factors
and solves the resulting single-objective dispatch with a constriction-factor
particle swarm and a binary-coded genetic algorithm, cross-checked by
equal-incremental-cost and grid oracles.
"""

import importlib

from .model import (
    ALL_GASES,
    BALANCE_TOL,
    DispatchError,
    DispatchProblem,
    DispatchSolution,
    Gas,
    GeneratorUnit,
    InfeasibleError,
    LossMatrix,
    PenaltyFactors,
    balance_residual,
    check_limits,
    evaluate_dispatch,
    transmission_loss,
)
from .penalty import penalty_factors_all, unit_ratios
from .problem_file import load_problem

# The experiment runner, the solvers and the oracles load on first use:
# reading a problem file and its penalty factors needs none of them.
# Name -> submodule that defines it.
_LAZY = {
    "ExperimentSpec": "harness",
    "TrialReport": "harness",
    "export_trace": "harness",
    "format_report": "harness",
    "run_experiment": "harness",
    "run_trials": "harness",
    "LambdaResult": "oracle",
    "grid_search": "oracle",
    "lambda_solve": "oracle",
    "PsoConfig": "pso",
    "GaConfig": "ga",
    "ga": "ga",
    "pso": "pso",
    "harness": "harness",
    "oracle": "oracle",
    "repair": "repair",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "ALL_GASES",
    "BALANCE_TOL",
    "DispatchError",
    "DispatchProblem",
    "DispatchSolution",
    "Gas",
    "GeneratorUnit",
    "InfeasibleError",
    "LossMatrix",
    "PenaltyFactors",
    "LambdaResult",
    "PsoConfig",
    "GaConfig",
    "ExperimentSpec",
    "TrialReport",
    "balance_residual",
    "export_trace",
    "format_report",
    "load_problem",
    "run_experiment",
    "run_trials",
    "check_limits",
    "evaluate_dispatch",
    "grid_search",
    "lambda_solve",
    "penalty_factors_all",
    "transmission_loss",
    "unit_ratios",
]

__version__ = "0.1.0"
