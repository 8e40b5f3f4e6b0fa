"""Combined economic-emission dispatch toolkit.

Scalarizes fuel cost and multi-gas emissions through price penalty factors
and solves the resulting single-objective dispatch with a constriction-factor
particle swarm and a binary-coded genetic algorithm, cross-checked by
equal-incremental-cost and grid oracles.
"""

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
from .oracle import LambdaResult, grid_search, lambda_solve
from .pso import PsoConfig
from .ga import GaConfig
from .harness import (
    ExperimentSpec,
    TrialReport,
    export_trace,
    format_report,
    load_problem,
    run_experiment,
)
from . import ga, pso

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
    "check_limits",
    "evaluate_dispatch",
    "grid_search",
    "lambda_solve",
    "penalty_factors_all",
    "transmission_loss",
    "unit_ratios",
]

__version__ = "0.1.0"
