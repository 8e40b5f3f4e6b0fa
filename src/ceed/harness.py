"""Multi-trial experiments, their reports and trace export.

Experiments run each solver `trials` times with seeds base_seed + index and
reduce the results in index order, so a report's deterministic section is
byte-identical across repeats of the same spec; wall-clock figures live in
a separate timing section because they never reproduce exactly.  The trials
of a (solver, demand) pair run as one batch through run_trials, the step
loop of both solvers, the pairs in turn or in `workers` processes, and a
trial's result does not depend on its batch.  run_experiment writes no
files: a caller writes reports with format_report and traces with export_trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import mean, median
from typing import Optional, Sequence, Union

import numpy as np

from . import ga, pso
from .model import DispatchProblem, DispatchSolution, PenaltyFactors, check_integer, check_real, evaluate_dispatch
from .penalty import penalty_factors_all
from .problem_file import format_demand, load_problem

SOLVER_NAMES = ("pso", "ga")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a problem file, demands, solver choice and trial protocol."""

    problem_path: str
    demands: tuple[float, ...]
    solver: str = "both"  # pso | ga | both
    trials: int = 50
    base_seed: int = 0
    k1: int = 1
    k2: int = 1
    pso_config: Optional[pso.PsoConfig] = None
    ga_config: Optional[ga.GaConfig] = None
    workers: int = 0  # 0 = serial; kept for bench/layers.py::workers2_speedup and its tier-1 test

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", tuple(check_real("demand", d) for d in self.demands))
        if not self.demands:
            raise ValueError("an experiment needs at least one demand")
        if len(set(self.demands)) < len(self.demands):
            raise ValueError(f"demands must differ (a repeat reruns the same seeds), got {list(self.demands)}")
        for name, least in (("trials", 1), ("base_seed", 0), ("workers", 0)):
            check_integer(name, getattr(self, name), least)
        if self.solver not in (*SOLVER_NAMES, "both"):
            raise ValueError(f"solver must be pso, ga or both, got {self.solver!r}")
        for name, kind in (("pso_config", pso.PsoConfig), ("ga_config", ga.GaConfig)):
            config = getattr(self, name)
            if config is not None and not isinstance(config, kind):
                raise TypeError(f"{name} must be a {kind.__name__}, got {type(config).__name__}")
            if config is not None and config.seed != 0:
                raise ValueError(
                    f"solver configs must leave seed at 0, got {config.seed}; "
                    "trial i runs with base_seed + i, so set base_seed"
                )

    @property
    def solver_names(self) -> tuple[str, ...]:
        return SOLVER_NAMES if self.solver == "both" else (self.solver,)


@dataclass(frozen=True)
class Trial:
    """One seeded solver run.

    The trials of a (solver, demand) pair run as one run_trials batch, so
    `seconds` is the batch's wall time divided by its number of trials;
    bench/run.py's per-trial time metrics read it.
    """

    index: int
    seed: int
    solution: DispatchSolution
    seconds: float
    trace: np.ndarray


@dataclass(frozen=True)
class TrialReport:
    """All trials of one (solver, demand) pair plus the factors they used."""

    solver: str
    demand: float
    h: Optional[PenaltyFactors]
    trials: tuple[Trial, ...]

    @property
    def best_trial(self) -> Trial:
        return min(self.trials, key=lambda t: (t.solution.total_cost, t.index))

    @property
    def total_costs(self) -> list[float]:
        return [t.solution.total_cost for t in self.trials]


def run_trials(
    problem: DispatchProblem, config: Union[pso.PsoConfig, ga.GaConfig], h: Optional[PenaltyFactors], trials: int
) -> list[tuple[DispatchSolution, np.ndarray]]:
    """Runs of the config's solver with seeds config.seed + i, stepped together as one batch.

    Entry i is trial i's best dispatch and its per-step trace of the best
    objective so far, bitwise those of a lone run with seed config.seed + i.
    The solver's step is looked up on its module at every call.
    """
    if isinstance(config, pso.PsoConfig):
        solver, state, steps = pso, pso.init_swarm(problem, config, h, trials), config.iterations
    elif isinstance(config, ga.GaConfig):
        solver, state, steps = ga, ga.init_population(problem, config, h, trials), config.generations
    else:
        raise TypeError(f"config must be a PsoConfig or a GaConfig, got {type(config).__name__}")
    trace = np.empty((trials, steps))
    for t in range(steps):
        trace[:, t] = solver.step(state, problem, config, h, t)
    return [(evaluate_dispatch(problem, best, h), tr) for best, tr in zip(solver.leaders(state), trace)]


def _run_trial(args) -> TrialReport:
    """One (solver, demand) pair: its trials run as one batch and timed together."""
    solver, demand, problem, h, config, count = args
    start = time.perf_counter()
    results = run_trials(problem, config, h, count)
    share = (time.perf_counter() - start) / count
    trials = tuple(
        Trial(index=i, seed=config.seed + i, solution=solution, seconds=share, trace=trace)
        for i, (solution, trace) in enumerate(results)
    )
    return TrialReport(solver=solver, demand=demand, h=h, trials=trials)


def run_experiment(spec: ExperimentSpec) -> list[TrialReport]:
    """Execute the full trial protocol; one report per (solver, demand) pair."""
    # every demand's problem and factors first, so one that cannot be met fails before any trial
    problems = [replace(load_problem(spec.problem_path, d), k1=spec.k1, k2=spec.k2) for d in spec.demands]
    factors = [penalty_factors_all(problem) if spec.k2 else None for problem in problems]
    configs = {"pso": spec.pso_config or pso.PsoConfig(), "ga": spec.ga_config or ga.GaConfig()}
    jobs = [
        (solver, demand, problem, h, replace(configs[solver], seed=spec.base_seed), spec.trials)
        for demand, problem, h in zip(spec.demands, problems, factors)
        for solver in spec.solver_names
    ]
    if spec.workers == 0:
        return [_run_trial(job) for job in jobs]
    # imported here: the pool module takes about as long to load as `import ceed`
    from concurrent.futures import ProcessPoolExecutor

    # at most one process per pair: the pool may start all of max_workers at once
    with ProcessPoolExecutor(max_workers=min(spec.workers, len(jobs))) as pool:
        return list(pool.map(_run_trial, jobs))


def export_trace(trace: Sequence[float], path: Union[str, Path]) -> None:
    """Write a convergence trace as 'iteration,objective' rows."""
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0:
        raise ValueError("refusing to export an empty trace")
    lines = ["iteration,objective"]
    lines += [f"{i},{v:.12g}" for i, v in enumerate(trace, start=1)]
    Path(path).write_text("\n".join(lines) + "\n")


def _solution_lines(tag: str, solution: DispatchSolution) -> list[str]:
    lines = [f"  {tag}:"]
    powers = "  ".join(f"P{i + 1}={p:.2f}" for i, p in enumerate(solution.powers))
    lines.append(f"    {powers}")
    for gas, value in solution.emissions.items():
        lines.append(f"    E_{gas.value} = {value:.2f} kg/h")
    lines.append(f"    FC = {solution.fuel_cost:.2f} $/h")
    lines.append(f"    EC = {solution.emission_cost:.2f} $/h")
    lines.append(f"    TC = {solution.total_cost:.2f} $/h")
    return lines


def format_report(report: TrialReport) -> str:
    """Human-readable report; everything above the timing marker is deterministic."""
    costs = sorted(report.total_costs)
    lines = [f"solver={report.solver} demand={format_demand(report.demand)} MW trials={len(report.trials)}"]
    if report.h is not None and report.h.values:  # a gas-free problem has no factor to print
        factors = "  ".join(f"h_{gas.value}={report.h[gas]:.4f}" for gas in report.h.values)
        lines.append(f"  penalty factors ($/kg): {factors}")
    lines += _solution_lines("best trial", report.best_trial.solution)
    lines.append(
        f"  TC over trials ($/h): best={costs[0]:.2f} "
        f"median={median(costs):.2f} mean={mean(costs):.2f} worst={costs[-1]:.2f}"
    )
    lines.append("  -- timing (machine-dependent) --")
    lines.append(f"  batch wall clock (s): {sum(t.seconds for t in report.trials):.3f}")
    return "\n".join(lines) + "\n"
