"""Problem-file ingestion, multi-trial experiments and report/trace output.

Experiments run each solver `trials` times with seeds base_seed + index and
reduce the results in index order, so a report's deterministic section is
byte-identical across repeats of the same spec; wall-clock figures live in
a separate timing section because they never reproduce exactly.  The trials
of a (solver, demand) pair run as one batch through the solver's
run_trials, or as one contiguous batch per worker with `workers`; a trial's
result does not depend on its batch.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import mean, median
from typing import Optional, Sequence, Union

import numpy as np

from . import ga, pso
from .model import (
    ALL_GASES,
    DispatchError,
    DispatchProblem,
    DispatchSolution,
    Gas,
    GeneratorUnit,
    LossMatrix,
)
from .penalty import PenaltyFactors, penalty_factors_all

SOLVER_NAMES = ("pso", "ga")
# The config field that holds each solver's step budget.
_BUDGET = {"pso": "iterations", "ga": "generations"}


def load_problem(
    path: Union[str, Path],
    demand: Optional[float] = None,
    k1: int = 1,
    k2: int = 1,
) -> DispatchProblem:
    """Parse and validate a problem file.

    The file supplies units, gases and optionally a loss matrix and a
    default demand; a demand passed here overrides the file.  The loss
    matrix is checked by LossMatrix: mild asymmetry is averaged away with a
    warning, anything beyond the model tolerance is rejected.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise DispatchError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DispatchError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc

    if not isinstance(raw, dict):
        raise DispatchError(f"{path}: a problem file must hold a JSON object")
    entries = raw.get("units")
    if not entries:
        raise DispatchError(f"{path}: problem file defines no units")
    if not isinstance(entries, list):
        raise DispatchError(f"{path}: 'units' must be a list of unit objects")
    names = raw.get("gases", [g.value for g in ALL_GASES])
    if not isinstance(names, list):
        raise DispatchError(f"{path}: 'gases' must be a list of gas names")
    try:
        gases = tuple(Gas(g) for g in names)
    except ValueError as exc:
        raise DispatchError(f"{path}: unknown gas in 'gases': {exc}") from exc

    units = []
    for idx, entry in enumerate(entries, start=1):
        where = f"{path}: unit #{idx}"
        try:
            if not isinstance(entry, dict) or not isinstance(entry["emissions"], dict):
                raise DispatchError(f"{where}: a unit and its 'emissions' must be JSON objects")
            fields = dict(
                id=int(entry["id"]),
                p_min=float(entry["p_min"]),
                p_max=float(entry["p_max"]),
                cost=tuple(float(v) for v in entry["cost"]),
                emissions={
                    Gas(g): tuple(float(v) for v in coeffs)
                    for g, coeffs in entry["emissions"].items()
                },
            )
        except KeyError as exc:
            raise DispatchError(f"{where} is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            # a null limit, a number where a list of coefficients belongs, a
            # string that is no number, or a gas key that is no Gas
            raise DispatchError(f"{where}: {exc}") from exc
        units.append(GeneratorUnit(**fields))

    if demand is None:
        demand = raw.get("demand")
    if demand is None:
        raise DispatchError(f"{path}: no demand in file and none supplied")
    try:
        b = None if raw.get("b_matrix") is None else np.array(raw["b_matrix"], dtype=float)
        demand = float(demand)
    except (TypeError, ValueError) as exc:
        # a mapping, ragged rows or a string that is no number; LossMatrix
        # still raises its own ValueError on shape, finiteness and asymmetry
        raise DispatchError(f"{path}: 'b_matrix' and 'demand' must hold numbers: {exc}") from exc
    losses = None if b is None else LossMatrix(b)
    return DispatchProblem(
        units=tuple(units),
        demand=demand,
        gases=gases,
        losses=losses,
        k1=k1,
        k2=k2,
    )


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
    iterations: Optional[int] = None  # overrides both solvers' budget when set
    pso_config: Optional[pso.PsoConfig] = None
    ga_config: Optional[ga.GaConfig] = None
    workers: int = 0  # 0 = run trials serially
    out_dir: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", tuple(float(d) for d in self.demands))
        if not self.demands:
            raise ValueError("an experiment needs at least one demand")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.solver not in (*SOLVER_NAMES, "both"):
            raise ValueError(f"solver must be pso, ga or both, got {self.solver!r}")
        for config in (self.pso_config, self.ga_config):
            if config is not None and config.seed != 0:
                raise ValueError(
                    f"solver configs must leave seed at 0, got {config.seed}; "
                    "trial i runs with base_seed + i, so set base_seed"
                )
        # a zero budget leaves every trace empty, and export_trace refuses those
        if self.out_dir is not None:
            for solver in self.solver_names:
                if getattr(_solver_config(self, solver, 0), _BUDGET[solver]) == 0:
                    raise ValueError(
                        f"{solver} has a zero step budget, so there is no trace to write "
                        f"to {self.out_dir}"
                    )

    @property
    def solver_names(self) -> tuple[str, ...]:
        return SOLVER_NAMES if self.solver == "both" else (self.solver,)


@dataclass(frozen=True)
class Trial:
    """One seeded solver run.

    Trials run in batches, so `seconds` is the wall time of the trial's
    batch divided by the number of trials in it.
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


def _solver_config(spec: ExperimentSpec, solver: str, seed: int):
    if solver == "pso":
        cfg = spec.pso_config or pso.PsoConfig()
    else:
        cfg = spec.ga_config or ga.GaConfig()
    if spec.iterations is not None:
        cfg = replace(cfg, **{_BUDGET[solver]: spec.iterations})
    return replace(cfg, seed=seed)


def _run_trial(args) -> tuple[Trial, ...]:
    """One batch: `count` trials from index `first`, run together and timed together."""
    problem, solver, config, h, first, count = args
    runner = pso.run_trials if solver == "pso" else ga.run_trials
    start = time.perf_counter()
    results = runner(problem, config, h, count)
    share = (time.perf_counter() - start) / count
    return tuple(
        Trial(index=first + i, seed=config.seed + i, solution=solution, seconds=share, trace=trace)
        for i, (solution, trace) in enumerate(results)
    )


def _batches(trials: int, workers: int) -> list[tuple[int, int]]:
    """(first index, count) per batch: every trial in one, or one contiguous batch per worker."""
    n = min(max(workers, 1), trials)
    bounds = [trials * k // n for k in range(n + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


def run_experiment(spec: ExperimentSpec) -> list[TrialReport]:
    """Execute the full trial protocol; one report per (solver, demand) pair."""
    reports = []
    for demand in spec.demands:
        problem = load_problem(spec.problem_path, demand, spec.k1, spec.k2)
        h = penalty_factors_all(problem) if spec.k2 else None
        for solver in spec.solver_names:
            jobs = [
                (problem, solver, _solver_config(spec, solver, spec.base_seed + first), h, first, count)
                for first, count in _batches(spec.trials, spec.workers)
            ]
            if spec.workers > 0:
                # imported here: the pool module is a third of the package's import time
                from concurrent.futures import ProcessPoolExecutor

                with ProcessPoolExecutor(max_workers=spec.workers) as pool:
                    batches = list(pool.map(_run_trial, jobs))
            else:
                batches = [_run_trial(job) for job in jobs]
            trials = tuple(trial for batch in batches for trial in batch)
            reports.append(TrialReport(solver=solver, demand=demand, h=h, trials=trials))
    if spec.out_dir is not None:
        write_outputs(reports, Path(spec.out_dir))
    return reports


def export_trace(trace: Sequence[float], path: Union[str, Path]) -> None:
    """Write a convergence trace as 'iteration,objective' rows."""
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0:
        raise ValueError("refusing to export an empty trace")
    lines = ["iteration,objective"]
    lines += [f"{i},{v:.12g}" for i, v in enumerate(trace, start=1)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: Union[str, Path]) -> np.ndarray:
    """Inverse of export_trace; returns the objective column."""
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "iteration,objective":
        raise ValueError(f"{path}: not a trace file")
    return np.array([float(r.split(",")[1]) for r in rows[1:]])


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
    lines = [
        f"solver={report.solver} demand={report.demand:g} MW trials={len(report.trials)}",
    ]
    if report.h is not None:
        factors = "  ".join(
            f"h_{gas.value}={report.h[gas]:.4f}" for gas in report.h.values
        )
        lines.append(f"  penalty factors ($/kg): {factors}")
    lines += _solution_lines("best trial", report.best_trial.solution)
    lines.append(
        f"  TC over trials ($/h): best={costs[0]:.2f} "
        f"median={median(costs):.2f} mean={mean(costs):.2f} worst={costs[-1]:.2f}"
    )
    lines.append("  -- timing (machine-dependent) --")
    secs = [t.seconds for t in report.trials]
    lines.append(f"  batch wall clock (s): {sum(secs):.3f}, summed over batches")
    lines.append(
        f"  share per trial (s): mean={mean(secs):.4f} min={min(secs):.4f} max={max(secs):.4f}"
    )
    return "\n".join(lines) + "\n"


def write_outputs(reports: list[TrialReport], out_dir: Path) -> None:
    """Per-trial traces plus one combined report file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        stem = f"{report.solver}_pd{report.demand:g}"
        for trial in report.trials:
            export_trace(trial.trace, out_dir / f"{stem}_trial{trial.index:03d}.csv")
    (out_dir / "report.txt").write_text("\n".join(format_report(r) for r in reports))
