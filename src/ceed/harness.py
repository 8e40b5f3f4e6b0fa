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
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .model import (
    ALL_GASES,
    DispatchError,
    DispatchProblem,
    DispatchSolution,
    Gas,
    GeneratorUnit,
    LossMatrix,
    PenaltyFactors,
)
from .penalty import penalty_factors_all

# The solvers load on first use (in _solver_config and _run_trial): reading a
# problem file and its penalty factors needs neither.
if TYPE_CHECKING:
    from . import ga, pso


class ProblemFileError(DispatchError, ValueError):
    """A problem file the reader or the model refuses; the message names the file."""


SOLVER_NAMES = ("pso", "ga")
# The config field that holds each solver's step budget.
_BUDGET = {"pso": "iterations", "ga": "generations"}

_NUMBER = frozenset({int, float})  # the types json.loads gives a JSON number; true and false are bools
_NESTED = ("a number", "a list of numbers", "a list of lists of numbers")
_GASES = {gas.value: gas for gas in Gas}


def _floats(value, key: str, depth: int = 0):
    """A JSON number as a float, or `depth` nested JSON lists of them as tuples."""
    if depth and type(value) is list:
        if depth == 1 and _NUMBER.issuperset(map(type, value)):
            return tuple(map(float, value))
        return tuple(_floats(v, key, depth - 1) for v in value)
    if not depth and type(value) in _NUMBER:
        return float(value)
    if type(value) in _NUMBER or type(value) is list:
        raise TypeError(f"{key!r} must hold {_NESTED[depth]}, got {value!r}")
    # float() would read a digit string, a boolean or an object's keys as numbers
    raise TypeError(f"could not convert {value!r} to a number in {key!r}")


def _kind(value, kind: type, key: str, what: str):
    if type(value) is not kind:
        raise TypeError(f"{key!r} must be {what}, got {value!r}")
    return value


def _gas(name, key: str) -> Gas:
    if type(name) is not str or name not in _GASES:
        raise ValueError(f"{name!r} is an unknown gas in {key!r}")
    return _GASES[name]


# Every key a problem file and its units may hold, with the reader of its
# JSON value.  A file needs "units", a unit all its keys.  What the model
# checks (integer ids, three coefficients, finite values, limits, B) it keeps.
_FILE_KEYS = {
    "units": lambda v, key: _kind(v, list, key, "a list of unit objects"),
    "name": lambda v, key: _kind(v, str, key, "a string"),
    "gases": lambda v, key: tuple(_gas(g, key) for g in _kind(v, list, key, "a list of gas names")),
    "demand": _floats,
    "b_matrix": lambda v, key: None if v is None else _floats(v, key, 2),
}
_UNIT_KEYS = {
    "id": lambda v, key: v,
    "p_min": _floats,
    "p_max": _floats,
    "cost": lambda v, key: _floats(v, key, 1),
    "emissions": lambda v, key: {
        _gas(gas, key): _floats(curve, gas, 1)
        for gas, curve in _kind(v, dict, key, "an object of gas curves").items()
    },
}


def _read(obj, readers: dict, required) -> dict:
    """obj's values through `readers`, once obj is a JSON object with each required key and no other."""
    if type(obj) is not dict:
        raise TypeError(f"expected a JSON object, got {obj!r}")
    if not required <= obj.keys() <= readers.keys():
        wrong = [f"unknown key {key!r}" for key in sorted(obj.keys() - readers.keys())]
        raise ValueError("; ".join(wrong + [f"missing key {key!r}" for key in sorted(required - obj.keys())]))
    return {key: readers[key](value, key) for key, value in obj.items()}


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refused when it repeats a key, of which json.loads keeps the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {max(keys, key=keys.count)!r}")
    return obj


def load_problem(path: Union[str, Path], demand: Optional[float] = None,
                 k1: int = 1, k2: int = 1) -> DispatchProblem:
    """Read a problem file, whose keys are those of _FILE_KEYS and its units' those of _UNIT_KEYS.

    A demand passed here overrides the file's, which is checked all the same.
    Any other file, or one with values the model rejects, raises ProblemFileError
    naming it; a demand beyond the units raises InfeasibleError.
    """
    where = path = Path(path)
    try:
        file = _read(json.loads(path.read_text(), object_pairs_hook=_unique_keys), _FILE_KEYS, {"units"})
        units = []
        for i, entry in enumerate(file["units"], start=1):
            where = f"{path}: unit #{i}"
            units.append(GeneratorUnit(**_read(entry, _UNIT_KEYS, _UNIT_KEYS.keys())))
        where = path
        if demand is None and "demand" not in file:
            raise ValueError("no demand in file and none supplied")
        demand = file["demand"] if demand is None else float(demand)
        losses = None if file.get("b_matrix") is None else LossMatrix(file["b_matrix"])
        gases = file.get("gases", ALL_GASES)
        return DispatchProblem(units=tuple(units), demand=demand, gases=gases, losses=losses, k1=k1, k2=k2)
    except OSError as exc:
        raise DispatchError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DispatchError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # an integer too large for a float
        raise ProblemFileError(f"{where}: {exc}") from exc


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
        if len(set(self.demands)) < len(self.demands):
            raise ValueError(f"demands must differ (a repeat reruns the same seeds), got {list(self.demands)}")
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
                    raise ValueError(f"{solver} has a zero step budget, so there is no trace "
                                     f"to write to {self.out_dir}")

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
    from . import ga, pso

    cfg = (spec.pso_config or pso.PsoConfig()) if solver == "pso" else (spec.ga_config or ga.GaConfig())
    if spec.iterations is not None:
        cfg = replace(cfg, **{_BUDGET[solver]: spec.iterations})
    return replace(cfg, seed=seed)


def _run_trial(args) -> tuple[Trial, ...]:
    """One batch: `count` trials from index `first`, run together and timed together."""
    from . import ga, pso

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
                # imported here: the pool module takes about as long to load as `import ceed`
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


def format_demand(demand: float) -> str:
    """demand as {:g}, or as repr where {:g} would round it, so that distinct demands read apart."""
    text = f"{demand:g}"
    return text if float(text) == demand else repr(demand)


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
    from statistics import mean, median

    costs = sorted(report.total_costs)
    lines = [f"solver={report.solver} demand={format_demand(report.demand)} MW trials={len(report.trials)}"]
    if report.h is not None:
        factors = "  ".join(f"h_{gas.value}={report.h[gas]:.4f}" for gas in report.h.values)
        lines.append(f"  penalty factors ($/kg): {factors}")
    lines += _solution_lines("best trial", report.best_trial.solution)
    lines.append(
        f"  TC over trials ($/h): best={costs[0]:.2f} "
        f"median={median(costs):.2f} mean={mean(costs):.2f} worst={costs[-1]:.2f}"
    )
    lines.append("  -- timing (machine-dependent) --")
    secs = [t.seconds for t in report.trials]
    lines.append(f"  batch wall clock (s): {sum(secs):.3f}, summed over batches")
    lines.append(f"  share per trial (s): mean={mean(secs):.4f} min={min(secs):.4f} max={max(secs):.4f}")
    return "\n".join(lines) + "\n"


def write_outputs(reports: list[TrialReport], out_dir: Path) -> None:
    """Per-trial traces plus one combined report file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for report in reports:
        stem = f"{report.solver}_pd{format_demand(report.demand)}"
        for trial in report.trials:
            export_trace(trial.trace, out_dir / f"{stem}_trial{trial.index:03d}.csv")
    (out_dir / "report.txt").write_text("\n".join(format_report(r) for r in reports))
