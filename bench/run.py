"""Benchmark of the ceed package: the paper's trial protocol, end to end and per layer.

    python3 bench/run.py --workload paper_protocol --seed 1 --seconds 30 --trace 0

Paths are resolved from this file, and the package is imported from the
checkout's ``src/``.  Each workload does the work of ``ceed solve`` in a
closed loop, one process, serial trials: a call is one
``harness.run_experiment`` of one GA or two PSO trials for one (solver,
demand) pair followed by ``format_report``, and rounds of calls over every
pair repeat until ``--seconds`` of call time have passed.

With ``--trace 0`` the last output line is a JSON object holding the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it holds the
per-layer metrics: the loop runs untraced for half the time, the same calls
are then replayed with timing wrappers around the layer boundaries, and
fixed-input timings of single layers follow.  Every time is scaled to a
reference host speed (see speed.py).  Generated problem files, spans and
results are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

import speed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"
WORKLOADS = ("paper_protocol", "lossy_protocol", "large_system")
SOLVERS = ("pso", "ga")
# Steps of the large_system solvers: about 40 rounds fit in a 30 s run, and
# the per-step work, not the step count, is what that workload measures.
LARGE_STEPS = 100
# A PSO trial costs a quarter of a GA trial or less, so PSO calls run two
# trials: each solver then gets enough samples per second of the run.
TRIALS_PER_CALL = {"pso": 2, "ga": 1}
SEED_STRIDE = max(TRIALS_PER_CALL.values())
SETUP_REPEATS = 11
# A solver run may not beat the reference optimum by more than this share;
# the balance tolerance alone accounts for about 1e-9.
BELOW_REFERENCE_TOL = 1e-6
# A trace value within this share of its final value counts as converged.
CONVERGED_REL = 1e-9

# Timed in a fresh interpreter, after NumPy is imported: NumPy's own import
# is no work of the package, and its variance would drown the package's
# share.  The speed probe runs in this process around each interpreter; a
# probe inside the fresh interpreter is itself slowed by cold caches.
SETUP_CODE = """
import sys, time
import numpy
start = time.perf_counter()
sys.path.insert(0, {src!r})
import ceed
for demand in {demands!r}:
    ceed.penalty_factors_all(ceed.load_problem({path!r}, demand))
print(time.perf_counter() - start)
"""


class Workload:
    """A workload's problem instances, made on first use from the run seed.

    paper_protocol has one instance, the shipped file.  The generated
    workloads give round k of the loop its own seeded instance k: with a
    few instances per run, the run-to-run spread of trial times followed
    whichever instances were drawn.
    """

    def __init__(self, name: str, seed: int):
        from ceed import GaConfig, PsoConfig

        self.name, self.seed = name, seed
        self.pso_config = self.ga_config = None
        if name == "large_system":
            self.pso_config = PsoConfig(particles=100, iterations=LARGE_STEPS)
            self.ga_config = GaConfig(individuals=100, generations=LARGE_STEPS)
        self._instances: dict[int, tuple] = {}

    def instance(self, k: int) -> tuple[Path, tuple[float, ...], dict]:
        """(problem file, demands, checked reference per demand) of round k."""
        import inputs
        from ceed import load_problem

        k = 0 if self.name == "paper_protocol" else k
        if k not in self._instances:
            if self.name == "paper_protocol":
                path, demands = inputs.six_unit_path(ROOT), inputs.PAPER_DEMANDS
            elif self.name == "lossy_protocol":
                path, demands = inputs.write_lossy_problem(ROOT, OUT_DIR, self.seed, k), inputs.PAPER_DEMANDS
            else:
                path = inputs.write_random_problem(OUT_DIR, self.seed, k)
                demands = (load_problem(path).demand,)
            refs = {demand: inputs.reference(load_problem(path, demand)) for demand in demands}
            self._instances[k] = (path, demands, refs)
        return self._instances[k]


@dataclass(frozen=True)
class Sample:
    """One solver run: its trial, its seconds at reference speed, its gap to the reference."""

    trial: object
    seconds: float
    gap: float


@dataclass
class LoopResult:
    """What the closed loop observed.  Times are at the reference host speed."""

    calls: list = field(default_factory=list)  # per call: solver, problem, demand, seed, trials, scale
    wall: float = 0.0  # sum of call times as measured
    elapsed: float = 0.0  # sum of call times at reference speed
    harness_s: float = 0.0  # call times minus the Trial.seconds inside them
    attempted: int = 0
    failed: int = 0
    tracebacks: list[str] = field(default_factory=list)  # of calls that raised
    errors: list[str] = field(default_factory=list)  # wrong outputs
    samples: dict = field(default_factory=dict)  # (solver, demand index) -> [Sample]
    last_report: object = None

    def of(self, solver: str) -> list[Sample]:
        return [s for (name, _), group in self.samples.items() if name == solver for s in group]


def run_loop(workload: Workload, base_seed: int, seconds=None, calls=None, tracer=None) -> LoopResult:
    """Closed loop over run_experiment + format_report until call time or calls run out.

    Round k runs every (solver, demand) pair of instance k; trial i of a
    call uses seed base_seed + SEED_STRIDE * k + i.  Rounds are never cut
    short, so every pair gets the same number of trials.
    """
    from ceed import ExperimentSpec, format_report, run_experiment

    pairs = [(solver, j) for j in range(len(workload.instance(0)[1])) for solver in SOLVERS]
    out = LoopResult()
    before = speed.probe()
    while True:
        k, slot = divmod(len(out.calls), len(pairs))
        if slot == 0 and k > 0 and (len(out.calls) >= calls if calls is not None else out.wall >= seconds):
            break
        path, demands, refs = workload.instance(k)
        solver, j = pairs[slot]
        spec = ExperimentSpec(
            problem_path=str(path),
            demands=(demands[j],),
            solver=solver,
            trials=TRIALS_PER_CALL[solver],
            base_seed=base_seed + SEED_STRIDE * k,
            pso_config=workload.pso_config,
            ga_config=workload.ga_config,
        )
        if tracer is not None:
            tracer.call = len(out.calls)
        t0 = time.perf_counter()
        try:
            report = run_experiment(spec)[0]
            text = format_report(report)
        except Exception:  # a failing call counts as failed runs, not the end of the benchmark
            report = None
            out.tracebacks.append(traceback.format_exc())
        wall = time.perf_counter() - t0
        after = speed.probe()
        scale = speed.factor(before, after)
        before = after
        out.calls.append({
            "solver": solver, "problem": path.name, "demand": demands[j], "seed": spec.base_seed,
            "trials": spec.trials, "scale": scale,
        })
        out.wall += wall
        out.elapsed += wall * scale
        out.attempted += spec.trials
        if report is None:
            out.failed += spec.trials
            continue
        ref = refs[demands[j]]
        for trial in report.trials:
            out.failed += not (trial.solution.feasible and not (trial.trace[1:] > trial.trace[:-1]).any())
            gap = trial.solution.total_cost / ref.total_cost - 1.0
            if gap < -BELOW_REFERENCE_TOL:
                out.errors.append(f"{solver} on {path.name}@{demands[j]:g} beat the {ref.method} reference by {-gap:.3g}")
            out.samples.setdefault((solver, j), []).append(Sample(trial, trial.seconds * scale, gap))
            out.harness_s -= trial.seconds * scale
        out.harness_s += wall * scale
        if f"best={min(report.total_costs):.2f}" not in text:
            out.errors.append(f"format_report omits the best TC of {solver} on {path.name}@{demands[j]:g}")
        out.last_report = report
    return out


def setup_seconds(workload: Workload) -> float:
    """Median time of import ceed + load_problem + penalty_factors_all in fresh interpreters."""
    path, demands, _ = workload.instance(0)
    code = SETUP_CODE.format(src=str(ROOT / "src"), demands=demands, path=str(path))
    samples = []
    before = speed.probe()
    for _ in range(SETUP_REPEATS + 1):  # the first run also writes the bytecode cache
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60
        )
        after = speed.probe()
        samples.append(float(done.stdout.strip().splitlines()[-1]) * speed.factor(before, after))
        before = after
    return median(samples[1:])


def trial_seconds(loop: LoopResult, solver: str) -> tuple[float, float]:
    """p50 and p75 of the solver's trial seconds.

    The p50 is taken per demand and averaged over the demands: pooled, it
    would fall between the demands' modes, where a few samples move it far.
    The p75 is pooled over the demands, so that it has ten samples beyond it
    once a solver has 40 trials.
    """
    groups = [[s.seconds for s in g] for (name, _), g in loop.samples.items() if name == solver]
    pooled = [x for g in groups for x in g]
    p75 = quantiles(pooled, n=4, method="inclusive")[-1] if len(pooled) > 1 else pooled[0]
    return sum(median(g) for g in groups) / len(groups), p75


def gaps(loop: LoopResult, solver: str) -> tuple[float, float]:
    """(best, median) of TC / reference - 1 per demand, each the largest over the demands."""
    per_demand = [
        [s.gap for s in group] for (name, _), group in loop.samples.items() if name == solver
    ]
    return max(min(g) for g in per_demand), max(median(g) for g in per_demand)


def iters_to_converge(loop: LoopResult, solver: str) -> float:
    """Median over trials of the first iteration within CONVERGED_REL of the trace's final value."""
    import numpy as np

    firsts = []
    for sample in loop.of(solver):
        trace = sample.trial.trace
        close = np.abs(trace - trace[-1]) <= CONVERGED_REL * abs(trace[-1])
        firsts.append(int(np.argmax(close)) + 1)
    return float(median(firsts))


def end_to_end(workload: Workload, loop: LoopResult) -> dict:
    metrics = {
        "setup_s": (setup_seconds(workload), "s"),
        "solves_per_s": (sum(len(g) for g in loop.samples.values()) / loop.elapsed, "1/s"),
    }
    for solver in SOLVERS:
        p50, p75 = trial_seconds(loop, solver)
        metrics[f"{solver}_trial_s_p50"] = (p50, "s")
        metrics[f"{solver}_trial_s_p75"] = (p75, "s")
    for solver in SOLVERS:
        metrics[f"{solver}_tc_ratio_median"] = (1.0 + gaps(loop, solver)[1], "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(workload: Workload, seed: int, seconds: float, base_seed: int):
    """Untraced loop for half the time, a traced replay of its calls, then fixed-input timings."""
    import inputs
    import layers
    from ceed import format_report

    loop = run_loop(workload, base_seed, seconds=seconds / 2)
    tracer = Tracer()
    with tracer.installed():
        replay = run_loop(workload, base_seed, calls=len(loop.calls), tracer=tracer)
    errors = list(replay.errors)
    for key, group in loop.samples.items():
        again = [s.trial.solution.total_cost for s in replay.samples.get(key, [])]
        if again != [s.trial.solution.total_cost for s in group]:
            errors.append(f"the traced replay changed the solutions of {key[0]} at demand #{key[1]}")

    n = replay.attempted
    self_s = tracer.self_times([c["scale"] for c in replay.calls])
    counts = tracer.counts()

    def count(name, rows=False):
        return counts.get(name, (0, 0))[rows]

    def per_trial_s(*names):
        return sum(self_s.get(name, 0.0) for name in names) / n

    repair_rows = count("repair_batch", rows=True)
    fallback = count("_assign_residual")
    metrics = {
        "repair.calls": (count("repair_batch") / n, "count/trial"),
        "repair.rows": (repair_rows / n, "count/trial"),
        "repair.self_s": (per_trial_s("repair_batch", "_assign_residual"), "s/trial"),
        "repair.fallback_rows": (fallback / n, "count/trial"),
        "repair.settled_ratio": ((repair_rows - fallback) / repair_rows, "ratio"),
        "model.objective_calls": (count("combined_objective_batch") / n, "count/trial"),
        "model.objective_rows": (count("combined_objective_batch", rows=True) / n, "count/trial"),
        "model.objective_self_s": (per_trial_s("combined_objective_batch"), "s/trial"),
        "pso.step_calls": (count("step") / n, "count/trial"),
        "pso.step_self_s": (per_trial_s("step"), "s/trial"),
        "pso.iters_to_converge_p50": (iters_to_converge(loop, "pso"), "count"),
        "ga.next_generation_calls": (count("_next_generation") / n, "count/trial"),
        "ga.next_generation_self_s": (per_trial_s("_next_generation"), "s/trial"),
        "ga.decode_self_s": (per_trial_s("decode"), "s/trial"),
        "ga.iters_to_converge_p50": (iters_to_converge(loop, "ga"), "count"),
        "harness.run_trial_self_s": (per_trial_s("_run_trial"), "s/trial"),
        "harness.overhead_s": (loop.harness_s / loop.attempted, "s/trial"),
        "failed_ratio": (loop.failed / loop.attempted, "ratio"),
        "bench.trace_overhead_ratio": (loop.elapsed / replay.elapsed, "ratio"),
        "bench.host_speed": (median(c["scale"] for c in loop.calls), "ratio"),
    }
    for solver in SOLVERS:
        best, med = gaps(loop, solver)
        metrics[f"harness.{solver}_trials"] = (float(len(loop.of(solver))), "count")
        metrics[f"{solver}_tc_gap_best"] = (best, "ratio")
        metrics[f"{solver}_tc_gap_median"] = (med, "ratio")

    path, demands, _ = workload.instance(0)
    lossy = inputs.write_lossy_problem(ROOT, OUT_DIR, seed)
    metrics.update(layers.fixed_input_timings(ROOT, OUT_DIR, seed, path, demands[0], lossy))
    report = loop.last_report
    metrics["harness.format_report_ms"] = (layers.per_call_s(lambda: format_report(report)) * 1e3, "ms")
    metrics["harness.workers2_speedup"] = (layers.workers2_speedup(ROOT), "ratio")

    tracer.write(OUT_DIR / f"spans_{workload.name}_{seed}.json", replay.calls)
    info = {"wrapped": tracer.wrapped, "missing": tracer.missing, "spans": len(tracer.spans)}
    return metrics, errors, info, loop


def git_sha() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "ceed" / "__init__.py"
    if not package.is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import ceed

    if Path(ceed.__file__).resolve() != package.resolve():
        print(f"error: imported ceed from {ceed.__file__}, not from {package}", file=sys.stderr)
        return 2
    import inputs

    workload = Workload(args.workload, args.seed)
    base_seed = args.seed * 100_000
    errors: list[str] = []
    try:
        if args.workload != "large_system":
            worst = inputs.check_published_factors(workload.instance(0)[0])
            if worst > inputs.H_REL:
                raise inputs.CheckFailed(
                    f"penalty factors off the published table by {worst:.3g} (allowed {inputs.H_REL})"
                )
        if args.trace:
            metrics, errors, info, loop = per_layer(workload, args.seed, args.seconds, base_seed)
        else:
            loop = run_loop(workload, base_seed, seconds=args.seconds)
            metrics, info = end_to_end(workload, loop), {}
    except inputs.CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    errors += loop.errors
    for text in loop.tracebacks[:3]:
        print(f"failed run:\n{text}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {name: unit for name, (_, unit) in metrics.items()} != declared:
        errors.append("printed metrics or units disagree with BENCHMARK.json")

    trials = {solver: len(loop.of(solver)) for solver in SOLVERS}
    print(f"workload={workload.name} seed={args.seed} trace={args.trace}")
    print(f"machine: {json.dumps(machine())}")
    print(f"calls={len(loop.calls)} trials: pso={trials['pso']} ga={trials['ga']} failed={loop.failed} "
          f"solving={loop.elapsed:.3f} s at reference speed")
    for key, value in info.items():
        print(f"{key}: {value}")
    path, _, refs = workload.instance(0)
    for demand, ref in refs.items():
        print(f"reference {path.name}@{demand:g} MW: TC={ref.total_cost:.4f} ({ref.method})")
    for name in declared:
        if name in metrics:
            value, unit = metrics[name]
            print(f"  {name:36s} {value:.6g} {unit}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)

    result = {
        "correct": not errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result_{workload.name}_{args.seed}_trace{args.trace}.json").write_text(json.dumps({
        **result,
        "machine": machine(),
        **info,
        "calls": loop.calls,
        "seconds": {f"{s}_{j}": [x.seconds for x in g] for (s, j), g in loop.samples.items()},
    }))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
