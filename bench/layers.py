"""Fixed-input timings of single layers.

Each figure is the median over repeats, after a warm-up call, of the time
per call on inputs drawn from the benchmark seed, scaled to the reference
host speed (see speed.py).  A repeat runs the call enough times to last at
least MIN_BLOCK_S, so the clock's resolution and the loop around the call
are negligible.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

import numpy as np

from ceed import (
    ExperimentSpec,
    GaConfig,
    PsoConfig,
    evaluate_dispatch,
    grid_search,
    lambda_solve,
    load_problem,
    penalty_factors_all,
    run_experiment,
)
from ceed import ga, pso
from ceed.model import combined_objective_batch
from ceed.repair import repair_batch

import inputs
import speed

REPEATS = 7
MIN_BLOCK_S = 0.02
ROWS = 500


def per_call_s(fn) -> float:
    """Median seconds per call of fn(), scaled to the reference host speed."""
    fn()
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - start >= MIN_BLOCK_S:
            break
        number *= 2
    samples = []
    before = speed.probe()
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        after = speed.probe()
        samples.append(elapsed / number * speed.factor(before, after))
        before = after
    return median(samples)


def _uniform_rows(problem, rng, rows=ROWS) -> np.ndarray:
    return rng.uniform(problem.p_min_arr, problem.p_max_arr, size=(rows, problem.n_units))


def fixed_input_timings(
    root: Path, out_dir: Path, seed: int, workload_path: Path, demand: float, lossy_path: Path
) -> dict[str, tuple[float, str]]:
    """Every fixed-input per-layer metric as (value, unit), keyed by its BENCHMARK.json name."""
    rng = np.random.default_rng([seed, 3])
    six = inputs.six_unit_path(root)
    p1500, p2000 = (load_problem(six, d) for d in inputs.PAPER_DEMANDS)
    h1500 = penalty_factors_all(p1500)
    lossy = load_problem(lossy_path, inputs.PAPER_DEMANDS[-1])
    us = 1e6
    out: dict[str, tuple[float, str]] = {}

    # repair: rows near the balance, as PSO's moves produce them, and
    # uniform rows, as GA's decoded bitstrings produce them
    span = p1500.p_max_arr - p1500.p_min_arr
    near = repair_batch(p1500, _uniform_rows(p1500, rng))
    near = np.clip(near + rng.uniform(-0.01, 0.01, near.shape) * span, p1500.p_min_arr, p1500.p_max_arr)
    for name, problem, rows in (
        ("repair.near_balanced_us_per_row", p1500, near),
        ("repair.uniform_1500_us_per_row", p1500, _uniform_rows(p1500, rng)),
        ("repair.uniform_2000_us_per_row", p2000, _uniform_rows(p2000, rng)),
        ("repair.lossy_us_per_row", lossy, _uniform_rows(lossy, rng)),
    ):
        out[name] = (per_call_s(lambda: repair_batch(problem, rows)) * us / ROWS, "us")

    # model
    for rows in (10, ROWS):
        P = repair_batch(p1500, _uniform_rows(p1500, rng, rows))
        out[f"model.objective_{rows}_us_per_row"] = (
            per_call_s(lambda: combined_objective_batch(p1500, P, h1500)) * us / rows,
            "us",
        )
    one = P[0]
    out["model.evaluate_dispatch_us"] = (per_call_s(lambda: evaluate_dispatch(p1500, one, h1500)) * us, "us")

    # pso: one step of a swarm of 10 and of 500 particles
    for particles in (10, ROWS):
        config = PsoConfig(particles=particles, seed=int(rng.integers(2**31)))
        state = pso.init_swarm(p1500, config, h1500)
        out[f"pso.step_{particles}_us"] = (
            per_call_s(lambda: pso.step(state, p1500, config, h1500, 0)) * us,
            "us",
        )

    # ga: one generation's selection, crossover and mutation, and decoding
    next_generation = getattr(ga, "_next_generation", None)
    for individuals in (10, ROWS):
        config = GaConfig(individuals=individuals)
        bits = rng.integers(0, 2, size=(individuals, p1500.n_units * config.bits_per_gene), dtype=np.uint8)
        objectives = combined_objective_batch(p1500, repair_batch(p1500, ga.decode(bits, p1500, config)), h1500)
        ga_rng = np.random.default_rng(rng.integers(2**31))
        out[f"ga.next_generation_{individuals}_us"] = (
            per_call_s(lambda: next_generation(bits, objectives, ga_rng, config)) * us
            if next_generation is not None
            else 0.0,
            "us",
        )
    out["ga.decode_us_per_row"] = (per_call_s(lambda: ga.decode(bits, p1500, config)) * us / ROWS, "us")

    # oracle
    lam = [(problem, penalty_factors_all(problem)) for problem in (p1500, p2000)]
    out["oracle.lambda_solve_us"] = (median(per_call_s(lambda: lambda_solve(p, h)) for p, h in lam) * us, "us")
    out["oracle.lambda_iterations"] = (float(np.mean([lambda_solve(p, h).iterations for p, h in lam])), "count")
    grid = load_problem(inputs.write_random_problem(out_dir, seed, n_units=3))
    grid_h = penalty_factors_all(grid)
    out["oracle.grid_search_ms"] = (per_call_s(lambda: grid_search(grid, grid_h, 1.0)) * 1e3, "ms")

    # set-up work on the workload's own problem file
    problem = load_problem(workload_path, demand)
    out["penalty.factors_us"] = (per_call_s(lambda: penalty_factors_all(problem)) * us, "us")
    out["harness.load_problem_ms"] = (per_call_s(lambda: load_problem(workload_path, demand)) * 1e3, "ms")
    return out


def workers2_speedup(root: Path) -> float:
    """Serial over workers=2 wall time of a shortened paper protocol (4 trials)."""
    walls = []
    for workers in (0, 2):
        spec = ExperimentSpec(
            problem_path=str(inputs.six_unit_path(root)),
            demands=inputs.PAPER_DEMANDS,
            trials=4,
            workers=workers,
        )
        before = speed.probe()
        start = time.perf_counter()
        run_experiment(spec)
        elapsed = time.perf_counter() - start
        walls.append(elapsed * speed.factor(before, speed.probe()))
    return walls[0] / walls[1]
