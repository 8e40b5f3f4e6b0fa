"""The package's import surface: what `import ceed` loads, and every public name."""

import os
import subprocess
import sys
from pathlib import Path

import ceed

SRC = Path(__file__).resolve().parents[1] / "src"

# The solvers, the oracles and what only they use.
LOADED_ON_FIRST_USE = ("ceed.pso", "ceed.ga", "ceed.repair", "ceed.oracle", "statistics")


def test_problem_and_penalty_factors_load_no_solver_or_oracle(six_unit_path):
    code = (
        "import sys, ceed\n"
        f"ceed.penalty_factors_all(ceed.load_problem({str(six_unit_path)!r}, 1500))\n"
        f"print(sorted(set({LOADED_ON_FIRST_USE!r}) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_public_name_resolves():
    for name in ceed.__all__:
        assert getattr(ceed, name) is not None, name
    from ceed import PsoConfig, ga, lambda_solve, pso

    assert ceed.pso is pso and ceed.ga is ga
    assert pso.PsoConfig is PsoConfig and ceed.oracle.lambda_solve is lambda_solve
    assert {"PsoConfig", "GaConfig", "LambdaResult", "grid_search", "lambda_solve", "ga", "pso"} <= set(dir(ceed))
