"""The package's import surface: what `import ceed` loads, and every public name."""

import os
import subprocess
import sys
from pathlib import Path

import ceed

SRC = Path(__file__).resolve().parents[1] / "src"

# The experiment runner, the solvers, the oracles and what only they use.
LOADED_ON_FIRST_USE = (
    "ceed.harness", "ceed.pso", "ceed.ga", "ceed.repair", "ceed.oracle", "statistics", "concurrent.futures",
)


def run_python(code: str) -> list[str]:
    """The stdout lines of `code` run in a fresh interpreter that imports ceed from the checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_problem_and_penalty_factors_load_no_solver_or_oracle(six_unit_path):
    # nor any module at all that `import ceed` did not load: both run inside the benchmark's setup_s
    code = (
        "import sys, ceed\n"
        "imported = set(sys.modules)\n"
        f"ceed.penalty_factors_all(ceed.load_problem({str(six_unit_path)!r}, 1500))\n"
        f"print(sorted(set({LOADED_ON_FIRST_USE!r}) & set(sys.modules)))\n"
        "print(sorted(set(sys.modules) - imported))\n"
    )
    assert run_python(code) == ["[]", "[]"]


def test_penalty_and_oracle_commands_load_no_runner(six_unit_path):
    # ceed penalty loads nothing that is loaded on first use, ceed oracle only the oracle
    code = (
        "import contextlib, io, sys\n"
        "from ceed.cli import main\n"
        "for command in ('penalty', 'oracle'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        assert main([command, '--problem', {str(six_unit_path)!r}, '--demand', '1500']) == 0\n"
        f"    print(command, sorted(set({LOADED_ON_FIRST_USE!r}) & set(sys.modules)))\n"
    )
    assert run_python(code) == ["penalty []", "oracle ['ceed.oracle']"]


def test_the_runner_loads_the_solvers_but_not_the_pool():
    # the process pool is the one import the runner keeps inside a function
    code = (
        "import sys, ceed.harness\n"
        "print(sorted({'ceed.pso', 'ceed.ga', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    assert run_python(code) == ["['ceed.ga', 'ceed.pso']"]


def test_every_public_name_resolves():
    for name in ceed.__all__:
        assert getattr(ceed, name) is not None, name
    from ceed import PsoConfig, ga, lambda_solve, pso

    assert ceed.pso is pso and ceed.ga is ga
    assert pso.PsoConfig is PsoConfig and ceed.oracle.lambda_solve is lambda_solve
    assert {"PsoConfig", "GaConfig", "LambdaResult", "grid_search", "lambda_solve", "ga", "pso"} <= set(dir(ceed))
    assert {"ExperimentSpec", "TrialReport", "export_trace", "format_report", "run_experiment", "harness"} <= set(dir(ceed))
    assert ceed.harness.run_experiment is ceed.run_experiment
