"""Golden digests: every seeded result of the solvers and oracles, bit for bit.

tests/golden.json holds the float.hex of every DispatchSolution field and
the SHA-256 of every convergence trace for a fixed set of cases, grouped as
"pso", "ga" and "oracle".  A change that moves any result fails here even
when the quality gates still pass.  A change that moves results on purpose
rewrites the affected groups and names them in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py            # every group
    PYTHONPATH=src python tests/test_golden.py ga         # only the GA cases
    PYTHONPATH=src python tests/test_golden.py --diff ga  # list what would move; write nothing

--diff exits 1 when any case would move and 0 when none would.

Mismatch policy: NumPy's SIMD reductions and OpenBLAS's kernels may sum in
another order on another CPU, NumPy version or BLAS core, so the digests are
compared exactly only where the running NumPy version, machine type and
OpenBLAS core (blas_core) are those recorded in the file.  Elsewhere each
case's total cost is compared to GOLDEN_REL relative, and the test prints
that it did so.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from ceed.ga import GaConfig
from ceed.harness import run_trials
from ceed.model import LossMatrix
from ceed.oracle import grid_search, lambda_solve
from ceed.penalty import penalty_factors_all
from ceed.problem_file import load_problem
from ceed.pso import PsoConfig

from conftest import make_problem, random_problem

GOLDEN = Path(__file__).with_name("golden.json")
GROUPS = ("pso", "ga", "oracle")
GOLDEN_REL = 1e-9  # total-cost tolerance where the NumPy build differs


def blas_core():
    """The kernel family NumPy's bundled OpenBLAS runs ('SkylakeX', 'Haswell', ...), or None if unreadable."""
    for lib in sorted(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _hex(x) -> str:
    return float(x).hex()


def solution_digest(solution) -> dict:
    return {
        "powers": [_hex(p) for p in solution.powers],
        "fuel_cost": _hex(solution.fuel_cost),
        "emissions": {gas.value: _hex(v) for gas, v in solution.emissions.items()},
        "emission_cost": _hex(solution.emission_cost),
        "total_cost": _hex(solution.total_cost),
        "balance_residual": _hex(solution.balance_residual),
        "limit_violations": [[uid, _hex(v)] for uid, v in solution.limit_violations],
    }


def trial_digest(solution, trace) -> dict:
    trace = np.ascontiguousarray(trace, dtype="<f8")
    return {**solution_digest(solution), "trace_sha256": hashlib.sha256(trace.tobytes()).hexdigest()}


def _six_unit(demand):
    return load_problem(Path(str(resources.files("ceed").joinpath("data/ieee30_6unit.json"))), demand)


def _lossy_six_unit(seed):
    """The six-unit system with a seeded symmetric B-matrix losing about 3% of 1500 MW."""
    base = _six_unit(1500.0)
    rng = np.random.default_rng([seed, 7])
    n = base.n_units
    coupling = np.triu(rng.uniform(-0.05, 0.15, (n, n)), 1)
    diag = rng.uniform(0.7, 1.3, n)
    b = (coupling + coupling.T + np.eye(n)) * np.sqrt(np.outer(diag, diag))
    p = np.full(n, 1500.0 / n)
    b *= 0.03 * 1500.0 / float(p @ b @ p)
    return make_problem(base.units, 1500.0, gases=base.gases, losses=LossMatrix(b))


def _trial_cases(name, problem, config, trials):
    h = penalty_factors_all(problem)
    results = run_trials(problem, config, h, trials)
    return {f"{name}/seed{config.seed + i}": trial_digest(*result) for i, result in enumerate(results)}


def _solver_cases(solver: str) -> dict:
    make_config = PsoConfig if solver == "pso" else GaConfig
    steps = "iterations" if solver == "pso" else "generations"
    size = "particles" if solver == "pso" else "individuals"
    cases = {}
    for demand in (1500.0, 2000.0):
        cases.update(_trial_cases(f"{solver}/six/{demand:g}", _six_unit(demand), make_config(), 10))
    for seed in (1, 2):
        cases.update(
            _trial_cases(
                f"{solver}/lossy{seed}", _lossy_six_unit(seed), make_config(**{steps: 200}), 4
            )
        )
    large = random_problem(np.random.default_rng(40), 40)
    cases.update(
        _trial_cases(f"{solver}/random40", large, make_config(**{steps: 50, size: 100}), 1)
    )
    return cases


def _oracle_cases() -> dict:
    cases = {}
    for demand in (1500.0, 2000.0):
        problem = _six_unit(demand)
        result = lambda_solve(problem, penalty_factors_all(problem))
        cases[f"oracle/lambda/six/{demand:g}"] = {
            "lambda": _hex(result.lambda_),
            "powers": [_hex(p) for p in result.powers],
            "iterations": result.iterations,
            "residual": _hex(result.residual),
            "total_cost": _hex(result.solution(problem, penalty_factors_all(problem)).total_cost),
        }
    three = random_problem(np.random.default_rng(3), 3)
    lossy = make_problem(three.units, three.demand, losses=LossMatrix(np.diag([2e-4, 1e-4, 3e-4])))
    for name, problem in (("lossless", three), ("lossy", lossy)):
        solution = grid_search(problem, penalty_factors_all(problem), resolution=1.0)
        cases[f"oracle/grid/{name}"] = solution_digest(solution)
    return cases


def compute(group: str) -> dict:
    return _oracle_cases() if group == "oracle" else _solver_cases(group)


def _same_build(golden: dict) -> bool:
    return (golden["numpy"], golden["machine"], golden["blas_core"]) == (np.__version__, platform.machine(), blas_core())


@pytest.mark.parametrize("group", GROUPS)
def test_golden_digests(group):
    golden = json.loads(GOLDEN.read_text())
    expected = {name: case for name, case in golden["cases"].items() if name.startswith(f"{group}/")}
    actual = compute(group)
    assert sorted(actual) == sorted(expected), "case set changed; regenerate the golden file"
    if _same_build(golden):
        moved = [name for name in expected if actual[name] != expected[name]]
        assert not moved, f"{len(moved)} golden cases moved: {moved}"
    else:
        print(
            f"golden: NumPy {np.__version__} on {platform.machine()} with BLAS core {blas_core()} is not the "
            f"recorded {golden['numpy']} on {golden['machine']} with {golden['blas_core']}; "
            f"comparing total cost to {GOLDEN_REL:g} relative"
        )
        for name, case in expected.items():
            want = float.fromhex(case["total_cost"])
            got = float.fromhex(actual[name]["total_cost"])
            assert got == pytest.approx(want, rel=GOLDEN_REL), name


@pytest.mark.parametrize("solver", ("pso", "ga"))
def test_every_golden_trace_ends_at_its_total_cost(monkeypatch, solver):
    def ends(solution, trace):
        return {"total_cost": solution.total_cost, "trace_end": trace[-1]}

    monkeypatch.setattr(sys.modules[__name__], "trial_digest", ends)
    cases = _solver_cases(solver)
    assert [name for name, case in cases.items() if case["total_cost"] != case["trace_end"]] == []


def test_golden_digests_hold_under_another_blas_core():
    # OPENBLAS_CORETYPE picks the kernel at load time, so only a child process
    # can run one; Haswell is OpenBLAS's choice on AVX2 hosts without AVX-512
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    env["PYTHONPATH"] = os.pathsep.join(str(GOLDEN.parents[1] / part) for part in ("src", "tests"))
    core = subprocess.run(
        [sys.executable, "-c", "from test_golden import blas_core; print(blas_core())"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if core != "Haswell":
        pytest.skip(f"OPENBLAS_CORETYPE=Haswell runs the {core} core here")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::test_golden_digests"],
        cwd=GOLDEN.parents[1], env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout + child.stderr


def regenerate(groups) -> None:
    """Rewrite the cases of the given groups, keeping the others as recorded."""
    cases = {}
    if GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())
        if set(groups) != set(GROUPS) and not _same_build(golden):
            sys.exit("the recorded groups come from another NumPy build; regenerate every group")
        cases = golden["cases"]
    for group in groups:
        cases = {name: case for name, case in cases.items() if not name.startswith(f"{group}/")}
        cases.update(compute(group))
    golden = {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_core": blas_core(),
        "regenerate": "PYTHONPATH=src python tests/test_golden.py [group ...]",
        "cases": dict(sorted(cases.items())),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


def diff(groups) -> int:
    """Print each recorded case of the given groups that would move, with its relative total-cost move.

    Returns how many would move.
    """
    recorded = json.loads(GOLDEN.read_text())["cases"]
    moved = 0
    for group in groups:
        actual = compute(group)
        expected = {name: case for name, case in recorded.items() if name.startswith(f"{group}/")}
        for name in sorted(expected.keys() | actual.keys()):
            if name not in actual or name not in expected:
                print(f"{name}: {'dropped' if name in expected else 'new'}")
            elif actual[name] != expected[name]:
                want = float.fromhex(expected[name]["total_cost"])
                got = float.fromhex(actual[name]["total_cost"])
                fields = [key for key in expected[name] if actual[name].get(key) != expected[name][key]]
                print(f"{name}: total cost {(got - want) / abs(want):+.3e} relative; moved {', '.join(fields)}")
            else:
                continue
            moved += 1
    print(f"{moved} case(s) would move in {', '.join(groups)}")
    return moved


def main(args) -> int:
    """Regenerate the named groups (all by default), or with --diff in front list what would move; the exit status."""
    show = args[:1] == ["--diff"]
    chosen = args[show:] or list(GROUPS)
    unknown = sorted(set(chosen) - set(GROUPS))
    if unknown:
        sys.exit(f"unknown group(s) {unknown}; choose from {list(GROUPS)}")
    if show:
        return 1 if diff(chosen) else 0
    regenerate(chosen)
    return 0


def test_diff_exits_1_when_a_case_would_move(tmp_path, monkeypatch, capsys):
    golden = json.loads(GOLDEN.read_text())
    if _same_build(golden):
        assert main(["--diff", "oracle"]) == 0
    case = golden["cases"]["oracle/lambda/six/1500"]
    case["total_cost"] = _hex(float.fromhex(case["total_cost"]) * 2.0)
    altered = tmp_path / "golden.json"
    altered.write_text(json.dumps(golden))
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", altered)
    assert main(["--diff", "oracle"]) == 1
    assert "oracle/lambda/six/1500: total cost" in capsys.readouterr().out
    assert json.loads(altered.read_text()) == golden  # --diff writes nothing


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
