"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import ceed  # noqa: E402
import inputs  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _originals():
    import importlib

    return {
        (module, attr): getattr(importlib.import_module(module), attr, None) for module, attr in TARGETS
    }


@pytest.mark.parametrize("seed", [0, 7])
def test_generators_are_deterministic(tmp_path, seed):
    for make in (
        lambda out, s: inputs.write_lossy_problem(ROOT, out, s),
        lambda out, s: inputs.write_random_problem(out, s),
        lambda out, s: inputs.write_random_problem(out, s, n_units=3),
    ):
        first = make(tmp_path / "a", seed).read_bytes()
        assert make(tmp_path / "b", seed).read_bytes() == first
        assert make(tmp_path / "c", seed + 1).read_bytes() != first


def test_generated_problems_load_and_have_feasible_references(tmp_path):
    lossy = inputs.write_lossy_problem(ROOT, tmp_path, 3)
    for demand in inputs.PAPER_DEMANDS:
        problem = ceed.load_problem(lossy, demand)
        assert problem.losses is not None
        ref = inputs.reference(problem)
        assert ref.method == "slsqp"
        # the loss the workload is built around: a few percent of demand
        p = ceed.lambda_solve(ceed.load_problem(inputs.six_unit_path(ROOT), demand),
                              ceed.penalty_factors_all(problem)).powers
        assert 0.02 < ceed.transmission_loss(problem, p) / demand < 0.05
    large = ceed.load_problem(inputs.write_random_problem(tmp_path, 3))
    assert large.n_units == inputs.LARGE_UNITS and large.losses is None
    assert inputs.reference(large).method == "lambda_solve"


def test_published_factors_match_the_shipped_system():
    assert inputs.check_published_factors(inputs.six_unit_path(ROOT)) <= inputs.H_REL


def test_wrappers_record_spans_and_are_restored():
    before = _originals()
    tracer = Tracer()
    spec = ceed.ExperimentSpec(
        problem_path=str(inputs.six_unit_path(ROOT)), demands=(2000.0,), trials=1, iterations=5
    )
    with tracer.installed():
        assert _originals() != before
        ceed.run_experiment(spec)
    assert _originals() == before
    assert sorted(tracer.wrapped) == sorted(f"{m}.{a}" for m, a in TARGETS)
    counts = tracer.counts()
    assert counts["_run_trial"][0] == 2
    assert counts["step"][0] == 5 and counts["_next_generation"][0] == 4
    self_s = tracer.self_times()
    assert all(value >= 0.0 for value in self_s.values())


def test_wrappers_are_restored_after_an_error():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_missing_names_are_skipped(monkeypatch):
    monkeypatch.delattr(ceed.repair, "_assign_residual")
    tracer = Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == ["ceed.repair._assign_residual"]
    assert not hasattr(ceed.repair, "_assign_residual")


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_protocol", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:
        assert f" {metric['name']} " in done.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper_protocol", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
