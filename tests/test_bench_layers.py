"""Every name the benchmark's layer timings read from the package still runs.

Only a traced benchmark run (`bench/run.py --trace 1`) executes
bench/layers.py, so a package change that renames or deletes a name it reads
(`LambdaResult.iterations`, `ExperimentSpec(workers=...)`, `PsoConfig(seed=...)`,
`ga.decode`, `pso.step`, ...) would fail there with every other test green.
This runs each fixed-input timing once, with bench/ on sys.path and nothing
under it changed.  It also runs one round of each workload's closed loop
(`bench/run.py`'s `run_loop`), the path the end-to-end metrics time, which
builds an `ExperimentSpec` per call.
"""

import importlib
import math
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_MODULES = ("layers", "inputs", "speed")
# Traced names the package dropped before this guard: bench/spans.py skips
# and reports them.  Any other name that stops resolving empties its spans.
DEAD_TARGETS = {"ceed.repair._assign_residual", "ceed.ga._next_generation"}


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    def once(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    monkeypatch.setattr(layers, "per_call_s", once)
    yield layers
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_layer_timings_run_on_the_package(layers, tmp_path):
    import inputs

    lossy = inputs.write_lossy_problem(ROOT, tmp_path, 1)
    timings = layers.fixed_input_timings(ROOT, tmp_path, 1, inputs.six_unit_path(ROOT), 1500.0, lossy)
    assert len(timings) == 17
    assert all(math.isfinite(value) for value, _ in timings.values()), timings
    assert math.isfinite(layers.workers2_speedup(ROOT))


def test_span_targets_resolve(monkeypatch):
    # a traced run wraps each target it finds and silently skips the rest, so
    # renaming a traced attribute would zero its per-layer numbers
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import spans

    try:
        targets = spans.TARGETS
    finally:
        sys.modules.pop("spans", None)
    missing = {f"{module}.{attr}" for module, attr in targets if not hasattr(importlib.import_module(module), attr)}
    assert missing <= DEAD_TARGETS


@pytest.mark.parametrize("workload", ["paper_protocol", "lossy_protocol", "large_system"])
def test_one_round_of_each_workload_runs_clean(monkeypatch, tmp_path, workload):
    if workload == "lossy_protocol":
        pytest.importorskip("scipy")  # its reference optimum is an SLSQP solve
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    try:
        import run

        monkeypatch.setattr(run, "OUT_DIR", tmp_path)
        chosen = run.Workload(workload, 1)
        pairs = len(run.SOLVERS) * len(chosen.instance(0)[1])
        loop = run.run_loop(chosen, 100_000, calls=pairs)
    finally:
        for name in ("run", "spans", "speed", "inputs"):
            sys.modules.pop(name, None)
    assert len(loop.calls) == pairs
    assert loop.attempted > 0 and loop.failed == 0
    assert not loop.tracebacks, loop.tracebacks[0]
    assert not loop.errors, loop.errors
