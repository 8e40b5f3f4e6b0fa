"""Problem loading, experiment protocol, trace export and report formatting."""

import concurrent.futures
import json

import numpy as np
import pytest

from ceed import GaConfig, PsoConfig, ga, pso
from ceed.cli import EXIT_OK, main
from ceed.harness import ExperimentSpec, export_trace, format_report, run_experiment
from ceed.model import DispatchError, InfeasibleError
from ceed.penalty import penalty_factors_all
from ceed.problem_file import ProblemFileError, format_demand, load_problem


def read_trace(path):
    """Inverse of export_trace; returns the objective column."""
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "iteration,objective"
    return np.array([float(r.split(",")[1]) for r in rows[1:]])


def write_problem(tmp_path, name="problem.json", **overrides):
    doc = {
        "gases": ["nox", "cox", "sox"],
        "units": [
            {
                "id": 1,
                "p_min": 20.0,
                "p_max": 250.0,
                "cost": [120.0, 4.0, 0.010],
                "emissions": {
                    "nox": [8.0, 0.05, 0.0008],
                    "cox": [60.0, 1.1, 0.004],
                    "sox": [20.0, 0.3, 0.002],
                },
            },
            {
                "id": 2,
                "p_min": 30.0,
                "p_max": 300.0,
                "cost": [90.0, 6.5, 0.006],
                "emissions": {
                    "nox": [10.0, 0.06, 0.0011],
                    "cox": [70.0, 1.3, 0.005],
                    "sox": [25.0, 0.4, 0.0024],
                },
            },
        ],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_shipped_fixture(six_unit_path):
    problem = load_problem(six_unit_path, demand=1500.0)
    assert problem.n_units == 6
    assert len(problem.gases) == 3
    assert problem.demand == 1500.0


def test_demand_argument_overrides_file(tmp_path):
    path = write_problem(tmp_path, demand=100.0)
    assert load_problem(path).demand == 100.0
    assert load_problem(path, demand=333.0).demand == 333.0


def test_non_numeric_file_demand_names_the_file(tmp_path):
    path = write_problem(tmp_path, demand="abc")
    with pytest.raises(DispatchError, match=r"problem\.json: could not convert 'abc' to a number in 'demand'"):
        load_problem(path)


def test_missing_demand_is_an_error(tmp_path):
    path = write_problem(tmp_path)
    with pytest.raises(DispatchError, match="no demand"):
        load_problem(path)


def test_parse_error_carries_line_info(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"units": [\n  {"id": 1,,}\n]}')
    with pytest.raises(DispatchError, match=r"broken\.json:2:"):
        load_problem(path)


def test_limit_violation_names_the_unit(tmp_path):
    path = write_problem(tmp_path)
    doc = json.loads(path.read_text())
    doc["units"][1]["p_min"] = 400.0  # above its p_max
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unit 2"):
        load_problem(path, demand=100.0)


def test_missing_field_names_the_unit(tmp_path):
    path = write_problem(tmp_path)
    doc = json.loads(path.read_text())
    del doc["units"][0]["cost"]
    path.write_text(json.dumps(doc))
    with pytest.raises(DispatchError, match="unit #1"):
        load_problem(path, demand=100.0)


def test_unknown_gas_is_rejected(tmp_path):
    path = write_problem(tmp_path, gases=["nox", "smog"])
    with pytest.raises(DispatchError, match="unknown gas"):
        load_problem(path, demand=100.0)


def test_curve_for_an_undeclared_gas_is_rejected(tmp_path):
    # the model scores only the listed gases, so the cox curves would be dropped unread
    path = write_problem(tmp_path, gases=["nox", "sox"])
    with pytest.raises(ProblemFileError, match=r"problem\.json: unit 1 has a cox curve that 'gases' leaves out"):
        load_problem(path, demand=100.0)


def test_infeasible_demand_raises(tmp_path):
    path = write_problem(tmp_path)
    with pytest.raises(InfeasibleError):
        load_problem(path, demand=5000.0)


def test_small_loss_asymmetry_warns_and_symmetrizes(tmp_path):
    b = [[1e-5, 2e-6], [2e-6 + 1e-16, 1e-5]]
    path = write_problem(tmp_path, b_matrix=b)
    with pytest.warns(UserWarning, match="symmetrizing"):
        problem = load_problem(path, demand=100.0)
    assert problem.losses is not None
    assert np.array_equal(problem.losses.b, problem.losses.b.T)


def test_large_loss_asymmetry_is_rejected(tmp_path):
    b = [[1e-5, 2e-6], [5e-6, 1e-5]]
    path = write_problem(tmp_path, b_matrix=b)
    with pytest.raises(ValueError, match="asymmetric"):
        load_problem(path, demand=100.0)
    # the error names the file and is both a ValueError and a DispatchError
    with pytest.raises(DispatchError, match=r"problem\.json: .*asymmetric"):
        load_problem(path, demand=100.0)


def test_spec_validation():
    with pytest.raises(ValueError, match="demand"):
        ExperimentSpec(problem_path="x", demands=())
    with pytest.raises(ValueError, match="trials"):
        ExperimentSpec(problem_path="x", demands=(100.0,), trials=0)
    with pytest.raises(ValueError, match="solver"):
        ExperimentSpec(problem_path="x", demands=(100.0,), solver="annealing")
    with pytest.raises(ValueError, match="workers"):
        ExperimentSpec(problem_path="x", demands=(100.0,), workers=-1)
    # NumPy would refuse the seed only inside the first solver batch
    with pytest.raises(ValueError, match=r"base_seed must be >= 0, got -1"):
        ExperimentSpec(problem_path="x", demands=(100.0,), base_seed=-1)
    # trial seeds come from base_seed alone; a config's own seed would be overwritten
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentSpec(problem_path="x", demands=(100.0,), pso_config=PsoConfig(seed=3))
    with pytest.raises(ValueError, match="base_seed"):
        ExperimentSpec(problem_path="x", demands=(100.0,), ga_config=GaConfig(seed=3))
    # a count or seed that is not an integer (a bool included) would fail or mislead inside the first batch
    for field in ("trials", "base_seed", "workers"):
        for value in (1.5, True, "3"):
            with pytest.raises(ValueError, match=rf"{field} must be an integer, got {value!r}"):
                ExperimentSpec(problem_path="x", demands=(100.0,), **{field: value})
    assert ExperimentSpec(problem_path="x", demands=(100.0,), trials=np.int64(3)).trials == 3
    # a config of the other solver would fail on its first missing attribute
    with pytest.raises(TypeError, match="pso_config must be a PsoConfig, got GaConfig"):
        ExperimentSpec(problem_path="x", demands=(100.0,), pso_config=GaConfig())
    with pytest.raises(TypeError, match="ga_config must be a GaConfig, got PsoConfig"):
        ExperimentSpec(problem_path="x", demands=(100.0,), ga_config=PsoConfig())
    # a repeat would rerun the same seeds into the same trace files
    with pytest.raises(ValueError, match=r"demands must differ .*\[100\.0, 200\.0, 100\.0\]"):
        ExperimentSpec(problem_path="x", demands=(100, 200.0, 100.0))


@pytest.mark.parametrize("solver", [pso, ga], ids=["pso", "ga"])
def test_run_trials_refuses_zero_trials(tmp_path, solver):
    problem = load_problem(write_problem(tmp_path), demand=330.0)
    with pytest.raises(ValueError, match=r"trials must be >= 1, got 0"):
        solver.run_trials(problem, None, penalty_factors_all(problem), 0)


def quick_spec(path, **kw):
    defaults = dict(
        problem_path=str(path),
        demands=(330.0,),
        solver="pso",
        trials=3,
        pso_config=PsoConfig(iterations=40),
        ga_config=GaConfig(generations=40),
        base_seed=5,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def test_single_trial_report_is_that_trial(tmp_path):
    path = write_problem(tmp_path)
    (report,) = run_experiment(quick_spec(path, trials=1))
    assert len(report.trials) == 1
    assert report.best_trial is report.trials[0]
    # a batch of one: the trial's share is the whole batch wall time
    assert f"batch wall clock (s): {report.trials[0].seconds:.3f}," in format_report(report)


def test_experiment_is_deterministic_up_to_timing(tmp_path):
    path = write_problem(tmp_path)
    (r1,) = run_experiment(quick_spec(path))
    (r2,) = run_experiment(quick_spec(path))
    for t1, t2 in zip(r1.trials, r2.trials):
        assert t1.solution.powers == t2.solution.powers
        assert t1.seed == t2.seed
        assert np.array_equal(t1.trace, t2.trace)
    det1 = format_report(r1).split("-- timing")[0]
    det2 = format_report(r2).split("-- timing")[0]
    assert det1 == det2


def test_trial_seeds_follow_base_seed(tmp_path):
    path = write_problem(tmp_path)
    (report,) = run_experiment(quick_spec(path, base_seed=42))
    assert [t.seed for t in report.trials] == [42, 43, 44]


def test_both_solvers_and_demands_produce_one_report_each(tmp_path):
    path = write_problem(tmp_path)
    reports = run_experiment(quick_spec(path, solver="both", demands=(300.0, 400.0), trials=2))
    assert [(r.solver, r.demand) for r in reports] == [
        ("pso", 300.0),
        ("ga", 300.0),
        ("pso", 400.0),
        ("ga", 400.0),
    ]


def test_parallel_trials_match_serial(tmp_path):
    path = write_problem(tmp_path)
    (serial,) = run_experiment(quick_spec(path))
    (parallel,) = run_experiment(quick_spec(path, workers=2))
    # serial trials are one batch and share its wall time evenly
    assert len({t.seconds for t in serial.trials}) == 1
    assert [t.index for t in parallel.trials] == [0, 1, 2]
    for ts, tp in zip(serial.trials, parallel.trials):
        assert ts.seed == tp.seed
        assert ts.solution.powers == tp.solution.powers
        assert ts.trace.tobytes() == tp.trace.tobytes()


def test_pool_starts_one_process_per_batch(tmp_path, monkeypatch):
    # a stand-in pool that runs its jobs in this process and records its size
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    path = write_problem(tmp_path)
    (pooled,) = run_experiment(quick_spec(path, workers=8, trials=2))
    assert sizes == [2]  # two batches of one trial, not eight processes
    (serial,) = run_experiment(quick_spec(path, trials=2))
    for ts, tp in zip(serial.trials, pooled.trials, strict=True):
        assert (ts.index, ts.seed) == (tp.index, tp.seed)
        assert ts.solution.powers == tp.solution.powers
        assert ts.trace.tobytes() == tp.trace.tobytes()


def test_report_identities_hold(tmp_path):
    path = write_problem(tmp_path)
    (report,) = run_experiment(quick_spec(path))
    h = report.h
    for trial in report.trials:
        s = trial.solution
        assert s.total_cost == pytest.approx(s.fuel_cost + s.emission_cost)
        ec = sum(h[gas] * s.emissions[gas] for gas in h.values)
        assert s.emission_cost == pytest.approx(ec)


def solve_into(path, out, *flags):
    """`ceed solve --out out` on path at 330 MW with quick_spec's protocol; flags override it."""
    argv = ["solve", "--problem", str(path), "--demand", "330", "--solver", "pso", "--trials", "3",
            "--iterations", "40", "--seed", "5", *flags, "--out", str(out)]
    assert main(argv) == EXIT_OK


def test_outputs_written(tmp_path, capsys):
    path = write_problem(tmp_path)
    out = tmp_path / "results"
    solve_into(path, out, "--solver", "both", "--trials", "2")
    traces = sorted(p.name for p in out.glob("*.csv"))
    assert traces == [
        "ga_pd330_trial000.csv",
        "ga_pd330_trial001.csv",
        "pso_pd330_trial000.csv",
        "pso_pd330_trial001.csv",
    ]
    assert (out / "report.txt").read_text().count("solver=") == 2
    # --iterations 40 is the budget of both solvers: the header and one row per step
    assert [len((out / name).read_text().splitlines()) for name in traces] == [41] * 4


def test_gas_free_report_has_no_penalty_factor_line(tmp_path):
    # "gases": [] is a legal file, and its report has no factor to print
    path = write_problem(tmp_path, gases=[])
    doc = json.loads(path.read_text())
    for unit in doc["units"]:
        unit["emissions"] = {}
    path.write_text(json.dumps(doc))
    (report,) = run_experiment(quick_spec(path, trials=1))
    text = format_report(report)
    assert "penalty factors" not in text
    assert "    EC = 0.00 $/h\n" in text
    # a file with gases keeps the line
    (report,) = run_experiment(quick_spec(write_problem(tmp_path), trials=1))
    assert "  penalty factors ($/kg): h_nox=" in format_report(report)


def test_demands_that_round_alike_keep_apart(tmp_path, capsys):
    # {:g} prints both as 330; round demands keep their short names
    labels = [format_demand(d) for d in (330.0, 330.0004, 1500.0, 2.5e-7)]
    assert labels == ["330", "330.0004", "1500", "2.5e-07"]
    path = write_problem(tmp_path)
    out = tmp_path / "results"
    solve_into(path, out, "--demand", "330.0004", "--trials", "1", "--iterations", "5")
    traces = sorted(p.name for p in out.glob("*.csv"))
    assert traces == ["pso_pd330.0004_trial000.csv", "pso_pd330_trial000.csv"]
    headers = [line for line in (out / "report.txt").read_text().splitlines() if line.startswith("solver=")]
    assert headers == ["solver=pso demand=330 MW trials=1", "solver=pso demand=330.0004 MW trials=1"]


def test_trace_export_round_trip(tmp_path):
    trace = np.array([105.0, 101.5, 101.5, 100.25])
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,objective"
    assert len(lines) == 5
    assert lines[1] == "1,105"
    recovered = read_trace(path)
    assert np.array_equal(recovered, trace)


def test_trace_export_matches_run_length(tmp_path):
    path = write_problem(tmp_path)
    (report,) = run_experiment(quick_spec(path, trials=1, pso_config=PsoConfig(iterations=500)))
    fname = tmp_path / "t.csv"
    export_trace(report.trials[0].trace, fname)
    rows = fname.read_text().splitlines()
    assert len(rows) == 501
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.all(np.diff(values) <= 1e-12)


def test_empty_trace_is_refused(tmp_path):
    with pytest.raises(ValueError):
        export_trace([], tmp_path / "empty.csv")
