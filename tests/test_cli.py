"""CLI surface: subcommands, output, exit codes."""

import json

import pytest

from ceed import harness
from ceed.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from ceed.harness import load_problem
from ceed.model import DispatchError

from test_harness import write_problem


def test_penalty_prints_fixture_factors(six_unit_path, capsys):
    code = main(["penalty", "--problem", str(six_unit_path), "--demand", "1500"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "h_nox = 3.1669" in out
    assert "h_cox = 0.1221" in out
    assert "h_sox = 0.9182" in out


def test_penalty_factors_grow_with_demand(six_unit_path, capsys):
    main(["penalty", "--problem", str(six_unit_path), "--demand", "2000"])
    out = capsys.readouterr().out
    assert "h_nox = 5.7107" in out
    assert "h_cox = 0.1307" in out
    assert "h_sox = 0.985" in out


def test_oracle_reports_dispatch(six_unit_path, capsys):
    code = main(["oracle", "--problem", str(six_unit_path), "--demand", "1500"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "lambda" in out and "TC = " in out
    assert out.count("P") >= 6


def test_solve_prints_report(tmp_path, capsys):
    path = write_problem(tmp_path)
    code = main(
        ["solve", "--problem", str(path), "--demand", "330", "--solver", "pso",
         "--trials", "2", "--iterations", "30"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "solver=pso" in out
    assert "TC over trials" in out


def test_solve_workers_print_the_serial_report(tmp_path, capsys):
    path = write_problem(tmp_path)
    sections = []
    for workers in ("0", "2"):
        code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "3",
                     "--iterations", "20", "--workers", workers])
        assert code == EXIT_OK
        reports = capsys.readouterr().out.split("solver=")[1:]
        assert len(reports) == 2  # pso and ga
        sections.append([report.split("-- timing")[0] for report in reports])
    assert sections[0] == sections[1]


def test_solve_writes_outputs(tmp_path, capsys):
    path = write_problem(tmp_path)
    out_dir = tmp_path / "run"
    code = main(
        ["solve", "--problem", str(path), "--demand", "330", "--solver", "ga",
         "--trials", "2", "--iterations", "20", "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    assert (out_dir / "report.txt").exists()
    assert len(list(out_dir.glob("*.csv"))) == 2


def test_infeasible_demand_exits_2(tmp_path, capsys):
    path = write_problem(tmp_path)
    code = main(["penalty", "--problem", str(path), "--demand", "99999"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


def test_infeasible_lossy_demand_exits_2(tmp_path, capsys):
    # 2 x 150 MW deliver at most 300 - 2 * 150^2 * 5e-4 = 277.5 MW after losses
    path = write_problem(tmp_path, b_matrix=[[5e-4, 0.0], [0.0, 5e-4]])
    doc = json.loads(path.read_text())
    for unit in doc["units"]:
        unit["p_min"], unit["p_max"] = 10.0, 150.0
    path.write_text(json.dumps(doc))
    for solver in ("pso", "ga"):
        code = main(["solve", "--problem", str(path), "--demand", "290", "--solver", solver,
                     "--trials", "1", "--iterations", "5"])
        assert code == EXIT_INFEASIBLE
        assert "residual -12.5 MW" in capsys.readouterr().err


def test_non_finite_demand_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path)
    code = main(["penalty", "--problem", str(path), "--demand", "nan"])
    assert code == EXIT_ERROR
    assert "finite" in capsys.readouterr().err


def test_negative_workers_exit_1(tmp_path, capsys):
    path = write_problem(tmp_path)
    code = main(["solve", "--problem", str(path), "--demand", "330", "--solver", "pso",
                 "--trials", "1", "--iterations", "5", "--workers", "-3"])
    assert code == EXIT_ERROR
    assert "workers must be >= 0" in capsys.readouterr().err


def test_zero_budget_with_out_dir_exits_1_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trials)
    path = write_problem(tmp_path)
    out_dir = tmp_path / "run"
    code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "2",
                 "--iterations", "0", "--out", str(out_dir)])
    assert code == EXIT_ERROR
    assert "zero step budget" in capsys.readouterr().err
    assert not out_dir.exists()


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["penalty", "--problem", str(tmp_path / "nope.json"), "--demand", "100"])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_malformed_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["penalty", "--problem", str(path), "--demand", "100"])
    assert code == EXIT_ERROR


def _set_unit_field(name, value):
    def edit(doc):
        doc["units"][0][name] = value
        return doc
    return edit


def _add_unknown_gas(doc):
    doc["units"][0]["emissions"]["smog"] = [1.0, 0.1, 0.001]
    return doc


@pytest.mark.parametrize(
    "edit, names",
    [
        (lambda doc: 5, "JSON object"),
        (lambda doc: {**doc, "units": {"1": doc["units"][0]}}, "'units' must be a list"),
        (lambda doc: {**doc, "units": [[1, 20.0, 250.0]]}, "unit #1"),
        (lambda doc: {**doc, "gases": "nox"}, "'gases' must be a list"),
        (_set_unit_field("cost", 5), "unit #1"),
        (_set_unit_field("emissions", [[8.0, 0.05, 0.0008]]), "unit #1"),
        (_set_unit_field("p_min", None), "unit #1"),
        (_set_unit_field("p_min", "abc"), "unit #1: could not convert"),
        (_add_unknown_gas, "unit #1: 'smog'"),
        (lambda doc: {**doc, "b_matrix": {"1": [1e-5]}}, "'b_matrix'"),
        (lambda doc: {**doc, "b_matrix": [["x", 0.0], [0.0, 1e-5]]}, "'b_matrix'"),
    ],
    ids=["top-level-number", "units-dict", "units-list-of-lists", "gases-string",
         "cost-number", "emissions-list", "p_min-null", "p_min-string", "emissions-unknown-gas",
         "b_matrix-dict", "b_matrix-string"],
)
def test_malformed_structure_is_a_dispatch_error(tmp_path, capsys, edit, names):
    path = write_problem(tmp_path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(DispatchError, match=rf"problem\.json: .*{names}"):
        load_problem(path, demand=330.0)
    code = main(["penalty", "--problem", str(path), "--demand", "330"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and "Traceback" not in err


def test_invalid_problem_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path)
    doc = json.loads(path.read_text())
    doc["units"][0]["p_min"] = 9999.0
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "1"])
    assert code == EXIT_ERROR
