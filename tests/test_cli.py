"""CLI surface: subcommands, output, exit codes."""

import json

from ceed.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main

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


def test_missing_file_exits_1(tmp_path, capsys):
    code = main(["penalty", "--problem", str(tmp_path / "nope.json"), "--demand", "100"])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_malformed_file_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["penalty", "--problem", str(path), "--demand", "100"])
    assert code == EXIT_ERROR


def test_invalid_problem_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path)
    doc = json.loads(path.read_text())
    doc["units"][0]["p_min"] = 9999.0
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "1"])
    assert code == EXIT_ERROR
