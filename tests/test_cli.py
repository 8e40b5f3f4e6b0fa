"""CLI surface: subcommands, output, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from ceed import cli, harness
from ceed.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from ceed.model import BALANCE_TOL, DispatchError
from ceed.problem_file import ProblemFileError, load_problem

from test_harness import write_problem


def test_penalty_prints_fixture_factors(six_unit_path, capsys):
    code = main(["penalty", "--problem", str(six_unit_path), "--demand", "1500"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "h_nox = 3.1669" in out
    assert "h_cox = 0.1221" in out
    assert "h_sox = 0.9182" in out


def test_python_m_ceed_runs_the_cli(six_unit_path):
    # the module entry point works without the console script being installed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "ceed", "penalty", "--problem", str(six_unit_path), "--demand", "1500"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert "h_nox = 3.1669" in done.stdout


@pytest.mark.parametrize("command", [
    ["penalty", "--demand", "1500"],
    ["solve", "--demand", "1500", "--trials", "1", "--iterations", "5"],
], ids=["penalty", "solve"])
def test_a_reader_that_has_gone_exits_1_quietly(six_unit_path, command):
    # stdout is a pipe whose read end is closed before the start, buffered or not
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ceed", command[0], "--problem", str(six_unit_path), *command[1:]],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env={**env, **unbuffered}, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (EXIT_ERROR, ""), unbuffered


def test_penalty_prints_a_demand_that_g_would_round(tmp_path, capsys):
    path = write_problem(tmp_path)
    assert main(["penalty", "--problem", str(path), "--demand", "330.0004"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("demand = 330.0004 MW\n")


def test_repeated_demand_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path)
    code = main(["solve", "--problem", str(path), "--demand", "330", "--demand", "330.0", "--trials", "1"])
    assert code == EXIT_ERROR
    assert "demands must differ" in capsys.readouterr().err


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
    # the first line names the step count and the balance residual the bisection reached
    steps, residual = re.fullmatch(r"lambda = \S+ \$/MWh \((\d+) bisection steps, residual (\S+) MW\)",
                                   out.splitlines()[0]).groups()
    assert int(steps) >= 1
    assert abs(float(residual)) <= BALANCE_TOL


def test_oracle_that_cannot_close_the_balance_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path, demand=700.3)
    doc = json.loads(path.read_text())
    template = doc["units"][0]
    doc["units"] = [{**template, "id": uid, "p_min": 10.0, "p_max": 500.0, "cost": [0.0, b, c]}
                    for uid, b, c in ((1, 20.0, 1e-13), (2, 20.0, 1e-13), (3, 25.0, 0.01))]
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--problem", str(path), "--k2", "0"]) == EXIT_ERROR
    assert "did not close the balance: residual -0.00773 MW" in capsys.readouterr().err


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


def test_curve_for_an_undeclared_gas_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path, gases=["nox", "cox"])
    code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "1", "--iterations", "5"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {path}: unit 1 has a sox curve that 'gases' leaves out\n"


def test_non_finite_demand_exits_1(tmp_path, capsys):
    # a non-finite --demand is the flag's fault, so its message does not name the file
    path = write_problem(tmp_path)
    for demand, shown in (("nan", "nan"), ("inf", "inf"), ("1e400", "inf")):
        assert main(["penalty", "--problem", str(path), "--demand", demand]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: demand must be finite, got {shown}\n"
    path = write_problem(tmp_path, demand=float("inf"))  # written as JSON's Infinity extension
    assert main(["penalty", "--problem", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {path}: demand must be finite, got inf\n"


def test_negative_seed_exits_1(tmp_path, capsys):
    # refused by the spec, before NumPy refuses it inside the first solver batch
    path = write_problem(tmp_path)
    code = main(["solve", "--problem", str(path), "--demand", "330", "--solver", "pso",
                 "--trials", "1", "--iterations", "5", "--seed", "-1"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: base_seed must be >= 0, got -1\n"


@pytest.mark.parametrize("solver", ["pso", "ga"])
def test_negative_budget_exits_1(tmp_path, capsys, solver):
    # --iterations sets both solvers' configs, so the PSO's check speaks for it
    path = write_problem(tmp_path)
    code = main(["solve", "--problem", str(path), "--demand", "330", "--solver", solver,
                 "--trials", "1", "--iterations", "-2"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: iterations must be >= 0, got -2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--demand", "330"],
        ["frobnicate"],
        ["solve", "--problem", "p.json", "--k1", "2"],
        ["solve", "--problem", "p.json", "--trials", "abc"],
        ["solve", "--problem", "p.json", "--workers", "2"],
    ],
    ids=["no-problem", "unknown-command", "k1-choice", "trials-type", "workers-gone"],
)
def test_usage_error_exits_1(capsys, argv):
    # argparse would exit 2, which means an infeasible demand
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ceed")
    assert "error: " in captured.err
    assert captured.out == ""


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: ceed")


@pytest.mark.parametrize("solver", ["pso", "ga"])
def test_a_budget_too_large_to_hold_exits_1(tmp_path, capsys, solver):
    # 50 traces of 10^14 steps would take 36 PiB, past any address space, so
    # NumPy refuses the request at once and nothing is allocated
    path = write_problem(tmp_path)
    code = main(["solve", "--problem", str(path), "--demand", "330", "--solver", solver,
                 "--iterations", str(10**14)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_zero_weights_are_the_flags_error(tmp_path, capsys, command):
    # the weights are not in the file, so their error does not name it
    path = write_problem(tmp_path, demand=330.0)
    extra = ["--trials", "1", "--iterations", "5"] if command == "solve" else []
    assert main([command, "--problem", str(path), "--k1", "0", "--k2", "0", *extra]) == EXIT_ERROR
    assert capsys.readouterr().err == "error: at least one of k1, k2 must be 1\n"
    # a fault the model finds in the file itself still names the file
    doc = json.loads(path.read_text())
    doc["units"][1]["p_min"] = 400.0  # above its p_max
    path.write_text(json.dumps(doc))
    assert main([command, "--problem", str(path), *extra]) == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {path}: unit #2: ")


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


def test_out_path_that_is_a_file_exits_1_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trials)
    path = write_problem(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "2",
                 "--iterations", "5", "--out", str(taken)])
    assert code == EXIT_ERROR
    assert "[Errno 17] File exists" in capsys.readouterr().err
    assert taken.read_text() == "kept\n"


def test_infeasible_later_demand_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "_run_trial", no_trials)
    path = write_problem(tmp_path)
    code = main(["solve", "--problem", str(path), "--demand", "330", "--demand", "99999",
                 "--trials", "2", "--iterations", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_INFEASIBLE
    assert captured.err.startswith("infeasible: demand 99999")
    assert captured.out == ""


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


def _set_emissions(gas, value):
    def edit(doc):
        doc["units"][0]["emissions"][gas] = value
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
        # null is no number; then values LossMatrix and GeneratorUnit reject
        (lambda doc: {**doc, "b_matrix": [[None, 0.0], [0.0, 1e-5]]}, "could not convert None to a number in 'b_matrix'"),
        (lambda doc: {**doc, "b_matrix": [[1e-5, 2e-6], [5e-6, 1e-5]]}, "asymmetric"),
        (lambda doc: {**doc, "b_matrix": [[1e-5, 0.0]]}, "square"),
        (_set_unit_field("p_min", 400.0), "unit #1: unit 1"),
        # ids break penalty-walk ties and name units, so they are never rounded or cast
        (_set_unit_field("id", 2.5), "unit #1: 'id' must be an integer, got 2.5"),
        (_set_unit_field("id", True), "unit #1: 'id' must be an integer, got True"),
        (_set_unit_field("id", "2"), "unit #1: 'id' must be an integer, got '2'"),
        # float() reads a digit string as one coefficient per digit, a numeric
        # string as its number and a boolean as 1 or 0; none of them is a JSON number
        (_set_unit_field("cost", "123"), "unit #1: could not convert '123' to a number in 'cost'"),
        (_set_unit_field("p_max", "250"), "unit #1: could not convert '250' to a number in 'p_max'"),
        (_set_unit_field("p_min", True), "unit #1: could not convert True to a number in 'p_min'"),
        (_set_unit_field("cost", [120.0, False, 0.01]), "unit #1: could not convert False to a number in 'cost'"),
        (_set_emissions("nox", [8.0, True, 0.0008]), "unit #1: could not convert True to a number in 'nox'"),
        (_set_emissions("sox", "202"), "unit #1: could not convert '202' to a number in 'sox'"),
        (lambda doc: {**doc, "b_matrix": [[True, 0.0], [0.0, 1e-5]]}, "could not convert True to a number in 'b_matrix'"),
        (lambda doc: {**doc, "b_matrix": [["1e-5", 0.0], [0.0, 1e-5]]}, "could not convert '1e-5' to a number in 'b_matrix'"),
        # iterated, an object yields its keys, which float() would read as numbers
        (_set_unit_field("cost", {"1": 0, "2": 0, "3": 0}), r"unit #1: could not convert \{'1': 0.*in 'cost'"),
        (_set_emissions("nox", {"8": 0, "0.05": 0, "0.0008": 0}), r"unit #1: could not convert \{'8': 0.*in 'nox'"),
        # a misspelt key would otherwise be ignored, a repeated gas or key silently merged
        (lambda doc: {**doc, "b_matrx": [[1e-5, 0.0], [0.0, 1e-5]]}, "unknown key 'b_matrx'"),
        (_set_unit_field("pmax", 250.0), "unit #1: unknown key 'pmax'"),
        (lambda doc: {**doc, "gases": ["nox", "nox", "sox"]}, "duplicate gases: \\['nox', 'nox', 'sox'\\]"),
        (lambda doc: json.dumps(doc).replace('"p_max": 250.0', '"p_max": 250.0, "p_max": 25000.0'),
         "repeated key 'p_max'"),
        # the file's demand is read even where --demand overrides it
        (lambda doc: {**doc, "demand": "abc"}, "could not convert 'abc' to a number in 'demand'"),
        (lambda doc: {**doc, "demand": math.inf}, "demand must be finite, got inf"),
        (lambda doc: {**doc, "demand": math.nan}, "demand must be finite, got nan"),
        (_set_unit_field("p_max", 10**400), "unit #1: int too large to convert to float"),
        # json.loads raises RecursionError, no ValueError, on a value nested this deep
        (lambda doc: json.dumps({**doc, "name": None}).replace("null", "[" * 100000 + "]" * 100000),
         "maximum recursion depth exceeded"),
    ],
    ids=["top-level-number", "units-dict", "units-list-of-lists", "gases-string",
         "cost-number", "emissions-list", "p_min-null", "p_min-string", "emissions-unknown-gas",
         "b_matrix-dict", "b_matrix-string", "b_matrix-null", "b_matrix-asymmetric",
         "b_matrix-shape", "p_min-above-p_max", "id-fraction", "id-bool", "id-string",
         "cost-digit-string", "p_max-numeric-string", "p_min-bool", "cost-bool", "emissions-bool",
         "emissions-digit-string", "b_matrix-bool", "b_matrix-numeric-string", "cost-object",
         "emissions-object", "b_matrix-typo", "unit-unknown-key", "gases-repeated", "key-repeated",
         "demand-string-overridden", "demand-infinite-overridden", "demand-nan-overridden",
         "p_max-huge-integer", "name-nested-too-deep"],
)
def test_malformed_structure_is_a_dispatch_error(tmp_path, capsys, edit, names):
    path = write_problem(tmp_path)
    edited = edit(json.loads(path.read_text()))
    # an edit returns the file's text where a dict cannot hold it (a repeated key)
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(DispatchError, match=rf"problem\.json: .*{names}"):
        load_problem(path, demand=330.0)
    code = main(["penalty", "--problem", str(path), "--demand", "330"])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.startswith("error: ") and err.count("\n") == 1


def _paths(node, path=()):
    """(path, node) of node and of every value inside it; a path lists the keys and indices to it."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for step, child in children:
        yield from _paths(child, (*path, step))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


# A few values of each JSON kind, and keys no problem file holds; misspelt known keys among them.
_KINDS = [
    ((int, float), [0, -3, 2.5, 1e300, 10**400]),
    (str, ["", "1", "nox", "abc"]),
    (bool, [True, False]),
    (type(None), [None]),
    (list, [[], [1.0], ["x", 2], [[1.0, 2.0]]]),
    (dict, [{}, {"1": 0}, {"nox": [1.0, 2.0, 3.0]}]),
]
_UNKNOWN_KEYS = [
    "", "b_matrx", "Units", "unit", "gas", "pmax", "p_min ", "ID", "costs", "emission", "NOX", "co2",
]
_SIX_UNIT = resources.files("ceed").joinpath("data/ieee30_6unit.json").read_text()
_NODES = list(_paths(json.loads(_SIX_UNIT)))
_OBJECTS = [(path, node) for path, node in _NODES if isinstance(node, dict)]
# json.dumps writes a dict's keys once; this key stands in for a repeat of another
_REPEAT = "\0repeat"
# Every mutation as (how, path, argument).  A file needs each of its keys but
# the optional ones, a unit each of its keys and a curve for each gas in "gases".
_MUTATIONS = [
    *(("kind", path, value) for path, node in _NODES
      for kind, values in _KINDS if not isinstance(node, kind) for value in values),
    *(("drop", path, key) for path, node in _OBJECTS for key in node
      if path or key not in ("name", "gases", "demand", "b_matrix")),
    *(("add", path, key) for path, _ in _OBJECTS for key in _UNKNOWN_KEYS),
    *(("repeat", path, key) for path, node in _OBJECTS for key in node),
]


def _mutant(how, path, arg) -> str:
    """The shipped six-unit file with the value at `path` of another kind, or
    the object there without a required key, with an unknown key or with a key repeated."""
    doc = json.loads(_SIX_UNIT)
    if how == "kind" and not path:
        return json.dumps(arg)
    node = _at(doc, path[:-1] if how == "kind" else path)
    if how == "kind":
        node[path[-1]] = arg
    elif how == "drop":
        del node[arg]
    elif how == "add":
        node[arg] = 1.0
    else:
        node[_REPEAT] = node[arg]
    return json.dumps(doc).replace(json.dumps(_REPEAT), json.dumps(arg))


@pytest.fixture(scope="module")
def mutant_file(tmp_path_factory):
    """A file each mutant rewrites in place: truncated to zero on open, as by
    write_text, a file is flushed to disk when closed on some file systems,
    which made the check take half as long again."""
    path = tmp_path_factory.mktemp("mutants") / "mutant.json"
    path.touch()
    with open(path, "r+") as file:
        yield path, file


@pytest.fixture(scope="module")
def cli_load_errors():
    """What load_problem raises inside cli.main, recorded; main builds its parser
    once, not per call, which would take longer than the rest of a mutant."""
    raised = []

    def load(*args):
        try:
            return load_problem(*args)
        except BaseException as exc:
            raised.append(exc)
            raise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_parser", lambda parser=cli.build_parser(): parser)
        patch.setattr(cli, "load_problem", load)
        yield raised


def _assert_refused(mutant_file, cli_load_errors, mutation):
    mutant_path, file = mutant_file
    file.seek(0)
    file.write(_mutant(*mutation))
    file.truncate()
    file.flush()
    cli_load_errors.clear()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["penalty", "--problem", str(mutant_path), "--demand", "1500"])
    assert cli_load_errors, "the mutant loaded"
    (exc,) = cli_load_errors
    assert isinstance(exc, DispatchError) and str(exc).startswith(str(mutant_path))
    assert code == EXIT_ERROR
    assert err.getvalue() == f"error: {exc}\n" and "\n" not in str(exc)


def test_every_mutant_of_the_shipped_file_is_refused(mutant_file, cli_load_errors):
    faults = []
    for mutation in _MUTATIONS:
        try:
            _assert_refused(mutant_file, cli_load_errors, mutation)
        # main lets any exception but a DispatchError, ValueError or OSError through
        except Exception as exc:
            faults.append(f"{mutation!r}: {type(exc).__name__}: {exc}")
    assert not faults, f"{len(faults)} of {len(_MUTATIONS)} mutants not refused:\n" + "\n".join(faults)


@pytest.mark.parametrize("demand", [True, "330"], ids=["bool", "numeric-string"])
def test_file_demand_that_is_no_number_is_a_file_error(tmp_path, demand):
    # read as a number, true would be a 1 MW demand, rejected as infeasible
    path = write_problem(tmp_path, demand=demand)
    with pytest.raises(ProblemFileError, match=rf"problem\.json: .*could not convert {demand!r} to a number in 'demand'"):
        load_problem(path)


@pytest.mark.parametrize("command", ["penalty", "oracle", "solve"])
def test_file_demand_stands_in_for_the_flag(tmp_path, capsys, command):
    path = write_problem(tmp_path, demand=330.0)
    extra = ["--solver", "pso", "--trials", "1", "--iterations", "5"] if command == "solve" else []
    outputs = []
    for demand in ([], ["--demand", "330"]):
        assert main([command, "--problem", str(path), *demand, *extra]) == EXIT_OK
        # the timing section of a solve report never reproduces
        outputs.append(capsys.readouterr().out.split("-- timing")[0])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["penalty", "oracle", "solve"])
def test_no_demand_in_flag_or_file_exits_1(tmp_path, capsys, command):
    path = write_problem(tmp_path)
    assert main([command, "--problem", str(path)]) == EXIT_ERROR
    assert "no demand in file and none supplied" in capsys.readouterr().err


def test_invalid_problem_exits_1(tmp_path, capsys):
    path = write_problem(tmp_path)
    doc = json.loads(path.read_text())
    doc["units"][0]["p_min"] = 9999.0
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem", str(path), "--demand", "330", "--trials", "1"])
    assert code == EXIT_ERROR
