"""CLI surface: subcommands, output, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ceed import cli, harness
from ceed.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from ceed.harness import ProblemFileError, load_problem
from ceed.model import DispatchError

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
        (_set_unit_field("p_max", 10**400), "unit #1: int too large to convert to float"),
    ],
    ids=["top-level-number", "units-dict", "units-list-of-lists", "gases-string",
         "cost-number", "emissions-list", "p_min-null", "p_min-string", "emissions-unknown-gas",
         "b_matrix-dict", "b_matrix-string", "b_matrix-null", "b_matrix-asymmetric",
         "b_matrix-shape", "p_min-above-p_max", "id-fraction", "id-bool", "id-string",
         "cost-digit-string", "p_max-numeric-string", "p_min-bool", "cost-bool", "emissions-bool",
         "emissions-digit-string", "b_matrix-bool", "b_matrix-numeric-string", "cost-object",
         "emissions-object", "b_matrix-typo", "unit-unknown-key", "gases-repeated", "key-repeated",
         "demand-string-overridden", "p_max-huge-integer"],
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
    assert err.startswith("error: ") and "Traceback" not in err


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
    """A file each example rewrites in place: truncated to zero on open, as by
    write_text, a file is flushed to disk when closed on some file systems,
    which made the property take half as long again."""
    path = tmp_path_factory.mktemp("mutants") / "mutant.json"
    path.touch()
    with open(path, "r+") as file:
        yield path, file


@pytest.fixture(scope="module")
def cli_load_errors():
    """What load_problem raises inside cli.main, recorded; main builds its parser
    once, not per call, which would take longer than the rest of an example."""
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


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(mutation=st.sampled_from(_MUTATIONS))
def test_every_mutant_of_the_shipped_file_is_refused(mutant_file, cli_load_errors, mutation):
    mutant_path, file = mutant_file
    file.seek(0)
    file.write(_mutant(*mutation))
    file.truncate()
    file.flush()
    cli_load_errors.clear()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["penalty", "--problem", str(mutant_path), "--demand", "1500"])
    # main lets any exception but a DispatchError, ValueError or OSError through, failing the test
    assert cli_load_errors, "the mutant loaded"
    (exc,) = cli_load_errors
    assert isinstance(exc, DispatchError) and str(exc).startswith(str(mutant_path))
    assert code == EXIT_ERROR
    assert err.getvalue() == f"error: {exc}\n" and "\n" not in str(exc)


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
