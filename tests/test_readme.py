"""The README's library example runs as written, and its problem file loads."""

import re
from pathlib import Path

from ceed import load_problem

ROOT = Path(__file__).resolve().parents[1]


def readme_block(heading: str, language: str) -> str:
    """The first ```language block under the README's `## heading`."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block under ## {heading}"
    return match.group(1)


def test_library_example_runs(monkeypatch, capsys):
    # the example names the shipped problem file relative to the repo root
    monkeypatch.chdir(ROOT)
    exec(compile(readme_block("Library", "python"), "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.count("\n") >= 6


def test_problem_file_example_loads(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(readme_block("Problem files", "json"))
    # its 1500 MW is beyond its one unit, so the demand here lies within that unit's limits
    problem = load_problem(path, demand=200.0)
    assert problem.n_units == 1 and problem.losses is None and len(problem.gases) == 3
