"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The first ```python block under the README's `## Library` heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs(monkeypatch, capsys):
    # the example names the shipped problem file relative to the repo root
    monkeypatch.chdir(ROOT)
    exec(compile(library_example(), "README.md", "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.count("\n") >= 6
