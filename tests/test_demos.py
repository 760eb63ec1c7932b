"""Each script in ``demos/`` and the README quickstart run against the current library.

The demos call the public API the way a reader would copy it, so a change
that renames or reshapes a public name fails here rather than in a reader's
terminal.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7, DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_completion(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_prints_what_its_comments_say(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["3 1 0.3333333333333333", "3.5 [0, 1]"]
