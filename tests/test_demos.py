"""Each script in ``demos/`` runs to completion against the current library.

The demos call the public API the way a reader would copy it, so a change
that renames or reshapes a public name fails here rather than in a reader's
terminal.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 7, DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_completion(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
