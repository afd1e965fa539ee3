"""The ``src/`` line counter (``tools/src_lines.py``) counts code lines as
non-blank, non-comment, non-docstring lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FIXTURE = '''"""Module docstring
spanning two lines."""

# a comment-only line
import os  # a trailing comment does not hide code


def f(x):
    """Function docstring."""
    s = """a multi-line
string that is not a docstring"""
    return x, s, os


class C:
    \'\'\'Class docstring.\'\'\'

    pass
'''


def _load():
    spec = importlib.util.spec_from_file_location(
        "src_lines", REPO / "tools" / "src_lines.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_fixture():
    # code: import, def, the two string lines, return, class, pass
    assert _load().count_lines(FIXTURE) == (18, 7)


def test_counts_a_tree(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# c\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert _load().count_tree(tmp_path) == (18 + 3, 7 + 1)
