"""``scripts/code_lines.py``: the code-line measure of the simplicity changes."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parent.parent.parent / "scripts" / "code_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
class Box:
    """Class docstring."""

    size = 1

    def grow(self):
        """Method docstring
        spanning lines.
        """
        text = """a string that is
not a docstring"""
        return text


async def run():
    \'\'\'Async docstring.\'\'\'
    return os.sep
'''


def test_counts_code_lines_only():
    # Code: import, class, size, def, text (2 lines), return, async def,
    # return. Docstrings, comment-only and blank lines are excluded.
    assert _load().code_lines(SOURCE) == 9


def test_main_prints_per_file_counts_and_total(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    assert _load().main([str(path), str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["9", "9", "18"]
    assert lines[-1].endswith("total")
