"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = """a string that is no docstring,
        on two lines"""
        return x
'''


def test_counts_code_lines_only(tmp_path, capsys):
    # import, class, def, the two lines of x, return
    assert code_lines.count_code_lines(SOURCE) == 6
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["6", str(path), "6", "total"]
