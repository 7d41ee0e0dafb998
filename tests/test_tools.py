"""tools/code_lines.py counts the lines that hold code, every name a
module of the package imports is read in that module, and no module of
the package imports ``dataclasses``."""

import ast
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


def _unread_imports(source: str) -> list[str]:
    """The names an import binds anywhere in ``source`` that no expression
    in it reads; ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


def test_unread_import_is_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nd(sys)\n"
    assert _unread_imports(source) == ["e", "os"]


def test_package_modules_read_every_import():
    package = Path(__file__).resolve().parents[1] / "src" / "nslab"
    unread = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}


def _module_level_imports(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports outside
    any function or class; relative imports are left out."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            out.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_no_module_imports_dataclasses():
    """``dataclasses`` loads ``inspect``, ``ast`` and ``dis``.  Every value
    type and record of the package is a ``semigroups._Frozen``, so no
    module imports it at module level and no command starts with it."""
    package = Path(__file__).resolve().parents[1] / "src" / "nslab"
    importers = {
        path.stem
        for path in sorted(package.glob("*.py"))
        if "dataclasses" in _module_level_imports(path.read_text(encoding="utf-8"))
    }
    assert importers == set()
