"""tools/code_lines.py counts the lines that hold code, every name a
module of the package imports is read in that module, every module-level
constant and every private function, method and class of the package is
read by one of its modules, no module of the package imports
``dataclasses``, only the class table reads the packed class lanes, and
every source file parses as Python 3.10."""

import ast
import importlib.util
import re
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


def _unread_constants(sources: list[str]) -> list[str]:
    """The module-level ``UPPER_CASE`` names (a leading underscore
    allowed) that one of ``sources`` assigns and no expression in any of
    them reads, as a name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined.update(
                t.id for t in targets if isinstance(t, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def test_unread_constant_is_found():
    sources = ["A_B = 1\n_C: int = 2\nD = 3\nlower = 4\nprint(D)\n", "import m\nm.A_B\n"]
    assert _unread_constants(sources) == ["_C"]


def test_package_modules_read_every_constant():
    package = Path(__file__).resolve().parents[1] / "src" / "nslab"
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    assert _unread_constants(sources) == []


def _unread_private_definitions(sources: list[str]) -> list[str]:
    """The functions, methods and classes named with a single leading
    underscore that one of ``sources`` defines and no expression in any
    of them reads, as a name or as an attribute."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if re.fullmatch(r"_[^_].*", node.name):
                    defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(defined - read)


def test_unread_private_definition_is_found():
    sources = [
        "def _a(): pass\ndef _unread(): pass\nclass _C:\n    def _m(self): pass\n"
        "    def __init__(self): pass\ndef public(): pass\n_a()\n",
        "import m\nm._C\nm._m = 1\n",
    ]
    assert _unread_private_definitions(sources) == ["_m", "_unread"]


def test_package_modules_read_every_private_definition():
    package = Path(__file__).resolve().parents[1] / "src" / "nslab"
    sources = [path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))]
    assert _unread_private_definitions(sources) == []


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


def _lane_readers(sources: dict[str, str]) -> list[str]:
    """The modules among ``sources`` (name: text) that read ``_lanes`` or
    ``_packed``, as a name or as an attribute."""
    lane_names = {"_lanes", "_packed"}
    return sorted(
        name
        for name, source in sources.items()
        if any(
            (isinstance(node, ast.Attribute) and node.attr in lane_names)
            or (isinstance(node, ast.Name) and node.id in lane_names)
            for node in ast.walk(ast.parse(source))
        )
    )


def test_lane_reader_is_found():
    sources = {"a": "ctx._lanes(x)\n", "b": "_packed = 1\n", "c": "lanes = packed\n"}
    assert _lane_readers(sources) == ["a", "b"]


def test_only_the_class_table_runs_lane_passes():
    """Every lane pass over the packed class masks is a method of the
    class table, ``annihilators.SemigroupContext``: no other module of
    the package reads ``_lanes`` or ``_packed``."""
    package = Path(__file__).resolve().parents[1] / "src" / "nslab"
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert "annihilators" in _lane_readers(sources)
    del sources["annihilators"]
    assert _lane_readers(sources) == []


def test_every_file_parses_as_python_3_10():
    """``pyproject.toml`` admits Python 3.10, and a newer interpreter
    accepts syntax that 3.10 refuses, so every source file of the package,
    the tests, the tools and the demos must parse with the 3.10 grammar."""
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src", "tests", "tools", "demos") for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) >= 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
