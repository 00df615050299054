"""The package imports nothing but the standard library and itself."""

import ast
import sys
from pathlib import Path

import linlam

SOURCES = sorted(Path(linlam.__file__).parent.glob("*.py"))


def imported_modules(path: Path):
    # every import statement, at any depth, as a dotted name; relative
    # imports keep their leading dots
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")


def test_every_module_imports_only_the_standard_library():
    assert {p.name for p in SOURCES} >= {"__init__.py", "enumeration.py", "series.py"}
    for path in SOURCES:
        for name in imported_modules(path):
            top = name.split(".")[0]
            inside = name.startswith(".") or top == "linlam"
            assert inside or top in sys.stdlib_module_names, f"{path.name} imports {name}"
