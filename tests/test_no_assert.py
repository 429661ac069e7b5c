"""No check in the package may rest on `assert`: `python -O` strips
asserts, so every module of `src/equifan` is parsed and must hold none."""

import ast
from pathlib import Path

import equifan

SOURCES = sorted(Path(equifan.__file__).resolve().parent.rglob("*.py"))


def test_package_modules_are_found():
    assert {"lattice.py", "complexes.py", "fanio.py", "cli.py"} <= {p.name for p in SOURCES}


def test_no_assert_statement():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
