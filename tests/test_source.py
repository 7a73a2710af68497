"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "raymoments"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/raymoments: {found}"


def test_all_names_resolve():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        name = "raymoments" if path.stem == "__init__" else f"raymoments.{path.stem}"
        mod = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                  if not hasattr(mod, attr)]
    assert not stale, f"__all__ names that do not resolve: {stale}"
