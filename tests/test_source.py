"""Rules that hold for the package source as a whole."""

import ast
import importlib
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "g2hecke").glob("*.py"))


def test_invariants_are_raised_errors_not_asserts():
    # python -O strips assert statements, so an invariant checked by one is not checked
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/g2hecke: {found}"


def test_every_exported_name_resolves():
    # a deleted function must not stay behind in an __all__ list
    missing = []
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module("g2hecke" if path.stem == "__init__" else f"g2hecke.{path.stem}")
        missing += [f"{path.name}:{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"names in __all__ that do not resolve: {missing}"
