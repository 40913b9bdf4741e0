"""Rules that hold for the package source as a whole."""

import ast
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
