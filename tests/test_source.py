"""Rules that hold for the package source as a whole."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "g2hecke").glob("*.py"))


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


def test_json_output_allows_no_nan():
    # json.dumps prints NaN and Infinity by default, and neither is JSON
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                continue
            flag = next((kw.value for kw in node.keywords if kw.arg == "allow_nan"), None)
            if not (isinstance(flag, ast.Constant) and flag.value is False):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"json.dumps without allow_nan=False in src/g2hecke: {found}"


def test_every_exported_name_resolves():
    # a deleted function must not stay behind in an __all__ list
    missing = []
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module("g2hecke" if path.stem == "__init__" else f"g2hecke.{path.stem}")
        missing += [f"{path.name}:{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"names in __all__ that do not resolve: {missing}"


def test_import_path_stays_lean():
    # every CLI command is a fresh process, so what `import g2hecke` pulls in
    # is paid on each one; -S keeps site hooks from loading these first
    heavy = ["dataclasses", "inspect", "typing", "importlib.resources", "argparse", "random"]
    code = f"import sys, g2hecke; print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]", f"import g2hecke loads {out.stdout.strip()}"


def test_command_path_loads_no_argparse():
    # the command line is read from one option table: argparse and the gettext
    # and locale it loads cost about 7 ms of start-up on every command
    argv = ["-S", "-X", "importtime", "-m", "g2hecke", "tables", "--family", "all", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable] + argv, env=env, capture_output=True, text=True, check=True, timeout=60
    )
    # -X importtime reports every module the command imports, one per line
    lines = proc.stderr.splitlines()
    loaded = {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}
    assert "g2hecke.cli" in loaded
    assert not loaded & {"argparse", "gettext", "locale"}


def _private_definitions(tree):
    """(name, node) for each private module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_no_private_name_is_orphaned():
    # a deletion must take the helpers only it used along with it
    assert SOURCES
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    orphans = []
    for file, tree in trees.items():
        for name, node in _private_definitions(tree):
            own = set(map(id, ast.walk(node)))
            if not any(id(use) not in own for use in uses.get(name, ())):
                orphans.append(f"{file}:{node.lineno}:{name}")
    assert not orphans, f"private names that nothing in src/g2hecke references: {orphans}"


def test_readme_names_the_relation_checks():
    # the README lists the checks verify_relations reports; a check added or
    # removed there must be added to or removed from the list
    from g2hecke.hecke import AffineHeckePresentation, RGroup, WeightFunction, verify_relations

    readme = (SRC.parent / "README.md").read_text()
    pres = AffineHeckePresentation(WeightFunction(3, 1), RGroup.trivial())
    names = [c.name for c in verify_relations(pres, 1).checks]
    assert [n for n in names if f"`{n}`" not in readme] == []
    assert [n for n in ("associativity", "bernstein-center", "braid-length") if n in readme] == []
