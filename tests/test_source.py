"""Rules that hold for the package source as a whole."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_annotation_resolves():
    # annotations are strings under `from __future__ import annotations`, so one
    # naming a class its module does not bind (Fraction) fails only when read
    import inspect
    import typing

    checked, broken = 0, []
    for path in SOURCES:
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module("g2hecke" if path.stem == "__init__" else f"g2hecke.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for f in members:
                f = getattr(f, "fget", getattr(f, "__func__", f))
                if inspect.isfunction(f):
                    checked += 1
                    try:
                        typing.get_type_hints(f)
                    except NameError as e:
                        broken.append(f"{f.__qualname__}: {e}")
    assert checked > 300 and not broken, broken


def fresh(code: str, *flags: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter, stripped."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout.strip()


def test_import_path_stays_lean():
    # every CLI command is a fresh process, so what `import g2hecke` pulls in
    # is paid on each one; -S keeps site hooks from loading these first.
    # fractions (with decimal and numbers, about 4 ms) loads only once a quotient
    # is not integral, and json (about 3 ms) only where a file is decoded; the
    # package namespace is lazy, so no g2hecke submodule loads either
    heavy = ["dataclasses", "inspect", "typing", "importlib.resources", "argparse", "random",
             "fractions", "decimal", "numbers", "json"]
    code = f"import sys, g2hecke; print([m for m in sys.modules if m in {heavy!r} or m.startswith('g2hecke.')])"
    loaded = fresh(code, "-S")
    assert loaded == "[]", f"import g2hecke loads {loaded}"


def test_one_name_loads_its_home_module_alone():
    # a library caller that uses part of the package pays only for that part:
    # these are the callers whose start-up the lazy namespace shortens
    code = """if True:
        import sys
        from g2hecke import {}
        print(sorted(m for m in sys.modules if m.startswith("g2hecke")))
    """
    assert fresh(code.format("parse_expr"), "-S") == "['g2hecke', 'g2hecke.exactalg']"
    assert fresh(code.format("g2_datum"), "-S") == "['g2hecke', 'g2hecke._record', 'g2hecke.rootdata']"
    assert fresh(code.format("extended_quotient"), "-S") == "['g2hecke', 'g2hecke._record', 'g2hecke.extquot']"
    assert "g2hecke.blocks" not in fresh(code.format("mu"), "-S")


def test_each_exported_name_is_its_home_modules_object():
    # the namespace maps each name to a module by hand, so a name bound to the
    # wrong module, or to a private name there, would still resolve
    import g2hecke

    assert g2hecke.__all__
    for name in g2hecke.__all__:
        value = getattr(g2hecke, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("g2hecke.") and name in home.__all__, name
        assert getattr(home, name) is value and vars(g2hecke)[name] is value, name


def test_lazy_names_are_listed_star_imported_and_resolved():
    code = """if True:
        import sys, g2hecke
        listed = set(g2hecke.__all__) <= set(dir(g2hecke)) and {"hecke", "__version__"} <= set(dir(g2hecke))
        untouched = sorted(m for m in sys.modules if m.startswith("g2hecke"))
        hecke = g2hecke.hecke  # a submodule, with no import statement of its own
        ns = {}
        exec("from g2hecke import *", ns)
        starred = all(ns[n] is getattr(g2hecke, n) for n in g2hecke.__all__) and "hecke" not in ns
        print(listed, untouched, hecke is sys.modules["g2hecke.hecke"], hecke.multiply.__name__, starred)
    """
    assert fresh(code, "-S") == "True ['g2hecke'] True multiply True"


def test_an_unknown_attribute_is_the_standard_error():
    import g2hecke

    with pytest.raises(AttributeError, match="^module 'g2hecke' has no attribute 'nope'$"):
        g2hecke.nope
    assert not hasattr(g2hecke, "nope") and "nope" not in vars(g2hecke)


def test_command_path_loads_no_argparse():
    # the command line is read from one option table: argparse and the gettext
    # and locale it loads cost about 7 ms of start-up on every command; the
    # golden tables are read through the package's loader, since
    # importlib.resources alone loads typing, pathlib, tempfile and zipfile
    # no command here makes a Fraction; check compares the golden tables as
    # bytes, and JSON is written by cli's own writer, so none loads json; JSON
    # strings are escaped with str methods and only parse_expr reads text, so
    # none loads re (with enum, about 7 ms of -X importtime)
    heavy = {"argparse", "gettext", "locale", "importlib.resources", "pathlib", "tempfile", "zipfile", "typing",
             "fractions", "decimal", "numbers", "json", "re", "enum"}
    # sys.modules at exit holds every module the command loaded, also those that
    # importlib.import_module loads, which -X importtime does not report
    code = """if True:
        import atexit, runpy, sys
        atexit.register(lambda: sys.stderr.write(repr(sorted(sys.modules))))
        sys.argv = ["g2hecke"] + sys.argv[1:]
        runpy.run_module("g2hecke", run_name="__main__")
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command in (["tables", "--family", "all", "--format", "json"], ["check", "--part", "blocks"],
                    ["check", "--all"], ["mu", "--case", "long-I"], ["hecke", "--weights", "3,1"], ["extquot"]):
        proc = subprocess.run([sys.executable, "-S", "-c", code] + command,
                              env=env, capture_output=True, text=True, check=True, timeout=60)
        loaded = set(ast.literal_eval(proc.stderr))
        assert "g2hecke.cli" in loaded and "runpy" in loaded
        assert not loaded & heavy, (command, sorted(loaded & heavy))


def test_a_fraction_made_after_import_is_accepted():
    # the type tests look fractions up in sys.modules, so a Fraction that exists
    # only after import g2hecke must pass them, and a bool must still fail
    code = """if True:
        import sys
        from g2hecke import blocks, exactalg, hecke
        assert "fractions" not in sys.modules
        from fractions import Fraction
        R = exactalg.ring(["v", "X"])
        assert exactalg.LaurentExpr(R, {(0, 1): Fraction(1, 2), (1, 0): Fraction(4, 2)}).terms == {
            (0, 1): Fraction(1, 2), (1, 0): 2}
        assert (R.var("X") * Fraction(1, 3)).terms == {(0, 1): Fraction(1, 3)}
        assert exactalg._exact(Fraction(3, 2)) == Fraction(3, 2) and type(exactalg._exact(Fraction(4, 2))) is int
        h = hecke.HeckeElement(blocks._noncomm(1, 1), {(0, 0, 0): Fraction(1, 3), (1, 0, -1): 2})
        assert h.terms == {(0, 0, 0): Fraction(1, 3), (1, 0, -1): 2}
        assert (Fraction(3) * h).terms == {(0, 0, 0): 1, (1, 0, -1): 6}
        assert h.specialize_v(Fraction(1, 2)) == {(0, 0): Fraction(1, 3), (1, 0): 4}
        for bad in (lambda: exactalg._exact(True), lambda: hecke.HeckeElement(h.pres, {(0, 0, 0): True})):
            try:
                bad()
            except (TypeError, hecke.HeckeError):
                continue
            raise AssertionError("a bool was taken as a scalar")
        print("ok")
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.stdout == "ok\n", out.stderr


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
    gone = ("associativity", "bernstein-center", "braid-length", "`quadratic`", "bernstein-exact-division", "ro-reduction")
    assert [n for n in gone if n in readme] == []


def test_readme_names_every_flag():
    # an option that README does not document cannot come back unnoticed,
    # and the removed ones stay out of it
    from g2hecke.cli import _COMMANDS

    readme = (SRC.parent / "README.md").read_text()
    named = set(re.findall(r"--[a-z][a-z-]*", readme))
    flags = {name for _, _, spec in _COMMANDS.values() for names, *_ in spec.values() for name in names}
    assert sorted(flags - named) == []
    assert sorted({"--config", "--golden-dir", "--size"} & named) == []
