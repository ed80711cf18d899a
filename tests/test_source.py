"""Whole-package checks: runtime checks in the library and the demos
survive ``python -O``, no ``except`` clause catches the builtin
``ValueError``, the library runs without numpy and imports no
``random``, start-up loads no ``dataclasses``, ``inspect`` or
``traceback``, imports sit at module level with ``order`` at the bottom of
the module graph, the package root imports nothing, only ``cli._emit``
writes to stdout, only ``cli`` reads and writes JSON, every demo script
runs to completion and prints its pinned output, and every public name has
a use outside the tests."""

import ast
import hashlib
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "latkit").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the library modules; the package root and the command-line entry point
# declare no public namespace of their own
LIBRARY = [p for p in SOURCES if p.stem not in ("__init__", "cli")]


@pytest.mark.parametrize("path", SOURCES + DEMOS, ids=lambda p: p.name)
def test_no_assert_statements_in_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_except_clause_catches_the_builtin_value_error(path):
    # a builtin ValueError is a bug: the CLI catches only its own input
    # errors as refused input (exit 2), so every other one exits 4
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler) and node.type is not None
             and any(isinstance(name, ast.Name) and name.id == "ValueError"
                     for name in ast.walk(node.type))]
    assert not lines, f"{path.name}: except ValueError at lines {lines}"


def imported_modules(path) -> list:
    """The top-level names of the modules that ``path`` imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level]
    return [name.split(".")[0] for name in imported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_does_not_import_numpy(path):
    assert "numpy" not in imported_modules(path)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_does_not_import_random(path):
    # every verdict is exact: the laws on N^d are decided on a fixed grid,
    # and only the tests draw seeded instances, as oracles
    assert "random" not in imported_modules(path)


def test_no_library_function_takes_a_sample_count_or_a_seed():
    # nothing in the library draws, so nothing takes a count or a seed:
    # only the CLI reads --samples and --seed, for the report format it pins
    found = [f"{path.name}:{node.lineno} {node.arg}" for path in LIBRARY
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.arg) and node.arg in ("samples", "seed")]
    assert found == []


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import latkit.cli, sys; print('numpy' in sys.modules)"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_leaves_out_dataclasses_inspect_and_traceback():
    """Start-up loads none of them beyond what the interpreter itself
    loaded: the records are plain classes, and a crash prints its
    traceback through ``sys.__excepthook__``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import latkit.cli; "
         "print(sorted({'dataclasses', 'inspect', 'traceback'} "
         "& (set(sys.modules) - before)))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_does_not_import_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert not lines, f"{path.name}: dataclasses imported at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not lines, f"{path.name}: import inside a function at lines {lines}"


def test_package_root_imports_nothing_and_defines_only_the_version():
    # each public name has one import path, the module that defines it, so
    # the root holds its docstring and __version__ alone
    path = ROOT / "src" / "latkit" / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert [type(stmt) for stmt in tree.body] == [ast.Expr, ast.Assign]
    assert _defined(tree.body[1]) == {"__version__"}


def _stdout_writes(path) -> set:
    """``(file, function, callee, line)`` for each ``print`` and
    ``sys.stdout.write`` call in ``path``, with the innermost function
    around it, or ``<module>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((id(node), func.name) for node in ast.walk(func))
    return {(path.name, owner.get(id(node), "<module>"), callee, node.lineno)
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (callee := ast.unparse(node.func)) in ("print", "sys.stdout.write")}


def test_only_cli_emit_writes_to_stdout():
    # one writer joins lines into blocks a pipe takes whole, so a reader
    # that leaves early always ends the run in exit 141
    sites = set().union(*map(_stdout_writes, SOURCES))
    assert {site[:3] for site in sites} == {("cli.py", "_emit", "sys.stdout.write")}, sites


def test_only_cli_imports_json():
    # the wire format has one owner: the library takes and returns values
    assert [p.name for p in SOURCES if "json" in imported_modules(p)] == ["cli.py"]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_library_name_reads_or_writes_json(path):
    public = importlib.import_module(f"latkit.{path.stem}").__all__
    assert [name for name in public if "json" in name.lower()] == []


def test_order_is_the_bottom_of_the_module_graph():
    path = ROOT / "src" / "latkit" / "order.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").split(".")[0] == "latkit")]
    imported += [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 and any(a.name.split(".")[0] == "latkit" for a in node.names)]
    assert not imported, f"order.py imports latkit at lines {imported}"


# the SHA-256 of each demo's stdout: a change to the library that moves a
# printed verdict, witness or subset shows here
DEMO_STDOUT_SHA256 = {
    "01_orders_and_lattices.py":
        "03193285ee55d383d8db5d5853a04721ca074f014263356d009b1120eb365e44",
    "02_subset_regularity.py":
        "7a893e6c9fda3c4c1f791aa03a216faa33ba2d5e1c0847577ec32b6baf949428",
    "03_monoid_orders.py":
        "d28fd0a34a6ea10ea14fb59a8294e196f1addee46f1c642ef30d52958325585b",
    "04_embedding_censuses.py":
        "dd436d32865b596a09956f17d502f661c6b204c900a12a9dd0b481cd914a4724",
    "05_extension.py":
        "3e2d33a9c902a425d323d2f849239ed148e88ec593c356ad9583468f9877b8e4",
    "06_finite_spaces.py":
        "3edef6ef751b7d225cc13710d584ad373acdc900d0a99f715e77406f078dc82e",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[path.name]


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_all_lists_exactly_the_public_definitions(path):
    module = importlib.import_module(f"latkit.{path.stem}")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name in defined if name not in module.__all__] == []


def _imported_or_attribute(tree) -> set:
    """The names that ``tree`` imports or reads as an attribute."""
    return {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _reads_from(tree, module: str) -> set:
    """The names that ``tree`` imports from ``module`` or reads as
    ``module.name``."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == module:
            out |= {a.name for a in n.names}
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id == module):
            out.add(n.attr)
    return out


def _defined(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _read_by_another_definition(tree, name: str) -> bool:
    """A top-level statement of ``tree`` other than the one defining
    ``name``, and other than an import or ``__all__``, reads ``name``."""
    return any(
        name not in _defined(stmt) and _defined(stmt) != {"__all__"}
        and not isinstance(stmt, (ast.Import, ast.ImportFrom))
        and any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(stmt))
        for stmt in tree.body)


def _readme_names() -> set:
    """Identifiers inside the README's inline code spans."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(re.findall(r"`([^`\n]+)`", text))))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_public_name_has_a_use_outside_the_tests(path):
    """A name in ``__all__`` is used by another definition of its own
    module, imported from it or read as ``module.name`` by another library
    module, imported or read as an attribute by a demo, or named in the
    README as API; code that only tests reach belongs in the tests.  A
    local variable of the same name elsewhere is not a use.  A public
    method or property of a public class is used when a library module or
    a demo reads it as an attribute, or the README names it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    own = trees[path.stem]
    used = set().union(
        *(_imported_or_attribute(ast.parse(p.read_text(encoding="utf-8")))
          for p in DEMOS),
        *(_reads_from(tree, path.stem) for stem, tree in trees.items()
          if stem != path.stem),
        _readme_names())
    public = importlib.import_module(f"latkit.{path.stem}").__all__
    unused = [name for name in public
              if name not in used and not _read_by_another_definition(own, name)]
    read = used.union(*(_imported_or_attribute(tree) for tree in trees.values()))
    unused += [f"{cls.name}.{f.name}" for cls in own.body
               if isinstance(cls, ast.ClassDef) and cls.name in public
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and not f.name.startswith("_") and f.name not in read]
    assert unused == [], f"{path.name}: no use outside the tests for {unused}"
