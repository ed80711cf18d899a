"""Whole-package checks: runtime checks in the library and the demos
survive ``python -O``, the library runs without numpy and imports no
``random``, start-up loads no ``dataclasses``, ``inspect`` or
``traceback``, imports sit at module level with ``order`` at the bottom of
the module graph, every demo script runs to completion, and every public
name has a use outside the tests."""

import ast
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


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_all_lists_exactly_the_public_definitions(path):
    module = importlib.import_module(f"latkit.{path.stem}")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name in defined if name not in module.__all__] == []


def _names_used(node) -> set:
    """The names and attribute names that ``node`` reads or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.asname or n.name)
    return out


def _defined(stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _source_uses() -> list:
    """``(module, names defined, names used)`` per top-level statement of
    the library: definitions, constants, and the package root's re-exports.
    A module's imports and its ``__all__`` are not uses."""
    out = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.Import) or (
                    isinstance(stmt, ast.ImportFrom) and path.stem != "__init__"):
                continue
            if _defined(stmt) != {"__all__"}:
                out.append((path.stem, _defined(stmt), _names_used(stmt)))
    return out


def _readme_names() -> set:
    """Identifiers inside the README's inline code spans."""
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"),
                  flags=re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(re.findall(r"`([^`\n]+)`", text))))


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_every_public_name_has_a_use_outside_the_tests(path):
    """A name in ``__all__`` is read by another definition of the library
    (the package root's re-export counts), used by a demo, or named in the
    README as API; code that only tests reach belongs in the tests."""
    uses = _source_uses()
    demo_names = set().union(*(_names_used(ast.parse(p.read_text(encoding="utf-8")))
                               for p in DEMOS))
    readme = _readme_names()
    unused = [name for name in importlib.import_module(f"latkit.{path.stem}").__all__
              if name not in demo_names and name not in readme
              and not any(name in used and not (module == path.stem and name in names)
                          for module, names, used in uses)]
    assert unused == [], f"{path.name}: no use outside the tests for {unused}"
