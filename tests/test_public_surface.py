import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import code_lines
import schurrnn

MODULES = sorted(m.name for m in pkgutil.iter_modules(schurrnn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    """Every name a module exports in ``__all__`` exists, so
    ``from schurrnn.<module> import *`` works."""
    mod = importlib.import_module(f"schurrnn.{name}")
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    exec(f"from schurrnn.{name} import *", {})


@pytest.mark.parametrize("name", MODULES)
def test_all_defines_its_own_names(name):
    """Every function or class a module exports in ``__all__`` is defined
    there, so no module re-exports another's."""
    mod = importlib.import_module(f"schurrnn.{name}")
    objs = [getattr(mod, n) for n in mod.__all__]
    assert [obj.__qualname__ for obj in objs
            if (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ != mod.__name__] == []


def _identifiers(path):
    """Every name and attribute name that the Python file ``path`` uses."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller_outside_the_tests(name):
    """Every name a module exports in ``__all__`` is used by some library
    module or by the benchmark harness (``perfbench/*.py`` other than its
    tests), so the library holds no export that only the tests reach."""
    root = pathlib.Path(__file__).resolve().parents[1]
    files = [*pathlib.Path(schurrnn.__file__).parent.glob("*.py"),
             *(f for f in (root / "perfbench").glob("*.py")
               if not f.name.startswith("test_"))]
    used = set().union(*map(_identifiers, files))
    mod = importlib.import_module(f"schurrnn.{name}")
    assert [n for n in mod.__all__ if n not in used] == []


@pytest.mark.parametrize("statement,loaded", [
    ("import schurrnn", ["schurrnn"]),
    ("import schurrnn.memory", ["schurrnn", "schurrnn.memory"]),
    ("import schurrnn.optim, schurrnn.tasks",
     ["schurrnn", "schurrnn.optim", "schurrnn.rnn", "schurrnn.schur",
      "schurrnn.tasks"]),
    ("import schurrnn.cli", ["schurrnn", "schurrnn.cli"]),
], ids=["root", "memory", "training", "cli"])
def test_import_loads_only_what_it_names(statement, loaded):
    """The package root imports no module, so a process that runs one
    part of the package compiles no other."""
    src = os.path.dirname(os.path.dirname(schurrnn.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"{statement}; import sys; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'schurrnn'))"],
        env={**os.environ, "PYTHONPATH": path}, check=True,
        capture_output=True, text=True).stdout
    assert out.strip() == str(loaded)


def test_code_lines_counts_code_only():
    """The code-line count skips blank lines, comments and docstrings, and
    counts each line of a multi-line statement and of a string that is
    not a docstring."""
    source = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


def f(a,
      b):
    """One-line docstring."""
    # a comment line
    text = """not a
docstring"""
    return (a +
            b)
'''
    assert code_lines.code_lines(source) == 7
