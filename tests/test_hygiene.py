"""Source hygiene: every module-level import of a library module is used,
no library module imports a private name of a sibling module or reads a
private attribute of an object other than `self`, and no library module
holds an `assert` statement, which `python -O` strips: load-bearing checks
are explicit raises."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "strongblock"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(tree):
    """Names bound by the module-level imports of `tree` that no Name node
    (annotations included) refers to."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_are_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_unused_import_is_reported():
    tree = ast.parse("import itertools\nimport numpy as np\nnp.zeros(1)\n")
    assert unused_imports(tree) == [(1, "itertools")]


def private_imports(tree):
    """(line, name) of every leading-underscore name that an import in `tree`
    takes from a sibling module: a relative import, or one from the
    `strongblock` package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "strongblock"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_imports_no_private_name(path):
    assert private_imports(ast.parse(path.read_text())) == []


def test_private_import_is_reported():
    tree = ast.parse("from __future__ import annotations\n"
                     "from ._util import _hidden, shown\n"
                     "from . import _module\n"
                     "from strongblock.search import _helper\n"
                     "from os import _exit\n"
                     "def f():\n    from .geometry import _offsets\n")
    assert private_imports(tree) == [(2, "_hidden"), (3, "_module"),
                                     (4, "_helper"), (7, "_offsets")]


def private_attribute_reads(tree):
    """(line, name) of every read of a leading-underscore attribute, dunders
    aside, of anything but `self`."""
    return sorted(
        (n.lineno, n.attr) for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and n.attr.startswith("_") and not n.attr.endswith("__")
        and not (isinstance(n.value, ast.Name) and n.value.id == "self"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_reads_no_private_attribute(path):
    assert private_attribute_reads(ast.parse(path.read_text())) == []


def test_private_attribute_read_is_reported():
    tree = ast.parse("def f(self, space, mod):\n"
                     "    self._cache = space._offsets\n"
                     "    other._x = self._y + mod._helper()\n"
                     "    return type(space).__name__, np.asarray(self._z)\n")
    assert private_attribute_reads(tree) == [(2, "_offsets"), (3, "_helper")]


def assert_statements(tree):
    """Line numbers of the `assert` statements anywhere in `tree`."""
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_has_no_assert(path):
    assert assert_statements(ast.parse(path.read_text())) == []


def test_assert_statement_is_reported():
    tree = ast.parse("def f(x):\n    if x:\n        assert x > 0, 'neg'\n"
                     "    raise AssertionError('not an assert statement')\n")
    assert assert_statements(tree) == [3]
