"""Source hygiene: every module-level import of a library module is used,
no library module imports a private name of a sibling module or reads a
private attribute of an object other than `self`, no library module
holds an `assert` statement, which `python -O` strips: load-bearing checks
are explicit raises, and every name that README.md quotes exists."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

import pytest

import strongblock
from strongblock import cli

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "strongblock"
README = SRC.parent.parent / "README.md"
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


def readme_roots():
    """Name -> object: the package, its modules, and every public
    module-level name that the package defines (classes, functions,
    constants), not the ones it imports from elsewhere."""
    roots = {"strongblock": strongblock}
    for path in MODULES:
        module = importlib.import_module("strongblock." + path.stem)
        roots[path.stem] = module
        roots.update((name, obj) for name, obj in vars(module).items()
                     if not name.startswith("_") and not inspect.ismodule(obj)
                     and getattr(obj, "__module__", "strongblock")
                     .startswith("strongblock"))
    return roots


def members(obj):
    """Attribute names of `obj`, dataclass fields included."""
    names = set(dir(obj))
    if dataclasses.is_dataclass(obj):
        names |= {f.name for f in dataclasses.fields(obj)}
    return names


def resolves(token, roots):
    """True if a dotted name starts at a root and each later part is a
    member; a bare name may also be a member of any package class."""
    head, *rest = token.split(".")
    if head not in roots:
        return not rest and any(head in members(obj)
                                for obj in roots.values()
                                if inspect.isclass(obj))
    obj = roots[head]
    for part in rest:
        if part not in members(obj):
            return False
        obj = getattr(obj, part, None)
    return True


def cli_flags():
    """Every option string of every subcommand of the command line."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {flag for parser in sub.choices.values()
            for action in parser._actions for flag in action.option_strings}


def stale_readme_names(text):
    """The backticked names of a README text, outside fenced blocks, that
    name nothing: a `--flag` that no subcommand takes, or an identifier
    that resolves to no strongblock module, function, class, attribute or
    dataclass field.  Call parentheses are stripped, and a span holding a
    space (a command line, say) is skipped."""
    roots, flags = readme_roots(), cli_flags()
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    stale = []
    for span in re.findall(r"`([^`]+)`", text):
        token = re.sub(r"\(.*\)$", "", " ".join(span.split()))
        if " " in token:
            continue
        if not (token in flags if token.startswith("--")
                else resolves(token, roots)):
            stale.append(token)
    return stale


def test_readme_names_resolve():
    assert stale_readme_names(README.read_text()) == []


def test_stale_readme_name_is_reported():
    text = ("`Field.coord_map` and `Field.build`, `RGroup.coords`, `rank`,\n"
            "`strongblock.field`, `codes.AND_BYTES`, `iroot(n, h)`, `--q`,\n"
            "`--no-such-flag`, `verify --mode\nblocking`, `np.zeros`\n"
            "```sh\nstrongblock `no_such_name`\n```\n")
    assert stale_readme_names(text) == ["Field.coord_map", "--no-such-flag",
                                        "np.zeros"]
