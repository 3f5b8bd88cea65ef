"""Source hygiene: every module-level import of a library module is used,
no library module imports a private name of a sibling module or reads a
private attribute of an object other than `self`, no library module
holds an `assert` statement, which `python -O` strips: load-bearing checks
are explicit raises, no library module calls a numpy function that the
declared floor (numpy>=1.24) lacks, every name that README.md quotes
exists, only `geometry` calls `np.add.at`, only
`ProjectiveSpace.hyperplane_counts` and `strong._sections` read
`ProjectiveSpace.pencils`, only `geometry.read_file`
opens a file to read, only `CoordinateMap.coords`, on its subfield,
and `search.free_cosets` read a field's `log`, outside `field`, only
`search.free_cosets` reads a field's `exp`, `field.MARK_BATCH` is the
one batch-size constant, and every public method of a library class is
read somewhere in the library or the bench."""

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
BENCH = sorted((SRC.parent.parent / "bench").glob("*.py"))
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


# module attributes that numpy 2.0 added (the array API names among them);
# array methods of the same names, such as `.astype`, are older
NUMPY2_ONLY = {"bitwise_count", "concat", "permute_dims", "matrix_transpose",
               "vecdot", "isdtype", "astype", "unique_values", "unique_counts",
               "unique_inverse", "unique_all", "cumulative_sum"}


def numpy2_only_attributes(tree):
    """(line, name) of every `np.<name>` or `numpy.<name>` in `tree` that
    numpy 1.24, the floor that pyproject.toml declares, does not have."""
    return sorted(
        (n.lineno, n.attr) for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id in ("np", "numpy") and n.attr in NUMPY2_ONLY)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_module_keeps_the_numpy_floor(path):
    assert numpy2_only_attributes(ast.parse(path.read_text())) == []


def test_numpy2_only_attribute_is_reported():
    tree = ast.parse("import numpy as np\n"
                     "w = np.bitwise_count(a).sum() + a.astype(np.int64)\n"
                     "c = np.concatenate([np.concat([a]), np.unique(a)])\n"
                     "u = np.unique_counts(a), numpy.vecdot(a, a)\n")
    assert numpy2_only_attributes(tree) == [
        (2, "bitwise_count"), (3, "concat"), (4, "unique_counts"),
        (4, "vecdot")]


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
            "`strongblock.field`, `geometry.SCAN_BUDGET`, `iroot(n, h)`,\n"
            "`--q`,\n"
            "`--no-such-flag`, `verify --mode\nblocking`, `np.zeros`\n"
            "```sh\nstrongblock `no_such_name`\n```\n")
    assert stale_readme_names(text) == ["Field.coord_map", "--no-such-flag",
                                        "np.zeros"]


def add_at_lines(tree):
    """Line numbers of the `np.add.at` (or `numpy.add.at`) references in
    `tree`."""
    return sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and n.attr == "at"
        and isinstance(n.value, ast.Attribute) and n.value.attr == "add"
        and isinstance(n.value.value, ast.Name)
        and n.value.value.id in ("np", "numpy"))


def test_one_count_pass():
    # the per-hyperplane counts have one home,
    # `ProjectiveSpace.hyperplane_counts`, so the scatter loop and its
    # dtype-matched fast path cannot fork again
    users = [p.name for p in SOURCES if add_at_lines(ast.parse(p.read_text()))]
    assert users == ["geometry.py"]


def test_add_at_reference_is_reported():
    tree = ast.parse("import numpy as np\n"
                     "np.add.at(c, i, 1)\n"
                     "numpy.add.at(c, i, np.int32(1))\n"
                     "c.add.at(i)\n"
                     "# np.add.at in a comment\n")
    assert add_at_lines(tree) == [2, 3]


def pencils_readers(tree):
    """(line, function) of every read of a `pencils` attribute in `tree`;
    the function is the innermost one around the read."""
    return sorted((node.lineno, where)
                  for node, where in walk_in_functions(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "pencils"
                  and isinstance(node.ctx, ast.Load))


def test_one_pencils_reader():
    # the incidences of every scan come from `ProjectiveSpace.pencils`
    # through two readers only: the counts of `hyperplane_counts` (the
    # count path of the strong scan, the plain blocking scan and the code
    # weights) and the sections of the rank path, `strong._sections`
    readers = [(p.name, where) for p in SOURCES
               for _, where in pencils_readers(ast.parse(p.read_text()))]
    assert readers == [("geometry.py", "hyperplane_counts"),
                       ("strong.py", "_sections")]


def test_stray_pencils_reader_is_reported():
    tree = ast.parse("def hyperplane_counts(self, mat):\n"
                     "    for rows, h in self.pencils(mat):\n"
                     "        pass\n"
                     "def mark(space, mat):\n"
                     "    gen = space.pencils\n"
                     "    return space.line_pencils(mat, mat), gen\n"
                     "space.pencils = None\n"
                     "batches = list(space.pencils(m))\n")
    assert pencils_readers(tree) == [(2, "hyperplane_counts"), (5, "mark"),
                                     (8, None)]


def walk_in_functions(tree):
    """(node, function) for every node of `tree`; the function is the name
    of the innermost one around the node, None at module level."""
    stack = [(tree, None)]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, where
            stack.append((child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where))


def file_readers(tree):
    """(line, function) of every `open` call in `tree` that may read: no
    mode, a mode that is not a string literal, or one without "w", "a" or
    "x"; the function is the innermost one around the call."""
    found = []
    for node, where in walk_in_functions(tree):
        if isinstance(node, ast.Call) and (
                getattr(node.func, "id", None) == "open"
                or getattr(node.func, "attr", None) == "open"):
            mode = node.args[1:2] + [kw.value for kw in node.keywords
                                     if kw.arg == "mode"]
            if not (mode and isinstance(mode[0], ast.Constant)
                    and set("wax") & set(str(mode[0].value))):
                found.append((node.lineno, where))
    return sorted(found)


def test_one_file_reader():
    # every input file is read by `geometry.read_file`, which names the
    # path once in each fault, so no loader can drop or double the name
    readers = [(p.name, where) for p in SOURCES
               for _, where in file_readers(ast.parse(p.read_text()))]
    assert readers == [("geometry.py", "read_file")]


def test_stray_file_reader_is_reported():
    tree = ast.parse("def read_file(path, parse):\n"
                     "    with open(path, encoding='utf-8') as fh:\n"
                     "        return parse(fh)\n"
                     "def save(path, mode):\n"
                     "    open(path, 'w').write('x')\n"
                     "    open(path, mode='a')\n"
                     "    open(path, mode)\n"
                     "def load(path):\n"
                     "    def inner():\n"
                     "        return path.open('rb')\n"
                     "    return open(path, mode='r+'), inner\n"
                     "data = open('x').read()\n")
    assert file_readers(tree) == [(2, "read_file"), (7, "save"),
                                  (10, "inner"), (11, "load"), (12, None)]


def table_reads(tree, attr):
    """(line, function, owner) of every read of an `attr` attribute (a
    field's `log` or `exp`) in `tree`, numpy's and math's aside; the
    function is the innermost one around the read, and the owner is the
    source of what it is read from."""
    return sorted(
        (node.lineno, where, ast.unparse(node.value))
        for node, where in walk_in_functions(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("np", "numpy", "math")))


def test_one_log_reader():
    # a field builds its log on the first read, so only the small subfield
    # that `CoordinateMap.coords` reads and the field of the exhaustive
    # coset quotient `search.free_cosets` may hold one; the pipeline's big
    # field never does (test_field.py pins that at run time)
    readers = [(p.name, where, owner) for p in SOURCES
               for _, where, owner in table_reads(ast.parse(p.read_text()),
                                                  "log")]
    assert readers == [("field.py", "coords", "self.sub"),
                       ("search.py", "free_cosets", "f")]


def test_stray_log_read_is_reported():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "def coords(self, packed):\n"
                     "    return self.sub.log[packed]\n"
                     "def relation(rg, x):\n"
                     "    return rg.field.log[x], np.log(x), math.log(2)\n"
                     "field.log = None\n"
                     "table = field.log\n")
    assert table_reads(tree, "log") == [(4, "coords", "self.sub"),
                                        (6, "relation", "rg.field"),
                                        (8, None, "field")]


def test_one_exp_reader():
    # a field builds exp on the first read, so outside field.py, whose log
    # and zech scatter and gather from it, only the exhaustive coset
    # quotient `search.free_cosets` may; the pipeline reads progressions of
    # R* (`partition.RGroup.coset_values`) and `Field.exp_at`, and its big
    # field never builds exp (test_field.py pins that at run time)
    readers = [(p.name, where, owner) for p in SOURCES
               for _, where, owner in table_reads(ast.parse(p.read_text()),
                                                  "exp")]
    assert readers == [("field.py", "log", "self")] + [
        ("field.py", "zech", "self")] * 3 + [("search.py", "free_cosets", "f")]


def test_stray_exp_read_is_reported():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "def zech(self):\n"
                     "    return self.exp[1:]\n"
                     "def section(space, x):\n"
                     "    return space.field.exp[x], np.exp(x), math.exp(2)\n"
                     "field.exp = None\n"
                     "table = field.exp\n")
    assert table_reads(tree, "exp") == [(4, "zech", "self"),
                                        (6, "section", "space.field"),
                                        (8, None, "field")]


def batch_constants(tree):
    """(line, name) of every assignment in `tree` to MARK_BATCH or to a
    name ending in _BLOCK or _BYTES, the names a batch size would take."""
    return sorted(
        (node.lineno, target.id) for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
        if isinstance(target, ast.Name)
        and (target.id == "MARK_BATCH"
             or target.id.endswith(("_BLOCK", "_BYTES"))))


def test_one_batch_constant():
    # every batched kernel keeps one working-set rule, so it has one
    # constant: `field.MARK_BATCH`, which `geometry` imports and states
    found = [(p.name, name) for p in SOURCES
             for _, name in batch_constants(ast.parse(p.read_text()))]
    assert found == [("field.py", "MARK_BATCH")]


def test_stray_batch_constant_is_reported():
    tree = ast.parse("MARK_BATCH = 1 << 14\n"
                     "ROW_BLOCK: int = 1 << 14\n"
                     "step = TILE_BYTES = 1 << 18\n"
                     "SECTION_CAP = 1 << 22\n"
                     "def scan():\n"
                     "    MARK_BATCH = 7\n"
                     "    LIMIT_BYTES += 1\n"
                     "    return geometry.MARK_BATCH\n")
    assert batch_constants(tree) == [(1, "MARK_BATCH"), (2, "ROW_BLOCK"),
                                     (3, "TILE_BYTES"), (6, "MARK_BATCH"),
                                     (7, "LIMIT_BYTES")]


def unread_methods(library, readers):
    """(class, name) of every public method that a class of the `library`
    trees defines and that no tree of `readers` reads: neither as an
    attribute nor as the "Class.method" target of a SPANS table, whose
    entries the bench wraps by name."""
    reads = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "SPANS" for t in node.targets):
                reads |= {target.rsplit(".", 1)[-1] for _, target
                          in ast.literal_eval(node.value).values()}
    return sorted(
        (cls.name, node.name) for tree in library for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in reads)


def test_every_public_method_is_read():
    # a method that only tests call is library code kept for the tests;
    # a test oracle lives in tests/oracles.py instead.  A read is matched
    # by name alone, so a read of a name anywhere masks every unread method
    # of that name: `self.dot` in `incidence` masked `ProjectiveSpace.dot`,
    # and `PointSet.points` masked `ProjectiveSpace.points`
    library = [ast.parse(p.read_text()) for p in SOURCES]
    bench = [ast.parse(p.read_text()) for p in BENCH]
    assert unread_methods(library, library + bench) == []


def test_unread_method_is_reported():
    library = ast.parse("class Space:\n"
                        "    def point_at(self, i): ...\n"
                        "    def dot(self, a, b): ...\n"
                        "    def dot_block(self, a, b): ...\n"
                        "    def _helper(self): ...\n"
                        "    def __len__(self): ...\n"
                        "    @staticmethod\n"
                        "    def build(n): ...\n"
                        "def scan(space):\n"
                        "    space.dot = None\n"
                        "    return space.point_at(0)\n")
    bench = ast.parse('SPANS = {"geometry.dot_block": '
                      '("strongblock.geometry", "Space.dot_block"),\n'
                      '         "search.scan": ("strongblock.search", "scan")}\n')
    assert unread_methods([library], [library, bench]) == [
        ("Space", "build"), ("Space", "dot")]
