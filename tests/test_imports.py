"""Every import and every definition of the package is used, and the CLI
imports nothing beyond the standard library and numpy.

No linter is a dependency, so this parses each module with ``ast``: a name
bound by a module-level import must be read somewhere in the module, or be
re-exported through ``__all__``; a function, method or class must be read
somewhere in the package outside its own body: a re-export is no caller.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import accumgraph

MODULES = sorted(Path(accumgraph.__file__).parent.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # String annotations and __all__ entries name objects too; docstrings
    # do not.
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    used |= {word for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and id(node) not in docstrings
             for word in node.value.replace("[", " ").replace("]", " ").split()}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    source = '"""Uses List."""\nimport os\nfrom typing import List, Tuple\nx: "Tuple" = ()\n'
    assert unused_imports(source) == [(2, "os"), (3, "List")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def uncalled_definitions(sources):
    """(module, name) of each function, method or class that no code outside
    its own body reads, as a name or an attribute. Dunders are exempt: the
    language calls them. A re-export is not a read: neither an ``import``
    in ``__init__.py`` nor a listing in ``__all__`` is a caller. An attribute
    of a module bound by ``import`` (``np``, ``math``) is not a read:
    ``np.full`` does not call a method ``full``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {module: {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                         if isinstance(node, ast.Import) for alias in node.names}
                for module, tree in trees.items()}

    def reads(tree, modules):
        return Counter(node.id if isinstance(node, ast.Name) else node.attr
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Name) or isinstance(node, ast.Attribute)
                       and not (isinstance(node.value, ast.Name) and node.value.id in modules))

    everywhere = sum((reads(tree, imported[module]) for module, tree in trees.items()), Counter())
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - reads(node, imported[module])[name] <= 0:
                out.append((module, name))
    return sorted(out)


def test_detects_an_uncalled_definition():
    sources = {
        "a": '__all__ = ["api"]\ndef api():\n    return helper()\n'
             'def helper():\n    return 1\ndef loop(n):\n    return loop(n - 1)\n'
             'class K:\n    def __init__(self):\n        pass\n    def m(self):\n        pass\n'
             '    def full(self):\n        pass\n',
        "b": 'import numpy as np\nfrom a import K\nK().m()\nnp.full(3, 0.0)\n',
    }
    # ``api`` is listed in ``__all__`` and imported by a third module, but
    # nothing calls it.
    sources["c"] = 'from a import api\n'
    assert uncalled_definitions(sources) == [("a", "api"), ("a", "full"), ("a", "loop")]


def test_every_definition_has_a_src_caller():
    """Code with no caller outside its own test is deleted or given one."""
    assert uncalled_definitions({path.name: path.read_text() for path in MODULES}) == []


PIECE_KINDS = {"Point", "Box", "PLine", "Hyper", "Piece"}


def piece_kind_checks(source):
    """(line, name) of each piece kind that an ``isinstance`` call names in
    its second argument, bare or as an attribute (``geometry.Box``)."""
    return sorted((node.lineno, name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  for kind in ast.walk(node.args[1])
                  if (name := getattr(kind, "id", None) or getattr(kind, "attr", None))
                  in PIECE_KINDS)


def test_detects_a_piece_kind_check():
    source = ("def f(p, q):\n"
              "    if isinstance(p, (Point, geometry.Box)):\n"
              "        return isinstance(q, Span) or isinstance(q, Hyper)\n")
    assert piece_kind_checks(source) == [(2, "Box"), (2, "Point"), (3, "Hyper")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dispatch_on_a_piece_kind(path):
    """A piece is its bands: behaviour that differs between kinds lives on
    the piece classes or the band kinds, not behind an ``isinstance``."""
    assert piece_kind_checks(path.read_text()) == []


def test_cli_imports_only_stdlib_and_numpy():
    """Building the CLI's parser in a fresh interpreter loads no top-level
    module outside the standard library, the package and numpy, beyond the
    modules the interpreter had loaded before (site hooks may import some)."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import accumgraph.cli\n"
              "accumgraph.cli.build_parser()\n"
              "print(' '.join(sorted({name.split('.')[0] for name in set(sys.modules) - before})))\n")
    src = str(Path(accumgraph.__file__).parent.parent)
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = set(run.stdout.split())
    assert {"accumgraph", "numpy"} <= loaded
    assert loaded - set(sys.stdlib_module_names) - {"accumgraph", "numpy"} == set()
