"""Every module-level import of the package is used by its module.

No linter is a dependency, so this parses each module with ``ast``: a name
bound by a module-level import must be read somewhere in the module, or be
re-exported through ``__all__``.
"""

import ast
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
