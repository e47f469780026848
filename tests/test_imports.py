"""Every name a package module imports is used in that module."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "tikhreg")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` and `from a import b` bind the last name
                bound = alias.asname or (alias.name if isinstance(node, ast.ImportFrom)
                                         else alias.name.split(".")[0])
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _unused_imports(tree) == []


def test_check_flags_an_unused_import():
    tree = ast.parse("import numpy as np\nimport os.path\nfrom math import sqrt, pi\nprint(pi, os)\n")
    assert _unused_imports(tree) == [(1, "np"), (3, "sqrt")]
