"""Every name a package module imports is used in that module, no module
imports scipy or a `_`-prefixed name of `problems` or calls `np.linalg.eigh`,
and only `spectral` reads the basis arrays `psi` and `a_psi`."""

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


def _scipy_imports(tree):
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append((node.lineno, node.module))
    return sorted(found)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_imports_no_scipy(module):
    # numpy is the only runtime dependency
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _scipy_imports(tree) == []


def test_check_flags_a_scipy_import():
    tree = ast.parse("import numpy as np\ndef f():\n    import scipy.linalg\n"
                     "    from scipy import linalg\n    from . import spectral\n")
    assert _scipy_imports(tree) == [(3, "scipy.linalg"), (4, "scipy")]


def _basis_reads(tree):
    return sorted((node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("psi", "a_psi"))


@pytest.mark.parametrize("module", sorted(f for f in os.listdir(SRC)
                                          if f.endswith(".py") and f != "spectral.py"))
def test_only_spectral_reads_the_basis(module):
    # other modules go through SpectralDecomposition.project and .expand
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _basis_reads(tree) == []


def test_check_flags_a_basis_read():
    tree = ast.parse("d = dec.project(b)\nx = dec.psi @ c\nax = dec.a_psi.T @ v\nr = dec.rho\n")
    assert _basis_reads(tree) == [(2, "psi"), (3, "a_psi")]


def _private_problems_imports(tree):
    return sorted((node.lineno, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "problems"
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_imports_a_private_name_of_problems(module):
    # problems is the one module that knows what an instance is; the others
    # read the instance's fields
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _private_problems_imports(tree) == []


def test_check_flags_a_private_problems_import():
    tree = ast.parse("from .problems import _kernel_blocks, build_fredholm\n"
                     "from tikhreg.problems import _BLOCK_ROWS as rows\n"
                     "from .spectral import _check_lambda\nfrom . import problems\n")
    assert _private_problems_imports(tree) == [(1, "_kernel_blocks"), (2, "_BLOCK_ROWS")]


def _eigh_uses(tree):
    # np.linalg.eigh, numpy.linalg.eigh or `from numpy.linalg import eigh`
    found = [(node.lineno, "eigh") for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "eigh"]
    found += [(node.lineno, "eigh") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name == "eigh"]
    return sorted(found)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_module_calls_eigh(module):
    # every route factors A (or T) by one SVD; an eigensolve of a Gram matrix
    # would square the condition number again
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _eigh_uses(tree) == []


def test_check_flags_an_eigh_call():
    tree = ast.parse("import numpy as np\nimport numpy\nu, s, vt = np.linalg.svd(a)\n"
                     "vals, vecs = np.linalg.eigh(a.T @ a)\nnumpy.linalg.eigh(g)\n"
                     "from numpy.linalg import eigh as e\n")
    assert _eigh_uses(tree) == [(4, "eigh"), (5, "eigh"), (6, "eigh")]
