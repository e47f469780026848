"""Every name a package module imports is used in that module, no module
imports scipy or a `_`-prefixed name of `problems` or calls `np.linalg.eigh`,
only `spectral` reads the basis arrays `psi` and `a_psi`, no function or
method is reached only from the tests, starting the CLI loads no module
that only some commands use, a Monte Carlo run loads no thread pool and no
masked arrays, only the commands that draw noise batches load
numpy.random, and a CLI call builds only the subparser of its command."""

import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from collections import defaultdict

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
    # other modules go through SpectralDecomposition.project, .expand and .image
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    assert _basis_reads(tree) == []


def test_check_flags_a_basis_read():
    tree = ast.parse("d = dec.project(b)\nx = dec.psi @ c\nax = v @ dec.a_psi\nr = dec.rho\n")
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


def _defs_and_refs(sources):
    # module-level functions and methods of module-level classes, keyed
    # module.name or module.Class.name, and for every name loaded as a Name or
    # an attribute, the keys of the defs it is read in (None outside any def).
    # self.name in a class that annotates name as a field reads that field,
    # so it counts for no def of that name
    defs, refs = {}, defaultdict(set)
    for module, source in sources.items():
        tree = ast.parse(source, filename=module)
        owner, field_reads = {}, set()
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            fields = {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)} if is_class else set()
            prefix = f"{module}.{node.name}." if is_class else f"{module}."
            for item in node.body if is_class else [node]:
                if not isinstance(item, ast.FunctionDef):
                    continue
                key = prefix + item.name
                if not (item.name.startswith("__") and item.name.endswith("__")):
                    defs[key] = item.name
                for sub in ast.walk(item):
                    owner[id(sub)] = key
                    if (isinstance(sub, ast.Attribute) and sub.attr in fields
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        field_reads.add(id(sub))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs[node.id].add(owner.get(id(node)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and id(node) not in field_reads):
                refs[node.attr].add(owner.get(id(node)))
    return defs, refs


def _test_only_defs(sources, entry=frozenset()):
    # a def is reached when it is an entry point or its name is read outside
    # its own body and outside every def found unreached so far, to a fixed
    # point
    defs, refs = _defs_and_refs(sources)
    dead = set()
    while True:
        found = {key for key, name in defs.items() if key not in dead and key not in entry
                 and not any(where != key and where not in dead for where in refs[name])}
        if not found:
            return sorted(dead)
        dead |= found


def test_no_def_is_reached_only_from_tests():
    # __init__.py only re-exports, so the names it imports count for nothing;
    # cli.main is the console entry point
    sources = {}
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            sources[module[:-3]] = fh.read()
    assert _test_only_defs(sources, entry={"cli.main"}) == []


def test_check_flags_a_test_only_def():
    sources = {
        "a": "def used():\n    return helper()\ndef helper():\n    return 1\n"
             "def reference():\n    return helper() + only_from_reference()\n"
             "def only_from_reference():\n    return 2\n"
             "def recurse(k):\n    return recurse(k - 1)\n"
             "class C:\n    def method(self):\n        return used()\n"
             "    def __repr__(self):\n        return 'C'\n"
             "    def planted(self):\n        return self.method()\n"
             "@dataclass\nclass D:\n    planted: int\n"
             "    def twice(self):\n        return 2 * self.planted\n"
             "print(C().method(), D(1).twice())\n",
        "b": "from .a import reference, recurse\ndef main():\n    return reference()\n",
    }
    assert _test_only_defs(sources) == ["a.C.planted", "a.only_from_reference", "a.recurse",
                                        "a.reference", "b.main"]
    assert _test_only_defs(sources, entry={"b.main"}) == ["a.C.planted", "a.recurse"]


# the result records, which carry fields and validate nothing
RECORDS = {
    "harness": ["SweepResult", "MonteCarloCell", "MonteCarloSummary", "SampleStudy", "TableRow"],
    "tikhonov": ["RegularizedSolution", "ErrorReport"],
    "params": ["AdaptiveTrace"],
    "spectral": ["AlphaFit", "SpectralDecomposition"],
    "problems": ["NoisyData"],
}

# statistics serves one driver, which imports it, and decimal and fractions
# load only through it; no command imports concurrent.futures, or logging
# through it, at all (test_montecarlo_loads_no_pool_and_no_masked_arrays)
DEFERRED = ["statistics", "concurrent.futures", "logging", "decimal", "fractions"]


def _fresh(probe, argv=()):
    # the JSON that probe prints last, run in a fresh interpreter so that
    # nothing this test session imported counts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True,
                         env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_start_loads_only_what_every_command_runs():
    loaded = set(_fresh("import json, sys, tikhreg.cli; print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in DEFERRED if m in loaded] == []
    for module, names in RECORDS.items():
        mod = importlib.import_module(f"tikhreg.{module}")
        assert [name for name in names if dataclasses.is_dataclass(getattr(mod, name))] == []


# main(argv) in a fresh interpreter: [exit code, every module then loaded]
_MAIN_PROBE = ("import json, sys\nfrom tikhreg.cli import main\n"
               "code = main(sys.argv[1:])\nprint(json.dumps([code, sorted(sys.modules)]))\n")


def test_montecarlo_loads_no_pool_and_no_masked_arrays(tmp_path):
    # the cells run on plain threads, not a concurrent.futures pool (which
    # loads logging), and the slope-fit guard is not np.unique, which imports
    # numpy.ma on numpy 2
    argv = ["montecarlo", "--ns", "60,100", "--deltas", "0.1,0.01", "--reps", "4",
            "--threads", "2", "--out", str(tmp_path / "mc")]
    code, loaded = _fresh(_MAIN_PROBE, argv)
    assert code == 0
    assert [m for m in ["numpy.ma", "concurrent.futures", "logging"] if m in loaded] == []


def test_only_batched_draws_load_numpy_random(tmp_path):
    # a one-seed draw (add_noise: solve, adaptive, sweep, table) computes its
    # Philox uniforms in numpy arithmetic; the Monte Carlo and study batches
    # take numpy.random's C fill. A numpy that imports numpy.random with
    # itself (numpy 1.x) loads it for every command
    eager = "numpy.random" in _fresh("import json, sys, numpy; print(json.dumps(sorted(sys.modules)))")
    commands = [
        (["solve", "--n", "60", "--delta", "0.01"], False),
        (["adaptive", "--n", "60", "--delta", "0.01"], False),
        (["sweep", "--n", "60", "--delta", "0.01", "--grid-count", "5"], False),
        (["table", "--ns", "60", "--deltas", "0.1"], False),
        (["montecarlo", "--ns", "60", "--deltas", "0.1", "--reps", "4"], True),
        (["study", "--n", "60", "--delta", "0.01", "--reps", "100"], True),
    ]
    for argv, batched in commands:
        code, loaded = _fresh(_MAIN_PROBE, argv + ["--out", str(tmp_path / argv[0])])
        assert code == 0
        assert ("numpy.random" in loaded) == (batched or eager), argv[0]


def _fresh_main(argv):
    # main(argv) in a fresh interpreter that counts ArgumentParser.__init__
    # calls; (exit code, prog of every parser built)
    probe = (
        "import argparse, json, sys\n"
        "progs = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    progs.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "from tikhreg.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, progs]))\n"
    )
    return tuple(_fresh(probe, argv))


def test_cli_call_builds_the_parser_and_one_subparser(tmp_path):
    argv = ["table", "--ns", "60", "--deltas", "0.1", "--out", str(tmp_path / "t")]
    assert _fresh_main(argv) == (0, ["tikhreg", "tikhreg table"])
    # a call that names no command gets all eight
    code, progs = _fresh_main(["--help"])
    assert code == 0 and len(progs) == 9
