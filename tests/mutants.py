"""Mutation table for tier-1: small planted bugs that the tests must catch.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each entry replaces one exact string of a source file, which must occur there
exactly once, so an entry that the code has moved past fails the run instead
of planting nothing. For each entry the runner copies src/, tests/,
pyproject.toml and README.md to a temporary directory, applies the entry, and
runs tier-1 there with pytest -x. A mutant survives when tier-1 still passes,
and the run exits 1 if any mutant survives (or any entry is stale). pytest
does not collect this file: its name does not start with test_.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    path: str          # relative to the repository root
    old: str
    new: str
    reason: str        # why the new code is wrong


MUTANTS = [
    Mutant("src/tikhreg/tikhonov.py",
           "scaled_output=sol.output_err / math.sqrt(instance.n),",
           "scaled_output=sol.output_err / math.sqrt(instance.n - 1),",
           "the scaled output error is n^{-1/2} ||A x - y||, not over sqrt(n - 1)"),
    Mutant("src/tikhreg/params.py",
           "change / lam <= cfg.tol",
           "change / lambdas[-2] <= cfg.tol",
           "the relative stop divides |lambda_{k+1} - lambda_k| by lambda_{k+1}, not lambda_k"),
    Mutant("src/tikhreg/spectral.py",
           "rho > n * _EPS * rho[0]",
           "rho > (n - 1) * _EPS * rho[0]",
           "modes are kept above n eps rho_1, not (n - 1) eps rho_1"),
    Mutant("src/tikhreg/spectral.py",
           "while np.any(decomp.rho > _envelope(c_upper, alpha_hat, all_k)):",
           "while False:",
           "c_upper must step up until the rounded envelope bounds every rho_k"),
]


def _apply(tree, mutant):
    path = os.path.join(tree, mutant.path)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.path}: {mutant.old!r} occurs {count} times, not once")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def _tier1_passes(mutant):
    # tier-1 on a mutated copy: True when every test passes (the mutant survives)
    with tempfile.TemporaryDirectory() as tree:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(tree, name),
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(src, tree)
        _apply(tree, mutant)
        env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
        where = subprocess.run([sys.executable, "-c", "import tikhreg; print(tikhreg.__file__)"],
                               cwd=tree, env=env, capture_output=True, text=True, check=True)
        if not where.stdout.startswith(tree):
            raise RuntimeError(f"the copy imports tikhreg from {where.stdout.strip()}")
        return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode == 0


def main():
    survivors = []
    for number, mutant in enumerate(MUTANTS, 1):
        start = time.perf_counter()
        try:
            survived = _tier1_passes(mutant)
        except ValueError as exc:
            print(f"M{number} stale: {exc}")
            survivors.append(number)
            continue
        verdict = "SURVIVED" if survived else "killed"
        print(f"M{number} {verdict} in {time.perf_counter() - start:.0f} s: {mutant.reason}")
        if survived:
            survivors.append(number)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
