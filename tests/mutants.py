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
    Mutant("src/tikhreg/spectral.py",
           "rho > n * _EPS * rho[0]",
           "rho > 2 * n * _EPS * rho[0]",
           "modes are kept above n eps rho_1, not 2 n eps rho_1"),
    Mutant("src/tikhreg/spectral.py",
           "_FIT_LO = 6",
           "_FIT_LO = 5",
           "the decay-exponent fit starts at rank 6, not rank 5"),
    Mutant("src/tikhreg/spectral.py",
           "(self.f.T @ images @ self.f)",
           "(self.f.T @ images.swapaxes(-1, -2) @ self.f)",
           "the Kronecker analysis reads a vector as its side x side image, not the transpose"),
    Mutant("src/tikhreg/params.py",
           "q += sigma / math.sqrt(instance.n)",
           "q += sigma / instance.n",
           "rule rho0 adds sigma n^{-1/2} to q, not sigma / n"),
    Mutant("src/tikhreg/params.py",
           "** (-alpha / (alpha + 1.0))",
           "** (-alpha / (alpha + 2.0))",
           "lambda_0 = n^{-alpha/(alpha+1)}, not n^{-alpha/(alpha+2)}"),
    Mutant("src/tikhreg/params.py",
           "** (2.0 * alpha / (alpha + 1.0))",
           "** (2.0 * alpha / (alpha + 1.05))",
           "the rule's exponent is 2 alpha/(alpha + 1), not 2 alpha/(alpha + 1.05)"),
    Mutant("src/tikhreg/harness.py",
           "d_noise *= sigma",
           "d_noise *= -sigma",
           "rep r's data is y + sigma xi_r with xi_r its stream's draw, not y - sigma xi_r"),
    Mutant("src/tikhreg/harness.py",
           "_BATCH_BYTES // (16 * (n + 1))",
           "_BATCH_BYTES // (8 * n)",
           "a batch's widest array, a row of the FFT, fits the byte bound, not only its noise"),
    Mutant("src/tikhreg/harness.py",
           "d_noise = decomp.project(standard_normal(seeds, n))",
           "xi = standard_normal(seeds, n)\n            d_noise = decomp.project(xi)",
           "a batch's noise block dies once projected, before the next batch is drawn"),
    Mutant("src/tikhreg/problems.py",
           'cached = getattr(_THREAD, "philox", None)',
           "cached = None",
           "a thread builds one Philox generator for all its batched draws, not one per draw"),
    Mutant("src/tikhreg/harness.py",
           "inv_cdf((i - 0.5) / reps)",
           "inv_cdf(i / (reps + 1))",
           "the QQ plotting positions are (i - 1/2)/reps, not i/(reps + 1)"),
    Mutant("src/tikhreg/harness.py",
           "for lam in lambdas]) / math.sqrt(instance.n)",
           "for lam in lambdas]) / math.sqrt(instance.n + 1)",
           "the sweep's scaled output error is over sqrt(n), not sqrt(n + 1)"),
    Mutant("src/tikhreg/problems.py",
           "    np.negative(r, out=r)\n",
           "",
           "Box-Muller takes log(1 - u1), so u1 must be negated before log1p"),
    Mutant("src/tikhreg/problems.py",
           ":{round(scaled)}:",
           ":{int(scaled)}:",
           "a stream seed's tag rounds delta * 1e6 to the nearest integer, not toward zero"),
    Mutant("src/tikhreg/errors.py",
           "(lo < v if strict else lo <= v)",
           "(lo <= v if strict else lo <= v)",
           "a strict bound refuses lo itself, such as a zero lambda or sigma"),
    Mutant("src/tikhreg/linalg.py",
           "if asym > 1e-12 * max(scale",
           "if asym > 1e-10 * max(scale",
           "W is refused as asymmetric above 1e-12 max|W|, not 1e-10 max|W|"),
    Mutant("src/tikhreg/cli.py",
           '_MANIFEST_SKIP = ("func", "command", "out", "config", "threads")',
           '_MANIFEST_SKIP = ("func", "command", "out", "config")',
           "--threads never changes a result, so the manifest must not record it"),
    Mutant("src/tikhreg/cli.py",
           "            outputs.append(name)\n",
           "",
           "out(name) records every file a command writes, so the manifest lists them all"),
    Mutant("src/tikhreg/__init__.py",
           "    SizeCap,\n",
           "",
           "SizeCap is public: a caller catches it by name from the package"),
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
