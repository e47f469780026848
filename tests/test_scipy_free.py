"""scipy stays off the import path: of the CLI routes, only an explicit W loads it.

Each case runs in a fresh interpreter, imports tikhreg.cli, calls main() on
one command line and reports the scipy modules left in sys.modules.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from tikhreg import ProblemInstance, WeightSpec, build_blur, build_fredholm, save_problem

_PROBE = """
import json, sys
import tikhreg.cli
argv = sys.argv[1:]
code = tikhreg.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def _probe(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE] + argv,
        capture_output=True, text=True, timeout=120,
    )
    assert "Traceback" not in proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert _probe([]) == [0, []]


@pytest.mark.parametrize("argv", [
    ["study", "--n", "60", "--delta", "0.05", "--lam", "1e-6", "--reps", "100"],
    ["montecarlo", "--ns", "60,100", "--deltas", "0.1", "--reps", "4"],
    ["table", "--ns", "60", "--deltas", "0.1"],
    ["adaptive", "--n", "60", "--delta", "0.05"],
    ["sweep", "--n", "60", "--delta", "0.05"],
    ["generate", "--problem", "fredholm", "--n", "40"],
    ["spectrum", "--problem", "fredholm", "--n", "60"],
    ["generate", "--problem", "blur", "--side", "8"],
    ["spectrum", "--problem", "blur", "--side", "8"],
    ["solve", "--n", "60", "--delta", "0.05"],
    ["solve", "--problem", "blur", "--side", "8", "--delta", "0.05"],
    ["adaptive", "--problem", "blur", "--side", "8", "--delta", "0.05"],
])
def test_fredholm_blur_and_study_routes_load_no_scipy(tmp_path, argv):
    assert _probe(argv + ["--out", str(tmp_path)]) == [0, []]


def test_spectrum_of_a_blur_prob_loads_no_scipy(tmp_path):
    prob = str(tmp_path / "blur.prob")
    save_problem(build_blur(8, 2.0), prob)
    assert _probe(["spectrum", "--prob", prob, "--out", str(tmp_path / "spec")]) == [0, []]


def test_explicit_w_routes_load_scipy_when_called(tmp_path):
    inst = build_fredholm(30)
    prob = str(tmp_path / "w.prob")
    save_problem(ProblemInstance(n=30, a=inst.a, x_star=inst.x_star, y=inst.y,
                                 w=WeightSpec.explicit(np.diag(np.linspace(1.0, 2.0, 30))),
                                 label="w"), prob)
    for i, argv in enumerate([
        ["solve", "--prob", prob, "--delta", "0.05", "--lam", "1e-6"],
        ["spectrum", "--prob", prob],
        ["adaptive", "--prob", prob, "--delta", "0.05"],
    ]):
        code, loaded = _probe(argv + ["--out", str(tmp_path / str(i))])
        assert code == 0
        assert "scipy.linalg" in loaded
