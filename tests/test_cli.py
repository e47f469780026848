import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from tikhreg import (
    ProblemInstance, add_noise, build_blur, build_fredholm, decompose,
    error_report, rule_lambda, save_problem, spectral_solver,
)
from tikhreg import cli
from tikhreg.cli import main
from tikhreg.harness import MonteCarloCell, MonteCarloSummary, SweepResult, TableRow
from tikhreg.spectral import AlphaFit
from tikhreg.tikhonov import ErrorReport


def run(args):
    return main(list(args))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_reporting(args, capfd):
    # main(args) in this process: (exit code, stderr), with each warning it
    # raises appended to stderr as the "Category: message" line a child
    # `python -m tikhreg.cli` would print, every time it is raised. An
    # exception that escapes main fails the test, as a child's traceback would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(list(args))
    return code, capfd.readouterr().err + "".join(
        f"{w.category.__name__}: {w.message}\n" for w in caught)


def test_console_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "tikhreg.cli", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "tikhreg" in out.stdout


def test_generate_writes_prob_and_manifest(tmp_path):
    out = str(tmp_path / "g")
    assert run(["generate", "--problem", "fredholm", "--n", "40", "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "instance.prob"))
    doc = json.loads(read(os.path.join(out, "manifest.json")))
    assert doc["command"] == "generate"
    assert "instance.prob" in doc["outputs"]
    assert doc["params"]["n"] == 40
    # run-shape flags stay out of the manifest
    assert "out" not in doc["params"]
    assert "config" not in doc["params"]


def test_generate_without_room_on_disk_exits_1(tmp_path, monkeypatch, capsys):
    usage = shutil.disk_usage(".")
    monkeypatch.setattr(shutil, "disk_usage", lambda path: usage._replace(free=1000))
    out = str(tmp_path / "g")
    assert run(["generate", "--problem", "fredholm", "--n", "40", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "only 1000 are free" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "instance.prob"))


def test_generate_then_load_elsewhere(tmp_path):
    gen = str(tmp_path / "g")
    assert run(["generate", "--problem", "fredholm", "--n", "40", "--out", gen]) == 0
    spec = str(tmp_path / "s")
    assert run(["spectrum", "--prob", os.path.join(gen, "instance.prob"), "--out", spec]) == 0
    lines = read(os.path.join(spec, "spectrum.csv")).decode().splitlines()
    assert lines[0] == "k,rho,envelope"
    assert len(lines) > 10


def test_solve_csv_schema(tmp_path):
    out = str(tmp_path / "s")
    code = run(["solve", "--problem", "fredholm", "--n", "50", "--delta", "0.05",
                "--lam", "1e-6", "--seed", "5", "--out", out])
    assert code == 0
    lines = read(os.path.join(out, "solve.csv")).decode().splitlines()
    assert lines[0] == "lambda,sigma,rel_x,rel_Ax,rel_res,scaled_output"
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[0] == 1e-6
    assert all(v >= 0 for v in vals)


def test_solve_rule_lambda_when_not_fixed(tmp_path):
    out = str(tmp_path / "s")
    code = run(["solve", "--problem", "fredholm", "--n", "50", "--delta", "0.05",
                "--rule", "rho0", "--alpha", "4", "--seed", "5", "--out", out])
    assert code == 0
    lam = float(read(os.path.join(out, "solve.csv")).decode().splitlines()[1].split(",")[0])
    assert lam > 0


@pytest.mark.parametrize("problem,build", [
    (["--n", "500"], lambda: build_fredholm(500)),
    (["--problem", "blur", "--side", "16"], lambda: build_blur(16, 2.0)),
], ids=["fredholm", "blur"])
def test_solve_csv_is_the_spectral_route(tmp_path, problem, build):
    out = str(tmp_path / "s")
    assert run(["solve"] + problem + ["--delta", "0.01", "--out", out]) == 0
    inst = build()
    data = add_noise(inst, 0.01, 0)
    lam = rule_lambda("rho0", 4.0, inst, data.sigma, 1.0)
    sol = spectral_solver(decompose(inst), inst, data.b)(lam)
    rep = error_report(inst, sol, data.b)
    row = [float(v) for v in read(os.path.join(out, "solve.csv")).decode().splitlines()[1].split(",")]
    assert row == [lam, data.sigma, rep.rel_x, rep.rel_ax, rep.rel_res, rep.scaled_output]


def _blur_prob(path):
    save_problem(build_blur(8, 2.0), path)


def _explicit_w_prob(path):
    inst = build_fredholm(30)
    w = np.diag(np.linspace(1.0, 2.0, 30))
    save_problem(ProblemInstance(n=30, a=inst.dense_a(), x_star=inst.x_star, y=inst.y, w=w,
                                 label="w"), path)


# every command on every decomposition route: sine (Fredholm), Kronecker
# (blur) and dense (explicit W), from flags and from a .prob file
@pytest.mark.parametrize("argv", [
    ["study", "--n", "60", "--delta", "0.05", "--lam", "1e-6", "--reps", "100"],
    ["montecarlo", "--ns", "60,100", "--deltas", "0.1", "--reps", "4"],
    ["table", "--ns", "60", "--deltas", "0.1"],
    ["adaptive", "--n", "60", "--delta", "0.05"],
    ["sweep", "--n", "60", "--delta", "0.05"],
    ["spectrum", "--problem", "fredholm", "--n", "60"],
    ["solve", "--n", "60", "--delta", "0.05"],
    ["generate", "--problem", "blur", "--side", "8"],
    ["spectrum", "--problem", "blur", "--side", "8"],
    ["solve", "--problem", "blur", "--side", "8", "--delta", "0.05"],
    ["adaptive", "--problem", "blur", "--side", "8", "--delta", "0.05"],
    ["spectrum", "--prob", _blur_prob],
    ["solve", "--prob", _explicit_w_prob, "--delta", "0.05", "--lam", "1e-6"],
    ["spectrum", "--prob", _explicit_w_prob],
    ["adaptive", "--prob", _explicit_w_prob, "--delta", "0.05"],
], ids=lambda argv: " ".join(a if isinstance(a, str) else a.__name__.strip("_") for a in argv))
def test_every_route_runs_without_traceback(tmp_path, capsys, argv):
    prob = str(tmp_path / "instance.prob")
    for writer in [a for a in argv if callable(a)]:
        writer(prob)
    argv = [prob if callable(a) else a for a in argv]
    assert run(argv + ["--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--delta", "0.01", "--lam", "1e-6"],
    ["adaptive", "--delta", "0.01"],
], ids=["solve", "adaptive"])
def test_zero_x_star_prob_exits_1_without_traceback(tmp_path, capsys, argv):
    # the errors relative to ||x*|| = 0 are undefined
    prob = str(tmp_path / "zero.prob")
    save_problem(ProblemInstance(n=30, a=None, x_star=np.zeros(30), y=np.ones(30),
                                 w=None, label="zero"), prob)
    assert run(argv + ["--prob", prob, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "||x*|| = 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,name", [
    (["table", "--ns", "100", "--deltas", "0.1", "--c", "inf"], "constant_c"),
    (["solve", "--n", "60", "--delta", "0.05", "--alpha", "inf"], "alpha"),
    (["table", "--ns", "60", "--deltas", "0.1", "--alpha", "inf"], "alpha"),
    (["table", "--ns", "60", "--deltas", "0.1", "--tol", "inf"], "tol"),
], ids=["table-c", "solve-alpha", "table-alpha", "table-tol"])
def test_infinite_rule_constant_exits_1_naming_it(tmp_path, capsys, argv, name):
    assert run(argv + ["--out", str(tmp_path)]) == 1
    assert f"error: {name} must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "table1.csv")


def test_solve_rejects_a_bad_lambda_before_decomposing(tmp_path, capsys, monkeypatch):
    def no_decompose(inst):
        raise AssertionError("decomposed before lambda was checked")

    monkeypatch.setattr("tikhreg.cli.decompose", no_decompose)
    assert run(["solve", "--n", "60", "--delta", "0.05", "--lam", "-1",
                "--out", str(tmp_path)]) == 1
    assert "lambda must be finite and positive" in capsys.readouterr().err


def test_sweep_outputs(tmp_path):
    out = str(tmp_path / "sw")
    code = run(["sweep", "--problem", "fredholm", "--n", "50", "--delta", "0.05",
                "--grid-lo", "1e-9", "--grid-hi", "1e-3", "--grid-count", "7",
                "--seed", "2", "--out", out])
    assert code == 0
    lines = read(os.path.join(out, "sweep.csv")).decode().splitlines()
    assert lines[0] == "lambda,error"
    assert len(lines) == 8
    doc = json.loads(read(os.path.join(out, "sweep.json")))
    assert doc["lambda_pred"] > 0


def test_sweep_whose_rule_lambda_underflows_exits_1(tmp_path, capfd):
    code, err = run_reporting(["sweep", "--n", "60", "--delta", "1e-290",
                               "--out", str(tmp_path / "sw")], capfd)
    assert code == 1
    assert "lambda must be finite and positive, got 0.0" in err
    assert not os.path.exists(tmp_path / "sw" / "sweep.json")


def test_solve_at_a_subnormal_lambda_writes_no_warning(tmp_path, capfd):
    code, err = run_reporting(["solve", "--n", "60", "--delta", "0.01", "--lam", "1e-320",
                               "--out", str(tmp_path / "s")], capfd)
    assert (code, err) == (0, "")


def test_sweep_noise_free_serializes_null(tmp_path):
    out = tmp_path / "sw0"
    assert run(["sweep", "--n", "100", "--delta", "0", "--grid-count", "4", "--seed", "1",
                "--out", str(out)]) == 0
    doc = json.loads(read(out / "sweep.json"))
    assert doc["err_at_pred"] is None
    assert doc["lambda_pred"] == 0.0


def test_montecarlo_files(tmp_path):
    out = tmp_path / "mc"
    assert run(["montecarlo", "--ns", "60", "--deltas", "0.1", "--reps", "2", "--seed", "1",
                "--out", str(out)]) == 0
    names = json.loads(read(out / "manifest.json"))["outputs"]
    assert set(names) == {"mc_cells.csv", "mc_fit.json"}
    lines = read(out / "mc_cells.csv").decode().splitlines()
    assert lines[0] == "n,delta,lambda,mean_out,mean_b,reps"
    assert len(lines) == 2
    fit = json.loads(read(out / "mc_fit.json"))
    assert set(fit) == {"slope_output", "slope_b", "intercept_output", "intercept_b"}


# CSV column -> the record field it holds, where the two names differ
_FIELD_OF_COLUMN = {"lambda": "lam", "rel_Ax": "rel_ax", "mean_out": "mean_scaled_output",
                    "mean_b": "mean_scaled_b"}


def test_record_field_order_is_the_artifact_layout(tmp_path):
    # the bodies write each record as it stands, so a CSV header names the
    # record's fields position by position and a JSON file's keys are the
    # record's fields: reordering two fields of a record fails here
    def written(name, argv):
        assert run(argv + ["--out", str(tmp_path / name)]) == 0
        return lambda file: read(tmp_path / name / file).decode()

    def fields_of(header):
        return tuple(_FIELD_OF_COLUMN.get(c, c) for c in header.splitlines()[0].split(","))

    mc = written("mc", ["montecarlo", "--ns", "60", "--deltas", "0.1", "--reps", "2"])
    assert fields_of(mc("mc_cells.csv")) == MonteCarloCell._fields
    assert set(json.loads(mc("mc_fit.json"))) == set(MonteCarloSummary._fields) - {"cells"}
    table = written("table", ["table", "--ns", "60", "--deltas", "0.1"])
    assert fields_of(table("table1.csv")) == TableRow._fields
    solve = written("solve", ["solve", "--n", "60", "--delta", "0.1"])
    assert fields_of(solve("solve.csv")) == ("lam", "sigma", *ErrorReport._fields)
    sweep = written("sweep", ["sweep", "--n", "60", "--delta", "0.1"])
    assert set(json.loads(sweep("sweep.json"))) == (
        set(SweepResult._fields) - {"lambdas", "output_errors"})
    spectrum = written("spectrum", ["spectrum", "--n", "60"])
    assert set(json.loads(spectrum("spectrum.json"))) == {*AlphaFit._fields, "retained"}


def test_adaptive_outputs(tmp_path):
    out = str(tmp_path / "ad")
    code = run(["adaptive", "--problem", "fredholm", "--n", "200", "--delta", "0.1",
                "--alpha", "2", "--c", "1", "--tol", "1e-10", "--seed", "5", "--out", out])
    assert code == 0
    lines = read(os.path.join(out, "trace.csv")).decode().splitlines()
    assert lines[0] == "k,lambda,scaled_residual,scaled_wnorm"
    doc = json.loads(read(os.path.join(out, "adaptive.json")))
    assert doc["terminated"] == "converged"
    # trace has a row per iterate, k = 0..iters
    assert len(lines) == doc["iters"] + 2
    assert doc["lambda_final"] > 0


def test_study_outputs(tmp_path):
    out = str(tmp_path / "st")
    code = run(["study", "--problem", "fredholm", "--n", "60", "--delta", "0.05",
                "--lam", "1e-6", "--reps", "120", "--bins", "15", "--seed", "0", "--out", out])
    assert code == 0
    doc = json.loads(read(os.path.join(out, "study.json")))
    assert doc["reps"] == 120
    hist = read(os.path.join(out, "study_hist.csv")).decode().splitlines()
    assert len(hist) == 16
    assert sum(int(r.split(",")[2]) for r in hist[1:]) == 120


def test_table_outputs(tmp_path):
    out = str(tmp_path / "tb")
    code = run(["table", "--ns", "100", "--deltas", "0.1", "--alpha", "2",
                "--seed", "0", "--out", out])
    assert code == 0
    lines = read(os.path.join(out, "table1.csv")).decode().splitlines()
    assert lines[0] == "delta,n,sigma,lambda,iters,rel_x,rel_Ax,rel_res,terminated"
    assert len(lines) == 2


def test_blur_generate(tmp_path):
    out = str(tmp_path / "bl")
    code = run(["generate", "--problem", "blur", "--side", "8",
                "--psf-width", "1.5", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "instance.prob"))


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run(["solve", "--problem", "fredholm", "--delta", "0.05", "--lam", "1e-6",
                "--out", str(tmp_path)]) == 2  # missing --n
    assert run(["montecarlo", "--ns", "60", "--deltas", "0.1", "--reps", "1",
                "--out", str(tmp_path)]) == 2
    assert run(["solve", "--problem", "fredholm", "--n", "50", "--delta", "0.05",
                "--seed", "notanint", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_domain_errors_exit_1(tmp_path, capsys):
    assert run(["sweep", "--problem", "fredholm", "--n", "50", "--delta", "0.05",
                "--grid-lo", "1e-3", "--grid-hi", "1e-9", "--out", str(tmp_path / "a")]) == 1
    assert run(["solve", "--problem", "fredholm", "--n", "50", "--delta", "-0.1",
                "--lam", "1e-6", "--out", str(tmp_path / "b")]) == 1
    capsys.readouterr()
    # every command that draws or rules on delta names delta, not the sigma
    # that a negative delta would make
    for k, argv in enumerate([
        ["solve", "--n", "50", "--delta", "-1"],
        ["sweep", "--n", "50", "--delta", "-1"],
        ["adaptive", "--n", "50", "--delta", "-1"],
        ["study", "--n", "50", "--delta", "-1", "--reps", "100"],
        ["study", "--n", "50", "--delta", "-1", "--reps", "100", "--lam", "1e-6"],
        ["table", "--ns", "50", "--deltas", "-1"],
    ]):
        assert run(argv + ["--out", str(tmp_path / f"d{k}")]) == 1, argv
        assert "delta must be finite and >= 0" in capsys.readouterr().err, argv


def test_config_file_expands_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.05\nlam=1e-6\n")
    out = str(tmp_path / "c")
    code = run(["solve", "--problem", "fredholm", "--n", "50",
                "--config", str(cfg), "--seed", "5", "--out", out])
    assert code == 0
    lam = float(read(os.path.join(out, "solve.csv")).decode().splitlines()[1].split(",")[0])
    assert lam == 1e-6


def test_config_conflict_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.05\n")
    code = run(["solve", "--problem", "fredholm", "--n", "50", "--delta", "0.1",
                "--lam", "1e-6", "--config", str(cfg), "--out", str(tmp_path / "c")])
    assert code == 2
    capsys.readouterr()


def test_config_repeated_key_rejected(tmp_path, capsys):
    # the later n = 70 must not silently replace the earlier n = 60
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=60\ndelta=0.01\nn=70\n")
    out = tmp_path / "c"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'n' repeats an earlier --n key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spelling", [
    ["--config", "{a}", "--config", "{b}"],
    ["--config={a}", "--config", "{b}"],
    ["--config", "{a}", "--config={b}"],
], ids=["separate", "joined-first", "joined-second"])
def test_config_repeated_file_rejected(tmp_path, capsys, spelling):
    # merging only the first file would run at delta = 0.1 and drop b's 0.2
    (tmp_path / "a.cfg").write_text("delta=0.1\n")
    (tmp_path / "b.cfg").write_text("delta=0.2\n")
    out = tmp_path / "c"
    files = [tok.format(a=tmp_path / "a.cfg", b=tmp_path / "b.cfg") for tok in spelling]
    assert run(["solve", "--n", "60", *files, "--out", str(out)]) == 2
    assert "--config is given 2 times" in capsys.readouterr().err
    assert not out.exists()


def test_abbreviated_option_is_usage_error(tmp_path, capsys):
    # --config matches only full spellings, so an abbreviation would either
    # lose to a config key (--del) or leave the file unread (--conf)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=0.2\n")
    for k, argv in enumerate([
        ["solve", "--n", "50", "--del", "0.1", "--config", str(cfg)],
        ["solve", "--n", "60", "--delta", "0.01", "--conf", str(cfg)],
    ]):
        out = tmp_path / f"a{k}"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists(), argv
    capsys.readouterr()


def test_config_not_utf8_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe\x00bad=1\n")
    code = run(["adaptive", "--n", "50", "--delta", "0.01", "--config", str(cfg),
                "--out", str(tmp_path / "c")])
    assert code == 2
    assert "usage error: cannot read config file" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "c")


def test_out_env_var(tmp_path, monkeypatch):
    target = str(tmp_path / "envout")
    monkeypatch.setenv("TIKHREG_OUT", target)
    assert run(["generate", "--problem", "fredholm", "--n", "40"]) == 0
    assert os.path.exists(os.path.join(target, "instance.prob"))


def test_reruns_byte_identical(tmp_path):
    args = ["sweep", "--problem", "fredholm", "--n", "60", "--delta", "0.05",
            "--grid-lo", "1e-9", "--grid-hi", "1e-3", "--grid-count", "6", "--seed", "9"]
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    for name in ("sweep.csv", "sweep.json", "manifest.json"):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name))


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_is_usage_error(tmp_path, capsys, threads):
    assert run(["montecarlo", "--ns", "60", "--deltas", "0.1", "--reps", "4",
                "--threads", threads, "--out", str(tmp_path)]) == 2
    assert "--threads" in capsys.readouterr().err


def test_garbage_prob_exits_1(tmp_path, capsys):
    junk = tmp_path / "junk.prob"
    junk.write_bytes(b"garbage")
    assert run(["spectrum", "--prob", str(junk), "--out", str(tmp_path / "s")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["table", "--ns", "50", "--deltas", "1e-7,4e-7"],
    ["table", "--ns", "50", "--deltas", "nan"],
    ["montecarlo", "--ns", "50", "--deltas", "0.01,0.0100004", "--reps", "2"],
])
def test_deltas_without_a_noise_stream_of_their_own_exit_1(tmp_path, capsys, command):
    assert run(command + ["--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_oversized_fredholm_exits_1_without_traceback(tmp_path, capfd):
    code, err = run_reporting(["generate", "--n", str(10**6), "--out", str(tmp_path)], capfd)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lam", ["-1", "0", "nan"])
def test_study_lambda_not_finite_and_positive_exits_1(tmp_path, capsys, lam):
    assert run(["study", "--n", "60", "--delta", "0.05", "--lam", lam, "--reps", "120",
                "--out", str(tmp_path)]) == 1
    assert "lambda must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["montecarlo", "--ns", "60,60", "--deltas", "0.1", "--reps", "4"],
    ["table", "--ns", "60,60", "--deltas", "0.1"],
])
def test_repeated_size_exits_1(tmp_path, capsys, command):
    assert run(command + ["--out", str(tmp_path)]) == 1
    assert "repeat a size" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["montecarlo", "--ns", "", "--deltas", "0.1", "--reps", "4"],
    ["table", "--ns", "60", "--deltas", ","],
])
def test_empty_size_or_delta_list_is_usage_error(tmp_path, capsys, command):
    assert run(command + ["--out", str(tmp_path / "o")]) == 2
    assert "nonempty comma-separated" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def _nonfinite_prob(path, field):
    inst = build_fredholm(40)
    a, x_star = inst.dense_a(), inst.x_star.copy()
    if field == "a":
        a[7, 11] = float("nan")
    else:
        x_star[5] = float("inf")
    save_problem(ProblemInstance(n=40, a=a, x_star=x_star, y=inst.y, w=inst.w, label="bad"),
                 str(path))
    return str(path)


@pytest.mark.parametrize("field,command", [
    ("a", ["solve", "--delta", "0.05"]),
    ("a", ["adaptive", "--delta", "0.05"]),
    ("x_star", ["study", "--delta", "0.05", "--lam", "1e-6", "--reps", "120"]),
])
def test_nonfinite_prob_exits_1_without_traceback(tmp_path, capfd, field, command):
    prob = _nonfinite_prob(tmp_path / "bad.prob", field)
    code, err = run_reporting(command + ["--prob", prob, "--out", str(tmp_path / "o")], capfd)
    assert code == 1
    assert "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["table", "--ns", "60,100", "--deltas", "0.1,0.01", "--alpha", "2"],
    ["adaptive", "--n", "100", "--delta", "0.01", "--alpha", "2"],
])
def test_adaptive_reruns_byte_identical(tmp_path, command):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(command + ["--seed", "4", "--out", a]) == 0
    assert run(command + ["--seed", "4", "--out", b]) == 0
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert read(os.path.join(a, name)) == read(os.path.join(b, name))


# 121 is one more bin than the 120 reps
@pytest.mark.parametrize("bins", ["0", "-3", "121"])
def test_study_bins_below_one_exits_1_without_traceback(tmp_path, capfd, bins):
    code, err = run_reporting(["study", "--n", "60", "--delta", "0.05", "--reps", "120",
                               "--bins", bins, "--out", str(tmp_path)], capfd)
    assert code == 1
    assert "bins" in err
    assert "Traceback" not in err


def _address_space_cap():
    # the child may reserve at most 2 GiB, so a grid of 10^9 lambdas (8 GB)
    # fails inside the child instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_oversized_grid_count_exits_1_without_traceback(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "tikhreg.cli", "sweep", "--n", "60", "--delta", "0.01",
         "--grid-count", str(10**9), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, preexec_fn=_address_space_cap,
        # one BLAS thread, so the child's reserved stacks and buffers do not
        # grow with the core count and the 2 GiB cap fits on any host
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert out.returncode == 1
    assert "grid count" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command", [
    ["study", "--n", "60", "--delta", "0.05", "--lam", "1e-6"],
    ["montecarlo", "--ns", "60", "--deltas", "0.1"],
])
def test_oversized_reps_exits_1_without_traceback(tmp_path, command):
    # 10^9 reps would ask for 16 GB of per-rep errors; the 2 GiB cap turns
    # an unchecked count into a failure inside the child
    out = subprocess.run(
        [sys.executable, "-m", "tikhreg.cli"] + command
        + ["--reps", str(10**9), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, preexec_fn=_address_space_cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert out.returncode == 1
    assert "reps" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command", [
    ["spectrum"],
    ["solve", "--delta", "0.01", "--lam", "1e-6"],
])
def test_in_cap_size_that_cannot_be_allocated_exits_1_without_traceback(tmp_path, command):
    # a .prob at the n = 40000 cap, whose dense A alone is 12.8 GB; the
    # arrays are written as a sparse all-zero file, so the size check passes
    # without 12.8 GB on disk. Only run under the 2 GiB cap, where reading
    # the A fails at once
    n, prob = 40000, str(tmp_path / "big.prob")
    header = json.dumps({"format": "prob", "version": 1, "n": n, "label": "big",
                         "w_kind": "identity"}).encode("utf-8")
    with open(prob, "wb") as fh:
        fh.write(len(header).to_bytes(8, "little") + header)
        fh.truncate(8 + len(header) + 8 * (n * n + 2 * n))
    out = subprocess.run(
        [sys.executable, "-m", "tikhreg.cli"] + command + ["--prob", prob, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, preexec_fn=_address_space_cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert out.returncode == 1
    assert "error: out of memory" in out.stderr
    assert "Traceback" not in out.stderr


def test_study_negative_delta_exits_1_without_traceback(tmp_path, capfd):
    code, err = run_reporting(["study", "--n", "60", "--delta", "-0.05", "--lam", "1e-6",
                               "--reps", "120", "--out", str(tmp_path)], capfd)
    assert code == 1
    assert "delta" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "study.json")


@pytest.mark.parametrize("width", ["inf", "nan", "1e200", "1e-200"])
def test_psf_width_that_is_not_finite_exits_1(tmp_path, capsys, width):
    assert run(["generate", "--problem", "blur", "--side", "8", "--psf-width", width,
                "--out", str(tmp_path)]) == 1
    assert "psf_width" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["montecarlo", "--ns", "60,100", "--deltas", "1e300", "--reps", "4"],
    ["study", "--n", "60", "--delta", "1e300", "--lam", "1e-6", "--reps", "100"],
    ["solve", "--n", "60", "--delta", "1e300"],
    ["sweep", "--n", "60", "--delta", "1e300"],
    ["adaptive", "--n", "60", "--delta", "1e300"],
    ["table", "--ns", "60", "--deltas", "1e300"],
    # delta * 1e6 overflows float64, so the noise stream key cannot be formed
    ["table", "--ns", "60", "--deltas", "1e303"],
    ["montecarlo", "--ns", "60", "--deltas", "1e303", "--reps", "4"],
    # the overflow is raised on a worker thread
    ["montecarlo", "--ns", "60,100", "--deltas", "1e300", "--reps", "4", "--threads", "2"],
    ["study", "--n", "60", "--delta", "1e303", "--lam", "1e-6", "--reps", "100"],
])
def test_delta_whose_errors_overflow_exits_1_without_traceback(tmp_path, capfd, command):
    code, err = run_reporting(command + ["--out", str(tmp_path)], capfd)
    assert code == 1
    assert f"delta = {float(command[4])!r}" in err
    assert "Traceback" not in err
    assert "Warning" not in err


def test_infinite_grid_bound_exits_1_without_warning(tmp_path, capfd):
    code, err = run_reporting(["sweep", "--n", "60", "--delta", "0.01", "--grid-hi", "inf",
                               "--out", str(tmp_path)], capfd)
    assert code == 1
    assert "finite 0 < lo < hi" in err
    assert "Traceback" not in err
    assert "Warning" not in err
    assert not os.path.exists(tmp_path / "sweep.csv")


@pytest.mark.parametrize("command, code", [
    (["solve", "--n", "60", "--delta", "0.1"], 1),
    (["sweep", "--n", "60", "--delta", "0.1"], 1),
    (["study", "--n", "60", "--delta", "0.1", "--reps", "100"], 1),
    (["montecarlo", "--ns", "60", "--deltas", "0.1", "--reps", "4"], 1),
    # the adaptive update overflows at once and the iteration stops as "nonfinite"
    (["adaptive", "--n", "60", "--delta", "0.1"], 0),
    (["table", "--ns", "60", "--deltas", "0.1"], 0),
])
def test_rule_constant_that_overflows_ends_without_traceback(tmp_path, capfd, command, code):
    got, err = run_reporting(command + ["--c", "1e308", "--out", str(tmp_path)], capfd)
    assert got == code
    assert "Traceback" not in err
    assert "Warning" not in err
    if code == 1:
        assert "lambda must be finite and positive, got inf" in err
    elif command[0] == "adaptive":
        assert json.loads(read(tmp_path / "adaptive.json"))["terminated"] == "nonfinite"


def test_table_row_says_how_its_iteration_stopped(tmp_path):
    # a row whose update overflows at once keeps the starting lambda and
    # iters 0, and only its terminated column tells it from a converged one
    assert run(["table", "--ns", "60", "--deltas", "0.1", "--c", "1e308",
                "--out", str(tmp_path)]) == 0
    header, row = read(tmp_path / "table1.csv").decode().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["terminated"] == "nonfinite"


def _one_argv_per_command(tmp_path):
    # montecarlo takes its sizes and deltas from a --config file
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("ns=60,120\ndeltas=0.1,0.01\n")
    return {
        "generate": ["generate", "--problem", "blur", "--side", "8", "--psf-width", "1.5"],
        "spectrum": ["spectrum", "--n", "60", "--seed", "0x10"],
        "solve": ["solve", "--n", "50", "--delta", "0.05", "--lam", "1e-6", "--rule", "w"],
        "sweep": ["sweep", "--n", "60", "--delta", "0.05", "--grid-count", "6", "--alpha", "3"],
        "adaptive": ["adaptive", "--problem", "blur", "--side", "10", "--delta", "0.01",
                     "--stop", "relative"],
        "montecarlo": ["montecarlo", "--config", str(cfg), "--reps", "4", "--threads", "2"],
        "study": ["study", "--n", "60", "--delta", "0.01", "--bins", "7", "--out", "x"],
        "table": ["table", "--ns", "60", "--deltas", "0.1,0.01", "--max-iters", "5"],
    }


def test_one_command_parser_parses_as_the_full_parser(tmp_path):
    argvs = _one_argv_per_command(tmp_path)
    assert list(argvs) == list(cli._COMMANDS)
    parsed = {}
    for name, argv in argvs.items():
        argv = cli._merge_config(argv)
        parsed[name] = cli.build_parser(name).parse_args(argv)
        assert parsed[name] == cli.build_parser().parse_args(argv)
        assert parsed[name].command == name
    # the --config keys reach the one-command parse
    assert (parsed["montecarlo"].ns, parsed["montecarlo"].deltas) == ([60, 120], [0.1, 0.01])


def test_each_option_has_one_definition():
    # an option that several commands take reads the same in each of them;
    # only its default may differ (--reps)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    seen = {}
    for name, sub in commands.choices.items():
        for action in sub._actions:
            for flag in action.option_strings:
                spec = (action.help, action.type, action.choices, action.required)
                assert seen.setdefault(flag, (name, spec))[1] == spec, (flag, name)
    assert "--delta" in seen


def _help_and_usage_invocations(tmp_path):
    return [
        ["--help"], ["-h", "table"], ["--version"], ["nosuch"], [], ["table", "--bogus"],
        ["sweep", "-h"], ["table", "--help"], ["study", "--delta", "x"], ["table", "--version"],
        ["montecarlo", "--ns", "40", "--deltas", "0.1", "--threads", "0",
         "--out", str(tmp_path / "m")],
        ["solve", "--delta", "0.1", "--out", str(tmp_path / "s")],
        ["generate", "--problem", "nope"],
        ["table", "--config", str(tmp_path / "missing.cfg")],
    ]


def test_help_and_usage_errors_match_the_full_parser(tmp_path, capsys, monkeypatch):
    # a command's own subparser prints what the parser holding all eight
    # prints, on stdout and stderr, with the same exit code; a call that
    # names no command builds all eight
    full_parser = cli.build_parser
    built = []

    def recorded(command=None):
        built.append(command)
        return full_parser(command)

    monkeypatch.setattr(cli, "build_parser", recorded)
    invocations = _help_and_usage_invocations(tmp_path)
    seen = []
    for argv in invocations:
        code = main(list(argv))
        seen.append((code, *capsys.readouterr()))
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None
                     for argv in invocations]
    assert [code for code, _, _ in seen] == [0, 0, 0, 2, 2, 2, 0, 0, 2, 2, 2, 2, 2, 2]
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    for argv, want in zip(invocations, seen):
        code = main(list(argv))
        assert (code, *capsys.readouterr()) == want, argv


def test_study_holds_a_fixed_number_of_float64_per_rep(tmp_path, capsys):
    # samples, standardized samples and quantiles, plus np.corrcoef's copies;
    # a Python float per rep (24 B, plus 8 B in a list) would break the bound.
    # The slope of the traced peak between 10000 and 30000 reps leaves the
    # fixed overhead out
    argv = ["study", "--n", "60", "--delta", "0.01", "--bins", "50"]
    assert run(argv + ["--reps", "1000", "--out", str(tmp_path / "warm")]) == 0
    peaks = []
    for reps in (10000, 30000):
        tracemalloc.start()
        try:
            assert run(argv + ["--reps", str(reps), "--out", str(tmp_path / str(reps))]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert (peaks[1] - peaks[0]) / 20000 < 64
