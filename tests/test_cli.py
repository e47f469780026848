import json
import os
import subprocess
import sys

import pytest

from tikhreg.cli import main


def run(args):
    return main(list(args))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


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
    assert lines[0] == "delta,n,sigma,lambda,iters,rel_x,rel_Ax,rel_res"
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
