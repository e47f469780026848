import json
import math
import os

import numpy as np
import pytest

from tikhreg import (
    DegenerateSample,
    DomainError,
    NoiseSpec,
    b_seminorm_sq,
    build_fredholm,
    decompose,
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
    solve_spectral,
    standard_normal,
    stream_seed,
)
from tikhreg.harness import (
    rule_lambda,
    save_montecarlo,
    save_sweep,
    write_csv,
    write_json,
    write_manifest,
)
from tikhreg.params import AdaptiveConfig


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_validation(fred100):
    spec = NoiseSpec(delta=0.05, seed=1)
    with pytest.raises(DomainError):
        run_sweep(fred100, spec, (1e-4, 1e-8, 10))
    with pytest.raises(DomainError):
        run_sweep(fred100, spec, (0.0, 1e-4, 10))
    with pytest.raises(DomainError):
        run_sweep(fred100, spec, (1e-8, 1e-4, 1))


def test_sweep_shape_and_prediction(fred100):
    res = run_sweep(fred100, NoiseSpec(delta=0.05, seed=1), (1e-9, 1e-3, 13),
                    rule="rho0", alpha=4.0, constant_c=1.0)
    assert len(res.lambdas) == 13
    assert np.all(np.diff(res.lambdas) > 0)
    assert res.lambdas[0] == pytest.approx(1e-9)
    assert res.lambdas[-1] == pytest.approx(1e-3)
    assert np.all(np.isfinite(res.output_errors))
    assert res.err_min == res.output_errors.min()
    assert res.argmin_lambda == res.lambdas[int(np.argmin(res.output_errors))]
    sigma = 0.05 * np.linalg.norm(fred100.y) / math.sqrt(100)
    assert res.lambda_pred == pytest.approx(
        rule_lambda("rho0", 4.0, fred100, sigma, 1.0), rel=1e-12
    )


def test_sweep_noise_free(fred100):
    res = run_sweep(fred100, NoiseSpec(delta=0.0, seed=1), (1e-12, 1.0, 30))
    assert np.all(np.diff(res.output_errors) >= 0)
    assert res.argmin_lambda == res.lambdas[0]
    assert res.lambda_pred == 0.0
    assert math.isnan(res.err_at_pred)


def test_rule_lambda_dispatch(fred100):
    with pytest.raises(DomainError):
        rule_lambda("lcurve", 4.0, fred100, 1e-4, 1.0)
    assert rule_lambda("w", 4.0, fred100, 1e-4, 1.0) > 0
    assert rule_lambda("rho0", 4.0, fred100, 1e-4, 1.0) > 0


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_montecarlo_validation():
    with pytest.raises(DomainError):
        run_montecarlo([60], [0.1], 1)
    with pytest.raises(DomainError):
        run_montecarlo([60], [0.0], 4)


def test_montecarlo_rerun_bit_identical():
    kw = dict(rule="rho0", constant_c=1.0, master_seed=11, alpha=4.0)
    s1 = run_montecarlo([60, 90], [0.1, 0.01], 2, **kw)
    s2 = run_montecarlo([60, 90], [0.1, 0.01], 2, **kw)
    assert s1.slope_output == s2.slope_output
    assert s1.slope_b == s2.slope_b
    for c1, c2 in zip(s1.cells, s2.cells):
        assert (c1.n, c1.delta, c1.lam) == (c2.n, c2.delta, c2.lam)
        assert c1.mean_scaled_output == c2.mean_scaled_output
        assert c1.mean_scaled_b == c2.mean_scaled_b


def test_montecarlo_threads_do_not_change_results():
    kw = dict(rule="rho0", constant_c=1.0, master_seed=0, alpha=4.0)
    s1 = run_montecarlo([60, 90], [0.1, 0.01], 8, threads=1, **kw)
    s4 = run_montecarlo([60, 90], [0.1, 0.01], 8, threads=4, **kw)
    assert s1.slope_output == s4.slope_output
    assert s1.slope_b == s4.slope_b
    for c1, c4 in zip(s1.cells, s4.cells):
        assert c1.mean_scaled_output == c4.mean_scaled_output
        assert c1.mean_scaled_b == c4.mean_scaled_b


def test_montecarlo_means_match_per_rep_solves():
    """The batched projection path must equal solving rep by rep."""
    n, delta, reps, master = 60, 0.05, 5, 123
    summary = run_montecarlo([n], [delta], reps, rule="rho0", constant_c=1.0,
                             master_seed=master, alpha=4.0)
    cell = summary.cells[0]

    inst = build_fredholm(n)
    dec = decompose(inst)
    sigma = delta * np.linalg.norm(inst.y) / math.sqrt(n)
    lam = rule_lambda("rho0", 4.0, inst, sigma, 1.0)
    assert cell.lam == pytest.approx(lam, rel=1e-12)

    outs, bs = [], []
    for rep in range(reps):
        seed = stream_seed(master, n, delta, rep)
        b = inst.y + sigma * standard_normal(seed, n)
        sol = solve_spectral(dec, inst, b, lam)
        outs.append(np.linalg.norm(inst.a @ sol.x - inst.y) / math.sqrt(n))
        bs.append(math.sqrt(b_seminorm_sq(dec, sol.x - inst.x_star, inst.w) / n))
    assert cell.mean_scaled_output == pytest.approx(np.mean(outs), rel=1e-9)
    assert cell.mean_scaled_b == pytest.approx(np.mean(bs), rel=1e-9)
    assert cell.reps == reps


def test_montecarlo_cell_count_and_finiteness():
    s = run_montecarlo([60], [0.1, 0.05], 3, master_seed=2)
    assert len(s.cells) == 2
    assert all(c.mean_scaled_output > 0 for c in s.cells)
    assert math.isfinite(s.slope_output) and math.isfinite(s.slope_b)


# ---------------------------------------------------------------------------
# sample study
# ---------------------------------------------------------------------------

def test_study_validation(fred100):
    with pytest.raises(DomainError):
        run_sample_study(fred100, 0.05, 1e-6, 99)
    with pytest.raises(DegenerateSample):
        run_sample_study(fred100, 0.0, 1e-6, 120)


def test_study_shapes_and_determinism(fred100):
    s1 = run_sample_study(fred100, 0.05, 1e-6, 150, master_seed=4, bins=20)
    s2 = run_sample_study(fred100, 0.05, 1e-6, 150, master_seed=4, bins=20)
    assert np.array_equal(s1.samples, s2.samples)
    assert len(s1.samples) == 150
    assert int(np.sum(s1.bin_counts)) == 150
    assert len(s1.bin_counts) == 20
    assert len(s1.bin_edges) == 21
    assert np.all(np.diff(s1.qq_sample) >= 0)
    assert np.all(np.diff(s1.qq_theoretical) > 0)
    assert -1.0 <= s1.qq_correlation <= 1.0


def test_study_samples_are_scaled_output_errors(fred100):
    s = run_sample_study(fred100, 0.05, 1e-6, 120, master_seed=5)
    dec = decompose(fred100)
    sigma = 0.05 * np.linalg.norm(fred100.y) / math.sqrt(100)
    seed = stream_seed(5, 100, 0.05, 0)
    b = fred100.y + sigma * standard_normal(seed, 100)
    sol = solve_spectral(dec, fred100, b, 1e-6)
    want = np.linalg.norm(fred100.a @ sol.x - fred100.y) / math.sqrt(100)
    assert s.samples[0] == pytest.approx(want, rel=1e-8)


# ---------------------------------------------------------------------------
# summary table
# ---------------------------------------------------------------------------

def test_table_rows_and_sigma_invariance():
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-10, stop_mode="absolute")
    rows = run_table([100, 200], [0.1, 0.01], cfg, master_seed=0)
    assert [(r.delta, r.n) for r in rows] == [(0.1, 100), (0.1, 200), (0.01, 100), (0.01, 200)]
    for delta in (0.1, 0.01):
        sigmas = [r.sigma for r in rows if r.delta == delta]
        assert abs(sigmas[0] - sigmas[1]) <= 0.005 * sigmas[0]
    for r in rows:
        assert r.iters >= 1
        assert r.lam > 0
        assert 0 <= r.rel_x <= 1.5
        assert r.terminated in ("converged", "max_iters", "nonfinite")


def test_table_deterministic():
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-10, stop_mode="absolute")
    r1 = run_table([100], [0.1], cfg, master_seed=3)
    r2 = run_table([100], [0.1], cfg, master_seed=3)
    assert r1[0].lam == r2[0].lam
    assert r1[0].rel_x == r2[0].rel_x


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def test_write_csv_full_precision(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, ["a", "b", "c"], [(1, 0.1, 1.0 / 3.0)])
    text = open(path).read()
    assert text.splitlines()[0] == "a,b,c"
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    assert text.splitlines()[1].split(",")[0] == "1"
    # round-trips exactly
    back = float(text.splitlines()[1].split(",")[1])
    assert back == 0.1


def test_write_json_sorted_and_newline(tmp_path):
    path = str(tmp_path / "t.json")
    write_json(path, {"zeta": 1, "alpha": 2.5})
    text = open(path).read()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.endswith("\n")
    assert json.loads(text) == {"zeta": 1, "alpha": 2.5}


def test_manifest_contents(tmp_path):
    out = str(tmp_path)
    write_manifest(out, "solve", {"n": 100, "lam": 1e-6}, ["b.csv", "a.csv"])
    doc = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert doc["command"] == "solve"
    assert doc["outputs"] == ["a.csv", "b.csv"]
    assert doc["params"] == {"n": 100, "lam": 1e-6}
    assert "version" in doc
    assert not any("time" in k.lower() or "date" in k.lower() for k in doc)


def test_save_montecarlo_files(tmp_path):
    s = run_montecarlo([60], [0.1], 2, master_seed=1)
    names = save_montecarlo(str(tmp_path), s)
    assert set(names) == {"mc_cells.csv", "mc_fit.json"}
    lines = open(tmp_path / "mc_cells.csv").read().splitlines()
    assert lines[0] == "n,delta,lambda,mean_out,mean_b,reps"
    assert len(lines) == 2
    fit = json.loads(open(tmp_path / "mc_fit.json").read())
    assert set(fit) == {"slope_output", "slope_b", "intercept_output", "intercept_b"}


def test_save_sweep_noise_free_serializes_null(tmp_path, fred100):
    res = run_sweep(fred100, NoiseSpec(delta=0.0, seed=1), (1e-10, 1e-4, 4))
    save_sweep(str(tmp_path), res)
    doc = json.loads(open(tmp_path / "sweep.json").read())
    assert doc["err_at_pred"] is None
    assert doc["lambda_pred"] == 0.0


@pytest.mark.parametrize("threads", [0, -1])
def test_montecarlo_rejects_threads_below_one(threads):
    with pytest.raises(DomainError):
        run_montecarlo([60], [0.1], 4, threads=threads)
