"""Experiment drivers and their file outputs.

Four drivers: a near-optimality sweep over a lambda grid, a Monte Carlo
study of mean errors against the rule-chosen parameter, a concentration
study (histogram + normal QQ) of the error distribution at one parameter,
and a summary table driven by the adaptive iteration. All of them are
deterministic functions of their arguments; per-repetition noise streams are
keyed by stream_seed(master_seed, n, delta, rep) so neither thread count nor
evaluation order can change any number.

CSV cells are printed with repr-exact precision (%.17g) and manifests are
JSON with sorted keys and no timestamps, so reruns are byte-identical.
"""

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.special import ndtri

from . import __version__
from .errors import DegenerateSample, DomainError
from .linalg import w_norm
from .params import PriorRuleInput, adaptive_select, prior_rule_rho0, prior_rule_w
from .problems import (
    NoiseSpec, add_noise, build_fredholm, noise_sigma, standard_normal, stream_seed,
)
from .spectral import decompose, spectrum_rows
from .tikhonov import direct_solver, error_report, spectral_solver

# reps are processed in fixed-size batches (one GEMM each); the batch size is
# a constant so thread count cannot alter the floating-point reduction order
_REP_BATCH = 64


# ===========================================================================
# result records
# ===========================================================================

@dataclass
class SweepResult:
    lambdas: np.ndarray          # grid, strictly increasing
    output_errors: np.ndarray    # n^{-1/2} ||A x_lam - A x*|| per grid point
    lambda_pred: float
    err_at_pred: float
    err_min: float
    argmin_lambda: float


@dataclass
class MonteCarloCell:
    n: int
    delta: float
    lam: float
    mean_scaled_output: float
    mean_scaled_b: float
    reps: int


@dataclass
class MonteCarloSummary:
    cells: List[MonteCarloCell]
    slope_output: float
    slope_b: float
    intercept_output: float
    intercept_b: float


@dataclass
class SampleStudy:
    samples: np.ndarray          # scaled output errors, one per repetition
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    qq_theoretical: np.ndarray   # standard normal quantiles at (i - 1/2)/reps
    qq_sample: np.ndarray        # sorted standardized samples
    qq_correlation: float


@dataclass
class TableRow:
    delta: float
    n: int
    sigma: float
    lam: float
    iters: int
    rel_x: float
    rel_ax: float
    rel_res: float
    terminated: str


# ===========================================================================
# parameter rule dispatch
# ===========================================================================

def rule_lambda(rule, alpha, instance, sigma, constant_c):
    """Evaluate an a-priori rule on an instance's true solution norm."""
    xbar = w_norm(instance.x_star, instance.w) / math.sqrt(instance.n)
    inp = PriorRuleInput(
        alpha=alpha, n=instance.n, sigma=sigma, x_norm_w_scaled=xbar, constant_c=constant_c
    )
    if rule == "w":
        return prior_rule_w(inp)
    if rule == "rho0":
        return prior_rule_rho0(inp)
    raise DomainError(f"unknown rule {rule!r} (expected 'w' or 'rho0')")


# ===========================================================================
# near-optimality sweep
# ===========================================================================

def run_sweep(instance, noise, grid, rule="rho0", alpha=4.0, constant_c=1.0):
    """Solve along a log-equispaced lambda grid for one noise draw.

    grid is (lo, hi, count) with 0 < lo < hi and count >= 2. The predicted
    parameter comes from the chosen a-priori rule evaluated with the true
    sigma and ||x*||_W, and is solved separately (it need not lie on the
    grid).
    """
    lo, hi, count = grid
    if not (0 < lo < hi):
        raise DomainError(f"grid needs 0 < lo < hi, got ({lo}, {hi})")
    if count < 2:
        raise DomainError(f"grid needs count >= 2, got {count}")
    lambdas = np.logspace(math.log10(lo), math.log10(hi), int(count))
    data = add_noise(instance, noise)
    decomp = decompose(instance)
    solver = spectral_solver(decomp, instance, data.b)
    errors = np.array([solver(lam).output_err / math.sqrt(instance.n) for lam in lambdas])
    lam_pred = rule_lambda(rule, alpha, instance, data.sigma, constant_c)
    if lam_pred > 0:
        err_at_pred = solver(lam_pred).output_err / math.sqrt(instance.n)
    else:
        # sigma == 0 makes the rule return 0, which no solver accepts; keep
        # the grid results and leave the prediction column empty.
        err_at_pred = math.nan
    k_min = int(np.argmin(errors))
    return SweepResult(
        lambdas=lambdas,
        output_errors=errors,
        lambda_pred=float(lam_pred),
        err_at_pred=float(err_at_pred),
        err_min=float(errors[k_min]),
        argmin_lambda=float(lambdas[k_min]),
    )


# ===========================================================================
# Monte Carlo mean errors and slope fit
# ===========================================================================

def _error_batches(instance, decomp, sigma, delta, lam, reps, master_seed):
    # Yields diff = c - s for each fixed _REP_BATCH batch of repetitions, one
    # column per rep: c = (b, A psi) / (lam + rho) are the filter coefficients
    # of rep r's noisy data b = y + sigma xi_r and s the true coefficients.
    # Then ||A(x - x*)||^2 = sum rho diff^2 and ||B(x - x*)||^2 =
    # sum sqrt(rho) diff^2, identical in exact arithmetic to solving and
    # measuring; the tests pin the agreement.
    n = instance.n
    s = decomp.psi.T @ instance.w.apply(instance.x_star)
    d_clean = decomp.a_psi.T @ instance.y
    filt = 1.0 / (lam + decomp.rho)
    for lo in range(0, reps, _REP_BATCH):
        hi = min(lo + _REP_BATCH, reps)
        xi = np.empty((n, hi - lo), dtype=np.float64)
        for j, rep in enumerate(range(lo, hi)):
            xi[:, j] = standard_normal(stream_seed(master_seed, n, delta, rep), n)
        d = d_clean[:, None] + sigma * (decomp.a_psi.T @ xi)
        yield lo, hi, d * filt[:, None] - s[:, None]


def _cell_means(instance, decomp, sigma, delta, lam, reps, master_seed):
    n = instance.n
    sqrt_rho = np.sqrt(decomp.rho)
    sum_out = 0.0
    sum_b = 0.0
    for _, _, diff in _error_batches(instance, decomp, sigma, delta, lam, reps, master_seed):
        out = np.sqrt(np.sum(decomp.rho[:, None] * diff**2, axis=0)) / math.sqrt(n)
        berr = np.sqrt(np.sum(sqrt_rho[:, None] * diff**2, axis=0)) / math.sqrt(n)
        sum_out += float(np.sum(out))
        sum_b += float(np.sum(berr))
    return sum_out / reps, sum_b / reps


def run_montecarlo(ns, deltas, reps, rule="rho0", constant_c=1.0, master_seed=0,
                   alpha=4.0, threads=1, problem=build_fredholm):
    """Mean scaled errors per (n, delta) cell plus pooled log-log slope fits.

    One instance and one decomposition per n, shared across that n's cells;
    rep r of cell (n, delta) reads noise stream stream_seed(master_seed, n,
    delta, r). Cells run on a pool of `threads` workers and are reduced in
    (ns x deltas) order, so `threads` affects wall time only.
    """
    if reps < 2:
        raise DomainError(f"reps must be >= 2, got {reps}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    for d in deltas:
        if not d > 0:
            raise DomainError(f"deltas must be positive, got {d}")
    shared = {}
    for n in ns:
        inst = problem(n)
        shared[n] = (inst, decompose(inst))

    def one_cell(cell):
        n, delta = cell
        inst, decomp = shared[n]
        sigma = noise_sigma(inst, delta)
        lam = rule_lambda(rule, alpha, inst, sigma, constant_c)
        mean_out, mean_b = _cell_means(inst, decomp, sigma, delta, lam, reps, master_seed)
        return MonteCarloCell(
            n=n, delta=delta, lam=float(lam),
            mean_scaled_output=mean_out, mean_scaled_b=mean_b, reps=reps,
        )

    with ThreadPoolExecutor(max_workers=threads) as pool:
        cells = list(pool.map(one_cell, [(n, delta) for n in ns for delta in deltas]))

    log_lam = np.log([c.lam for c in cells])
    if np.unique(log_lam).size >= 2:
        slope_out, icept_out = np.polyfit(log_lam, np.log([c.mean_scaled_output for c in cells]), 1)
        slope_b, icept_b = np.polyfit(log_lam, np.log([c.mean_scaled_b for c in cells]), 1)
    else:
        # a single lambda value cannot support a slope fit
        slope_out = icept_out = slope_b = icept_b = math.nan
    return MonteCarloSummary(
        cells=cells,
        slope_output=float(slope_out),
        slope_b=float(slope_b),
        intercept_output=float(icept_out),
        intercept_b=float(icept_b),
    )


# ===========================================================================
# concentration study
# ===========================================================================

def run_sample_study(instance, delta, lam, reps, master_seed=0, bins=50):
    """Empirical distribution of the scaled output error at a fixed lambda.

    Returns the raw samples, a histogram, and normal QQ pairs of the
    standardized sample against quantiles at (i - 1/2)/reps.
    """
    if reps < 100:
        raise DomainError(f"reps must be >= 100, got {reps}")
    n = instance.n
    decomp = decompose(instance)
    sigma = noise_sigma(instance, delta)
    samples = np.empty(reps, dtype=np.float64)
    for lo, hi, diff in _error_batches(instance, decomp, sigma, delta, lam, reps, master_seed):
        samples[lo:hi] = np.sqrt(np.sum(decomp.rho[:, None] * diff**2, axis=0)) / math.sqrt(n)
    sd = float(np.std(samples, ddof=1))
    # ptp catches the all-identical case where the subtracted mean is off by
    # an ulp and the naive sd comes out ~1e-21 instead of exactly zero
    if sd == 0.0 or float(np.ptp(samples)) == 0.0:
        raise DegenerateSample("all error samples are identical; standardization is undefined")
    counts, edges = np.histogram(samples, bins=bins)
    standardized = np.sort((samples - float(np.mean(samples))) / sd)
    probs = (np.arange(1, reps + 1) - 0.5) / reps
    theo = ndtri(probs)
    corr = float(np.corrcoef(theo, standardized)[0, 1])
    return SampleStudy(
        samples=samples,
        bin_edges=edges,
        bin_counts=counts,
        qq_theoretical=theo,
        qq_sample=standardized,
        qq_correlation=corr,
    )


# ===========================================================================
# adaptive summary table
# ===========================================================================

def run_table(ns, deltas, cfg, master_seed=0, problem=build_fredholm):
    """One adaptive run per (delta, n): noise draw, iteration, error report.

    Rows come out grouped by delta (outer) then n (inner). The noise stream
    of a row is stream_seed(master_seed, n, delta, 0).
    """
    rows = []
    for delta in deltas:
        for n in ns:
            inst = problem(n)
            data = add_noise(inst, NoiseSpec(delta=delta, seed=stream_seed(master_seed, n, delta, 0)))
            trace = adaptive_select(inst, data.b, cfg, direct_solver(inst, data.b))
            report = error_report(inst, None, trace.final, data.b)
            rows.append(TableRow(
                delta=delta, n=n, sigma=data.sigma,
                lam=trace.final.lam, iters=trace.iters,
                rel_x=report.rel_x, rel_ax=report.rel_ax, rel_res=report.rel_res,
                terminated=trace.terminated,
            ))
    return rows


# ===========================================================================
# file output: CSV, JSON sidecars, manifest
# ===========================================================================

def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_manifest(out_dir, command, params, outputs):
    """manifest.json naming the command, its inputs, and every file written."""
    payload = {
        "command": command,
        "outputs": sorted(outputs),
        "params": params,
        "version": __version__,
    }
    write_json(os.path.join(out_dir, "manifest.json"), payload)


def save_spectrum(out_dir, decomp, fit):
    write_csv(os.path.join(out_dir, "spectrum.csv"), ["k", "rho", "envelope"],
              spectrum_rows(decomp, fit))
    write_json(os.path.join(out_dir, "spectrum.json"), {
        "alpha_hat": fit.alpha_hat,
        "log_c": fit.log_c,
        "c_upper": fit.c_upper,
        "fit_range": list(fit.fit_range),
        "residual_rms": fit.residual_rms,
        "retained": decomp.m,
    })
    return ["spectrum.csv", "spectrum.json"]


def save_sweep(out_dir, result):
    write_csv(os.path.join(out_dir, "sweep.csv"), ["lambda", "error"],
              list(zip(result.lambdas.tolist(), result.output_errors.tolist())))
    write_json(os.path.join(out_dir, "sweep.json"), {
        "lambda_pred": result.lambda_pred,
        "err_at_pred": None if math.isnan(result.err_at_pred) else result.err_at_pred,
        "err_min": result.err_min,
        "argmin_lambda": result.argmin_lambda,
    })
    return ["sweep.csv", "sweep.json"]


def save_trace(out_dir, trace):
    rows = [
        (k, lam, res, wn)
        for k, (lam, res, wn) in enumerate(zip(trace.lambdas, trace.residuals, trace.w_norms))
    ]
    write_csv(os.path.join(out_dir, "trace.csv"),
              ["k", "lambda", "scaled_residual", "scaled_wnorm"], rows)
    return ["trace.csv"]


def save_montecarlo(out_dir, summary):
    rows = [
        (c.n, c.delta, c.lam, c.mean_scaled_output, c.mean_scaled_b, c.reps)
        for c in summary.cells
    ]
    write_csv(os.path.join(out_dir, "mc_cells.csv"),
              ["n", "delta", "lambda", "mean_out", "mean_b", "reps"], rows)
    def _finite(v):
        return v if math.isfinite(v) else None

    write_json(os.path.join(out_dir, "mc_fit.json"), {
        "slope_output": _finite(summary.slope_output),
        "slope_b": _finite(summary.slope_b),
        "intercept_output": _finite(summary.intercept_output),
        "intercept_b": _finite(summary.intercept_b),
    })
    return ["mc_cells.csv", "mc_fit.json"]


def save_study(out_dir, study):
    hist_rows = [
        (float(study.bin_edges[i]), float(study.bin_edges[i + 1]), int(study.bin_counts[i]))
        for i in range(len(study.bin_counts))
    ]
    write_csv(os.path.join(out_dir, "study_hist.csv"), ["bin_lo", "bin_hi", "count"], hist_rows)
    write_csv(os.path.join(out_dir, "study_qq.csv"), ["normal_q", "sample_q"],
              list(zip(study.qq_theoretical.tolist(), study.qq_sample.tolist())))
    write_json(os.path.join(out_dir, "study.json"), {
        "qq_correlation": study.qq_correlation,
        "mean": float(np.mean(study.samples)),
        "std": float(np.std(study.samples, ddof=1)),
        "reps": int(len(study.samples)),
    })
    return ["study_hist.csv", "study_qq.csv", "study.json"]


def save_table(out_dir, rows):
    csv_rows = [
        (r.delta, r.n, r.sigma, r.lam, r.iters, r.rel_x, r.rel_ax, r.rel_res)
        for r in rows
    ]
    write_csv(os.path.join(out_dir, "table1.csv"),
              ["delta", "n", "sigma", "lambda", "iters", "rel_x", "rel_Ax", "rel_res"],
              csv_rows)
    return ["table1.csv"]
