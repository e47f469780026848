"""Experiment drivers and the three file writers.

Four drivers: a near-optimality sweep over a lambda grid, a Monte Carlo
study of mean errors against the rule-chosen parameter, a concentration
study (histogram + normal QQ) of the error distribution at one parameter,
and a summary table driven by the adaptive iteration. All of them are
deterministic functions of their arguments; per-repetition noise streams are
keyed by stream_seed(master_seed, n, delta, rep) so neither thread count nor
evaluation order can change any number. The drivers return records and write
nothing; each CLI command writes its own files, each record as it stands (a
CSV column or JSON key per field), so a record's field order is its file's
layout.

The drivers measure the output error n^{-1/2} ||A(x_lam - x*)|| on the
retained modes only, through spectral.filter_errors: they leave out
||y_perp||^2, the part of y outside the span of the retained A psi_k, which
tikhonov.spectral_solver (solve, adaptive, table) adds. Measured y_perp^2 /
out^2 at seed 1 and the rule's lambda: 4.5e-21, 1.9e-19 and 2.9e-16 on
Fredholm n = 500 at delta = 0.1, 0.01 and 1e-4; 6.9e-13, 4.8e-11 and 3.0e-7
on blur side 48 at the same deltas. Keeping more modes shrinks y_perp.

The writers are write_csv, write_json and write_manifest. CSV cells are
printed with repr-exact precision (%.17g) and manifests are JSON with sorted
keys and no timestamps, so reruns are byte-identical.

Start-up: the records are NamedTuples, statistics is imported inside
run_sample_study, so a command that does not run it does not load it, and
the Monte Carlo cells run on plain threads, so no command loads
concurrent.futures (and, through it, logging). Only run_montecarlo and
run_sample_study draw batches of seeds, whose uniforms come from
numpy.random's C fill through one generator per thread; run_sweep and
run_table draw one seed at a time through add_noise, whose uniforms problems
computes in numpy arithmetic, so they never load numpy.random (a 6-10 ms,
1.8 MB import).
"""

import json
import math
import os
import threading
from typing import List, NamedTuple

import numpy as np

from . import __version__
from .errors import DegenerateSample, DomainError, _integer, _real, _sequence
from .params import adaptive_select, rule_lambda
from .problems import add_noise, build_fredholm, noise_sigma, standard_normal, stream_seed
from .spectral import _check_lambda, decompose, filter_errors
from .tikhonov import error_report, spectral_solver

# reps are processed in batches, one noise block drawn in one call per
# batch, whose widest array fits _BATCH_BYTES, with at least one row: a row
# of the sine route's complex FFT takes 16 (n + 1) bytes, twice a noise row
# and more than the Kronecker route's two side x side products (32 rows at
# n = 500, 8 at n = 2000, 7 at blur side 48, 1 at n = 40000). Only a
# batch's projection outlives it, so a cell at n = 500 or 2000 peaks under
# 0.8 MB traced and a second worker costs little resident memory. The width
# depends on n alone, so the thread count cannot change any bit. The sine and
# Kronecker routes project each row on its own and filter_errors sums each
# rep on its own, so on those routes the width moves no bit either
_BATCH_BYTES = 1 << 18

# most lambda grid points a sweep takes: each one is a spectral solve and a
# CSV row, and the cap is checked before the grid is allocated
_GRID_CAP = 100_000

# most repetitions a Monte Carlo cell or a sample study takes, checked before
# any build or decomposition. Per rep, a cell holds its two float64 errors
# (17 B traced at n = 60, 200000 reps) and a study three float64 arrays (the
# samples, their standardized sorted copy and the normal quantiles) plus
# np.corrcoef's copies of two of them, which set its peak (48 B traced on
# numpy 2.4); a whole 10^6-rep study command at n = 60 peaks at 83 MB resident
_REPS_CAP = 1_000_000


# ===========================================================================
# result records
# ===========================================================================

class SweepResult(NamedTuple):
    lambdas: np.ndarray          # grid, strictly increasing
    output_errors: np.ndarray    # n^{-1/2} ||A x_lam - A x*|| per grid point
    lambda_pred: float
    err_at_pred: float
    err_min: float
    argmin_lambda: float


class MonteCarloCell(NamedTuple):
    n: int
    delta: float
    lam: float
    mean_scaled_output: float
    mean_scaled_b: float
    reps: int


class MonteCarloSummary(NamedTuple):
    cells: List[MonteCarloCell]
    slope_output: float
    slope_b: float
    intercept_output: float
    intercept_b: float


class SampleStudy(NamedTuple):
    samples: np.ndarray          # scaled output errors, one per repetition
    bin_edges: np.ndarray
    bin_counts: np.ndarray
    qq_theoretical: np.ndarray   # standard normal quantiles at (i - 1/2)/reps
    qq_sample: np.ndarray        # sorted standardized samples
    qq_correlation: float


class TableRow(NamedTuple):
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
# near-optimality sweep
# ===========================================================================

def run_sweep(instance, delta, seed, grid, rule="rho0", alpha=4.0, constant_c=1.0):
    """Scaled output error along a log-equispaced lambda grid for one noise draw.

    The draw is add_noise(instance, delta, seed), which checks delta and seed.
    grid is (lo, hi, count) with finite 0 < lo < hi and 2 <= count <= 100000
    (a larger count raises SizeCap), all checked before the noise draw. b and
    b - y are projected once, and each grid point and the prediction read
    n^{-1/2} ||A(x_lam - x*)|| from spectral.filter_errors, as the Monte Carlo
    and study drivers and the solver do, in O(m) per lambda; no solution
    vector is formed. The predicted parameter comes from the chosen a-priori
    rule evaluated with the true sigma and ||x*||_W (it need not lie on the
    grid). At sigma > 0 one that is not finite and positive, a rule lambda
    that underflows to 0 included, raises NonFiniteLambda before the
    decomposition; at sigma = 0 the rule gives 0, and the prediction is 0
    with a NaN error. The errors leave out ||y_perp||^2 (module docstring).
    """
    lo, hi, count = grid
    lo = _real(lo, "grid needs finite 0 < lo < hi; lo", 0)
    hi = _real(hi, "grid needs finite 0 < lo < hi; hi", lo)
    count = _integer(count, "grid count", 2, cap=_GRID_CAP)
    lambdas = np.logspace(math.log10(lo), math.log10(hi), count)
    data = add_noise(instance, delta, seed)
    lam_pred = rule_lambda(rule, alpha, instance, data.sigma, constant_c)
    # sigma == 0 makes the rule return 0, which filter_errors rejects; keep
    # the grid results and leave the prediction column empty. At sigma > 0 a
    # rule lambda that underflowed to 0 is rejected like any other
    if data.sigma > 0:
        _check_lambda(lam_pred)
    decomp = decompose(instance)
    d, d_noise = decomp.project(data.b), decomp.project(data.b - instance.y)

    def out_sq(lam):
        return filter_errors(decomp, d, d_noise, lam)[1]

    output_errors = np.sqrt([out_sq(lam) for lam in lambdas]) / math.sqrt(instance.n)
    err_at_pred = math.sqrt(out_sq(lam_pred) if lam_pred else math.nan) / math.sqrt(instance.n)
    k_min = int(np.argmin(output_errors))
    return SweepResult(
        lambdas=lambdas,
        output_errors=output_errors,
        lambda_pred=float(lam_pred),
        err_at_pred=float(err_at_pred),
        err_min=float(output_errors[k_min]),
        argmin_lambda=float(lambdas[k_min]),
    )


# ===========================================================================
# Monte Carlo mean errors and slope fit
# ===========================================================================

def _scaled_errors(instance, decomp, sigma, delta, lam, reps, master_seed):
    # Per-rep n^{-1/2} ||A(x_r - x*)|| and n^{-1/2} ||B(x_r - x*)|| at one lambda,
    # x_r solving b = y + sigma xi_r: one noise block and one projection per
    # batch of reps (see _BATCH_BYTES), one row per rep, measured by
    # filter_errors. A delta so large that an error overflows float64 raises
    # DomainError instead of passing inf on.
    n = instance.n
    batch = max(1, _BATCH_BYTES // (16 * (n + 1)))
    d_clean = decomp.project(instance.y)
    out_sq = np.empty(reps, dtype=np.float64)
    b_sq = np.empty(reps, dtype=np.float64)
    for lo in range(0, reps, batch):
        hi = min(lo + batch, reps)
        seeds = stream_seed(master_seed, n, delta, range(lo, hi))
        with np.errstate(over="ignore", invalid="ignore"):
            # the noise block dies once projected, and d_noise is scaled in
            # place (the bits of sigma * d_noise). d_noise alone, at most
            # half the widest array, lives on until the next batch replaces
            # it: freeing it too leaves a whole batch free at the top of the
            # heap, which glibc's malloc then trims and faults back in every
            # batch on some heap layouts
            d_noise = decomp.project(standard_normal(seeds, n))
            d_noise *= sigma
            out_sq[lo:hi], b_sq[lo:hi] = filter_errors(decomp, d_clean + d_noise, d_noise, lam)[1:]
        if not (np.isfinite(out_sq[lo:hi]).all() and np.isfinite(b_sq[lo:hi]).all()):
            raise DomainError(f"delta = {delta!r} (sigma = {sigma!r}) makes the scaled errors "
                              f"overflow float64")
    # finished in place: the same two roundings as np.sqrt(v) / math.sqrt(n)
    for v in (out_sq, b_sq):
        np.sqrt(v, out=v)
        v /= math.sqrt(n)
    return out_sq, b_sq


def _instances(ns, deltas, master_seed, problem):
    # (n, problem(n)) pairs, built one at a time as they are iterated: one
    # instance per size, shared by that size's deltas. A repeated size or two
    # deltas with one stream key would give two cells the same noise, so both
    # are rejected here, before any build, as is an empty list, which would
    # give no cell at all
    if not (len(ns) and len(deltas)):
        raise DomainError(f"sizes {list(ns)} and deltas {list(deltas)} must both be nonempty")
    ns = [_integer(n, "size") for n in ns]
    if len(set(ns)) < len(ns):
        raise DomainError(f"sizes {list(ns)} repeat a size")
    if len({stream_seed(master_seed, 0, d, 0) for d in deltas}) < len(deltas):
        raise DomainError(f"deltas {list(deltas)} include two that share one noise stream")
    return ((n, problem(n)) for n in ns)


def _map_in_order(fn, items, threads):
    # [fn(x) for x in items], on min(threads, len(items)) plain threads that
    # each take the next index under a lock. After a failure no worker takes
    # a new index, and every lower index was taken already, so the error
    # raised is the earliest failing item's, as in the serial loop
    results, errors = [None] * len(items), {}
    lock, indices = threading.Lock(), iter(range(len(items)))

    def work():
        while True:
            with lock:
                k = None if errors else next(indices, None)
            if k is None:
                return
            try:
                results[k] = fn(items[k])
            except BaseException as exc:
                with lock:
                    errors[k] = exc

    workers = [threading.Thread(target=work) for _ in range(min(threads, len(items)))]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    if errors:
        raise errors[min(errors)]
    return results


def run_montecarlo(ns, deltas, reps, rule="rho0", constant_c=1.0, master_seed=0,
                   alpha=4.0, threads=1, problem=build_fredholm):
    """Mean scaled errors per (n, delta) cell plus pooled log-log slope fits.

    One instance and one decomposition per n, shared across that n's cells;
    rep r of cell (n, delta) reads noise stream stream_seed(master_seed, n,
    delta, r), and repeated sizes or deltas that share a stream are
    rejected. Cells run on min(threads, cells) plain threads and are reduced
    in (ns x deltas) order, so `threads` affects wall time only; of several
    failing cells, the earliest in that order raises at any thread count.
    More than 1000000 reps raise SizeCap, and ns or deltas that is not a
    sequence (a number, None) DomainError, before any build; the sizes are
    built one at a time and each size's lambdas are evaluated right after
    its build, so one that is not finite and positive raises NonFiniteLambda
    before the next build and before any decomposition; and a delta so large
    that a scaled error overflows float64 raises DomainError. The errors
    leave out ||y_perp||^2 (module docstring).
    """
    reps, threads = _integer(reps, "reps", 2, cap=_REPS_CAP), _integer(threads, "threads", 1)
    ns = _sequence(ns, "ns")
    deltas = [_real(d, "deltas", 0) for d in _sequence(deltas, "deltas")]
    insts, grid = {}, []
    for n, inst in _instances(ns, deltas, master_seed, problem):
        insts[n] = inst
        for delta in deltas:
            sigma = noise_sigma(inst, delta)
            lam = _check_lambda(rule_lambda(rule, alpha, inst, sigma, constant_c))
            grid.append((n, delta, sigma, lam))
    decomps = {n: decompose(inst) for n, inst in insts.items()}

    def one_cell(cell):
        n, delta, sigma, lam = cell
        out, berr = _scaled_errors(insts[n], decomps[n], sigma, delta, lam, reps, master_seed)
        return MonteCarloCell(
            n=n, delta=delta, lam=lam,
            mean_scaled_output=float(np.mean(out)), mean_scaled_b=float(np.mean(berr)), reps=reps,
        )

    cells = _map_in_order(one_cell, grid, threads)
    log_lam = np.log([c.lam for c in cells])
    # not np.unique(log_lam).size >= 2: on numpy 2 that imports numpy.ma
    if np.ptp(log_lam) > 0:
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
    standardized sample against quantiles at (i - 1/2)/reps. A lambda that is
    not finite and positive raises NonFiniteLambda, a delta that noise_sigma
    rejects (negative or not finite) or that has no noise stream of its own
    (stream_seed), or a bin count outside 1..reps DomainError, and more than 1000000 reps SizeCap,
    all before the decomposition. delta = 0 draws no noise, so every sample
    is the same and DegenerateSample follows; a delta so large that a sample
    overflows float64 raises DomainError. The samples leave out ||y_perp||^2
    (module docstring).
    """
    reps = _integer(reps, "reps", 100, cap=_REPS_CAP)
    sigma = noise_sigma(instance, delta)
    stream_seed(master_seed, instance.n, delta, 0)
    bins = _integer(bins, "bins", 1, reps + 1, f"between 1 and reps = {reps}")
    lam = _check_lambda(lam)
    # the b-errors are dropped at once; from here on every per-rep value is
    # held in one of three float64 arrays, with no Python float per rep
    samples = _scaled_errors(instance, decompose(instance), sigma, delta, lam, reps,
                             master_seed)[0]
    sd = float(np.std(samples, ddof=1))
    # ptp catches the all-identical case where the subtracted mean is off by
    # an ulp and the naive sd comes out ~1e-21 instead of exactly zero
    if sd == 0.0 or float(np.ptp(samples)) == 0.0:
        raise DegenerateSample("all error samples are identical; standardization is undefined")
    counts, edges = np.histogram(samples, bins=bins)
    standardized = samples - float(np.mean(samples))
    standardized /= sd
    standardized.sort()
    # imported here, not at module level: no other command then loads it, decimal and fractions
    from statistics import NormalDist

    # Wichura's AS241 in the stdlib, within a few ulp of scipy.special.ndtri
    # and without its 0.3 s import; (i - 0.5) / reps on Python numbers is the
    # same double as numpy's (arange(1, reps + 1) - 0.5) / reps
    inv_cdf = NormalDist().inv_cdf
    theo = np.fromiter((inv_cdf((i - 0.5) / reps) for i in range(1, reps + 1)),
                       dtype=np.float64, count=reps)
    # np.corrcoef's copies of theo and standardized set this function's peak
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

    One instance and one decomposition per n, shared across that n's rows,
    and one spectral_solver per row; the iteration runs on the spectral
    route, O(m) per lambda, and error_report forms x once per row, at its
    final lambda.
    Rows come out grouped by delta (outer) then n (inner), and each carries
    the iteration's terminated. The noise stream of a row is
    stream_seed(master_seed, n, delta, 0), so repeated sizes and deltas that
    share a stream are rejected, as are ns or deltas that is not a sequence
    (DomainError), before any build.
    """
    ns, deltas = _sequence(ns, "ns"), _sequence(deltas, "deltas")
    insts = dict(_instances(ns, deltas, master_seed, problem))
    decomps = {n: decompose(inst) for n, inst in insts.items()}
    rows = []
    for delta in deltas:
        for n in ns:
            inst = insts[n]
            data = add_noise(inst, delta, stream_seed(master_seed, n, delta, 0))
            trace = adaptive_select(inst, cfg, spectral_solver(decomps[n], inst, data.b))
            report = error_report(inst, decomps[n], trace.final, data.b)
            rows.append(TableRow(
                delta=delta, n=n, sigma=data.sigma,
                lam=trace.final.lam, iters=trace.iters,
                rel_x=report.rel_x, rel_ax=report.rel_ax, rel_res=report.rel_res,
                terminated=trace.terminated,
            ))
    return rows


# ===========================================================================
# file output: CSV, JSON, manifest
# ===========================================================================

def _fmt(v):
    if type(v) is float:                   # the common cell, ahead of the isinstance chain
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


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

