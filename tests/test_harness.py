import json
import math
import os
import re
import threading
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from tikhreg import (
    DegenerateSample,
    DomainError,
    NonFiniteLambda,
    SizeCap,
    add_noise,
    adaptive_select,
    build_blur,
    build_fredholm,
    decompose,
    filter_errors,
    noise_sigma,
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
    standard_normal,
    stream_seed,
)
from tikhreg import harness
from tikhreg.harness import (
    _BATCH_BYTES,
    _GRID_CAP,
    _REPS_CAP,
    rule_lambda,
    write_csv,
    write_json,
    write_manifest,
)
from tikhreg.params import AdaptiveConfig
from tikhreg.tikhonov import spectral_solver

from reference import b_seminorm_sq, error_moments, solve_direct


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_grid_validation(fred100):
    with pytest.raises(DomainError):
        run_sweep(fred100, 0.05, 1, (1e-4, 1e-8, 10))
    with pytest.raises(DomainError):
        run_sweep(fred100, 0.05, 1, (0.0, 1e-4, 10))
    with pytest.raises(DomainError):
        run_sweep(fred100, 0.05, 1, (1e-8, 1e-4, 1))


def test_sweep_shape_and_prediction(fred100):
    res = run_sweep(fred100, 0.05, 1, (1e-9, 1e-3, 13),
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
    res = run_sweep(fred100, 0.0, 1, (1e-12, 1.0, 30))
    assert np.all(np.diff(res.output_errors) >= 0)
    assert res.argmin_lambda == res.lambdas[0]
    assert res.lambda_pred == 0.0
    assert math.isnan(res.err_at_pred)


def test_sweep_reads_the_spectral_route_output_error(monkeypatch, fred100):
    # one formula: the sweep's filter_errors values agree with the n-space
    # ||A x_lam - A x*|| of the spectral solver, which the sweep never calls
    def no_solver(*_):
        raise AssertionError("run_sweep builds no solver")

    monkeypatch.setattr("tikhreg.harness.spectral_solver", no_solver)
    res = run_sweep(fred100, 0.05, 1, (1e-9, 1e-3, 13))
    solver = spectral_solver(decompose(fred100), fred100, add_noise(fred100, 0.05, 1).b)
    expected = [solver(lam).output_err / math.sqrt(100) for lam in res.lambdas]
    assert res.output_errors == pytest.approx(expected, rel=1e-10)
    assert res.err_at_pred == pytest.approx(
        solver(res.lambda_pred).output_err / math.sqrt(100), rel=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sweep_and_solver_agree_at_the_predicted_lambda(seed):
    # the drivers sum the retained modes only; the solver adds ||y_perp||^2.
    # On the sine route y_perp^2/out^2 is below 1e-18 at these deltas, so
    # the two agree bit for bit; on the Kronecker route at delta = 1e-4 it is
    # about 2e-7, and the driver's value lies below the solver's by half that
    fred, blur = build_fredholm(500), build_blur(16, 2.0)
    for inst, delta, rel in [(fred, 0.1, 0.0), (fred, 0.01, 0.0), (blur, 1e-4, 1e-6)]:
        res = run_sweep(inst, delta, seed, (1e-10, 1e-4, 2))
        solver = spectral_solver(decompose(inst), inst, add_noise(inst, delta, seed).b)
        want = solver(res.lambda_pred).output_err / math.sqrt(inst.n)
        assert res.err_at_pred <= want
        assert want - res.err_at_pred <= rel * want


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


@pytest.mark.parametrize("deltas", [[0.01, 0.0100004], [1e-7, 0.01], [0.1, 0.1]])
def test_drivers_reject_deltas_sharing_a_noise_stream(deltas):
    with pytest.raises(DomainError):
        run_montecarlo([60], deltas, 2)
    cfg = AdaptiveConfig(alpha=2.0)
    with pytest.raises(DomainError):
        run_table([60], deltas, cfg)


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
        x = dec.expand(spectral_solver(dec, inst, b)(lam).c)
        outs.append(np.linalg.norm(inst.dense_a() @ x - inst.y) / math.sqrt(n))
        bs.append(math.sqrt(b_seminorm_sq(dec, x - inst.x_star, inst.w) / n))
    assert cell.mean_scaled_output == pytest.approx(np.mean(outs), rel=1e-9)
    assert cell.mean_scaled_b == pytest.approx(np.mean(bs), rel=1e-9)
    assert cell.reps == reps


def _per_rep_scaled_errors(inst, delta, lam, reps, master):
    # batch-free reference for _scaled_errors: one one-seed draw, one vector
    # projection and one vector filter_errors call per rep
    n = inst.n
    dec = decompose(inst)
    sigma = noise_sigma(inst, delta)
    d_clean = dec.project(inst.y)
    out_sq, b_sq = [], []
    for rep in range(reps):
        xi = standard_normal(stream_seed(master, n, delta, rep), n)
        d_noise = sigma * dec.project(xi)
        _, o, b = filter_errors(dec, d_clean + d_noise, d_noise, lam)
        out_sq.append(o)
        b_sq.append(b)
    return np.sqrt(out_sq) / math.sqrt(n), np.sqrt(b_sq) / math.sqrt(n)


def _batch_rows(n):
    # the batch width of _scaled_errors
    return max(1, _BATCH_BYTES // (16 * (n + 1)))


_build_blur = partial(build_blur, psf_width=2.0)


@pytest.mark.parametrize("build, size", [(build_fredholm, 300), (_build_blur, 16)],
                         ids=["fredholm", "blur"])
@pytest.mark.parametrize("delta", [0.1, 0.001])
def test_montecarlo_errors_match_exact_moments(build, size, delta):
    # for Gaussian noise the squared errors of a rep are quadratic forms in
    # iid N(0, 1) variables, whose exact mean and variance error_moments
    # gives; the means over the documented streams stay within 4 standard
    # errors of the exact means, and no two reps share a draw
    inst = build(size)
    dec = decompose(inst)
    reps = 4000
    sigma = noise_sigma(inst, delta)
    lam = rule_lambda("rho0", 4.0, inst, sigma, 1.0)
    out, berr = harness._scaled_errors(inst, dec, sigma, delta, lam, reps, 0)
    moments = error_moments(dec, dec.project(inst.y), sigma, lam)
    for scaled, (mean, var) in zip((out, berr), moments):
        z = (float(np.mean(scaled**2 * inst.n)) - mean) / math.sqrt(var / reps)
        assert abs(z) <= 4.0, (inst.label, delta, z)
    assert np.unique(out).size == reps


def test_batched_noise_draws_change_no_bit():
    # every rep, in a full batch or in a last batch of 1 or 3 rows, has the
    # bits of its own one-seed draw, projection and errors call
    master = 31
    cases = [(build_fredholm, 61), (build_fredholm, 1000), (_build_blur, 12), (_build_blur, 48)]
    for build, size in cases:
        inst = build(size)
        batch = _batch_rows(inst.n)
        for tail in (1, 3):
            reps = batch * -(-100 // batch) + tail
            study = run_sample_study(inst, 0.05, 1e-7, reps, master_seed=master)
            want = _per_rep_scaled_errors(inst, 0.05, 1e-7, reps, master)[0]
            assert np.array_equal(study.samples, want), (inst.label, size, tail)

            cell = run_montecarlo([size], [0.01], reps, master_seed=master, problem=build).cells[0]
            out, berr = _per_rep_scaled_errors(inst, 0.01, cell.lam, reps, master)
            assert cell.mean_scaled_output == float(np.mean(out)), (inst.label, size, tail)
            assert cell.mean_scaled_b == float(np.mean(berr)), (inst.label, size, tail)


@pytest.mark.parametrize("problem, size, rows", [
    (build_fredholm, 500, 32),        # the noise_study size
    (build_fredholm, 2000, 8),
    (_build_blur, 48, 7),
    (build_fredholm, 60, 268),
    (build_fredholm, 2, 5461),
], ids=["fredholm-500", "fredholm-2000", "blur-48", "fredholm-60", "fredholm-2"])
def test_noise_batch_rows_follow_the_byte_bound(monkeypatch, problem, size, rows):
    # max(1, _BATCH_BYTES // (16 (n + 1))) rows, one row of the sine route's
    # complex FFT each: the byte bound is the only cap
    widths = []

    def spy(seeds, count):
        widths.append(len(seeds))
        return standard_normal(seeds, count)

    monkeypatch.setattr(harness, "standard_normal", spy)
    run_montecarlo([size], [0.01], rows + 3, problem=problem)
    assert widths == [rows, 3]


@pytest.mark.parametrize("build, size", [(build_fredholm, 1000), (_build_blur, 48)],
                         ids=["fredholm", "blur"])
def test_the_byte_bound_moves_no_bit(monkeypatch, build, size):
    # 8 KB gives one row per batch at these sizes, 1 MB 65 (Fredholm) or 28 (blur)
    inst = build(size)
    results = []
    for bound in (8 << 10, 1 << 20, _BATCH_BYTES):
        monkeypatch.setattr(harness, "_BATCH_BYTES", bound)
        study = run_sample_study(inst, 0.05, 1e-7, 100, master_seed=3)
        mc = run_montecarlo([size], [0.1, 0.01], 70, master_seed=3, problem=build)
        results.append((study.samples.tolist(), study.qq_correlation,
                        [(c.mean_scaled_output, c.mean_scaled_b) for c in mc.cells],
                        mc.slope_output, mc.slope_b))
    assert results[0] == results[1] == results[2]


def test_montecarlo_at_the_size_cap_holds_a_bounded_noise_batch():
    # one row of 40000 normals per batch; a 64-row block at this n, with its
    # length-80000 FFT and the filter temporaries, would peak near 60 MB
    tracemalloc.start()
    try:
        run_montecarlo([40000], [0.01], 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("n", [2, 60])
def test_montecarlo_cell_at_small_n_holds_a_bounded_noise_batch(n):
    # the byte bound widens the batch as n falls (5461 rows at n = 2, 268
    # at n = 60); a full batch and a tail stay under the size-cap bound
    reps = _batch_rows(n) + 3
    standard_normal([0], 2)                # numpy.random's lazy import is not the cell's
    tracemalloc.start()
    try:
        run_montecarlo([n], [0.01], reps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _fredholm_cell(n):
    # one 200-rep _scaled_errors cell at delta = 0.01 and the rule's lambda
    inst = build_fredholm(n)
    dec = decompose(inst)
    sigma = noise_sigma(inst, 0.01)
    lam = rule_lambda("rho0", 4.0, inst, sigma, 1.0)
    return partial(harness._scaled_errors, inst, dec, sigma, 0.01, lam, 200, 0)


@pytest.mark.parametrize("n", [500, 2000])
def test_a_cell_peaks_under_four_byte_bounds(n):
    # a batch's widest array, the sine route's FFT, fits the byte bound;
    # a bound on the noise block alone (twice the rows) peaks above 1 MB
    cell = _fredholm_cell(n)
    cell()                                 # numpy.random and this thread's generator
    assert _traced_peak(cell) < 4 * _BATCH_BYTES


@pytest.mark.parametrize("n", [500, 2000])
def test_only_the_projection_outlives_its_batch(monkeypatch, n):
    # the traced memory in use as each draw starts: a later draw finds what
    # the first found plus the last batch's (rows, m) projection, and the
    # last noise block (rows x n float64) or filter output would show
    live = []

    def spy(seeds, count):
        live.append(tracemalloc.get_traced_memory()[0])
        return standard_normal(seeds, count)

    monkeypatch.setattr(harness, "standard_normal", spy)
    cell = _fredholm_cell(n)
    cell()
    live.clear()
    _traced_peak(cell)
    projection = 8 * _batch_rows(n) * decompose(build_fredholm(n)).m
    assert len(live) > 2 and max(live[1:]) - live[0] < projection + 4096, live


def test_a_two_worker_grid_peaks_under_eight_byte_bounds():
    # two workers, each holding one batch at a time, and the grid's own
    # instances and decompositions
    grid = partial(run_montecarlo, [500, 2000], [0.1, 0.01], 200, threads=2)
    grid()
    assert _traced_peak(grid) < 8 * _BATCH_BYTES


@pytest.mark.parametrize("threads", [1, 2])
def test_each_worker_builds_one_philox_generator(monkeypatch, threads):
    # 200 reps are 7 batches per n = 500 cell; a worker thread builds its
    # generator at its first batch and re-keys it for every later one
    builders = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        builders.append(threading.current_thread())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    run_montecarlo([500, 60], [0.1, 0.01], 200, threads=threads)
    assert 1 <= len(builders) <= threads
    assert len(set(builders)) == len(builders)


def test_montecarlo_cell_holds_two_float64_per_rep():
    # the output and b errors, finished in place, and nothing else per rep;
    # the slope of the traced peak between 10000 and 30000 reps leaves the
    # fixed overhead out
    run_montecarlo([60], [0.01], 100, threads=1)
    peaks = []
    for reps in (10000, 30000):
        tracemalloc.start()
        try:
            run_montecarlo([60], [0.01], reps, threads=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 20000 < 20


def test_drivers_reject_a_delta_whose_errors_overflow(fred100):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="delta = 1e"):
            run_montecarlo([60, 100], [1e300], 4)
        with pytest.raises(DomainError, match="delta = 1e"):
            run_sample_study(fred100, 1e300, 1e-6, 100)
        with pytest.raises(DomainError, match="delta = 1e"):
            run_sweep(fred100, 1e300, 0, (1e-8, 1e-4, 3))
        with pytest.raises(DomainError, match="delta = 1e"):
            run_table([60], [1e300], AdaptiveConfig(alpha=2.0))


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_montecarlo_raises_the_earliest_failing_cell(threads):
    # all four cells overflow; the first in grid order is (60, 1e300) at any
    # thread count, where a first-to-fail-in-time rule would sometimes name 1e+299
    for _ in range(3):
        with pytest.raises(DomainError, match=re.escape("delta = 1e+300 ")):
            run_montecarlo([60, 100], [1e300, 1e299], 4, threads=threads)


def test_montecarlo_takes_no_cell_after_a_failure(monkeypatch):
    # cell 0 fails only once cell 1 is failing: the error is cell 0's, and no
    # worker starts cell 2 or later once cell 1 has failed
    started, cell_1_failing = [], threading.Event()

    def fail(instance, decomp, sigma, delta, lam, reps, master_seed):
        started.append(delta)
        if delta == 0.1:
            assert cell_1_failing.wait(timeout=60)
        else:
            cell_1_failing.set()
        raise DomainError(f"cell {delta!r}")

    monkeypatch.setattr(harness, "_scaled_errors", fail)
    with pytest.raises(DomainError, match="cell 0.1$"):
        run_montecarlo([60, 100], [0.1, 0.01, 0.001], 4, threads=2)
    assert sorted(started) == [0.01, 0.1]


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


@pytest.mark.parametrize("reps", [150, 151])
def test_study_qq_quantiles_are_inv_cdf_of_the_plotting_positions(fred100, reps):
    from statistics import NormalDist

    probs = ((np.arange(1, reps + 1) - 0.5) / reps).tolist()
    want = np.array([NormalDist().inv_cdf(p) for p in probs])
    got = run_sample_study(fred100, 0.05, 1e-6, reps, master_seed=4).qq_theoretical
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def test_study_samples_are_scaled_output_errors(fred100):
    s = run_sample_study(fred100, 0.05, 1e-6, 120, master_seed=5)
    dec = decompose(fred100)
    sigma = 0.05 * np.linalg.norm(fred100.y) / math.sqrt(100)
    seed = stream_seed(5, 100, 0.05, 0)
    b = fred100.y + sigma * standard_normal(seed, 100)
    x = dec.expand(spectral_solver(dec, fred100, b)(1e-6).c)
    want = np.linalg.norm(fred100.dense_a() @ x - fred100.y) / math.sqrt(100)
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


def test_drivers_reject_a_repeated_size():
    with pytest.raises(DomainError):
        run_montecarlo([60, 60], [0.1], 4)
    with pytest.raises(DomainError):
        run_table([60, 60], [0.1], AdaptiveConfig(alpha=2.0))


@pytest.mark.parametrize("ns, deltas", [([], [0.1]), ([60], []), ([], [])])
def test_drivers_reject_an_empty_size_or_delta_list(ns, deltas):
    # no cell at all would write a header-only CSV and NaN slopes
    def no_build(n):
        raise AssertionError("built an instance for an empty grid")

    with pytest.raises(DomainError, match="nonempty"):
        run_montecarlo(ns, deltas, 4, problem=no_build)
    with pytest.raises(DomainError, match="nonempty"):
        run_table(ns, deltas, AdaptiveConfig(alpha=2.0), problem=no_build)


def test_table_builds_each_size_once():
    calls = []

    def counting(n):
        calls.append(n)
        return build_fredholm(n)

    rows = run_table([40, 60], [0.1, 0.01], AdaptiveConfig(alpha=2.0), problem=counting)
    assert len(rows) == 4
    assert sorted(calls) == [40, 60]


@pytest.mark.parametrize("alpha", [2.0, 4.0])
def test_table_rows_match_the_direct_route(alpha):
    """The spectral iteration retraces the normal-equations reference, whose
    solution carries x itself."""
    ns, deltas = [60, 100, 200], [0.1, 0.01, 0.001]
    cfg = AdaptiveConfig(alpha=alpha, constant_c=1.0, tol=1e-10, stop_mode="absolute")
    rows = run_table(ns, deltas, cfg, master_seed=0)
    assert [(r.delta, r.n) for r in rows] == [(d, n) for d in deltas for n in ns]
    for row in rows:
        inst = build_fredholm(row.n)
        data = add_noise(inst, row.delta, stream_seed(0, row.n, row.delta, 0))
        trace = adaptive_select(inst, cfg, partial(solve_direct, inst, data.b))
        final = trace.final
        rel_x = np.linalg.norm(final.x - inst.x_star) / np.linalg.norm(inst.x_star)
        assert row.iters == trace.iters
        assert row.terminated == trace.terminated
        assert row.lam == pytest.approx(final.lam, rel=1e-7)
        assert row.rel_x == pytest.approx(rel_x, rel=1e-7)
        assert row.rel_res == pytest.approx(final.residual_b / np.linalg.norm(data.b), rel=1e-7)


@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, math.inf])
def test_study_rejects_a_lambda_that_is_not_finite_and_positive(fred100, lam):
    with pytest.raises(NonFiniteLambda):
        run_sample_study(fred100, 0.05, lam, 120)


@pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan])
def test_study_rejects_a_bad_lambda_before_decomposing(monkeypatch, fred100, lam):
    calls = []
    monkeypatch.setattr("tikhreg.harness.decompose", lambda inst: calls.append(inst))
    with pytest.raises(NonFiniteLambda):
        run_sample_study(fred100, 0.05, lam, 120)
    assert calls == []


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------

def test_write_csv_full_precision(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["a", "b", "c"], [(1, 0.1, 1.0 / 3.0)])
    text = path.read_text()
    assert text.splitlines()[0] == "a,b,c"
    assert "0.10000000000000001" in text
    assert "0.33333333333333331" in text
    assert text.splitlines()[1].split(",")[0] == "1"
    # round-trips exactly
    back = float(text.splitlines()[1].split(",")[1])
    assert back == 0.1


def _per_cell_fmt(v):
    # the reference cell format: ints (bool and numpy ints too) as integers,
    # floats (np.float64 too) with 17 significant digits, anything else by str
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def test_write_csv_bytes_equal_the_per_cell_reference(tmp_path):
    rows = [
        (3, np.int64(-7), True, 0.1, np.float64(1.0 / 3.0), math.nan, math.inf, "x"),
        (-0.0, np.float64(-math.inf), np.float32(0.5), False, 2**70, np.uint64(2**64 - 1), "", 1e-300),
    ]
    path = tmp_path / "t.csv"
    write_csv(str(path), list("abcdefgh"), rows)
    want = "a,b,c,d,e,f,g,h\n" + "".join(",".join(_per_cell_fmt(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == want.encode()
    assert want.splitlines()[1] == "3,-7,1,0.10000000000000001,0.33333333333333331,nan,inf,x"


def test_write_json_sorted_and_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json(str(path), {"zeta": 1, "alpha": 2.5})
    text = path.read_text()
    assert text.index('"alpha"') < text.index('"zeta"')
    assert text.endswith("\n")
    assert json.loads(text) == {"zeta": 1, "alpha": 2.5}


def test_manifest_contents(tmp_path):
    out = str(tmp_path)
    write_manifest(out, "solve", {"n": 100, "lam": 1e-6}, ["b.csv", "a.csv"])
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["command"] == "solve"
    assert doc["outputs"] == ["a.csv", "b.csv"]
    assert doc["params"] == {"n": 100, "lam": 1e-6}
    assert "version" in doc
    assert not any("time" in k.lower() or "date" in k.lower() for k in doc)


@pytest.mark.parametrize("threads", [0, -1])
def test_montecarlo_rejects_threads_below_one(threads):
    with pytest.raises(DomainError):
        run_montecarlo([60], [0.1], 4, threads=threads)


# 121 is one more bin than the 120 reps
@pytest.mark.parametrize("bins", [0, -3, 121])
def test_study_rejects_bins_below_one_before_decomposing(monkeypatch, fred100, bins):
    calls = []
    monkeypatch.setattr("tikhreg.harness.decompose", lambda inst: calls.append(inst))
    with pytest.raises(DomainError, match="bins"):
        run_sample_study(fred100, 0.05, 1e-6, 120, bins=bins)
    assert calls == []


def test_sweep_grid_count_above_cap_rejected_before_decomposing(monkeypatch, fred20):
    # one past the cap: small enough that code without the cap fails fast on the spy
    def spy(inst):
        raise AssertionError("decomposed before the grid count was checked")

    monkeypatch.setattr("tikhreg.harness.decompose", spy)
    with pytest.raises(SizeCap, match="grid count"):
        run_sweep(fred20, 0.01, 0, (1e-10, 1e-4, _GRID_CAP + 1))


def _no_decompose(inst):
    raise AssertionError("decomposed before the arguments were checked")


def test_study_reps_above_cap_rejected_before_decomposing(monkeypatch, fred20):
    monkeypatch.setattr("tikhreg.harness.decompose", _no_decompose)
    with pytest.raises(SizeCap, match="reps"):
        run_sample_study(fred20, 0.05, 1e-6, _REPS_CAP + 1)


def test_montecarlo_rejects_a_bad_lambda_before_decomposing(monkeypatch):
    # --c 1e308 makes the rho0 rule's lambda overflow to inf at every size,
    # so the first size's lambda stops the run before the second size is built
    calls, builds = [], []

    def counting_build(n):
        builds.append(n)
        return build_fredholm(n)

    monkeypatch.setattr("tikhreg.harness.decompose", lambda inst: calls.append(inst))
    with pytest.raises(NonFiniteLambda):
        run_montecarlo([60, 100], [0.1], 4, constant_c=1e308, problem=counting_build)
    assert calls == []
    assert builds == [60]


def test_montecarlo_reps_above_cap_rejected_before_building():
    def no_build(n):
        raise AssertionError("built an instance before reps was checked")

    with pytest.raises(SizeCap, match="reps"):
        run_montecarlo([60], [0.1], _REPS_CAP + 1, problem=no_build)


# 1e303 is finite, but delta * 1e6 is not, so it has no noise stream of its own
@pytest.mark.parametrize("delta", [-0.05, math.nan, math.inf, 1e303])
def test_study_rejects_a_negative_or_nonfinite_delta_before_decomposing(monkeypatch, fred20, delta):
    monkeypatch.setattr("tikhreg.harness.decompose", _no_decompose)
    with pytest.raises(DomainError, match="delta"):
        run_sample_study(fred20, delta, 1e-6, 120)


def test_sweep_rejects_a_bad_predicted_lambda_before_decomposing(monkeypatch, fred20):
    # --c 1e308 makes the rho0 rule's lambda overflow to inf
    monkeypatch.setattr("tikhreg.harness.decompose", _no_decompose)
    with pytest.raises(NonFiniteLambda):
        run_sweep(fred20, 0.01, 0, (1e-10, 1e-2, 10), constant_c=1e308)


def test_sweep_rejects_a_rule_lambda_that_underflows_to_zero(monkeypatch):
    # sigma > 0 at delta = 1e-290, but the rho0 rule's lambda underflows to
    # 0.0; only sigma = 0 (test_sweep_noise_free) leaves the prediction empty
    inst = build_fredholm(60)
    assert noise_sigma(inst, 1e-290) > 0
    monkeypatch.setattr("tikhreg.harness.decompose", _no_decompose)
    with pytest.raises(NonFiniteLambda, match="got 0.0"):
        run_sweep(inst, 1e-290, 0, (1e-10, 1e-2, 10))


@pytest.mark.parametrize("grid", [(1e-10, math.inf, 10), (1e-10, math.nan, 10), (math.nan, 1e-4, 10)])
def test_sweep_rejects_a_bound_that_is_not_finite_before_drawing_noise(monkeypatch, fred20, grid):
    def no_noise(inst, delta, seed):
        raise AssertionError("drew noise before the grid was checked")

    monkeypatch.setattr("tikhreg.harness.decompose", _no_decompose)
    monkeypatch.setattr("tikhreg.harness.add_noise", no_noise)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite 0 < lo < hi"):
            run_sweep(fred20, 0.01, 0, grid)
