"""tikhreg benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each run of a workload starts a fresh process per CLI step (perfbench/child.py)
that imports tikhreg.cli from the checkout's src/ and calls main(argv). Runs
are sequential: a closed loop with one client and nothing else running. Runs
repeat while a typical run still ends within --seconds (at least three
runs, six with --trace 1). Every run's artifacts are checked, and all runs
of one invocation must write byte-identical artifacts.

--trace 0 reports the end-to-end metrics (medians over the runs):
wall_s, cpu_s, peak_rss_mb and setup_s. --trace 1 alternates untraced and
traced runs and reports the per-layer metrics of the traced runs (see
tracing.py) plus trace.overhead_s, the traced minus the untraced median
wall_s. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; attempted and failed count CLI
steps, output checks and determinism checks, so failed / attempted is the
fail_ratio. Exit code 0 when every check passed, 1 when any failed, 2 when
the benchmark could not start.

Every child runs with single-threaded BLAS (PINNED_ENV). A result file with
the samples, the environment (Python, numpy, scipy, BLAS, nproc, pinned
variables, commit, seed) and any failures goes to .perfbench_run/. So do the
spans of traced runs, one file per run id and step under
spans-<workload>-seed<seed>/run<id>/. See perfbench/README.md.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = ".perfbench_run"               # relative to ROOT, which is every child's cwd

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NPROC = len(os.sched_getaffinity(0))
MIN_RUNS = 3
# an invocation starts no run after LAST_START_S and kills any child still
# running at DEADLINE_S, so it ends within 180 s
LAST_START_S = 120.0
DEADLINE_S = 160.0

# criterion 7 of tests/test_acceptance.py: lambda target and rel_x cap per delta
TABLE_TARGETS = {0.1: (3.1888e-6, 0.178), 0.01: (1.4011e-7, 0.074)}
BLUR_SIDE = 48


# ---------------------------------------------------------------------------
# workloads: (step, tikhreg argv) pairs given the output directory of a step

def _steps_mc_grid(out):
    return [("mc", ["montecarlo", "--ns", "500,1000,2000", "--deltas", "1e-1,1e-2,1e-3,1e-4",
                    "--reps", "200", "--rule", "rho0", "--alpha", "4",
                    "--threads", str(min(2, NPROC))])]


def _steps_adaptive_table(out):
    return [("table", ["table", "--ns", "2000", "--deltas", "0.1,0.01", "--alpha", "2",
                       "--tol", "1e-10", "--stop", "absolute"])]


def _steps_blur_roundtrip(out):
    return [
        ("gen", ["generate", "--problem", "blur", "--side", str(BLUR_SIDE), "--psf-width", "2"]),
        ("spec", ["spectrum", "--prob", os.path.join(out("gen"), "instance.prob")]),
    ]


def _steps_noise_study(out):
    return [("study", ["study", "--n", "500", "--delta", "0.01", "--reps", "20000"])]


# ---------------------------------------------------------------------------
# output checks: (label, passed) pairs given the output directory of a step

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _within(value, lo, hi):
    return value is not None and lo <= value <= hi


def _check_mc_grid(out):
    cells = _read_csv(os.path.join(out("mc"), "mc_cells.csv"))
    fit = _read_json(os.path.join(out("mc"), "mc_fit.json"))
    return [
        ("12 cells", len(cells) == 12),
        ("reps = 200 in every cell", all(int(c["reps"]) == 200 for c in cells)),
        ("slope_output in [0.43, 0.57]", _within(fit["slope_output"], 0.43, 0.57)),
        ("slope_b in [0.20, 0.30]", _within(fit["slope_b"], 0.20, 0.30)),
    ]


def _check_adaptive_table(out):
    rows = _read_csv(os.path.join(out("table"), "table1.csv"))
    checks = [("rows for n = 2000 at delta 0.1 and 0.01",
               sorted((float(r["delta"]), int(r["n"])) for r in rows) == [(0.01, 2000), (0.1, 2000)])]
    for r in rows:
        delta, lam = float(r["delta"]), float(r["lambda"])
        lam_target, rel_x_cap = TABLE_TARGETS[delta]
        # table1.csv has no termination column; 20 iterations is far below
        # the 100-iteration cap, and a nonfinite stop cannot land lambda and
        # rel_res inside the bands below
        checks += [
            (f"delta={delta}: converged within 20 iterations", int(r["iters"]) <= 20),
            (f"delta={delta}: lambda within x5 of {lam_target}",
             _within(lam, lam_target / 5.0, lam_target * 5.0)),
            (f"delta={delta}: rel_res in [0.8, 1.2] delta",
             _within(float(r["rel_res"]), 0.8 * delta, 1.2 * delta)),
            (f"delta={delta}: rel_x <= {rel_x_cap}", float(r["rel_x"]) <= rel_x_cap),
        ]
    return checks


def _check_blur_roundtrip(out):
    prob = os.path.join(out("gen"), "instance.prob")
    with open(prob, "rb") as fh:
        header_len = int.from_bytes(fh.read(8), "little")
        n = json.loads(fh.read(header_len))["n"]
    rows = _read_csv(os.path.join(out("spec"), "spectrum.csv"))
    retained = _read_json(os.path.join(out("spec"), "spectrum.json"))["retained"]
    rho = [float(r["rho"]) for r in rows]
    envelope = [float(r["envelope"]) for r in rows]
    return [
        (f"n = {BLUR_SIDE}^2", n == BLUR_SIDE * BLUR_SIDE),
        (".prob size = 8 + header + 8(n^2 + 2n)",
         os.path.getsize(prob) == 8 + header_len + 8 * (n * n + 2 * n)),
        ("spectrum.csv has m rows", 0 < len(rows) == retained),
        ("rho positive", all(r > 0 for r in rho)),
        # Kronecker products repeat eigenvalues, so ties are allowed
        ("rho descending", all(a >= b for a, b in zip(rho, rho[1:]))),
        ("rho_k <= envelope_k on every row", all(r <= e for r, e in zip(rho, envelope))),
    ]


def _check_noise_study(out):
    study = _read_json(os.path.join(out("study"), "study.json"))
    qq_rows = _read_csv(os.path.join(out("study"), "study_qq.csv"))
    return [
        ("qq_correlation >= 0.99", _within(study["qq_correlation"], 0.99, 1.0)),
        ("reps = 20000", study["reps"] == 20000 and len(qq_rows) == 20000),
    ]


WORKLOADS = {
    "mc_grid": (_steps_mc_grid, _check_mc_grid),
    "adaptive_table": (_steps_adaptive_table, _check_adaptive_table),
    "blur_roundtrip": (_steps_blur_roundtrip, _check_blur_roundtrip),
    "noise_study": (_steps_noise_study, _check_noise_study),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


# ---------------------------------------------------------------------------
# running

class Tally:
    """Checks attempted and the labels of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label, passed):
        self.attempted += 1
        if not passed:
            self.failures.append(label)
        return passed


def _child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def _digest(dirs):
    """SHA-256 over the names and contents of every file in the output dirs."""
    total = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(d)):
            total.update(name.encode() + b"\0")
            with open(os.path.join(d, name), "rb") as fh:
                total.update(hashlib.sha256(fh.read()).digest())
    return total.hexdigest()


def _run_once(name, seed, spans_dir, tally, deadline):
    """One run of a workload; returns its measurements, or None if a step failed.

    With a spans_dir the run is traced, and each step's spans go to a file there.
    """
    steps_of, check = WORKLOADS[name]
    base = os.path.join(WORK, name)
    shutil.rmtree(os.path.join(ROOT, base), ignore_errors=True)
    os.makedirs(os.path.join(ROOT, base))

    def out(step):
        return os.path.join(base, step)

    run = {"traced": spans_dir is not None, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
           "setup_s": [], "layers": {}}
    steps = steps_of(out)
    for step, argv in steps:
        trace_file = os.path.join(spans_dir, f"{step}.json") if spans_dir else "-"
        cmd = [sys.executable, CHILD, SRC, trace_file, "--", *argv,
               "--seed", str(seed), "--out", out(step)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                                  text=True, timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            tally.check(f"{step}: finished before the deadline", False)
            return None
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            report = {}
        if not tally.check(f"{step}: exit code 0", proc.returncode == 0
                           and report.get("exit_code") == 0):
            sys.stderr.write(proc.stderr[-2000:])
            return None
        run["wall_s"] += report["wall_s"]
        run["cpu_s"] += report["cpu_s"]
        run["peak_rss_mb"] = max(run["peak_rss_mb"], report["peak_rss_mb"])
        run["setup_s"].append(report["setup_s"])
        if spans_dir:
            trace = _read_json(os.path.join(ROOT, trace_file))
            for key, value in tracing.layer_metrics(trace["spans"], trace["counts"]).items():
                run["layers"][key] = run["layers"].get(key, 0) + value

    def out_abs(step):
        return os.path.join(ROOT, out(step))

    try:
        results = check(out_abs)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        results = [(f"artifacts readable ({type(exc).__name__}: {exc})", False)]
    for label, passed in results:
        tally.check(label, passed)
    run["digest"] = _digest([out_abs(step) for step, _ in steps])
    return run


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed):
    """Versions and settings the numbers depend on; also compiles tikhreg's bytecode."""
    proc = subprocess.run([sys.executable, CHILD, SRC, "--env"], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=DEADLINE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import tikhreg.cli from {SRC}:\n{proc.stderr[-2000:]}")
    env = json.loads(proc.stdout.strip().splitlines()[-1])
    env.update(nproc=NPROC, pinned_env=PINNED_ENV, commit=_git_commit(), seed=seed)
    return env


def bench(name, seed, seconds, trace, env):
    """Run one workload for `seconds`; print its metrics; return True if all checks passed."""
    tally = Tally()
    runs = []
    durations = []
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    min_runs = 2 * MIN_RUNS if trace else MIN_RUNS
    spans_root = os.path.join(WORK, f"spans-{name}-seed{seed}")
    shutil.rmtree(os.path.join(ROOT, spans_root), ignore_errors=True)
    while True:
        # start another run only if a typical run still ends within `seconds`
        elapsed = time.perf_counter() - start
        if elapsed > LAST_START_S or (
                len(runs) >= min_runs and elapsed + statistics.median(durations) > seconds):
            break
        run_start = time.perf_counter()
        spans_dir = None
        if trace and len(runs) % 2 == 1:
            spans_dir = os.path.join(spans_root, f"run{len(runs):02d}")
            os.makedirs(os.path.join(ROOT, spans_dir))
        run = _run_once(name, seed, spans_dir, tally, deadline)
        durations.append(time.perf_counter() - run_start)
        if run is None:
            break
        if runs:
            tally.check(f"run {len(runs)}: artifacts identical to run 0",
                        run["digest"] == runs[0]["digest"])
        runs.append(run)
    elapsed = time.perf_counter() - start
    shutil.rmtree(os.path.join(ROOT, WORK, name), ignore_errors=True)

    plain = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    samples = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "setup_s": [s for r in plain for s in r["setup_s"]],
    }
    print(f"workload {name}: {len(runs)} runs in {elapsed:.1f} s, seed {seed}, "
          f"{'alternating untraced/traced' if trace else 'untraced'}")
    metrics = {}
    if plain:
        for metric, values in samples.items():
            med = statistics.median(values)
            q1, q3 = _quartiles(values)
            unit = END_TO_END_UNITS[metric]
            print(f"  {metric:<12} {med:.6g} {unit}  (median of {len(values)}; "
                  f"q1 {q1:.6g}, q3 {q3:.6g})")
            if not trace:
                metrics[metric] = {"value": med, "unit": unit}
    failed = len(tally.failures)
    print(f"  fail_ratio   {failed}/{tally.attempted} = {failed / max(tally.attempted, 1):.4g}")
    for label in tally.failures:
        print(f"  FAILED: {label}")

    if trace and traced and plain:
        layer_names = list(tracing.TIME_METRICS.values()) + list(tracing.COUNT_METRICS)
        for metric in layer_names:
            value = statistics.median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": _layer_unit(metric)}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in traced)
            - statistics.median(samples["wall_s"]),
            "unit": "s",
        }
        for metric, entry in metrics.items():
            print(f"  {metric:<26} {entry['value']:.6g} {entry['unit']}")
        dominant = max(tracing.TIME_METRICS.values(), key=lambda m: metrics[m]["value"])
        print(f"  dominant self-time layer: {dominant}")

    _write_json(os.path.join(ROOT, WORK, f"result-{name}-seed{seed}-trace{int(trace)}.json"), {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "runs": len(runs), "elapsed_s": elapsed,
        "samples": samples, "metrics": metrics,
        "attempted": tally.attempted, "failures": tally.failures,
    })
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return failed == 0 and bool(metrics)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tikhreg", "cli.py")):
        print(f"perfbench: no tikhreg package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    seed = args.seed % 2**64           # the CLI takes unsigned 64-bit seeds
    try:
        env = environment(seed)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok = bench(name, seed, args.seconds, bool(args.trace), env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
