"""Command-line front end.

Every experiment is exposed as a subcommand that writes CSV/JSON files plus a
manifest.json into one output directory and prints a one-line summary. Each
command's body writes all of its files, and writes each record it gets from a
driver as it stands, a CSV column or JSON key per field, so a record's field
order is its file's layout. Exit codes: 0 success, 1 runtime failure, 2 usage
error. The output directory is --out if given, else $TIKHREG_OUT, else
./tikhreg_out.

Every option is defined once, in _FLAGS, and each command lists the names it
takes in _COMMANDS. Options must be spelled in full: an abbreviation such as
--del for --delta is a usage error, since --config could not see it.

A flat key=value file can be supplied with --config; its keys are ordinary
long option names. A key that is also present on the command line, or twice
in the file, is a usage error, never a silent override, and so is a second
--config. Identical invocations (same flags, same seeds) produce
byte-identical output files; --threads only caps the Monte Carlo worker
threads and never affects file contents, so it is also excluded from the
manifest.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import TikhregError
from .harness import (
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
    write_csv,
    write_json,
    write_manifest,
)
from .params import AdaptiveConfig, adaptive_select, rule_lambda
from .problems import (
    add_noise, build_blur, build_fredholm, load_problem, noise_sigma, save_problem,
)
from .spectral import _check_lambda, decompose, fit_alpha, spectrum_rows
from .tikhonov import error_report, spectral_solvers


def _seed_type(text):
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _list_of(convert, what):
    def parse(text):
        try:
            values = [convert(tok) for tok in text.split(",") if tok]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a nonempty comma-separated {what} list, got {text!r}")
        return values
    return parse


# option name -> add_argument keywords: every option is defined once here,
# and each command lists the names it takes
_FLAGS = {
    "--problem": dict(choices=("fredholm", "blur"), default="fredholm"),
    "--n": dict(type=int, help="grid size of the fredholm problem"),
    "--side": dict(type=int, help="image side length of the blur problem"),
    "--psf-width": dict(type=float, default=2.0, help="blur width in pixels"),
    "--prob": dict(help="load a .prob instance instead of building one"),
    "--ns": dict(type=_list_of(int, "integer"), required=True,
                 help="comma-separated sizes (blur: side lengths)"),
    "--deltas": dict(type=_list_of(float, "float"), required=True),
    "--rule": dict(choices=("w", "rho0"), default="rho0"),
    "--alpha": dict(type=float, default=4.0, help="spectral decay exponent"),
    "--c": dict(type=float, default=1.0, help="rule constant C"),
    "--tol": dict(type=float, default=1e-10),
    "--stop": dict(choices=("absolute", "relative"), default="absolute"),
    "--max-iters": dict(type=int, default=100),
    "--out": dict(help="output directory (default $TIKHREG_OUT or ./tikhreg_out)"),
    "--config": dict(help="flat key=value file; conflicts with explicit flags error out"),
    "--seed": dict(type=_seed_type, default=0),
    "--delta": dict(type=float, required=True, help="relative noise level"),
    "--lam": dict(type=float, help="fixed lambda (otherwise the rule chooses it)"),
    "--grid-lo": dict(type=float, default=1e-10),
    "--grid-hi": dict(type=float, default=1e-4),
    "--grid-count": dict(type=int, default=10),
    # the default is the command's own (set_defaults in _COMMANDS)
    "--reps": dict(type=int),
    "--bins": dict(type=int, default=50),
    "--threads": dict(type=int, default=1,
                      help="worker cap; results are identical for any value"),
}


def build_parser(command=None):
    """The tikhreg parser with all eight subparsers, or with only `command`'s.

    A one-command parser parses that command's argv as the full one does;
    its subparsers action lists every command name as its metavar, so the
    top-level usage line of an error is the same too. The full parser takes
    no metavar, which would rename "argument command" in its own errors.
    """
    parser = argparse.ArgumentParser(
        prog="tikhreg",
        description="Weighted Tikhonov regularization experiments with reproducible seeds.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"tikhreg {__version__}")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    commands = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, flags, body, defaults) in _COMMANDS.items():
        if command in (None, name):
            p = commands.add_parser(name, help=help_text, allow_abbrev=False)
            for flag in flags:
                p.add_argument(flag, **_FLAGS[flag])
            p.set_defaults(func=body, **defaults)
    return parser


# ---------------------------------------------------------------------------
# instance construction shared by the subcommands

def _problem_factory(args):
    """(size flag, size -> ProblemInstance) of the --problem family."""
    if args.problem == "fredholm":
        return "n", build_fredholm
    return "side", lambda side: build_blur(side, args.psf_width)


def _build_instance(args, parser):
    if getattr(args, "prob", None):
        return load_problem(args.prob)
    flag, build = _problem_factory(args)
    if getattr(args, flag) is None:
        parser.error(f"--problem {args.problem} requires --{flag}")
    return build(getattr(args, flag))


def _adaptive_config(args):
    return AdaptiveConfig(
        alpha=args.alpha, constant_c=args.c, tol=args.tol,
        stop_mode=args.stop, max_iters=args.max_iters,
    )


def _chosen_lambda(args, instance, sigma):
    if getattr(args, "lam", None) is not None:
        return args.lam
    return rule_lambda(args.rule, args.alpha, instance, sigma, args.c)


def _finite(record):
    """The record's float fields by name, a non-finite value as None (JSON null)."""
    return {k: v if math.isfinite(v) else None
            for k, v in record._asdict().items() if isinstance(v, float)}


# ---------------------------------------------------------------------------
# subcommand bodies: return (outputs, summary line)

def _cmd_generate(args, parser, out_dir):
    instance = _build_instance(args, parser)
    save_problem(instance, os.path.join(out_dir, "instance.prob"))
    return ["instance.prob"], (
        f"generate: wrote instance.prob (label={instance.label}, n={instance.n})"
    )


def _cmd_spectrum(args, parser, out_dir):
    instance = _build_instance(args, parser)
    decomp = decompose(instance)
    fit = fit_alpha(decomp)
    write_csv(os.path.join(out_dir, "spectrum.csv"), ["k", "rho", "envelope"],
              spectrum_rows(decomp, fit))
    write_json(os.path.join(out_dir, "spectrum.json"), {**fit._asdict(), "retained": decomp.m})
    return ["spectrum.csv", "spectrum.json"], (
        f"spectrum: m={decomp.m} retained, alpha_hat={fit.alpha_hat:.4f}, "
        f"fit range k={fit.fit_range[0]}..{fit.fit_range[1]}"
    )


def _cmd_solve(args, parser, out_dir):
    instance = _build_instance(args, parser)
    data = add_noise(instance, args.delta, args.seed)
    # a bad lambda exits before the decomposition is paid for
    lam = _check_lambda(_chosen_lambda(args, instance, data.sigma))
    sol = spectral_solvers(decompose(instance), instance)(data.b)(lam)
    report = error_report(instance, sol, data.b)
    write_csv(os.path.join(out_dir, "solve.csv"),
              ["lambda", "sigma", "rel_x", "rel_Ax", "rel_res", "scaled_output"],
              [(sol.lam, data.sigma, *report)])
    return ["solve.csv"], (
        f"solve: lambda={sol.lam:.6e}, rel_x={report.rel_x:.4e}, rel_res={report.rel_res:.4e}"
    )


def _cmd_sweep(args, parser, out_dir):
    instance = _build_instance(args, parser)
    result = run_sweep(
        instance, args.delta, args.seed, (args.grid_lo, args.grid_hi, args.grid_count),
        rule=args.rule, alpha=args.alpha, constant_c=args.c,
    )
    write_csv(os.path.join(out_dir, "sweep.csv"), ["lambda", "error"],
              zip(result.lambdas.tolist(), result.output_errors.tolist()))
    write_json(os.path.join(out_dir, "sweep.json"), _finite(result))
    return ["sweep.csv", "sweep.json"], (
        f"sweep: err_at_pred={result.err_at_pred:.6e} at lambda_pred={result.lambda_pred:.6e}, "
        f"err_min={result.err_min:.6e} at lambda={result.argmin_lambda:.6e}"
    )


def _cmd_adaptive(args, parser, out_dir):
    instance = _build_instance(args, parser)
    data = add_noise(instance, args.delta, args.seed)
    trace = adaptive_select(instance, _adaptive_config(args),
                            spectral_solvers(decompose(instance), instance)(data.b))
    report = error_report(instance, trace.final, data.b)
    write_csv(os.path.join(out_dir, "trace.csv"),
              ["k", "lambda", "scaled_residual", "scaled_wnorm"],
              ((k, *row) for k, row in
               enumerate(zip(trace.lambdas, trace.residuals, trace.w_norms))))
    write_json(os.path.join(out_dir, "adaptive.json"), {
        "terminated": trace.terminated,
        "iters": trace.iters,
        "lambda_final": trace.final.lam,
        "sigma": data.sigma,
        "rel_x": report.rel_x,
        "rel_Ax": report.rel_ax,
        "rel_res": report.rel_res,
    })
    return ["trace.csv", "adaptive.json"], (
        f"adaptive: {trace.terminated} after {trace.iters} iterations, "
        f"lambda={trace.final.lam:.6e}, rel_res={report.rel_res:.4e}"
    )


def _cmd_montecarlo(args, parser, out_dir):
    if args.reps < 2:
        parser.error("--reps must be >= 2")
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    summary = run_montecarlo(
        args.ns, args.deltas, args.reps,
        rule=args.rule, constant_c=args.c, master_seed=args.seed,
        alpha=args.alpha, threads=args.threads, problem=_problem_factory(args)[1],
    )
    write_csv(os.path.join(out_dir, "mc_cells.csv"),
              ["n", "delta", "lambda", "mean_out", "mean_b", "reps"], summary.cells)
    write_json(os.path.join(out_dir, "mc_fit.json"), _finite(summary))
    return ["mc_cells.csv", "mc_fit.json"], (
        f"montecarlo: {len(summary.cells)} cells x {args.reps} reps, "
        f"slope_output={summary.slope_output:.4f}, slope_b={summary.slope_b:.4f}"
    )


def _cmd_study(args, parser, out_dir):
    instance = _build_instance(args, parser)
    lam = _chosen_lambda(args, instance, noise_sigma(instance, args.delta))
    study = run_sample_study(
        instance, args.delta, lam, args.reps, master_seed=args.seed, bins=args.bins
    )
    edges = study.bin_edges.tolist()
    write_csv(os.path.join(out_dir, "study_hist.csv"), ["bin_lo", "bin_hi", "count"],
              zip(edges, edges[1:], study.bin_counts.tolist()))
    write_csv(os.path.join(out_dir, "study_qq.csv"), ["normal_q", "sample_q"],
              zip(map(float, study.qq_theoretical), map(float, study.qq_sample)))
    write_json(os.path.join(out_dir, "study.json"), {
        "qq_correlation": study.qq_correlation,
        "mean": float(np.mean(study.samples)),
        "std": float(np.std(study.samples, ddof=1)),
        "reps": int(len(study.samples)),
    })
    return ["study_hist.csv", "study_qq.csv", "study.json"], (
        f"study: {args.reps} reps at lambda={lam:.6e}, qq_correlation={study.qq_correlation:.5f}"
    )


def _cmd_table(args, parser, out_dir):
    rows = run_table(args.ns, args.deltas, _adaptive_config(args), master_seed=args.seed,
                     problem=_problem_factory(args)[1])
    write_csv(os.path.join(out_dir, "table1.csv"),
              ["delta", "n", "sigma", "lambda", "iters", "rel_x", "rel_Ax", "rel_res"],
              (r[:-1] for r in rows))
    return ["table1.csv"], f"table: wrote {len(rows)} rows to table1.csv"


# option groups that several commands take, each in help order
_INSTANCE = ("--problem", "--n", "--side", "--psf-width", "--prob")
_GRID = ("--problem", "--psf-width", "--ns", "--deltas")
_RULE = ("--rule", "--alpha", "--c")
_ADAPTIVE = ("--alpha", "--c", "--tol", "--stop", "--max-iters")
_COMMON = ("--out", "--config", "--seed")

# name -> (help, option names in help order, body, set_defaults keywords) of
# every subcommand, in help order
_COMMANDS = {
    "generate": ("build a problem instance and write instance.prob",
                 ("--problem", "--n", "--side", "--psf-width", *_COMMON), _cmd_generate, {}),
    "spectrum": ("eigendecompose and fit the decay exponent",
                 (*_INSTANCE, *_COMMON), _cmd_spectrum, {}),
    "solve": ("one noisy draw, one regularized solve",
              (*_INSTANCE, *_RULE, *_COMMON, "--delta", "--lam"), _cmd_solve, {}),
    "sweep": ("error along a log-equispaced lambda grid",
              (*_INSTANCE, *_RULE, *_COMMON, "--delta", "--grid-lo", "--grid-hi", "--grid-count"),
              _cmd_sweep, {}),
    "adaptive": ("adaptive parameter iteration with trace output",
                 (*_INSTANCE, *_COMMON, "--delta", *_ADAPTIVE), _cmd_adaptive, {}),
    "montecarlo": ("mean errors per (n, delta) cell and slope fits",
                   (*_RULE, *_COMMON, *_GRID, "--reps", "--threads"), _cmd_montecarlo,
                   {"reps": 200}),
    "study": ("histogram and normal QQ of the error distribution",
              (*_INSTANCE, *_RULE, *_COMMON, "--delta", "--lam", "--reps", "--bins"), _cmd_study,
              {"reps": 2000}),
    "table": ("adaptive summary rows over (delta, n) pairs",
              (*_COMMON, *_GRID, *_ADAPTIVE), _cmd_table, {}),
}


# ---------------------------------------------------------------------------
# --config merging and entry point

def _merge_config(argv):
    """Expand --config key=value pairs into argv, rejecting conflicts, repeated keys
    and a repeated --config."""
    paths = [argv[i + 1] for i, tok in enumerate(argv[:-1]) if tok == "--config"]
    paths += [tok.split("=", 1)[1] for tok in argv if tok.startswith("--config=")]
    if len(paths) > 1:
        raise _UsageError(f"--config is given {len(paths)} times; give one file")
    if not paths:
        return argv
    path, = paths
    extra, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            flag = "--" + key.strip().replace("_", "-")
            if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
                raise _UsageError(
                    f"{path}: {key.strip()!r} conflicts with an explicit {flag} flag"
                )
            if flag in seen:
                raise _UsageError(
                    f"{path}:{line_no}: {key.strip()!r} repeats an earlier {flag} key"
                )
            seen.add(flag)
            extra.extend([flag, value.strip()])
    return argv + extra


class _UsageError(Exception):
    pass


_MANIFEST_SKIP = ("func", "command", "out", "config", "threads")


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # --config only appends options, so argv[0] names the command before and
    # after the merge; any other first token (a flag, nothing, an unknown
    # name) gets the full parser and its help or error
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        argv = _merge_config(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"usage error: cannot read config file: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
        out_dir = args.out or os.environ.get("TIKHREG_OUT") or "tikhreg_out"
        os.makedirs(out_dir, exist_ok=True)
        outputs, summary = args.func(args, parser, out_dir)
        params = {k: v for k, v in vars(args).items() if k not in _MANIFEST_SKIP}
        write_manifest(out_dir, args.command, params, outputs)
        print(summary)
        return 0
    except SystemExit as exc:
        # --help, --version, a usage error, or parser.error() inside a
        # subcommand body (precondition violations)
        return 0 if exc.code in (0, None) else int(exc.code)
    except (TikhregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size within the caps that this host still cannot allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
