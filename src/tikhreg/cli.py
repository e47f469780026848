"""Command-line front end.

Every experiment is exposed as a subcommand that writes CSV/JSON files plus a
manifest.json into one output directory and prints a one-line summary. Exit
codes: 0 success, 1 runtime failure, 2 usage error. The output directory is
--out if given, else $TIKHREG_OUT, else ./tikhreg_out.

A flat key=value file can be supplied with --config; its keys are ordinary
long option names. A key that is also present on the command line is a usage
error, never a silent override. Identical invocations (same flags, same
seeds) produce byte-identical output files; --threads only caps the Monte
Carlo worker pool and never affects file contents, so it is also excluded
from the manifest.
"""

import argparse
import os
import sys

from . import __version__
from .errors import TikhregError
from .harness import (
    rule_lambda,
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
    save_montecarlo,
    save_spectrum,
    save_study,
    save_sweep,
    save_table,
    save_trace,
    write_csv,
    write_json,
    write_manifest,
)
from .params import AdaptiveConfig, adaptive_select
from .problems import (
    NoiseSpec, add_noise, build_blur, build_fredholm, load_problem, noise_sigma, save_problem,
)
from .spectral import decompose, fit_alpha
from .tikhonov import direct_solver, error_report, solve_direct


def _seed_type(text):
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list, got {text!r}")


def _add_problem_args(sub, with_prob=True):
    sub.add_argument("--problem", choices=("fredholm", "blur"), default="fredholm")
    sub.add_argument("--n", type=int, help="grid size of the fredholm problem")
    sub.add_argument("--side", type=int, help="image side length of the blur problem")
    sub.add_argument("--psf-width", type=float, default=2.0, help="blur width in pixels")
    if with_prob:
        sub.add_argument("--prob", help="load a .prob instance instead of building one")


def _add_rule_args(sub):
    sub.add_argument("--rule", choices=("w", "rho0"), default="rho0")
    sub.add_argument("--alpha", type=float, default=4.0, help="spectral decay exponent")
    sub.add_argument("--c", type=float, default=1.0, help="rule constant C")


def _add_adaptive_args(sub):
    sub.add_argument("--alpha", type=float, default=4.0)
    sub.add_argument("--c", type=float, default=1.0)
    sub.add_argument("--tol", type=float, default=1e-10)
    sub.add_argument("--stop", choices=("absolute", "relative"), default="absolute")
    sub.add_argument("--max-iters", type=int, default=100)


def _add_common(sub):
    sub.add_argument("--out", help="output directory (default $TIKHREG_OUT or ./tikhreg_out)")
    sub.add_argument("--config", help="flat key=value file; conflicts with explicit flags error out")
    sub.add_argument("--seed", type=_seed_type, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tikhreg",
        description="Weighted Tikhonov regularization experiments with reproducible seeds.",
    )
    parser.add_argument("--version", action="version", version=f"tikhreg {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("generate", help="build a problem instance and write instance.prob")
    _add_problem_args(p, with_prob=False)
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = commands.add_parser("spectrum", help="eigendecompose and fit the decay exponent")
    _add_problem_args(p)
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = commands.add_parser("solve", help="one noisy draw, one regularized solve")
    _add_problem_args(p)
    _add_rule_args(p)
    _add_common(p)
    p.add_argument("--delta", type=float, required=True, help="relative noise level")
    p.add_argument("--lam", type=float, help="fixed lambda (otherwise the rule chooses it)")
    p.set_defaults(func=_cmd_solve)

    p = commands.add_parser("sweep", help="error along a log-equispaced lambda grid")
    _add_problem_args(p)
    _add_rule_args(p)
    _add_common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid-lo", type=float, default=1e-10)
    p.add_argument("--grid-hi", type=float, default=1e-4)
    p.add_argument("--grid-count", type=int, default=10)
    p.set_defaults(func=_cmd_sweep)

    p = commands.add_parser("adaptive", help="adaptive parameter iteration with trace output")
    _add_problem_args(p)
    _add_common(p)
    p.add_argument("--delta", type=float, required=True)
    _add_adaptive_args(p)
    p.set_defaults(func=_cmd_adaptive)

    p = commands.add_parser("montecarlo", help="mean errors per (n, delta) cell and slope fits")
    _add_rule_args(p)
    _add_common(p)
    p.add_argument("--problem", choices=("fredholm", "blur"), default="fredholm")
    p.add_argument("--psf-width", type=float, default=2.0)
    p.add_argument("--ns", type=_int_list, required=True,
                   help="comma-separated sizes (blur: side lengths)")
    p.add_argument("--deltas", type=_float_list, required=True)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--threads", type=int, default=1,
                   help="worker cap; results are identical for any value")
    p.set_defaults(func=_cmd_montecarlo)

    p = commands.add_parser("study", help="histogram and normal QQ of the error distribution")
    _add_problem_args(p)
    _add_rule_args(p)
    _add_common(p)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lam", type=float, help="fixed lambda (otherwise the rule chooses it)")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=_cmd_study)

    p = commands.add_parser("table", help="adaptive summary rows over (delta, n) pairs")
    _add_common(p)
    p.add_argument("--problem", choices=("fredholm", "blur"), default="fredholm")
    p.add_argument("--psf-width", type=float, default=2.0)
    p.add_argument("--ns", type=_int_list, required=True)
    p.add_argument("--deltas", type=_float_list, required=True)
    _add_adaptive_args(p)
    p.set_defaults(func=_cmd_table)

    return parser


# ---------------------------------------------------------------------------
# instance construction shared by the subcommands

def _build_instance(args, parser):
    if getattr(args, "prob", None):
        return load_problem(args.prob)
    if args.problem == "fredholm":
        if args.n is None:
            parser.error("--problem fredholm requires --n")
        return build_fredholm(args.n)
    if args.side is None:
        parser.error("--problem blur requires --side")
    return build_blur(args.side, args.psf_width)


def _problem_factory(args):
    if args.problem == "fredholm":
        return build_fredholm
    return lambda side: build_blur(side, args.psf_width)


def _adaptive_config(args):
    return AdaptiveConfig(
        alpha=args.alpha, constant_c=args.c, tol=args.tol,
        stop_mode=args.stop, max_iters=args.max_iters,
    )


def _chosen_lambda(args, instance, sigma):
    if getattr(args, "lam", None) is not None:
        return args.lam
    return rule_lambda(args.rule, args.alpha, instance, sigma, args.c)


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
    outputs = save_spectrum(out_dir, decomp, fit)
    return outputs, (
        f"spectrum: m={decomp.m} retained, alpha_hat={fit.alpha_hat:.4f}, "
        f"fit range k={fit.fit_range[0]}..{fit.fit_range[1]}"
    )


def _cmd_solve(args, parser, out_dir):
    instance = _build_instance(args, parser)
    data = add_noise(instance, NoiseSpec(delta=args.delta, seed=args.seed))
    lam = _chosen_lambda(args, instance, data.sigma)
    sol = solve_direct(instance, data.b, lam)
    report = error_report(instance, None, sol, data.b)
    write_csv(
        os.path.join(out_dir, "solve.csv"),
        ["lambda", "sigma", "rel_x", "rel_Ax", "rel_res", "scaled_output"],
        [(sol.lam, data.sigma, report.rel_x, report.rel_ax, report.rel_res,
          report.scaled_output)],
    )
    return ["solve.csv"], (
        f"solve: lambda={sol.lam:.6e}, rel_x={report.rel_x:.4e}, rel_res={report.rel_res:.4e}"
    )


def _cmd_sweep(args, parser, out_dir):
    instance = _build_instance(args, parser)
    result = run_sweep(
        instance,
        NoiseSpec(delta=args.delta, seed=args.seed),
        (args.grid_lo, args.grid_hi, args.grid_count),
        rule=args.rule,
        alpha=args.alpha,
        constant_c=args.c,
    )
    outputs = save_sweep(out_dir, result)
    return outputs, (
        f"sweep: err_at_pred={result.err_at_pred:.6e} at lambda_pred={result.lambda_pred:.6e}, "
        f"err_min={result.err_min:.6e} at lambda={result.argmin_lambda:.6e}"
    )


def _cmd_adaptive(args, parser, out_dir):
    instance = _build_instance(args, parser)
    data = add_noise(instance, NoiseSpec(delta=args.delta, seed=args.seed))
    trace = adaptive_select(instance, data.b, _adaptive_config(args),
                            direct_solver(instance, data.b))
    report = error_report(instance, None, trace.final, data.b)
    outputs = save_trace(out_dir, trace)
    write_json(os.path.join(out_dir, "adaptive.json"), {
        "terminated": trace.terminated,
        "iters": trace.iters,
        "lambda_final": trace.final.lam,
        "sigma": data.sigma,
        "rel_x": report.rel_x,
        "rel_Ax": report.rel_ax,
        "rel_res": report.rel_res,
    })
    outputs.append("adaptive.json")
    return outputs, (
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
        alpha=args.alpha, threads=args.threads, problem=_problem_factory(args),
    )
    outputs = save_montecarlo(out_dir, summary)
    return outputs, (
        f"montecarlo: {len(summary.cells)} cells x {args.reps} reps, "
        f"slope_output={summary.slope_output:.4f}, slope_b={summary.slope_b:.4f}"
    )


def _cmd_study(args, parser, out_dir):
    instance = _build_instance(args, parser)
    lam = _chosen_lambda(args, instance, noise_sigma(instance, args.delta))
    study = run_sample_study(
        instance, args.delta, lam, args.reps, master_seed=args.seed, bins=args.bins
    )
    outputs = save_study(out_dir, study)
    return outputs, (
        f"study: {args.reps} reps at lambda={lam:.6e}, qq_correlation={study.qq_correlation:.5f}"
    )


def _cmd_table(args, parser, out_dir):
    rows = run_table(args.ns, args.deltas, _adaptive_config(args), master_seed=args.seed,
                     problem=_problem_factory(args))
    outputs = save_table(out_dir, rows)
    return outputs, f"table: wrote {len(rows)} rows to table1.csv"


# ---------------------------------------------------------------------------
# --config merging and entry point

def _merge_config(argv):
    """Expand --config key=value pairs into argv, rejecting conflicts."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None:
        return argv
    extra = []
    with open(path) as fh:
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
            extra.extend([flag, value.strip()])
    return argv + extra


class _UsageError(Exception):
    pass


_MANIFEST_SKIP = ("func", "command", "out", "config", "threads")


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _merge_config(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: cannot read config file: {exc}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    out_dir = args.out or os.environ.get("TIKHREG_OUT") or "tikhreg_out"
    try:
        os.makedirs(out_dir, exist_ok=True)
        outputs, summary = args.func(args, parser, out_dir)
        params = {k: v for k, v in vars(args).items() if k not in _MANIFEST_SKIP}
        write_manifest(out_dir, args.command, params, outputs)
        print(summary)
        return 0
    except SystemExit as exc:
        # parser.error() inside a subcommand body (precondition violations)
        return 0 if exc.code in (0, None) else int(exc.code)
    except (TikhregError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
