"""Spans around tikhreg's public functions, and per-layer self time from them.

The package binds names with `from .module import name`, so a function is
reachable through the module that defines it and through every module that
imports it (`tikhreg.spectral.sym_eig`, `tikhreg.harness.standard_normal`,
...). `Tracer.install` replaces every such binding with one wrapper, so
calls inside the defining module are traced too. The closures returned by
`direct_solver` and `spectral_solver` are wrapped as they are returned.

A span is (id, name, layer, start, end, parent, thread). Its layer is the
entry of LAYERS for the function; a function without an entry (small helpers
such as `w_norm` or `prior_rule_rho0`) counts toward the layer of its caller.
A span started on a worker thread with nothing open on that thread takes the
innermost open span of the main thread as its parent: the Monte Carlo pool
is started from inside `run_montecarlo`.

A span's self time is its duration minus the part of it that its child
spans cover (the union of their intervals, since pool workers overlap).
Summed per layer this gives the `*_s` metrics; COUNTERS add the work counts.
Spans are kept in memory and written out once, after main() returns.
"""

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

MODULES = ("linalg", "problems", "spectral", "tikhonov", "params", "harness", "cli")

LAYERS = {
    "linalg.sym_eig": "linalg.eig",
    "linalg.spd_solve": "linalg.spd_solve",
    "linalg.spd_factor": "linalg.spd_solve",
    "spectral.decompose": "spectral.decompose",
    "spectral.fit_alpha": "spectral.fit",
    "spectral.spectrum_rows": "spectral.fit",
    "spectral.b_seminorm_sq": "spectral.fit",
    "problems.build_fredholm": "problems.build",
    "problems.build_blur": "problems.build",
    "problems.greens_kernel": "problems.build",
    "problems.standard_normal": "problems.noise",
    "problems.stream_seed": "problems.noise",
    "problems.add_noise": "problems.noise",
    "problems.save_problem": "problems.io",
    "problems.load_problem": "problems.io",
    "tikhonov.solve_direct": "tikhonov.solve",
    "tikhonov.solve_spectral": "tikhonov.solve",
    "tikhonov.error_report": "tikhonov.solve",
    "tikhonov.direct_solver": "tikhonov.solve",
    "tikhonov.spectral_solver": "tikhonov.solve",
    "tikhonov.solver": "tikhonov.solve",       # closures the two above return
    "params.adaptive_select": "params.adaptive",
    "harness.rule_lambda": "harness",
    "harness.run_sweep": "harness",
    "harness.run_montecarlo": "harness",
    "harness.run_sample_study": "harness",
    "harness.run_table": "harness",
    "harness.write_csv": "harness.write",
    "harness.write_json": "harness.write",
    "harness.write_manifest": "harness.write",
    "harness.save_spectrum": "harness.write",
    "harness.save_sweep": "harness.write",
    "harness.save_trace": "harness.write",
    "harness.save_montecarlo": "harness.write",
    "harness.save_study": "harness.write",
    "harness.save_table": "harness.write",
    "cli.main": "cli",
}

# Per-layer self-time metric of each layer, in the benchmark's metric names.
TIME_METRICS = {
    "linalg.eig": "linalg.eig_s",
    "linalg.spd_solve": "linalg.spd_solve_s",
    "spectral.decompose": "spectral.decompose_self_s",
    "spectral.fit": "spectral.fit_s",
    "problems.build": "problems.build_s",
    "problems.noise": "problems.noise_s",
    "problems.io": "problems.io_s",
    "tikhonov.solve": "tikhonov.solve_self_s",
    "params.adaptive": "params.adaptive_self_s",
    "harness": "harness.self_s",
    "harness.write": "harness.write_s",
    "cli": "cli.self_s",
}


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


# name -> fn(args, kwargs, result) -> {counter: amount}
COUNTERS = {
    "linalg.sym_eig": lambda a, k, r: {
        "linalg.eig_calls": 1, "linalg.eig_n3": _arg(a, k, 0, "m").shape[0] ** 3},
    "linalg.spd_solve": lambda a, k, r: {
        "linalg.spd_solve_calls": 1, "linalg.spd_solve_n3": _arg(a, k, 0, "m").shape[0] ** 3},
    "spectral.decompose": lambda a, k, r: {"spectral.retained_m": r.m},
    "problems.standard_normal": lambda a, k, r: {"problems.normal_draws": len(r)},
    "problems.save_problem": lambda a, k, r: {
        "problems.io_bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "problems.load_problem": lambda a, k, r: {
        "problems.io_bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "tikhonov.solve_direct": lambda a, k, r: {"tikhonov.solves": 1},
    "tikhonov.solve_spectral": lambda a, k, r: {"tikhonov.solves": 1},
    "tikhonov.solver": lambda a, k, r: {"tikhonov.solves": 1},
    "params.adaptive_select": lambda a, k, r: {"params.adaptive_iters": r.iters},
    # experiment cells: sweep points, Monte Carlo (n, delta) cells, table
    # rows, or the single cell of a sample study
    "harness.run_sweep": lambda a, k, r: {"harness.cells": len(r.lambdas)},
    "harness.run_montecarlo": lambda a, k, r: {"harness.cells": len(r.cells)},
    "harness.run_sample_study": lambda a, k, r: {"harness.cells": 1},
    "harness.run_table": lambda a, k, r: {"harness.cells": len(r)},
    "harness.write_csv": lambda a, k, r: {
        "harness.bytes_written": os.path.getsize(_arg(a, k, 0, "path"))},
    "harness.write_json": lambda a, k, r: {
        "harness.bytes_written": os.path.getsize(_arg(a, k, 0, "path"))},
}

COUNT_METRICS = (
    "linalg.eig_calls", "linalg.eig_n3", "linalg.spd_solve_calls", "linalg.spd_solve_n3",
    "spectral.retained_m", "problems.normal_draws", "problems.io_bytes",
    "tikhonov.solves", "params.adaptive_iters", "harness.cells", "harness.bytes_written",
)


class Tracer:
    """Records spans around tikhreg's public functions in this process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._counts_lock = threading.Lock()     # pool workers count too
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = []

    def _stack(self):
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name):
        layer = LAYERS.get(name)
        count = COUNTERS.get(name)
        returns_solver = name in ("tikhonov.direct_solver", "tikhonov.spectral_solver")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, parent_layer = stack[-1]
            elif self._main_stack:
                parent, parent_layer = self._main_stack[-1]
            else:
                parent, parent_layer = None, "cli"
            span_id = next(self._ids)
            span_layer = layer or parent_layer
            stack.append((span_id, span_layer))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, span_layer, start, end, parent,
                                   threading.get_ident()))
            if count is not None:
                amounts = count(args, kwargs, result)
                with self._counts_lock:
                    self.counts.update(amounts)
            if returns_solver:
                result = self.wrap(result, "tikhonov.solver")
            return result

        return traced

    def install(self):
        """Rebind every public tikhreg function, wherever it is bound, to a wrapper."""
        import tikhreg

        modules = [importlib.import_module(f"tikhreg.{m}") for m in MODULES]
        for defining in modules:
            short = defining.__name__.split(".", 1)[1]
            for fname, fn in list(vars(defining).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != defining.__name__):
                    continue
                traced = self.wrap(fn, f"{short}.{fname}")
                for module in modules + [tikhreg]:
                    for bound, obj in list(vars(module).items()):
                        if obj is fn:
                            setattr(module, bound, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _covered(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, counts):
    """Per-layer self times and work counts of one traced process."""
    children = defaultdict(list)
    for span_id, _, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    self_time = Counter()
    for span_id, _, layer, start, end, _, _ in spans:
        self_time[layer] += (end - start) - _covered(children[span_id], start, end)
    metrics = {metric: self_time.get(layer, 0.0) for layer, metric in TIME_METRICS.items()}
    metrics.update({name: counts.get(name, 0) for name in COUNT_METRICS})
    return metrics
