"""The one check of each kind of argument (errors._integer, _real, _name,
_sequence, _path and _array).

Every scalar argument of a public callable goes through one of the first
three, so a bool, a string, a float where an integer is due, a NaN, an
infinity or an array raises a TikhregError, never TypeError and never a
truncated or parsed value, and a name (a rule, a stop mode, a label) is a
str, never bytes or an array of strings. A cap is _integer's last check, so
only a well-formed integer above it raises SizeCap. A driver's sizes and
deltas are sequences, and a path is a str, bytes or os.PathLike, never an
integer that open() would take for a file descriptor. The property tests
draw every scalar, name, list and path argument of each public callable
from such wrong kinds (and from valid values, numpy scalars among them):
the call either succeeds, and then no argument was of a refused kind, or
raises a TikhregError, with no other exception and no warning. Every array
argument (an instance's A, x*, y, W and Kronecker factor, a right-hand side
b) is an integer or float ndarray of its shape with finite entries, never a
list, a bool, complex, string or object array, or a NaN; its property test
draws each of those, and a call raises a TikhregError exactly when one of
its arrays is refused.
"""

import ast
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import tikhreg
from tikhreg import (
    AdaptiveConfig,
    DimensionMismatch,
    DomainError,
    NonFiniteLambda,
    ProblemInstance,
    SizeCap,
    TikhregError,
    add_noise,
    build_blur,
    build_fredholm,
    decompose,
    error_report,
    filter_errors,
    initial_lambda,
    load_problem,
    noise_sigma,
    rule_lambda,
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
    save_problem,
    spectral_solver,
    standard_normal,
    stream_seed,
)
from tikhreg.errors import _array, _integer, _name, _path, _real, _sequence
from tikhreg.linalg import weight_factor
from tikhreg.problems import _SIZE_CAP

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "tikhreg")

_FRED = build_fredholm(20)
_DECOMP = decompose(_FRED)
_B = add_noise(_FRED, 0.05, 1).b
_D, _D_NOISE = _DECOMP.project(_B), _DECOMP.project(_B - _FRED.y)


# ---------------------------------------------------------------------------
# the rule itself

@pytest.mark.parametrize("v", [3, -7, 2**70, np.int64(3), np.uint64(2**64 - 1), np.int8(-2)])
def test_python_and_numpy_integers_are_integers(v):
    got = _integer(v, "k")
    assert type(got) is int and got == int(v)


@pytest.mark.parametrize("v", [True, False, np.True_, 3.0, np.float64(3.0), "3", None,
                               np.array(3), np.array([3]), math.nan, math.inf])
def test_bools_floats_strings_and_arrays_are_not_integers(v):
    with pytest.raises(DomainError, match="k must be an integer, got"):
        _integer(v, "k")


@pytest.mark.parametrize("v", [0.5, 3, np.float64(0.5), np.float32(0.5), np.int64(3), np.uint8(3)])
def test_python_and_numpy_numbers_are_reals(v):
    got = _real(v, "x", 0)
    assert type(got) is float and got == float(v)


@pytest.mark.parametrize("v", [True, np.False_, "0.5", None, np.array(0.5), np.array([0.5]),
                               1 + 0j])
def test_bools_strings_and_arrays_are_not_reals(v):
    with pytest.raises(NonFiniteLambda, match="x must be a real number, got"):
        _real(v, "x", 0, error=NonFiniteLambda)


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf, np.float64(math.nan), 2**1100,
                               -(2**1100)])
def test_non_finite_values_are_refused_as_reals(v):
    with pytest.raises(DomainError, match="x must be finite and >= 0, got"):
        _real(v, "x", 0, strict=False)


def test_bounds_and_their_messages():
    assert _real(0, "x", 0, strict=False) == 0.0 and _integer(0, "k", 0) == 0
    with pytest.raises(DomainError, match=r"x must be finite and positive, got 0\.0"):
        _real(0, "x", 0)
    with pytest.raises(DomainError, match=r"x must be finite and > 1, got 1\.0"):
        _real(np.float64(1.0), "x", 1)
    with pytest.raises(DomainError, match=r"k must be an integer in \[2, 5\), got 5"):
        _integer(np.int64(5), "k", 2, 5)
    with pytest.raises(DomainError, match="k must be odd, got 4"):
        _integer(4, "k", 5, span="odd")


@pytest.mark.parametrize("v", ["w", np.str_("w")])
def test_strings_are_names(v):
    got = _name(v, "rule", ("w", "rho0"))
    assert type(got) is str and got == "w"
    assert type(_name(v, "label")) is str


@pytest.mark.parametrize("v", [np.array(["w"]), np.array("w"), np.array(["w", "rho0"]), b"w",
                               None, 3, ["w"], "x"])
def test_bytes_arrays_and_other_kinds_are_not_names(v):
    with pytest.raises(DomainError, match="rule must be 'w' or 'rho0', got"):
        _name(v, "rule", ("w", "rho0"))


@pytest.mark.parametrize("v", [b"f", np.array("f"), None, 5])
def test_a_name_without_choices_must_be_a_string(v):
    with pytest.raises(DomainError, match="label must be a string, got"):
        _name(v, "label")


def test_a_cap_is_checked_after_the_kind_and_the_domain():
    assert _integer(5, "k", 2, cap=5) == 5
    assert _integer(np.int64(5), "k", 2, cap=5) == 5
    with pytest.raises(SizeCap, match=r"^k 6 exceeds the 5 cap$"):
        _integer(np.int64(6), "k", 2, cap=5)
    with pytest.raises(SizeCap, match=f"^k {10**30} exceeds the 5 cap$"):
        _integer(10**30, "k", 2, cap=5)


# each is above its cap too, and still a DomainError
@pytest.mark.parametrize("v, lo, cap", [
    (True, 0, 0), (np.True_, 0, 0), (6.0, 2, 5), (np.float64(1e30), 2, 5), ("6", 2, 5),
    (7, 10, 5), (np.int64(7), 10, 5),
], ids=["bool", "numpy-bool", "float", "numpy-float", "str", "below-lo", "numpy-below-lo"])
def test_a_wrong_kind_or_a_value_below_lo_is_a_domain_error_above_the_cap(v, lo, cap):
    with pytest.raises(DomainError, match="^k must be"):
        _integer(v, "k", lo, cap=cap)


@pytest.mark.parametrize("v", [[1, 2], (1, 2), range(1, 3), np.array([1, 2]), iter([1, 2])])
def test_iterables_are_sequences(v):
    assert [int(x) for x in _sequence(v, "ns")] == [1, 2]


@pytest.mark.parametrize("v", [60, 0.1, np.float64(0.1), np.int64(60), None, np.array(60), "60",
                               b"60"])
def test_numbers_none_and_strings_are_not_sequences(v):
    with pytest.raises(DomainError, match="ns must be a sequence, got"):
        _sequence(v, "ns")


@pytest.mark.parametrize("v", [0, 7, True, np.int64(3), None, 3.5, ["f.prob"], np.array("f.prob")])
def test_integers_and_other_kinds_are_not_paths(v):
    with pytest.raises(DomainError, match="path must be a str, bytes or os.PathLike, got"):
        _path(v)


def test_the_decision_lives_in_errors_alone():
    # operator.index is called nowhere else, no other module defines a check
    # of its own under these names, and no other module compares a value
    # with a cap: each cap is errors._integer's cap argument
    for module in sorted(f for f in os.listdir(SRC) if f.endswith(".py") and f != "errors.py"):
        with open(os.path.join(SRC, module)) as fh:
            text = fh.read()
        tree = ast.parse(text)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        compared = {node.id for cmp in ast.walk(tree) if isinstance(cmp, ast.Compare)
                    for node in ast.walk(cmp)
                    if isinstance(node, ast.Name) and re.fullmatch(r"_\w*_CAP", node.id)}
        assert "operator.index" not in text, module
        assert not defined & {"_integer", "_real", "_name", "_sequence", "_path", "_array",
                              "_checked_seed", "_check_size_cap"}, module
        assert not compared, module


# ---------------------------------------------------------------------------
# the calls that raised TypeError, truncated, parsed or accepted a wrong kind

def _no_build(n):
    raise AssertionError(f"size {n} was built")


# a list argument that is not a sequence raised TypeError ("has no len()", "is
# not iterable"), and so did a path of None or a float, where save_problem's
# 1 raised TypeError and load_problem's 10**6 OSError ("Bad file
# descriptor"): open() takes an integer for a file descriptor. No small
# integer is passed to load_problem here, which open() would read and close
@pytest.mark.parametrize("call, error", [
    (lambda: stream_seed(0, 10, "0.1", 0), DomainError),
    (lambda: noise_sigma(_FRED, "0.1"), DomainError),
    (lambda: rule_lambda("w", "4", _FRED, 0.1), DomainError),
    (lambda: AdaptiveConfig(alpha=4.0, tol="1"), DomainError),
    (lambda: run_sweep(_FRED, 0.01, 0, (1e-8, 1e-4, 10.7)), DomainError),
    (lambda: AdaptiveConfig(alpha=4.0, tol=True), DomainError),
    (lambda: AdaptiveConfig(alpha=4.0, max_iters=2.5), DomainError),
    (lambda: filter_errors(_DECOMP, _D, _D_NOISE, True), NonFiniteLambda),
    (lambda: run_sample_study(_FRED, 0.1, "1e-6", 100), NonFiniteLambda),
    (lambda: run_montecarlo([20], [0.1], 4, threads=1.5), DomainError),
    (lambda: standard_normal(True, 3), DomainError),
    (lambda: initial_lambda("4", 60), DomainError),
    (lambda: initial_lambda(4.0, 60.0), DomainError),
    (lambda: add_noise(_FRED, 0.1, [3]), DomainError),
    (lambda: run_table([np.array([20])], [0.1], AdaptiveConfig(alpha=4.0)), DomainError),
    (lambda: rule_lambda(np.array(["w"]), 4.0, _FRED, 0.1), DomainError),
    (lambda: rule_lambda(np.array(["w", "rho0"]), 4.0, _FRED, 0.1), DomainError),
    (lambda: AdaptiveConfig(alpha=4.0, stop_mode=np.array(["a", "b"])), DomainError),
    (lambda: AdaptiveConfig(alpha=4.0, stop_mode=np.array(["relative"])), DomainError),
    (lambda: run_montecarlo(60, [0.1], 4, problem=_no_build), DomainError),
    (lambda: run_montecarlo([60], 0.1, 4, problem=_no_build), DomainError),
    (lambda: run_montecarlo([60], np.float64(0.1), 4, problem=_no_build), DomainError),
    (lambda: run_montecarlo([60], None, 4, problem=_no_build), DomainError),
    (lambda: run_table(60, [0.1], AdaptiveConfig(alpha=4.0), problem=_no_build), DomainError),
    (lambda: run_table([60], 0.1, AdaptiveConfig(alpha=4.0), problem=_no_build), DomainError),
    (lambda: load_problem(None), DomainError),
    (lambda: load_problem(3.5), DomainError),
    (lambda: load_problem(10**6), DomainError),
    (lambda: save_problem(_FRED, 1), DomainError),
    (lambda: save_problem(_FRED, True), DomainError),
], ids=["stream_seed-delta-str", "noise_sigma-str", "rule_lambda-alpha-str", "tol-str",
        "sweep-count-float", "tol-bool", "max_iters-float", "filter_errors-lam-bool",
        "study-lam-str", "montecarlo-threads-float", "standard_normal-seed-bool",
        "initial_lambda-alpha-str", "initial_lambda-n-float", "add_noise-seed-list",
        "table-size-array", "rule_lambda-rule-array1", "rule_lambda-rule-array2",
        "stop_mode-array2", "stop_mode-array1", "montecarlo-ns-int", "montecarlo-deltas-float",
        "montecarlo-deltas-numpy", "montecarlo-deltas-none", "table-ns-int", "table-deltas-float",
        "load_problem-none", "load_problem-float", "load_problem-int", "save_problem-int",
        "save_problem-bool"])
def test_a_wrong_kind_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_load_problem_of_zero_does_not_read_stdin(tmp_path):
    # a .prob piped to a process's standard input was read by load_problem(0)
    save_problem(_FRED, str(tmp_path / "f.prob"))
    out = subprocess.run(
        [sys.executable, "-c", "import tikhreg; print(tikhreg.load_problem(0).n)"],
        input=(tmp_path / "f.prob").read_bytes(), capture_output=True, timeout=120,
    )
    assert out.returncode == 1
    assert b"DomainError: path must be a str, bytes or os.PathLike, got 0" in out.stderr


@pytest.mark.parametrize("seed", [5.7, [1.5, "x"], -1, [3, 2**64], True])
def test_a_count_of_zero_still_checks_every_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        standard_normal(seed, 0)


def test_a_count_of_zero_returns_an_empty_draw():
    assert standard_normal(3, 0).shape == (0,)
    assert standard_normal([3, 4], 0).shape == (2, 0)


def test_a_draw_too_large_to_allocate_raises_size_cap():
    # 8 PB, and more elements than an array can hold: numpy refuses both
    # before touching any memory
    for count in (10**15, 2**64):
        with pytest.raises(SizeCap, match="variates"):
            standard_normal(3, count)


def test_an_instance_size_must_be_an_integer(tmp_path):
    # (60.0, 60.0) == (60, 60), so the shapes accepted a float n, and
    # save_problem then failed after opening its file
    path = tmp_path / "f.prob"
    f = build_fredholm(60)
    with pytest.raises(DomainError, match="n must be an integer"):
        save_problem(ProblemInstance(n=60.0, a=None, x_star=f.x_star, y=f.y, w=None,
                                     label="f"), str(path))
    assert not path.exists()
    inst = ProblemInstance(n=np.int64(60), a=None, x_star=f.x_star, y=f.y, w=None, label="f")
    assert type(inst.n) is int


def test_an_instance_label_must_be_a_string(tmp_path):
    # a label of another kind was saved, and load_problem then refused the
    # instance's own file
    path = tmp_path / "f.prob"
    with pytest.raises(DomainError, match="label must be a string, got 5"):
        save_problem(ProblemInstance(n=20, a=None, x_star=_FRED.x_star, y=_FRED.y, w=None,
                                     label=5), str(path))
    assert not path.exists()
    inst = ProblemInstance(n=20, a=None, x_star=_FRED.x_star, y=_FRED.y, w=None,
                           label=np.str_("f"))
    assert type(inst.label) is str
    save_problem(inst, str(path))
    assert load_problem(str(path)).label == "f"


def test_numpy_strings_name_the_same_rule_and_stop():
    assert rule_lambda(np.str_("w"), 4.0, _FRED, 0.1) == rule_lambda("w", 4.0, _FRED, 0.1)
    cfg = AdaptiveConfig(alpha=4.0, stop_mode=np.str_("relative"))
    assert type(cfg.stop_mode) is str and cfg == AdaptiveConfig(alpha=4.0, stop_mode="relative")


def test_initial_lambda_keeps_its_value():
    assert initial_lambda(4.0, 60) == 60.0 ** (-0.8)
    assert initial_lambda(np.float64(4.0), np.int64(60)) == 60.0 ** (-0.8)


def test_adaptive_config_holds_python_numbers():
    cfg = AdaptiveConfig(alpha=np.float64(4.0), constant_c=np.int64(2), tol=np.float32(0.5),
                         max_iters=np.uint8(7))
    assert [type(v) for v in (cfg.alpha, cfg.constant_c, cfg.tol, cfg.max_iters)] == [
        float, float, float, int]
    assert cfg == AdaptiveConfig(alpha=4.0, constant_c=2.0, tol=0.5, max_iters=7)


# ---------------------------------------------------------------------------
# property tests: every scalar argument of every public callable

# values of a wrong kind, or of the right kind and out of range or huge
_WRONG = [
    "1", "0.1", "", None,
    True, False, np.True_, np.False_,
    1.5, 60.0, -0.5,
    math.nan, math.inf, -math.inf,
    -1, 0,
    2**64, 10**30, 2**1100, 10**15, 1e300, -1e300,
    np.array([3]), np.array([0.5]),
]


def _drawn(valid):
    # the valid value or a numpy scalar of it, as often as a wrong one (its
    # 0-d array among them), so that every argument but one is often valid;
    # a name is also drawn as bytes and as 1-element and 2-element arrays
    wrong = _WRONG
    if isinstance(valid, str):
        scalars = (np.str_,)
        wrong = [valid.encode(), np.array([valid]), np.array([valid, valid]), *_WRONG]
    elif isinstance(valid, int):
        scalars = (np.int64, np.uint32)
    else:
        scalars = (np.float64, np.float32)
    return st.one_of(st.sampled_from([valid, *(f(valid) for f in scalars)]),
                     st.sampled_from([np.array(valid), *wrong]))


def _refused(kind, v):
    # does the rule refuse v outright, whatever the argument's bounds? kind
    # "int" or "real" is the argument's own kind; "seeds" is an integer that
    # may also be a sequence of them; "name" is a string, any str subclass
    if kind == "name":
        return not isinstance(v, str)
    if isinstance(v, np.ndarray):
        return not (kind == "seeds" and v.ndim == 1) or _refused("int", v[0])
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, float, np.integer, np.floating)):
        return True
    if kind in ("int", "seeds"):
        return not isinstance(v, (int, np.integer))
    try:
        return not math.isfinite(v)
    except OverflowError:             # an integer beyond the largest float64
        return True


# public callable -> (call, {argument: (kind, valid value)}), names among them
_SCALAR_CALLS = {
    "build_fredholm": (build_fredholm, {"n": ("int", 20)}),
    "build_blur": (build_blur, {"side": ("int", 8), "psf_width": ("real", 2.0)}),
    "ProblemInstance": (partial(ProblemInstance, a=None, x_star=_FRED.x_star, y=_FRED.y, w=None),
                        {"n": ("int", 20), "label": ("name", "f")}),
    "standard_normal": (standard_normal, {"seed": ("seeds", 3), "count": ("int", 6)}),
    "stream_seed": (stream_seed, {"master_seed": ("int", 0), "n": ("int", 20),
                                  "delta": ("real", 0.1), "rep": ("seeds", 1)}),
    "noise_sigma": (partial(noise_sigma, _FRED), {"delta": ("real", 0.1)}),
    "add_noise": (partial(add_noise, _FRED), {"delta": ("real", 0.1), "seed": ("int", 3)}),
    "filter_errors": (partial(filter_errors, _DECOMP, _D, _D_NOISE), {"lam": ("real", 1e-6)}),
    "spectral_solver": (spectral_solver(_DECOMP, _FRED, _B), {"lam": ("real", 1e-6)}),
    "rule_lambda": (
        lambda rule, alpha, sigma, constant_c: rule_lambda(rule, alpha, _FRED, sigma, constant_c),
        {"rule": ("name", "rho0"), "alpha": ("real", 4.0), "sigma": ("real", 1e-3),
         "constant_c": ("real", 1.0)}),
    "initial_lambda": (initial_lambda, {"alpha": ("real", 4.0), "n": ("int", 20)}),
    "AdaptiveConfig": (AdaptiveConfig, {"alpha": ("real", 4.0), "constant_c": ("real", 1.0),
                                        "tol": ("real", 1e-10), "max_iters": ("int", 5),
                                        "stop_mode": ("name", "relative")}),
    "run_sweep": (
        lambda delta, seed, lo, hi, count, **kw: run_sweep(_FRED, delta, seed, (lo, hi, count),
                                                           **kw),
        {"delta": ("real", 0.01), "seed": ("int", 0), "lo": ("real", 1e-10),
         "hi": ("real", 1e-4), "count": ("int", 5), "rule": ("name", "w"),
         "alpha": ("real", 4.0), "constant_c": ("real", 1.0)}),
    "run_montecarlo": (
        lambda delta, reps, **kw: run_montecarlo([20], [delta], reps, **kw),
        {"delta": ("real", 0.1), "reps": ("int", 4), "rule": ("name", "rho0"),
         "constant_c": ("real", 1.0), "master_seed": ("int", 0), "alpha": ("real", 4.0),
         "threads": ("int", 1)}),
    "run_sample_study": (
        partial(run_sample_study, _FRED),
        {"delta": ("real", 0.1), "lam": ("real", 1e-6), "reps": ("int", 100),
         "master_seed": ("int", 0), "bins": ("int", 10)}),
    "run_table": (
        lambda delta, master_seed: run_table([20], [delta], AdaptiveConfig(alpha=4.0, max_iters=5),
                                             master_seed),
        {"delta": ("real", 0.1), "master_seed": ("int", 0)}),
}

# public callable -> (call, {argument: valid path}): the path, written by
# save_problem or read by load_problem, is drawn as a str, a str_, bytes or a
# pathlib.Path of it, or as a value of another kind
_PATH_CALLS = {
    "load_problem": (load_problem, "saved.prob"),
    "save_problem": (partial(save_problem, _FRED), "written.prob"),
}

# public callables whose arguments are instances, arrays or records, not
# numbers, names or paths; the records are plain NamedTuples that check nothing
_NO_NUMBER = {
    "AdaptiveTrace", "AlphaFit", "ErrorReport", "MonteCarloCell", "MonteCarloSummary",
    "NoisyData", "RegularizedSolution", "SampleStudy", "SpectralDecomposition", "SweepResult",
    "TableRow", "adaptive_select", "decompose", "error_report", "fit_alpha", "spectrum_rows",
}


def test_every_public_callable_is_classified():
    public = {name for name in tikhreg.__all__ if callable(getattr(tikhreg, name))
              and not (isinstance(getattr(tikhreg, name), type)
                       and issubclass(getattr(tikhreg, name), Exception))}
    assert public == set(_SCALAR_CALLS) | set(_PATH_CALLS) | _NO_NUMBER
    assert set(_LIST_CALLS) <= set(_SCALAR_CALLS)
    # every array argument, found by its name in the signature of each public
    # callable that checks its arguments (a record, a NamedTuple, checks
    # nothing), is drawn by the array property test or is the one exemption
    takers = {}
    for name in public:
        obj = getattr(tikhreg, name)
        if not (isinstance(obj, type) and issubclass(obj, tuple)):
            args = set(inspect.signature(obj).parameters) & _ARRAY_NAMES
            if args:
                takers[name] = args
    drawn = {name: set().union(*(args for _, args in cases)) for name, cases in _ARRAY_CALLS.items()}
    assert takers == {**drawn, **_ARRAY_EXEMPT}


@pytest.mark.parametrize("name", sorted(_SCALAR_CALLS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_scalar_argument_is_checked_by_kind(name, data):
    call, args = _SCALAR_CALLS[name]
    kwargs = {arg: data.draw(_drawn(valid), label=arg) for arg, (_, valid) in args.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**kwargs)
        except TikhregError:
            return
    assert not [arg for arg, (kind, _) in args.items() if _refused(kind, kwargs[arg])]


# the list arguments of the drivers: (call, {argument: valid item})
_LIST_CALLS = {
    "run_montecarlo": (lambda ns, deltas: run_montecarlo(ns, deltas, 4),
                       {"ns": ("int", 20), "deltas": ("real", 0.1)}),
    "run_table": (lambda ns, deltas: run_table(ns, deltas, AdaptiveConfig(alpha=4.0, max_iters=5)),
                  {"ns": ("int", 20), "deltas": ("real", 0.1)}),
}


def _drawn_list(valid):
    # the whole argument drawn as one scalar (a wrong kind, or the valid item
    # itself, which is not a sequence either), or as a list, tuple or array
    # of one item drawn as a scalar argument is
    return st.one_of(_drawn(valid), _drawn(valid).map(lambda v: [v]),
                     _drawn(valid).map(lambda v: (v,)), st.just(np.array([valid])))


def _refused_list(kind, v):
    # a list argument is refused unless it is an iterable other than a string
    # (a 0-d array is not iterable) whose every item is of the item's kind
    if isinstance(v, (str, bytes)) or not isinstance(v, (list, tuple, np.ndarray)):
        return True
    return (isinstance(v, np.ndarray) and v.ndim != 1) or any(_refused(kind, x) for x in v)


@pytest.mark.parametrize("name", sorted(_LIST_CALLS))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_list_argument_is_checked_by_kind(name, data):
    call, args = _LIST_CALLS[name]
    kwargs = {arg: data.draw(_drawn_list(valid), label=arg) for arg, (_, valid) in args.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**kwargs)
        except TikhregError:
            return
    assert not [arg for arg, (kind, _) in args.items() if _refused_list(kind, kwargs[arg])]


# values of another kind than a path. No integer below 2^20 is drawn: where
# a path is not checked, open() takes one for a file descriptor, which it
# reads and then closes
_NOT_PATHS = [None, 1.5, math.nan, -1, 10**6, 2**64, np.int64(10**6), np.float64(0.5),
              np.array(["saved.prob"]), ["saved.prob"], {"path": "saved.prob"}]


@pytest.fixture(scope="module")
def path_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("paths")
    save_problem(_FRED, str(directory / "saved.prob"))
    return directory


@pytest.mark.parametrize("name", sorted(_PATH_CALLS))
@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_every_path_argument_is_checked_by_kind(name, path_dir, data):
    call, valid = _PATH_CALLS[name]
    full = str(path_dir / valid)
    path = data.draw(st.sampled_from([full, np.str_(full), os.fsencode(full), pathlib.Path(full),
                                      *_NOT_PATHS]), label="path")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(path)
        except TikhregError:
            assert not isinstance(path, (str, bytes, os.PathLike))
            return
    assert isinstance(path, (str, bytes, os.PathLike))


# ---------------------------------------------------------------------------
# arrays: errors._array

@pytest.mark.parametrize("v", [
    np.array([1, 2]), np.array([1, 2], dtype=np.uint8), np.array([1.0, 2.0], dtype=np.float16),
    np.array([1.0, 2.0], dtype=np.float32), np.array([1.0, 2.0], dtype=">f8"),
    np.array([1.0, 9.0, 2.0])[::2],
], ids=["int64", "uint8", "float16", "float32", "big-endian", "strided"])
def test_integer_and_float_arrays_are_arrays(v):
    got = _array(v, "v", (2,))
    assert type(got) is np.ndarray and got.dtype == np.float64 and got.tolist() == [1.0, 2.0]


def test_a_float64_array_comes_back_uncopied():
    v = np.ones((3, 3))
    assert _array(v, "v", (3, 3)) is v


@pytest.mark.parametrize("v", [
    [1.0, 2.0], (1.0, 2.0), 1.0, np.float64(1.0), None, "12", np.array([True, False]),
    np.array([1 + 0j, 2 + 0j]), np.array(["1", "2"]), np.array([1.0, 2.0], dtype=object),
    np.array([1, 2], dtype="m8[s]"),
], ids=["list", "tuple", "float", "numpy-float", "none", "str", "bool", "complex", "str-array",
        "object", "timedelta"])
def test_lists_scalars_and_other_dtypes_are_not_arrays(v):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^v must be an integer or float ndarray, got"):
            _array(v, "v", (2,))


def test_a_wrong_shape_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch, match=r"^v has shape \(3,\), expected \(2,\)$"):
        _array(np.ones(3), "v", (2,))
    with pytest.raises(DimensionMismatch, match=r"^v has shape \(\), expected \(2,\)$"):
        _array(np.array(1.0), "v", (2,))
    # the kind is checked before the shape, and the shape before the entries
    with pytest.raises(DomainError):
        _array([1.0, 2.0, 3.0], "v", (2,))
    with pytest.raises(DimensionMismatch):
        _array(np.full(3, math.nan), "v", (2,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_entry_is_refused(bad):
    v = np.ones((2, 2))
    v[1, 0] = bad
    with pytest.raises(DomainError, match="^v holds non-finite values$"):
        _array(v, "v", (2, 2))
    with pytest.raises(DomainError, match="^v holds non-finite values$"):
        _array(v.astype(np.float32), "v", (2, 2))


@pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
                    reason="long double is no wider than float64 on this platform")
def test_a_long_double_beyond_float64_is_non_finite_without_a_warning():
    v = np.array([np.longdouble(1), np.longdouble("1e400")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            _array(v, "v", (2,))


def test_a_count_above_the_size_cap_raises_size_cap_before_anything_is_allocated():
    # the count had no cap: 40001 variates were drawn, and 60 million under a
    # 600 MB address-space limit filled 458 MB and then raised a bare
    # MemoryError from the Box-Muller temporary
    tracemalloc.start()
    try:
        for seed, count in ((0, _SIZE_CAP + 1), ([1, 2], 10**12)):
            with pytest.raises(SizeCap, match=f"^count of variates {count} exceeds the "
                                              f"{_SIZE_CAP} cap$"):
                standard_normal(seed, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert standard_normal(0, _SIZE_CAP).shape == (_SIZE_CAP,)


# the n = 16 blur instance: its factor T, and A = kron(T, T) as an explicit A
_BLUR = build_blur(4, 2.0)
_BLUR_A = _BLUR.dense_a()
_SOL = spectral_solver(_DECOMP, _FRED, _B)(1e-6)

# public callable -> [(call, {argument: valid array})]. An instance holds an
# explicit A or a Kronecker factor, never both, so ProblemInstance is drawn
# twice: with A and W, and with the factor
_ARRAY_CALLS = {
    "ProblemInstance": [
        (partial(ProblemInstance, n=16, label="f"),
         {"a": _BLUR_A, "x_star": _BLUR.x_star, "y": _BLUR.y,
          "w": np.eye(16) + 0.1 * np.ones((16, 16))}),
        (partial(ProblemInstance, n=16, a=None, w=None, label="b"),
         {"x_star": _BLUR.x_star, "y": _BLUR.y, "kron_factor": _BLUR.kron_factor}),
    ],
    "spectral_solver": [(partial(spectral_solver, _DECOMP, _FRED), {"b": _B})],
    "error_report": [(partial(error_report, _FRED, _DECOMP, _SOL), {"b": _B})],
}

# the arguments for which None is valid: no explicit A, W = I, no factor
_OPTIONAL = {"a", "w", "kron_factor"}

# the names of the array arguments of the public callables
_ARRAY_NAMES = {"a", "x_star", "y", "w", "kron_factor", "b", "d", "d_noise"}

# the one exemption: filter_errors' projections d and d_noise are not checked,
# since the Monte Carlo drivers (harness._scaled_errors) pass it the
# projections of a noise block that overflowed and then detect the overflow
# in the errors it returns
_ARRAY_EXEMPT = {"filter_errors": {"d", "d_noise"}}


def _drawn_array(valid):
    # the valid array or two conversions _array takes, as often as a wrong
    # one: None, a list, a tuple, a scalar, a string, a bool, complex, string
    # or object array, two wrong shapes, or one NaN or infinite entry
    def entry(bad):
        v = valid.copy()
        v.flat[v.size // 2] = bad
        return v

    wrong = [None, valid.tolist(), tuple(valid.tolist()), 1.0, "1", valid.astype(bool),
             valid.astype(complex), valid.astype(str), valid.astype(object), valid[:-1],
             valid[None], entry(math.nan), entry(math.inf), entry(-math.inf)]
    return st.one_of(st.sampled_from([valid, valid.astype(np.float32), valid.astype(">f8")]),
                     st.sampled_from(wrong))


def _refused_array(arg, v, valid):
    if v is None:
        return arg not in _OPTIONAL
    if not isinstance(v, np.ndarray) or v.dtype.kind not in "iuf" or v.shape != valid.shape:
        return True
    return not np.isfinite(v).all()


@pytest.mark.parametrize("name, case", [(name, case) for name in sorted(_ARRAY_CALLS)
                                        for case in range(len(_ARRAY_CALLS[name]))])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_every_array_argument_is_checked_by_kind(name, case, data):
    call, args = _ARRAY_CALLS[name][case]
    kwargs = {arg: data.draw(_drawn_array(valid), label=arg) for arg, valid in args.items()}
    refused = [arg for arg, valid in args.items() if _refused_array(arg, kwargs[arg], valid)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(**kwargs)
        except TikhregError:
            assert refused
            return
    assert not refused


def _instance(**fields):
    # the n = 16 instance without a factor (the kernel fill's structure) and
    # the blur's x* and y, with the given fields replaced
    return ProblemInstance(**{"n": 16, "a": None, "x_star": _BLUR.x_star, "y": _BLUR.y,
                              "w": None, "label": "f", **fields})


def _with(v, index, bad):
    v = v.copy()
    v[index] = bad
    return v


# what each did before: a list A or x* raised AttributeError, and a list
# factor was accepted and raised AttributeError in decompose; a string A or
# factor was accepted; an infinite entry in A or the factor made decompose
# return an empty spectrum, a NaN raised ConvergenceFailure there; a NaN x*
# or y made rule_lambda or noise_sigma return nan; a b of strings was parsed,
# a bool b was taken as 0 and 1, a complex b warned and lost its imaginary
# part, an object b was converted; a bool or list W was taken; a factor whose
# kron(T, T) overflows was accepted, and save_problem then warned and wrote
# an infinite A; and a W entry above half the largest float overflowed W + W^T
@pytest.mark.parametrize("call, error", [
    (lambda: _instance(x_star=[1.0] * 16), DomainError),
    (lambda: _instance(a=_BLUR_A.tolist()), DomainError),
    (lambda: _instance(kron_factor=_BLUR.kron_factor.tolist()), DomainError),
    (lambda: _instance(a=_BLUR_A.astype(str)), DomainError),
    (lambda: _instance(kron_factor=_BLUR.kron_factor.astype(str)), DomainError),
    (lambda: _instance(a=_with(_BLUR_A, (3, 5), math.inf)), DomainError),
    (lambda: _instance(kron_factor=_with(_BLUR.kron_factor, (1, 2), -math.inf)), DomainError),
    (lambda: _instance(a=_with(_BLUR_A, (3, 5), math.nan)), DomainError),
    (lambda: _instance(kron_factor=_with(_BLUR.kron_factor, (1, 2), math.nan)), DomainError),
    (lambda: _instance(x_star=_with(_BLUR.x_star, 2, math.nan)), DomainError),
    (lambda: _instance(y=_with(_BLUR.y, 0, math.nan)), DomainError),
    (lambda: spectral_solver(_DECOMP, _FRED, ["1"] * 20), DomainError),
    (lambda: spectral_solver(_DECOMP, _FRED, np.array(["1"] * 20)), DomainError),
    (lambda: spectral_solver(_DECOMP, _FRED, _B > 0), DomainError),
    (lambda: spectral_solver(_DECOMP, _FRED, _B + 1j), DomainError),
    (lambda: spectral_solver(_DECOMP, _FRED, _B.astype(object)), DomainError),
    (lambda: error_report(_FRED, _DECOMP, _SOL, _B.tolist()), DomainError),
    (lambda: weight_factor(np.eye(16, dtype=bool), 16), DomainError),
    (lambda: weight_factor(np.eye(16).tolist(), 16), DomainError),
    (lambda: _instance(w=np.eye(16, dtype=bool)), DomainError),
    (lambda: _instance(kron_factor=np.full((4, 4), 1e200)), DomainError),
    (lambda: _instance(w=np.eye(16) * 1.7e308), DomainError),
], ids=["x_star-list", "a-list", "factor-list", "a-str", "factor-str", "a-inf", "factor-inf",
        "a-nan", "factor-nan", "x_star-nan", "y-nan", "b-str-list", "b-str", "b-bool",
        "b-complex", "b-object", "error_report-b-list", "weight_factor-bool",
        "weight_factor-list", "w-bool", "factor-overflow", "w-overflow"])
def test_an_array_of_a_refused_kind_raises_a_typed_error(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


_HUGE = np.full(20, 1e300)


# finite entries whose squared norm overflows float64: each of these warned
# "overflow encountered in dot" or "in matmul" and went on with an inf
@pytest.mark.parametrize("call, quantity", [
    (lambda: noise_sigma(replace(_FRED, y=_HUGE), 0.1), "||y||^2"),
    (lambda: add_noise(replace(_FRED, y=_HUGE), 0.1, 0), "||y||^2"),
    (lambda: run_sweep(replace(_FRED, y=_HUGE), 0.1, 0, (1e-8, 1.0, 5)), "||y||^2"),
    (lambda: spectral_solver(_DECOMP, replace(_FRED, y=_HUGE), _FRED.y), "||y_perp||^2"),
    (lambda: rule_lambda("w", 4.0, replace(_FRED, x_star=_HUGE), 0.1), "||x*||_W^2"),
    (lambda: error_report(replace(_FRED, x_star=_HUGE), _DECOMP, _SOL, _B), "||x - x*||^2"),
    (lambda: rule_lambda("w", 4.0, replace(_FRED, x_star=_HUGE * 1e-150,
                                           w=np.eye(20) * 1e150), 0.1), "||x*||_W^2"),
    (lambda: spectral_solver(_DECOMP, _FRED, _HUGE), "||b_perp||^2"),
    (lambda: error_report(_FRED, _DECOMP, _SOL, _HUGE), "||b||^2"),
], ids=["noise_sigma-y", "add_noise-y", "run_sweep-y", "spectral_solver-y", "rule_lambda-x_star",
        "error_report-x_star", "rule_lambda-x_star-w", "spectral_solver-b", "error_report-b"])
def test_a_norm_that_overflows_raises_a_typed_error(call, quantity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"{quantity} overflows float64")):
            call()


_FRED60, _BLUR8 = build_fredholm(60), build_blur(8, 2.0)


# instances every check accepts whose rho_1 = s_1^2 overflows: decompose
# warned "overflow encountered in square" or "in multiply" and kept m = 0
# modes, so solve went on with x = 0
@pytest.mark.parametrize("make", [
    lambda: replace(_FRED60, a=_FRED60.dense_a() * 1e300),
    lambda: replace(_FRED60, w=np.eye(60) * 1e-320),
    lambda: replace(_BLUR8, kron_factor=_BLUR8.kron_factor * 1e150),
], ids=["dense-a", "dense-w", "kronecker"])
def test_a_spectrum_that_overflows_raises_a_typed_error(make):
    instance = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="rho_1.* overflows float64"):
            decompose(instance)


def test_an_instance_with_a_nan_is_never_saved(tmp_path):
    # save_problem wrote the instance, and load_problem then refused its file
    path = tmp_path / "f.prob"
    with pytest.raises(DomainError, match="x_star holds non-finite values"):
        save_problem(_instance(x_star=_with(_BLUR.x_star, 2, math.nan)), str(path))
    assert not path.exists()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _instance_fields(draw):
    # any finite data, for each structure: the kernel fill's (no A), an
    # explicit A, or a Kronecker factor, each with W = I, a positive
    # diagonal W or any symmetric W
    structure = draw(st.sampled_from(["fill", "explicit", "kron"]))
    side = draw(st.integers(2, 3))
    n = side * side if structure == "kron" else draw(st.integers(2, 6))
    fields = {"n": n, "a": None, "x_star": draw(hnp.arrays(np.float64, n, elements=_FINITE)),
              "y": draw(hnp.arrays(np.float64, n, elements=_FINITE)),
              "label": draw(st.text(max_size=4))}
    if structure == "explicit":
        fields["a"] = draw(hnp.arrays(np.float64, (n, n), elements=_FINITE))
    if structure == "kron":
        fields["kron_factor"] = draw(hnp.arrays(np.float64, (side, side), elements=_FINITE))
    fields["w"] = draw(st.one_of(
        st.none(),
        hnp.arrays(np.float64, n, elements=st.floats(0, exclude_min=True,
                                                       allow_infinity=False)).map(np.diag),
        hnp.arrays(np.float64, (n, n), elements=_FINITE).map(
            lambda m: np.triu(m) + np.triu(m, 1).T)))
    return fields


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(fields=_instance_fields())
def test_every_accepted_instance_round_trips_through_a_prob_file(path_dir, fields):
    path = str(path_dir / "roundtrip.prob")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            inst = ProblemInstance(**fields)
        except TikhregError:
            return
        save_problem(inst, path)
        back = load_problem(path)
    assert (back.n, back.label) == (inst.n, inst.label)
    for field in ("x_star", "y", "w", "kron_factor"):
        got, want = getattr(back, field), getattr(inst, field)
        assert (got is None) == (want is None), field
        assert want is None or got.tobytes() == want.tobytes(), field
    assert back.dense_a().tobytes() == inst.dense_a().tobytes()
