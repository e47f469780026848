"""Exception types shared across the package, and the one check of each kind of argument.

Every number a public callable takes goes through _integer or _real, which
decide by the argument's kind, not by whether int() or float() would take
it:

- a bool (Python or numpy) is neither an integer nor a real;
- a float or a string is not an integer;
- a string, a NaN, an infinity and an array (of any shape, 0-d included) are
  not reals;
- Python and numpy integer and float scalars pass.

The kinds are numbers.Integral and numbers.Real less bool: numpy registers
its integer and float scalars there, and neither its bool nor its arrays. So
the rule is the same on every numpy, whichever arrays float() converts. A
value of the wrong kind or outside its bounds raises DomainError (or the
class the caller names), never TypeError, and is never truncated.

Every name (a rule, a stop mode, a label) goes through _name, by the same
rule: a str passes, a subclass of it such as numpy's str_ included, and
comes back as a Python str; bytes, an array of strings (whose == and `in`
compare element by element) and anything else raise DomainError, as does a
str outside the name's choices.

A cap is one more argument of _integer, checked last: the kind and then the
domain [lo, hi), each raising DomainError, and only then the cap, so that a
value above cap raises SizeCap only when it is a well-formed integer (a
bool, a float or a value below lo is a DomainError whatever its size).

A list argument (a driver's sizes or deltas) goes through _sequence: any
iterable but a str or bytes passes and is read once into a list, and a
number, None or a 0-d array raises DomainError; each item is then checked
as a scalar. A path goes through _path: a str, bytes or os.PathLike passes,
and anything else raises DomainError before open() can take an integer for
a file descriptor.

Every array (A, x*, y, W, a Kronecker factor, a right-hand side b, each
block a .prob file holds) goes through _array, by the same rule: a numpy
ndarray of integer or floating dtype passes and comes back as a plain
float64 array, the same object when it already is one. A list, a tuple, a
scalar and an array of bool, complex, string or object dtype raise
DomainError, so strings are never parsed, bools are never 0 and 1 and an
imaginary part is never dropped; a shape other than the one the caller
names raises DimensionMismatch, and a NaN or infinite entry (after the
conversion, so a long double beyond float64 is one) DomainError.

Finite entries can still make a norm overflow: ||v||^2 of a y of 1e300
entries is inf. Every squared norm of the data (||y||, ||x*||_W, ||b||, and
the error and residual norms of a report or a solver) goes through
_sq_norm where it is formed, which raises DomainError naming the quantity
instead of a RuntimeWarning and an inf passed on.
"""

import math
import numbers
import operator
import os

import numpy as np

# the bounds and the name of an unsigned 64-bit integer, the kind of a seed
_U64 = (0, 2**64, "an unsigned 64-bit integer")


class TikhregError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(TikhregError):
    """Vector or matrix dimensions are incompatible."""


class NotSymmetric(TikhregError):
    """A matrix required to be symmetric exceeds the asymmetry tolerance."""


class NotSPD(TikhregError):
    """Cholesky factorization hit a non-positive pivot."""


class ConvergenceFailure(TikhregError):
    """The SVD of a spectral route did not converge."""


class DomainError(TikhregError):
    """A scalar argument lies outside its admissible domain."""


class SizeCap(TikhregError):
    """Requested problem size exceeds the supported cap."""


class InsufficientSpectrum(TikhregError):
    """Too few retained eigenvalues for the requested spectral fit."""


class NonFiniteLambda(TikhregError):
    """A regularization parameter is zero, negative, or not finite."""


class ZeroSolutionNorm(TikhregError):
    """A parameter rule received a zero solution norm it cannot divide by."""


class DegenerateSolution(TikhregError):
    """An iterate collapsed to the zero vector, leaving the update undefined."""


class DegenerateSample(TikhregError):
    """A sample is constant, so standardization is undefined."""


def _integer(v, what, lo=-math.inf, hi=math.inf, span=None, cap=None):
    """v as a Python int with lo <= v < hi, else DomainError naming span or [lo, hi);
    then SizeCap if v is above cap."""
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
        raise DomainError(f"{what} must be an integer, got {v!r}")
    v = operator.index(v)
    if not lo <= v < hi:
        raise DomainError(f"{what} must be {span or f'an integer in [{lo}, {hi})'}, got {v}")
    if cap is not None and v > cap:
        raise SizeCap(f"{what} {v} exceeds the {cap} cap")
    return v


def _real(v, what, lo, strict=True, error=DomainError):
    """v as a finite float above lo (at or above it if not strict), else error."""
    if type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
        raise error(f"{what} must be a real number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:                   # an integer beyond the largest float64
        v = math.inf
    if v < math.inf and (lo < v if strict else lo <= v):
        return v
    bound = "positive" if strict and lo == 0 else f"{'>' if strict else '>='} {lo}"
    raise error(f"{what} must be finite and {bound}, got {v!r}")


def _name(v, what, choices=None):
    """v as a Python str, one of choices if given, else DomainError."""
    if isinstance(v, str) and (choices is None or v in choices):
        return str(v)
    expected = "a string" if choices is None else " or ".join(map(repr, choices))
    raise DomainError(f"{what} must be {expected}, got {v!r}")


def _sequence(v, what):
    """The items of v as a list, if v is an iterable other than a string, else DomainError."""
    try:
        items = iter(v)
    except TypeError:                       # a number, None, a 0-d array
        items = None
    if items is None or isinstance(v, (str, bytes)):
        raise DomainError(f"{what} must be a sequence, got {v!r}")
    return list(items)


def _path(v):
    """v if it is a str, bytes or os.PathLike, else DomainError."""
    if isinstance(v, (str, bytes, os.PathLike)):
        return v
    raise DomainError(f"path must be a str, bytes or os.PathLike, got {v!r}")


def _array(v, what, shape):
    """v as a float64 ndarray of the given shape with finite entries; DomainError
    for another kind or a non-finite entry, DimensionMismatch for another shape."""
    if not isinstance(v, np.ndarray) or v.dtype.kind not in "iuf":
        got = getattr(v, "dtype", type(v))
        raise DomainError(f"{what} must be an integer or float ndarray, got {got}")
    if v.shape != shape:
        raise DimensionMismatch(f"{what} has shape {v.shape}, expected {shape}")
    with np.errstate(over="ignore"):        # a long double beyond float64 becomes inf
        v = np.asarray(v, dtype=np.float64)
    if not np.isfinite(v).all():
        raise DomainError(f"{what} holds non-finite values")
    return v


def _sq_norm(v, what, w=None):
    """v^T v, or v^T W v for a given W, as a float; DomainError, naming what, when it
    overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):  # W v = inf and v = 0 make a NaN
        sq = float(v @ (v if w is None else w @ v))
    if not sq < math.inf:
        raise DomainError(f"{what} overflows float64")
    return sq
