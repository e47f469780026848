"""The weighted Tikhonov solver and its error functionals.

The minimizer of ||A x - b||^2 + lambda ||x||_W^2 is the spectral filter
x = sum_k (b, A psi_k)/(lambda+rho_k) psi_k over the retained generalized
eigenpairs, the route of every driver and CLI command. The normal equations
(A^T A + lambda W) x = A^T b are not shipped: the test suite holds this route
against them (tests/reference.py, criterion 3).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import w_norm
from .spectral import error_filter


class RegularizedSolution(NamedTuple):
    lam: float
    x: np.ndarray
    residual_b: float                 # ||A x - b||
    w_norm: float                     # ||x||_W
    output_err: float                 # ||A x - A x*||


class ErrorReport(NamedTuple):
    rel_x: float
    rel_ax: float
    rel_res: float
    scaled_output: float              # n^{-1/2} ||A x - A x*||


def _check_rhs(instance, b):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (instance.n,):
        raise DimensionMismatch(f"b has shape {b.shape}, expected ({instance.n},)")
    if not np.all(np.isfinite(b)):
        raise DomainError("b must be finite")
    return b


def spectral_solver(decomp, instance, b):
    """Callable lam -> RegularizedSolution of the filter c_k = (b, A psi_k) / (lambda + rho_k).

    The projections (b, A psi_k) are formed once by decomp.project; c comes
    from spectral.error_filter, the one filter kernel, and x and A x from
    decomp.expand(c), so the residual and ||A x - A x*|| are measured in
    n-space.
    """
    b = _check_rhs(instance, b)
    errors = error_filter(decomp, instance)
    d = decomp.project(b)

    def solve(lam):
        c, _, _ = errors(d, lam)
        x, ax = decomp.expand(c)
        return RegularizedSolution(
            lam=float(lam),
            x=x,
            residual_b=float(np.linalg.norm(ax - b)),
            w_norm=w_norm(x, instance.w),
            output_err=float(np.linalg.norm(ax - instance.y)),
        )

    return solve


def error_report(instance, sol, b):
    """Relative errors of a solution in x, A x and the residual, and the scaled
    output error n^{-1/2} ||A x - A x*||, all against the instance's truth.

    A zero ||x*||, ||y|| or ||b|| raises DomainError."""
    b = _check_rhs(instance, b)
    x_err = float(np.linalg.norm(sol.x - instance.x_star))
    x_norm = float(np.linalg.norm(instance.x_star))
    y_norm = float(np.linalg.norm(instance.y))
    b_norm = float(np.linalg.norm(b))
    if 0.0 in (x_norm, y_norm, b_norm):
        raise DomainError(f"relative errors need nonzero norms, got ||x*|| = {x_norm}, "
                          f"||y|| = {y_norm}, ||b|| = {b_norm}")
    return ErrorReport(
        rel_x=x_err / x_norm,
        rel_ax=sol.output_err / y_norm,
        rel_res=sol.residual_b / b_norm,
        scaled_output=sol.output_err / math.sqrt(instance.n),
    )
