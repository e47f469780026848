"""Weighted Tikhonov solvers and error functionals.

The minimizer of ||A x - b||^2 + lambda ||x||_W^2 is computed by two
independent routes: the normal equations (A^T A + lambda W) x = A^T b via a
Cholesky solve, and the spectral filter x = sum_k (b, A psi_k)/(lambda+rho_k)
psi_k over the retained generalized eigenpairs. Every driver and CLI command
runs on the spectral route; the normal equations (solve_direct) are the
independent reference the test suite holds it against.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import spd_solve, w_norm
from .spectral import _check_lambda, error_filter


@dataclass
class RegularizedSolution:
    lam: float
    x: np.ndarray
    residual_b: float                 # ||A x - b||
    w_norm: float                     # ||x||_W
    output_err: float                 # ||A x - A x*||


@dataclass
class ErrorReport:
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


def _solution(instance, b, lam, x, ax):
    return RegularizedSolution(
        lam=lam,
        x=x,
        residual_b=float(np.linalg.norm(ax - b)),
        w_norm=w_norm(x, instance.w),
        output_err=float(np.linalg.norm(ax - instance.y)),
    )


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
        return _solution(instance, b, float(lam), *decomp.expand(c))

    return solve


def solve_direct(instance, b, lam):
    """RegularizedSolution of (A^T A + lambda W) x = A^T b by a Cholesky solve.

    The normal-equations route, independent of the decomposition: the
    reference the spectral route is tested against (criterion 3). A^T A and
    A^T b are formed on every call.
    """
    b = _check_rhs(instance, b)
    lam = _check_lambda(lam)
    a = instance.dense_a()
    m = a.T @ a
    if instance.w.is_identity:
        m[np.diag_indices_from(m)] += lam
    else:
        m += lam * instance.w.matrix
    x = spd_solve(m, a.T @ b)
    return _solution(instance, b, lam, x, a @ x)


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
