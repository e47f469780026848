"""Weighted Tikhonov solvers and error functionals.

The minimizer of ||A x - b||^2 + lambda ||x||_W^2 is computed by two
independent routes: the normal equations (A^T A + lambda W) x = A^T b via a
Cholesky solve, and the spectral filter x = sum_k (b, A psi_k)/(lambda+rho_k)
psi_k over the retained generalized eigenpairs. The two agree to solver
precision and the test suite holds them against each other.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, DomainError, NonFiniteLambda
from .linalg import spd_solve, w_norm
from .spectral import b_seminorm_sq

__all__ = [
    "RegularizedSolution",
    "ErrorReport",
    "solve_direct",
    "solve_spectral",
    "error_report",
    "direct_solver",
    "spectral_solver",
]


@dataclass
class RegularizedSolution:
    lam: float
    x: np.ndarray
    residual_b: float                 # ||A x - b||
    w_norm: float                     # ||x||_W
    output_err: Optional[float] = None    # ||A x - A x*||
    b_err_sq: Optional[float] = None      # ||B (x - x*)||^2


@dataclass
class ErrorReport:
    rel_x: float
    rel_ax: float
    rel_res: float
    scaled_output: float              # n^{-1/2} ||A x - A x*||
    scaled_b: Optional[float] = None  # n^{-1/2} ||B (x - x*)||, needs a decomposition


def _check_lambda(lam):
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise NonFiniteLambda(f"lambda must be finite and positive, got {lam!r}")
    return lam


def _check_rhs(instance, b):
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (instance.n,):
        raise DimensionMismatch(f"b has shape {b.shape}, expected ({instance.n},)")
    if not np.all(np.isfinite(b)):
        raise DomainError("b must be finite")
    return b


def _regularized_matrix(gram, lam, w):
    m = gram + lam * w.matrix if not w.is_identity else gram.copy()
    if w.is_identity:
        m[np.diag_indices_from(m)] += lam
    return m


def _solution(instance, b, lam, x, ax, b_err_sq=None):
    return RegularizedSolution(
        lam=lam,
        x=x,
        residual_b=float(np.linalg.norm(ax - b)),
        w_norm=w_norm(x, instance.w),
        output_err=float(np.linalg.norm(ax - instance.y)),
        b_err_sq=b_err_sq,
    )


def direct_solver(instance, b):
    """Callable lam -> RegularizedSolution of (A^T A + lambda W) x = A^T b.

    A^T A and A^T b are formed once, so the adaptive iteration can solve the
    same (instance, b) at a sequence of parameters.
    """
    b = _check_rhs(instance, b)
    a = instance.a
    gram = a.T @ a
    atb = a.T @ b

    def solve(lam):
        lam = _check_lambda(lam)
        x = spd_solve(_regularized_matrix(gram, lam, instance.w), atb)
        return _solution(instance, b, lam, x, a @ x)

    return solve


def spectral_solver(decomp, instance, b):
    """Callable lam -> RegularizedSolution of the filter c_k = (b, A psi_k) / (lambda + rho_k).

    The projections (b, A psi_k) and the true coefficients are formed once.
    """
    b = _check_rhs(instance, b)
    if decomp.n != instance.n:
        raise DimensionMismatch(f"decomposition is for n = {decomp.n}, instance has n = {instance.n}")
    d = decomp.a_psi.T @ b
    s = decomp.psi.T @ instance.w.apply(instance.x_star)
    sqrt_rho = np.sqrt(decomp.rho)

    def solve(lam):
        lam = _check_lambda(lam)
        c = d / (lam + decomp.rho)
        return _solution(instance, b, lam, decomp.psi @ c, decomp.a_psi @ c,
                         b_err_sq=float(np.sum(sqrt_rho * (c - s) ** 2)))

    return solve


def solve_direct(instance, b, lam):
    """One-call form of direct_solver(instance, b)(lam)."""
    return direct_solver(instance, b)(lam)


def solve_spectral(decomp, instance, b, lam):
    """One-call form of spectral_solver(decomp, instance, b)(lam)."""
    return spectral_solver(decomp, instance, b)(lam)


def error_report(instance, decomp, sol, b):
    """All error functionals of a solution against the instance's truth."""
    b = _check_rhs(instance, b)
    x_err = float(np.linalg.norm(sol.x - instance.x_star))
    x_norm = float(np.linalg.norm(instance.x_star))
    if sol.output_err is not None:
        output_err = sol.output_err
    else:
        output_err = float(np.linalg.norm(instance.a @ sol.x - instance.y))
    y_norm = float(np.linalg.norm(instance.y))
    b_norm = float(np.linalg.norm(b))
    root_n = math.sqrt(instance.n)
    if sol.b_err_sq is not None:
        scaled_b = math.sqrt(max(sol.b_err_sq, 0.0)) / root_n
    elif decomp is not None:
        scaled_b = math.sqrt(b_seminorm_sq(decomp, sol.x - instance.x_star, instance.w)) / root_n
    else:
        scaled_b = None
    return ErrorReport(
        rel_x=x_err / x_norm,
        rel_ax=output_err / y_norm,
        rel_res=sol.residual_b / b_norm,
        scaled_output=output_err / root_n,
        scaled_b=scaled_b,
    )

