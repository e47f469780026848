"""The weighted Tikhonov solver and its error functionals.

The minimizer of ||A x - b||^2 + lambda ||x||_W^2 is the spectral filter
x = sum_k c_k psi_k, c_k = d_k/(lambda+rho_k) with d_k = (b, A psi_k), over
the retained generalized eigenpairs, the route of every driver and CLI
command. On every route the psi_k are W-orthonormal and the A psi_k are
orthogonal with ||A psi_k||^2 = rho_k, so the scalars of a solution are
m-term sums (Hansen, Rank-Deficient and Discrete Ill-Posed Problems, SIAM
1998, 4.4). With the noise projections d_noise,k = (b - y, A psi_k):

    ||A x - b||^2      = ||b_perp||^2 + sum_k (rho_k c_k - d_k)^2 / rho_k,
    ||A x - y||^2      = ||y_perp||^2 + sum_k (d_noise,k - lambda c_k)^2 / rho_k,
    ||B(x - x*)||^2    = sum_k (d_noise,k - lambda c_k)^2 / rho_k^{3/2},
    ||x||_W^2          = sum_k c_k^2,

where v_perp = v - sum_k ((v, A psi_k)/rho_k) A psi_k is the part of v
outside the span of the A psi_k, and the B-seminorm is taken on the
retained modes. The noise form holds because (y, A psi_k) = rho_k
(x*, psi_k)_W, so rho c - (y, A psi_k) = d_noise - lambda c; it keeps the
noise projection free of the cancellation between d and (y, A psi_k).
spectral.filter_errors computes c and both noise sums, for this solver and
for every experiment driver. b_perp and y_perp are formed once, in n-space,
when the solver of one b is built; after that every lambda costs O(m), and
x is formed only when a solution is asked for. The normal equations
(A^T A + lambda W) x = A^T b are not shipped: the test suite holds this route
against them (tests/reference.py, criterion 3).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, DomainError
from .spectral import filter_errors


class RegularizedSolution(NamedTuple):
    lam: float
    x: np.ndarray                     # None from a solver's scalars, which form no x
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


def _perp_sq(decomp, v, d):
    # ||v_perp||^2 for the projections d = (v, A psi_k)
    v_perp = v - decomp.image(d / decomp.rho)
    return float(v_perp @ v_perp)


def _residual_terms(d, rho, sqrt_rho, lam):
    # the residual terms (rho c - d)^2/rho as (d g / sqrt(rho))^2 with
    # g = 1/(1 + rho/lam) = lam/(lam + rho): each operation rounds a monotone
    # function of its one varying operand, so every term is nondecreasing in lam.
    # A subnormal lam can overflow rho/lam to inf, where g = 0 is the limit
    with np.errstate(over="ignore"):
        g = 1.0 / (1.0 + rho / lam)
    return (d * g / sqrt_rho) ** 2


def spectral_solver(decomp, instance, b):
    """Callable solver(lam) -> RegularizedSolution for one right-hand side b.

    One solve is spectral_solver(decomp, instance, b)(lam), the filter
    c_k = (b, A psi_k) / (lambda + rho_k). The projections of b and b - y,
    ||b_perp||^2 and ||y_perp||^2 are formed here, once per b. residual_b,
    w_norm and output_err at each lambda are the m-term sums of the module
    docstring, c and the output error from spectral.filter_errors, and
    x = psi c is formed by decomp.expand on each call. solver.scalars(lam)
    returns the same solution with x None and forms no length-n vector, so a
    run over many lambdas (adaptive_select) forms x once, at the lambda it
    keeps. A b that is not finite raises DomainError, a lambda that is not
    finite and positive NonFiniteLambda.
    """
    if decomp.n != instance.n:
        raise DimensionMismatch(f"decomposition is for n = {decomp.n}, instance has n = {instance.n}")
    b = _check_rhs(instance, b)
    rho = decomp.rho
    sqrt_rho = np.sqrt(rho)
    d = decomp.project(b)
    d_noise = decomp.project(b - instance.y)
    b_perp_sq = _perp_sq(decomp, b, d)
    y_perp_sq = _perp_sq(decomp, instance.y, decomp.project(instance.y))

    def filtered(lam):
        # (the solution with x None, its coefficients c), in O(m); the
        # kernel checks lam
        c, out_sq, _ = filter_errors(decomp, d, d_noise, lam)
        lam = float(lam)
        res_terms = _residual_terms(d, rho, sqrt_rho, lam)
        sol = RegularizedSolution(
            lam=lam,
            x=None,
            residual_b=math.sqrt(b_perp_sq + float(np.sum(res_terms))),
            w_norm=math.sqrt(float(np.sum(c * c))),
            output_err=math.sqrt(y_perp_sq + float(out_sq)),
        )
        return sol, c

    def solve(lam):
        sol, c = filtered(lam)
        return sol._replace(x=decomp.expand(c))

    solve.scalars = lambda lam: filtered(lam)[0]
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
