"""Regularization parameter selection: two a-priori rules and the adaptive
fixed-point iteration.

rule_lambda evaluates both a-priori rules, which solve
lambda^{(alpha+1)/(2 alpha)} = C sigma n^{-1/2} / q for lambda, where q is
either the scaled solution norm n^{-1/2} ||x*||_W or that norm plus
sigma n^{-1/2}. The adaptive iteration replaces the two
unknowns by empirical quantities of the current iterate: sigma by the scaled
residual n^{-1/2} ||A x_k - b|| and the solution norm by n^{-1/2} ||x_k||_W,
starting from lambda_0^{(alpha+1)/(2 alpha)} = n^{-1/2}. The iteration
calls its solver once per lambda and keeps the last solution it returns; on
the spectral route each call costs O(m) and forms no length-n vector.
"""

import math
from dataclasses import dataclass
from typing import List, NamedTuple

from .errors import DegenerateSolution, ZeroSolutionNorm, _integer, _name, _real, _sq_norm
from .tikhonov import RegularizedSolution

# Updates below this are treated as vanished; solving there is pointless.
_LAMBDA_FLOOR = 1e-300


def _check_rule_constants(alpha, constant_c):
    return _real(alpha, "alpha", 1), _real(constant_c, "constant_c", 0)


@dataclass(frozen=True)
class AdaptiveConfig:
    alpha: float
    constant_c: float = 1.0
    tol: float = 1e-10
    stop_mode: str = "absolute"      # "absolute" | "relative"
    max_iters: int = 100

    def __post_init__(self):
        # the checked Python numbers and name replace the fields, written past
        # the frozen __setattr__; tol = inf would pass the stop test after the
        # first update
        alpha, constant_c = _check_rule_constants(self.alpha, self.constant_c)
        self.__dict__.update(alpha=alpha, constant_c=constant_c, tol=_real(self.tol, "tol", 0),
                             max_iters=_integer(self.max_iters, "max_iters", 1),
                             stop_mode=_name(self.stop_mode, "stop_mode", ("absolute", "relative")))


class AdaptiveTrace(NamedTuple):
    """Every iterate of the adaptive run plus how it ended.

    lambdas[k] pairs with residuals[k] = n^{-1/2} ||A x_k - b|| and
    w_norms[k] = n^{-1/2} ||x_k||_W. terminated is one of "converged",
    "max_iters", "nonfinite"; final is the solution at the last solved lambda.
    """

    lambdas: List[float]
    residuals: List[float]
    w_norms: List[float]
    terminated: str
    final: RegularizedSolution

    @property
    def iters(self):
        """Number of fixed-point updates performed (trace length minus one)."""
        return len(self.lambdas) - 1


def _solve_rule(alpha, constant_c, n, s, q):
    # the lambda with lambda^{(alpha+1)/(2 alpha)} = C s n^{-1/2} / q, shared
    # by both a-priori rules and the adaptive update; a power that overflows
    # is inf, which the solvers reject and the adaptive iteration stops on
    try:
        return (constant_c * s / (math.sqrt(n) * q)) ** (2.0 * alpha / (alpha + 1.0))
    except OverflowError:
        return math.inf


def rule_lambda(rule, alpha, instance, sigma, constant_c=1.0):
    """The a-priori parameter of rule "w" or "rho0" at noise strength sigma.

    Both rules solve lambda^{(alpha+1)/(2 alpha)} = C sigma n^{-1/2} / q with
    the instance's true solution: q = n^{-1/2} ||x*||_W for "w", and
    q = rho_0 = n^{-1/2} ||x*||_W + sigma n^{-1/2} for "rho0". alpha and C,
    then sigma (finite and >= 0), then the rule name are checked, each
    raising DomainError, as does an x* whose ||x*||_W^2 overflows float64;
    q = 0 raises ZeroSolutionNorm.
    """
    alpha, constant_c = _check_rule_constants(alpha, constant_c)
    sigma = _real(sigma, "sigma", 0, strict=False)
    rule = _name(rule, "rule", ("w", "rho0"))
    # ||x*||_W = sqrt(x*^T W x*), a tiny negative round-off read as 0
    q = math.sqrt(max(_sq_norm(instance.x_star, "||x*||_W^2", instance.w), 0.0))
    q /= math.sqrt(instance.n)
    if rule == "rho0":
        q += sigma / math.sqrt(instance.n)
    if q == 0.0:
        raise ZeroSolutionNorm(f"rule {rule!r} divides by q = 0: x* has zero W-norm")
    return _solve_rule(alpha, constant_c, instance.n, sigma, q)


def initial_lambda(alpha, n):
    """Starting parameter: lambda_0 = n^{-alpha/(alpha+1)}, for finite alpha > 1 and an
    integer n >= 2 (DomainError otherwise)."""
    alpha = _real(alpha, "alpha", 1)
    # float(n), refusing an n beyond the largest float64
    return _real(_integer(n, "n", 2), "n", 2, strict=False) ** (-alpha / (alpha + 1.0))


def adaptive_select(instance, cfg, solver):
    """Run the adaptive fixed-point iteration and return its full trace.

    solver is any callable lam -> solution for one right-hand side b of this
    instance, such as tikhonov.spectral_solver(decomp, instance, b), which
    rejects a b that is not finite; only the solution's residual_b and
    w_norm are read. The solver is called once per lambda, and trace.final
    is the last solution it returned. Each update is

        lambda_{k+1}^{(alpha+1)/(2 alpha)} =
            C * (n^{-1/2} ||A x_k - b||) * n^{-1/2} * (n^{-1/2} ||x_k||_W)^{-1}

    and the run stops once |lambda_{k+1} - lambda_k| <= tol (absolute mode)
    or |lambda_{k+1} - lambda_k| / lambda_{k+1} <= tol (relative mode), the
    iteration cap is hit, or an update underflows or turns nonfinite (the
    trace then carries terminated = "nonfinite" and the last solved iterate).
    """
    root_n = math.sqrt(instance.n)
    lambdas, residuals, w_norms = [], [], []
    terminated = "max_iters"
    lam = initial_lambda(cfg.alpha, instance.n)
    for k in range(cfg.max_iters + 1):
        sol = solver(lam)
        lambdas.append(lam)
        residuals.append(sol.residual_b / root_n)
        w_norms.append(sol.w_norm / root_n)
        if k > 0:
            change = abs(lam - lambdas[-2])
            if (change <= cfg.tol if cfg.stop_mode == "absolute" else change / lam <= cfg.tol):
                terminated = "converged"
                break
        if k == cfg.max_iters:
            break          # terminated stays "max_iters"
        if w_norms[-1] == 0.0:
            raise DegenerateSolution(
                f"iterate at lambda = {lam:.6e} has zero W-norm; the update is undefined"
            )
        lam = _solve_rule(cfg.alpha, cfg.constant_c, instance.n, residuals[-1], w_norms[-1])
        if not math.isfinite(lam) or lam < _LAMBDA_FLOOR:
            terminated = "nonfinite"
            break
    return AdaptiveTrace(lambdas, residuals, w_norms, terminated, sol)
