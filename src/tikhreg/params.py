"""Regularization parameter selection: two a-priori rules and the adaptive
fixed-point iteration.

rule_lambda evaluates both a-priori rules, which solve
lambda^{(alpha+1)/(2 alpha)} = C sigma n^{-1/2} / q for lambda, where q is
either the scaled solution norm n^{-1/2} ||x*||_W or that norm plus
sigma n^{-1/2}. The adaptive iteration replaces the two
unknowns by empirical quantities of the current iterate: sigma by the scaled
residual n^{-1/2} ||A x_k - b|| and the solution norm by n^{-1/2} ||x_k||_W,
starting from lambda_0^{(alpha+1)/(2 alpha)} = n^{-1/2}.
"""

import math
from dataclasses import dataclass, field
from typing import List

from .errors import DegenerateSolution, DomainError, ZeroSolutionNorm
from .tikhonov import RegularizedSolution

# Updates below this are treated as vanished; solving there is pointless.
_LAMBDA_FLOOR = 1e-300


def _check_rule_constants(alpha, constant_c):
    if not 1 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and exceed 1, got {alpha}")
    if not 0 < constant_c < math.inf:
        raise DomainError(f"constant_c must be finite and positive, got {constant_c}")


@dataclass(frozen=True)
class AdaptiveConfig:
    alpha: float
    constant_c: float = 1.0
    tol: float = 1e-10
    stop_mode: str = "absolute"      # "absolute" | "relative"
    max_iters: int = 100

    def __post_init__(self):
        _check_rule_constants(self.alpha, self.constant_c)
        # tol = inf would pass the stop test after the first update
        if not 0 < self.tol < math.inf:
            raise DomainError(f"tol must be finite and positive, got {self.tol}")
        if self.stop_mode not in ("absolute", "relative"):
            raise DomainError(f"stop_mode must be absolute or relative, got {self.stop_mode!r}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class AdaptiveTrace:
    """Every iterate of the adaptive run plus how it ended.

    lambdas[k] pairs with residuals[k] = n^{-1/2} ||A x_k - b|| and
    w_norms[k] = n^{-1/2} ||x_k||_W. terminated is one of "converged",
    "max_iters", "nonfinite"; final is the solution at the last solved lambda.
    """

    lambdas: List[float] = field(default_factory=list)
    residuals: List[float] = field(default_factory=list)
    w_norms: List[float] = field(default_factory=list)
    terminated: str = "max_iters"
    final: RegularizedSolution = None

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
    raising DomainError; q = 0 raises ZeroSolutionNorm.
    """
    _check_rule_constants(alpha, constant_c)
    if sigma < 0 or not math.isfinite(sigma):
        raise DomainError(f"sigma must be finite and >= 0, got {sigma}")
    if rule not in ("w", "rho0"):
        raise DomainError(f"unknown rule {rule!r} (expected 'w' or 'rho0')")
    x = instance.x_star
    wx = x if instance.w is None else instance.w @ x
    # ||x*||_W = sqrt(x*^T W x*), a tiny negative round-off read as 0
    q = math.sqrt(max(float(x @ wx), 0.0)) / math.sqrt(instance.n)
    if rule == "rho0":
        q += sigma / math.sqrt(instance.n)
    if q == 0.0:
        raise ZeroSolutionNorm(f"rule {rule!r} divides by q = 0: x* has zero W-norm")
    return _solve_rule(alpha, constant_c, instance.n, sigma, q)


def initial_lambda(alpha, n):
    """Starting parameter: lambda_0 = n^{-alpha/(alpha+1)}."""
    return float(n) ** (-alpha / (alpha + 1.0))


def adaptive_select(instance, cfg, solver):
    """Run the adaptive fixed-point iteration and return its full trace.

    solver is any callable lam -> RegularizedSolution for one right-hand side
    b of this instance, such as tikhonov.spectral_solvers(decomp, instance)(b),
    which rejects a b that is not finite. A solver with a scalars attribute
    (a callable lam -> RegularizedSolution with x None, as the spectral
    solvers have) has every iterate measured by it, in O(m) on the spectral
    route, and is itself called once, at the last solved lambda, for
    trace.final. Each update is

        lambda_{k+1}^{(alpha+1)/(2 alpha)} =
            C * (n^{-1/2} ||A x_k - b||) * n^{-1/2} * (n^{-1/2} ||x_k||_W)^{-1}

    and the run stops once |lambda_{k+1} - lambda_k| <= tol (absolute mode)
    or |lambda_{k+1} - lambda_k| / lambda_{k+1} <= tol (relative mode), the
    iteration cap is hit, or an update underflows or turns nonfinite (the
    trace then carries terminated = "nonfinite" and the last solved iterate).
    """
    measure = getattr(solver, "scalars", solver)
    root_n = math.sqrt(instance.n)
    trace = AdaptiveTrace()
    lam = initial_lambda(cfg.alpha, instance.n)
    for k in range(cfg.max_iters + 1):
        sol = measure(lam)
        trace.lambdas.append(lam)
        trace.residuals.append(sol.residual_b / root_n)
        trace.w_norms.append(sol.w_norm / root_n)
        if k > 0:
            change = abs(lam - trace.lambdas[-2])
            if (change <= cfg.tol if cfg.stop_mode == "absolute" else change / lam <= cfg.tol):
                trace.terminated = "converged"
                break
        if k == cfg.max_iters:
            break          # terminated keeps its default, "max_iters"
        if trace.w_norms[-1] == 0.0:
            raise DegenerateSolution(
                f"iterate at lambda = {lam:.6e} has zero W-norm; the update is undefined"
            )
        lam = _solve_rule(cfg.alpha, cfg.constant_c, instance.n, trace.residuals[-1],
                          trace.w_norms[-1])
        if not math.isfinite(lam) or lam < _LAMBDA_FLOOR:
            trace.terminated = "nonfinite"
            break
    trace.final = sol if sol.x is not None else solver(sol.lam)
    return trace
