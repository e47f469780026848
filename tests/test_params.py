import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhreg import (
    AdaptiveConfig,
    DegenerateSolution,
    DomainError,
    ProblemInstance,
    ZeroSolutionNorm,
    add_noise,
    adaptive_select,
    build_blur,
    decompose,
    fit_alpha,
    initial_lambda,
    rule_lambda,
    run_sweep,
)
from tikhreg.tikhonov import RegularizedSolution, spectral_solver

from reference import solve_direct


def _inst(x_norm=1.0, n=4):
    # x* = x_norm * ones(n) and W = I, so n^{-1/2} ||x*||_W = x_norm
    x = np.full(n, x_norm)
    return ProblemInstance(n=n, a=np.eye(n), x_star=x, y=x, w=None, label="rule")


def _rule(rule="w", alpha=4.0, x_norm=1.0, sigma=2e-4, constant_c=1.0, n=4):
    # sigma n^{-1/2} / x_norm = 1e-4 at the defaults
    return rule_lambda(rule, alpha, _inst(x_norm, n), sigma, constant_c)


def test_rule_input_validation():
    with pytest.raises(DomainError):
        _rule(alpha=1.0)
    with pytest.raises(DomainError):
        _rule(sigma=-1.0)
    with pytest.raises(DomainError):
        _rule(constant_c=0.0)
    with pytest.raises(DomainError):
        _rule(sigma=math.inf)
    # alpha and C are checked first, then sigma, then the rule name
    with pytest.raises(DomainError, match="alpha"):
        _rule(rule="lcurve", alpha=1.0, sigma=-1.0)
    with pytest.raises(DomainError, match="sigma"):
        _rule(rule="lcurve", sigma=-1.0)


@pytest.mark.parametrize("make", [
    lambda **kw: _rule(**kw),
    lambda **kw: AdaptiveConfig(**{"alpha": 4.0, **kw}),
], ids=["rule_lambda", "AdaptiveConfig"])
@pytest.mark.parametrize("name,value", [
    ("alpha", math.inf), ("alpha", math.nan), ("constant_c", math.inf), ("constant_c", math.nan),
])
def test_rule_constants_must_be_finite(make, name, value):
    with pytest.raises(DomainError, match=name):
        make(**{name: value})


def test_prior_rule_w_zero_sigma():
    assert _rule(sigma=0.0) == 0.0


def test_prior_rule_w_direct_formula():
    # sigma * n^{-1/2} / x_norm = 1e-4 at alpha 4 gives 10^{-32/5}
    lam = _rule()
    assert lam == pytest.approx(10.0 ** (-32.0 / 5.0), rel=1e-12)
    assert lam == pytest.approx(3.981e-7, rel=1e-3)


def test_prior_rule_w_homogeneous_in_c():
    lam1 = _rule(constant_c=1.0)
    lam2 = _rule(constant_c=2.0)
    assert lam2 / lam1 == pytest.approx(2.0 ** (8.0 / 5.0), rel=1e-12)


def test_prior_rule_w_zero_norm_rejected():
    with pytest.raises(ZeroSolutionNorm):
        _rule(x_norm=0.0)


def test_prior_rule_rho0_zero_norm_limit():
    # x_norm = 0 cancels: rho_0 = sigma n^{-1/2} and lambda = C^{2a/(a+1)}
    for c in (1.0, 3.0):
        lam = _rule("rho0", x_norm=0.0, constant_c=c)
        assert lam == pytest.approx(c ** (8.0 / 5.0), rel=1e-12)


def test_prior_rho0_first_order_agreement():
    eps = 1e-6  # sigma n^{-1/2} / x_norm
    lw = _rule("w", sigma=2.0 * eps)
    lr = _rule("rho0", sigma=2.0 * eps)
    rel = abs(lr - lw) / lw
    assert rel == pytest.approx((8.0 / 5.0) * eps, rel=1e-3)


@given(
    st.floats(1.5, 8.0),
    st.floats(1e-6, 1e-1),
    st.floats(0.1, 10.0),
)
@settings(max_examples=60)
def test_rules_monotone(alpha, sigma, x_norm):
    for rule in ("w", "rho0"):
        base = _rule(rule, alpha, x_norm, sigma, n=1000)
        assert _rule(rule, alpha, x_norm, sigma * 2.0, n=1000) > base
        assert _rule(rule, alpha, x_norm * 2.0, sigma, n=1000) < base


def test_rule_constant_that_overflows_gives_inf(fred200, dec200):
    # C s n^{-1/2} / q = 1e304 here, whose power 8/5 overflows float64
    assert _rule("w", constant_c=1e308) == math.inf
    assert _rule("rho0", constant_c=1e308) == math.inf
    b = _noisy(fred200, 0.1, 11)
    cfg = AdaptiveConfig(alpha=4.0, constant_c=1e308)
    tr = adaptive_select(fred200, cfg, spectral_solver(dec200, fred200, b))
    assert tr.terminated == "nonfinite"
    assert tr.iters == 0


def test_initial_lambda_formula():
    assert initial_lambda(4.0, 10000) == pytest.approx(10.0 ** (-16.0 / 5.0), rel=1e-12)
    assert initial_lambda(4.0, 10000) == pytest.approx(6.3096e-4, rel=1e-4)


def test_adaptive_config_validation():
    with pytest.raises(DomainError):
        AdaptiveConfig(alpha=1.0)
    with pytest.raises(DomainError):
        AdaptiveConfig(alpha=4.0, tol=0.0)
    with pytest.raises(DomainError):
        AdaptiveConfig(alpha=4.0, stop_mode="sometimes")
    with pytest.raises(DomainError):
        AdaptiveConfig(alpha=4.0, max_iters=0)
    with pytest.raises(DomainError):
        AdaptiveConfig(alpha=4.0, constant_c=-1.0)


def _noisy(inst, delta, seed):
    return add_noise(inst, delta, seed).b


def test_adaptive_converges_and_traces(fred200):
    b = _noisy(fred200, 0.1, 5)
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-10, stop_mode="absolute")
    tr = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    assert tr.terminated == "converged"
    assert tr.iters == len(tr.lambdas) - 1
    assert len(tr.lambdas) == len(tr.residuals) == len(tr.w_norms)
    assert all(lam > 0 and math.isfinite(lam) for lam in tr.lambdas)
    assert tr.lambdas[0] == pytest.approx(initial_lambda(2.0, 200), rel=1e-12)
    assert abs(tr.lambdas[-1] - tr.lambdas[-2]) <= 1e-10
    assert tr.final.lam == tr.lambdas[-1]


def test_adaptive_deterministic(fred200):
    b = _noisy(fred200, 0.05, 6)
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-10, stop_mode="absolute")
    t1 = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    t2 = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    assert t1.lambdas == t2.lambdas
    assert t1.terminated == t2.terminated


def test_adaptive_scale_equivariant(fred200):
    """The update is a ratio, so b -> c b with x* -> c x* leaves lambdas put."""
    from tikhreg import ProblemInstance

    c = 37.0
    scaled = ProblemInstance(
        n=fred200.n, a=fred200.dense_a(), x_star=c * fred200.x_star,
        y=c * fred200.y, w=fred200.w, label=fred200.label,
    )
    b = _noisy(fred200, 0.1, 7)
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-14, stop_mode="relative", max_iters=40)
    t1 = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    t2 = adaptive_select(scaled, cfg, partial(solve_direct, scaled, c * b))
    assert len(t1.lambdas) == len(t2.lambdas)
    assert np.allclose(t1.lambdas, t2.lambdas, rtol=1e-9)


def test_adaptive_relative_stop(fred200):
    b = _noisy(fred200, 0.1, 8)
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-3, stop_mode="relative")
    tr = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    assert tr.terminated == "converged"
    dl = abs(tr.lambdas[-1] - tr.lambdas[-2]) / tr.lambdas[-1]
    assert dl <= 1e-3


def test_relative_stop_divides_by_the_new_lambda(fred20):
    # a stub solver whose update halves lambda: |lambda_{k+1} - lambda_k| is
    # lambda_{k+1} itself, and half of lambda_k. At alpha = 2 the update is
    # lambda = (s / (sqrt(n) q))^{4/3} with s = n^{-1/2} residual_b and
    # q = n^{-1/2} w_norm = 1
    n = fred20.n

    def halving(lam):
        return RegularizedSolution(lam=lam, c=None, residual_b=n * (lam / 2) ** 0.75,
                                   w_norm=math.sqrt(n), output_err=0.0)

    def run(tol):
        return adaptive_select(fred20, AdaptiveConfig(alpha=2.0, tol=tol, stop_mode="relative",
                                                      max_iters=6), halving)

    trace = run(0.75)
    assert trace.terminated == "max_iters" and len(trace.lambdas) == 7
    assert trace.lambdas[1] == pytest.approx(trace.lambdas[0] / 2, rel=1e-14)
    trace = run(1.01)
    assert trace.terminated == "converged" and len(trace.lambdas) == 2


def test_adaptive_max_iters(fred200):
    b = _noisy(fred200, 0.1, 9)
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-300, stop_mode="relative", max_iters=3)
    tr = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    assert tr.terminated == "max_iters"
    assert tr.iters == 3


def test_adaptive_rejects_nonfinite_b(fred200, dec200):
    b = fred200.y.copy()
    b[0] = math.nan
    cfg = AdaptiveConfig(alpha=2.0)
    # the solver owns b and rejects it before the first iterate
    with pytest.raises(DomainError):
        adaptive_select(fred200, cfg, spectral_solver(dec200, fred200, b))


def test_adaptive_degenerate_solution(fred200):
    def dead_solver(lam):
        return RegularizedSolution(lam=lam, c=np.zeros(1), residual_b=1.0, w_norm=0.0,
                                   output_err=1.0)

    cfg = AdaptiveConfig(alpha=2.0)
    with pytest.raises(DegenerateSolution):
        adaptive_select(fred200, cfg, dead_solver)


def test_adaptive_noise_free_decays_to_underflow(fred20):
    """With b = y the residual term drags lambda to zero superlinearly.

    A floating-point solver stalls on its rounding floor, so the map is run
    on the exact spectral forms, where the decay continues until the
    underflow guard trips.
    """
    dec = decompose(fred20)
    s = fred20.x_star @ dec.psi        # fred20.w is the identity

    def exact(lam):
        shrink = lam * s / (lam + dec.rho)
        c = dec.rho * s / (lam + dec.rho)
        residual = math.sqrt(float(np.sum(dec.rho * shrink**2)))    # b = y: also ||A x - y||
        return RegularizedSolution(
            lam=lam, c=c, residual_b=residual,
            w_norm=math.sqrt(float(np.sum(c**2))), output_err=residual,
        )

    cfg = AdaptiveConfig(alpha=4.0, constant_c=1.0, tol=1e-6, stop_mode="relative", max_iters=50)
    tr = adaptive_select(fred20, cfg, exact)
    lams = np.asarray(tr.lambdas)
    assert tr.terminated == "nonfinite"
    assert bool(np.all(np.diff(lams) < 0.0))
    assert lams[-1] < 1e-100


def test_blur_rule_with_large_constant_near_sweep_minimum():
    """C = 6 on the blur family puts the rule within a decade of the argmin."""
    inst = build_blur(40, 2.0)
    alpha = fit_alpha(decompose(inst)).alpha_hat
    res = run_sweep(inst, 1e-2, 3, (1e-12, 1e-2, 40),
                    rule="rho0", alpha=alpha, constant_c=6.0)
    gap = abs(math.log10(res.lambda_pred / res.argmin_lambda))
    assert gap <= 1.0
    assert res.err_at_pred <= 1.5 * res.err_min


def test_adaptive_spectral_and_direct_routes_agree(fred200):
    b = _noisy(fred200, 0.1, 10)
    cfg = AdaptiveConfig(alpha=2.0, constant_c=1.0, tol=1e-10, stop_mode="absolute")
    dec = decompose(fred200)
    td = adaptive_select(fred200, cfg, partial(solve_direct, fred200, b))
    ts = adaptive_select(fred200, cfg, spectral_solver(dec, fred200, b))
    assert td.terminated == ts.terminated == "converged"
    assert td.final.lam == pytest.approx(ts.final.lam, rel=1e-6)
