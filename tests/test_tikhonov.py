import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhreg import (
    DomainError,
    NonFiniteLambda,
    ProblemInstance,
    WeightSpec,
    decompose,
    error_report,
    solve_direct,
    solve_spectral,
)
from tikhreg.tikhonov import direct_solver, spectral_solver


def _instance(a, x_star=None, w=None, label="t"):
    n = a.shape[0]
    x = np.zeros(n) if x_star is None else x_star
    return ProblemInstance(
        n=n, a=a, x_star=x, y=a @ x,
        w=w if w is not None else WeightSpec.identity(), label=label,
    )


def test_identity_operator_scalar_filter(rng):
    b = rng.standard_normal(8)
    inst = _instance(np.eye(8))
    for lam in (1e-3, 0.5, 2.0):
        sol = solve_direct(inst, b, lam)
        assert np.allclose(sol.x, b / (1.0 + lam), rtol=1e-13)


def test_over_regularized_limit(rng):
    a = rng.standard_normal((10, 10)) / np.sqrt(10)
    b = rng.standard_normal(10)
    inst = _instance(a)
    sol = solve_direct(inst, b, 1e12)
    assert np.linalg.norm(sol.x) <= np.linalg.norm(a.T @ b) / 1e12 * (1.0 + 1e-10)


def test_2x2_hand_solved_normal_equations():
    inst = _instance(np.diag([2.0, 1.0]))
    sol = solve_direct(inst, np.array([2.0, 1.0]), 1.0)
    assert np.allclose(sol.x, [0.8, 0.5], rtol=1e-14)


def test_solution_satisfies_normal_equations(rng):
    n = 12
    a = rng.standard_normal((n, n))
    l = rng.standard_normal((n, n)) / np.sqrt(n)
    w = WeightSpec.explicit(l @ l.T + np.eye(n))
    inst = _instance(a, w=w)
    b = rng.standard_normal(n)
    lam = 0.37
    sol = solve_direct(inst, b, lam)
    lhs = a.T @ (a @ sol.x) + lam * w.apply(sol.x)
    assert np.allclose(lhs, a.T @ b, rtol=1e-10, atol=1e-10)


def test_reported_norms_match_definitions(rng):
    a = rng.standard_normal((9, 9))
    inst = _instance(a)
    b = rng.standard_normal(9)
    sol = solve_direct(inst, b, 0.01)
    assert sol.residual_b == pytest.approx(np.linalg.norm(a @ sol.x - b), rel=1e-12)
    assert sol.w_norm == pytest.approx(np.linalg.norm(sol.x), rel=1e-12)
    assert sol.lam == 0.01


def test_single_mode_filter(fred20):
    dec = decompose(fred20)
    lam = 1e-4
    b = dec.a_psi[:, 0].copy()
    sol = solve_spectral(dec, fred20, b, lam)
    c1 = dec.rho[0] / (lam + dec.rho[0])
    assert np.allclose(sol.x, c1 * dec.psi[:, 0], atol=1e-12)


def test_vanishing_lambda_recovers_least_squares(rng):
    # well-conditioned A so the limit is stable: eigenvalues of A^T A in [0.01, 1]
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    a = q @ np.diag(np.linspace(0.1, 1.0, 10)) @ q.T
    x0 = rng.standard_normal(10)
    inst = _instance(a)
    sol = solve_direct(inst, a @ x0, 1e-10)
    assert np.allclose(sol.x, x0, rtol=1e-6, atol=1e-7)


def test_cross_solver_agreement(rng):
    n = 20
    a = rng.standard_normal((n, n))
    l = rng.standard_normal((n, n)) / np.sqrt(n)
    w = WeightSpec.explicit(l @ l.T + 0.5 * np.eye(n))
    x_true = rng.standard_normal(n)
    inst = _instance(a, x_star=x_true, w=w)
    b = inst.y + 0.01 * rng.standard_normal(n)
    dec = decompose(inst)
    for lam in (1e-8, 1e-4, 1.0):
        xd = solve_direct(inst, b, lam).x
        xs = solve_spectral(dec, inst, b, lam).x
        assert np.linalg.norm(xd - xs) <= 1e-8 * np.linalg.norm(xd)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_bad_lambda_rejected(fred20, lam):
    with pytest.raises(NonFiniteLambda):
        solve_direct(fred20, fred20.y, lam)
    dec = decompose(fred20)
    with pytest.raises(NonFiniteLambda):
        solve_spectral(dec, fred20, fred20.y, lam)


def test_error_report_exact_recovery(fred100):
    from tikhreg.tikhonov import RegularizedSolution

    dec = decompose(fred100)
    sol = RegularizedSolution(
        lam=1e-6, x=fred100.x_star.copy(), residual_b=0.0,
        w_norm=float(np.linalg.norm(fred100.x_star)),
    )
    rep = error_report(fred100, dec, sol, fred100.y)
    assert rep.rel_x == 0.0
    assert rep.rel_ax == 0.0
    assert rep.rel_res == 0.0
    assert rep.scaled_output == 0.0


def test_error_report_zero_solution(fred100):
    from tikhreg.tikhonov import RegularizedSolution

    sol = RegularizedSolution(lam=1.0, x=np.zeros(100), residual_b=float(np.linalg.norm(fred100.y)), w_norm=0.0)
    rep = error_report(fred100, None, sol, fred100.y)
    assert rep.rel_x == pytest.approx(1.0)
    assert rep.rel_res == pytest.approx(1.0)


def test_error_report_scaled_b_plumbing(fred100):
    from tikhreg import b_seminorm_sq

    dec = decompose(fred100)
    b = fred100.y + 1e-4
    sol = solve_spectral(dec, fred100, b, 1e-6)
    rep = error_report(fred100, dec, sol, b)
    want = math.sqrt(b_seminorm_sq(dec, sol.x - fred100.x_star, fred100.w) / fred100.n)
    assert rep.scaled_b == pytest.approx(want, rel=1e-6)


def test_solver_closures_match_free_functions(fred100):
    dec = decompose(fred100)
    b = fred100.y + 1e-4
    ds = direct_solver(fred100, b)
    ss = spectral_solver(dec, fred100, b)
    for lam in (1e-6, 1e-3):
        assert np.allclose(ds(lam).x, solve_direct(fred100, b, lam).x, rtol=1e-12, atol=1e-15)
        assert np.allclose(ss(lam).x, solve_spectral(dec, fred100, b, lam).x, rtol=1e-12, atol=1e-15)


@given(st.floats(1e-9, 1e3), st.floats(1.5, 1e6))
@settings(max_examples=40, deadline=None)
def test_residual_grows_and_norm_shrinks_in_lambda(lam_lo, factor):
    """Filter monotonicity: larger lambda gives larger residual, smaller ||x||_W."""
    gen = np.random.Generator(np.random.Philox(key=424242))
    a = gen.standard_normal((8, 8))
    inst = _instance(a)
    b = gen.standard_normal(8)
    lam_hi = lam_lo * factor
    lo = solve_direct(inst, b, lam_lo)
    hi = solve_direct(inst, b, lam_hi)
    assert hi.residual_b >= lo.residual_b * (1.0 - 1e-10)
    assert hi.w_norm <= lo.w_norm * (1.0 + 1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rhs_rejected(fred20, bad):
    dec = decompose(fred20)
    b = fred20.y.copy()
    b[3] = bad
    with pytest.raises(DomainError):
        solve_direct(fred20, b, 1e-6)
    with pytest.raises(DomainError):
        solve_spectral(dec, fred20, b, 1e-6)
    with pytest.raises(DomainError):
        direct_solver(fred20, b)
    with pytest.raises(DomainError):
        spectral_solver(dec, fred20, b)

