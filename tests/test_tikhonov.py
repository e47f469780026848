import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhreg import (
    AdaptiveConfig,
    DomainError,
    NonFiniteLambda,
    ProblemInstance,
    adaptive_select,
    add_noise,
    build_blur,
    build_fredholm,
    decompose,
    error_report,
    filter_errors,
)
from tikhreg.spectral import SpectralDecomposition, _KronBasis, _SineBasis
from tikhreg.tikhonov import _residual_terms, spectral_solver

from reference import basis, solve_direct


def _instance(a, x_star=None, w=None, label="t"):
    n = a.shape[0]
    x = np.zeros(n) if x_star is None else x_star
    return ProblemInstance(
        n=n, a=a, x_star=x, y=a @ x,
        w=w, label=label,
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
    inst = _instance(a, w=l @ l.T + np.eye(n))
    b = rng.standard_normal(n)
    lam = 0.37
    sol = solve_direct(inst, b, lam)
    lhs = a.T @ (a @ sol.x) + lam * (inst.w @ sol.x)
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
    psi, a_psi = basis(dec)
    sol = spectral_solver(dec, fred20, a_psi[:, 0].copy())(lam)
    c1 = dec.rho[0] / (lam + dec.rho[0])
    assert np.allclose(sol.x, c1 * psi[:, 0], atol=1e-12)


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
    w = l @ l.T + 0.5 * np.eye(n)
    x_true = rng.standard_normal(n)
    inst = _instance(a, x_star=x_true, w=w)
    b = inst.y + 0.01 * rng.standard_normal(n)
    dec = decompose(inst)
    for lam in (1e-8, 1e-4, 1.0):
        xd = solve_direct(inst, b, lam).x
        xs = spectral_solver(dec, inst, b)(lam).x
        assert np.linalg.norm(xd - xs) <= 1e-8 * np.linalg.norm(xd)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_bad_lambda_rejected(fred20, lam):
    dec = decompose(fred20)
    with pytest.raises(NonFiniteLambda):
        spectral_solver(dec, fred20, fred20.y)(lam)


def test_error_report_exact_recovery(fred100):
    from tikhreg.tikhonov import RegularizedSolution

    sol = RegularizedSolution(
        lam=1e-6, x=fred100.x_star.copy(), residual_b=0.0,
        w_norm=float(np.linalg.norm(fred100.x_star)), output_err=0.0,
    )
    rep = error_report(fred100, sol, fred100.y)
    assert rep.rel_x == 0.0
    assert rep.rel_ax == 0.0
    assert rep.rel_res == 0.0
    assert rep.scaled_output == 0.0


def test_error_report_zero_solution(fred100):
    from tikhreg.tikhonov import RegularizedSolution

    y_norm = float(np.linalg.norm(fred100.y))
    sol = RegularizedSolution(lam=1.0, x=np.zeros(100), residual_b=y_norm, w_norm=0.0,
                              output_err=y_norm)
    rep = error_report(fred100, sol, fred100.y)
    assert rep.rel_x == pytest.approx(1.0)
    assert rep.rel_res == pytest.approx(1.0)


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
        spectral_solver(dec, fred20, b)


def test_spectral_scalars_match_direct_route_on_kronecker_route():
    # the blur instance takes the Kronecker decomposition; its n-space
    # residual, W-norm and output error hold to the normal equations
    inst = build_blur(20, 2.0)
    b = add_noise(inst, 0.01, 3).b
    solver = spectral_solver(decompose(inst), inst, b)
    for lam in (1e-4, 1e-2, 1.0):
        spectral, direct = solver(lam), solve_direct(inst, b, lam)
        for field in ("residual_b", "w_norm", "output_err"):
            assert getattr(spectral, field) == pytest.approx(getattr(direct, field), rel=1e-9)


def _route_case(route, size):
    # (instance, noisy b) on the sine route (Fredholm, size n), the Kronecker
    # route (blur, size side) or the dense route (Fredholm with an explicit
    # tridiagonal W, size n)
    if route == "sine":
        inst = build_fredholm(size)
    elif route == "kron":
        inst = build_blur(size, 2.0)
    else:
        w = 1.8 * np.eye(size) - 0.4 * (np.eye(size, k=1) + np.eye(size, k=-1))
        inst = dataclasses.replace(build_fredholm(size), w=w)
    return inst, add_noise(inst, 0.01, 17).b


_ROUTES = [("sine", 2000), ("kron", 20), ("kron", 48), ("dense", 300)]


@pytest.mark.parametrize("route, size", _ROUTES, ids=[f"{r}-{s}" for r, s in _ROUTES])
def test_scalars_match_n_space(route, size):
    # the m-term sums against ||A x - b||, ||x||_W and ||A x - y|| of the
    # expanded x and A x; at blur side 48 dropping ||y_perp||^2 would put
    # output_err about 4e-11 off
    inst, b = _route_case(route, size)
    dec = decompose(inst)
    assert isinstance(dec.psi, np.ndarray) == (route == "dense")
    d = dec.project(b)
    solve = spectral_solver(dec, inst, b)
    for lam in np.logspace(-10, 0, 21):
        c = d / (lam + dec.rho)
        x, ax = dec.expand(c), dec.image(c)
        sol = solve.scalars(lam)
        assert sol.x is None
        for got, want in [(sol.residual_b, np.linalg.norm(ax - b)),
                          (sol.w_norm, math.sqrt(x @ (x if inst.w is None else inst.w @ x))),
                          (sol.output_err, np.linalg.norm(ax - inst.y))]:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
        full = solve(lam)
        assert full._replace(x=None) == sol
        assert np.array_equal(full.x, x)


@pytest.mark.parametrize("route, size", [("sine", 500), ("kron", 20), ("dense", 120)])
def test_adaptive_run_expands_once(monkeypatch, route, size):
    # building the solver synthesizes A psi (d/rho) for y_perp and b_perp and
    # never psi (d/rho); every iterate is measured by the m-term sums, and the
    # run synthesizes x for its final iterate and no other, and not A x
    inst, b = _route_case(route, size)
    dec = decompose(inst)
    calls = {"expand": 0, "image": 0, "synthesis": 0}

    def counted(cls, name, key):
        original = getattr(cls, name)

        def wrapper(self, c):
            calls[key] += 1
            return original(self, c)

        monkeypatch.setattr(cls, name, wrapper)

    counted(SpectralDecomposition, "expand", "expand")
    counted(SpectralDecomposition, "image", "image")
    for cls in (_SineBasis, _KronBasis):
        counted(cls, "_synthesis", "synthesis")
    implicit = route != "dense"
    solver = spectral_solver(dec, inst, b)
    assert calls == {"expand": 0, "image": 2, "synthesis": 2 if implicit else 0}
    calls.update(dict.fromkeys(calls, 0))
    trace = adaptive_select(inst, AdaptiveConfig(alpha=2.0), solver)
    assert trace.terminated == "converged" and trace.iters >= 3
    assert calls == {"expand": 1, "image": 0, "synthesis": 1 if implicit else 0}
    assert trace.final.lam == trace.lambdas[-1]
    monkeypatch.undo()
    again = solver(trace.final.lam)
    assert trace.final._replace(x=None) == again._replace(x=None)
    assert np.array_equal(trace.final.x, again.x)


def test_sine_route_takes_sigma_from_n_minus_1_sines(monkeypatch):
    # sigma_k reads sin(k pi/(2n)) and sin((n - k) pi/(2n)), k = 1..n-1, and
    # no table of 4n sines
    evaluated = []
    sin = np.sin

    def counted_sin(x, *args, **kwargs):
        evaluated.append(np.size(x))
        return sin(x, *args, **kwargs)

    monkeypatch.setattr(np, "sin", counted_sin)
    dec = decompose(build_fredholm(2000))
    monkeypatch.undo()
    assert not isinstance(dec.psi, np.ndarray)
    assert evaluated == [1999]


@pytest.mark.parametrize("route, size", [("sine", 500), ("kron", 20), ("dense", 120)])
def test_criterion_4_term_by_term(route, size):
    """Criterion 4 holds for every term, not only for the sums.

    On 2000 log-spaced lambdas in [1e-12, 1], each c_k^2 = (d_k/(lam + rho_k))^2
    of spectral.filter_errors is nonincreasing and each residual term
    (rho_k c_k - d_k)^2/rho_k, summed by the solver in the float form
    (d_k g / sqrt(rho_k))^2 with g = 1/(1 + rho_k/lam), is nondecreasing:
    each operation of both forms rounds a monotone function of the one
    operand that moves with lambda, and rounding is monotone. Floating-point
    addition is monotone in each operand, so residual_b and w_norm are
    monotone too.
    """
    inst, b = _route_case(route, size)
    dec = decompose(inst)
    d, d_noise, rho = dec.project(b), dec.project(b - inst.y), dec.rho
    solve = spectral_solver(dec, inst, b)
    lams = np.logspace(-12, 0, 2000)
    c_sq = np.array([filter_errors(dec, d, d_noise, lam)[0] ** 2 for lam in lams])
    res_terms = np.array([_residual_terms(d, rho, np.sqrt(rho), lam) for lam in lams])
    assert np.all(np.diff(c_sq, axis=0) <= 0)
    assert np.all(np.diff(res_terms, axis=0) >= 0)
    sols = [solve.scalars(lam) for lam in lams]
    assert np.all(np.diff([s.residual_b for s in sols]) >= 0)
    assert np.all(np.diff([s.w_norm for s in sols]) <= 0)


@pytest.mark.parametrize("route, size", [("sine", 60), ("kron", 16)])
def test_a_subnormal_lambda_solves_without_a_warning(route, size):
    # rho/lam overflows to inf below about 1e-310 (Fredholm n = 60) or
    # 5.6e-309 (blur side 16); g = 1/(1 + inf) = 0 is the limit, taken with
    # no RuntimeWarning, and the residual still rises with lambda
    inst, b = _route_case(route, size)
    solve = spectral_solver(decompose(inst), inst, b)
    lams = np.logspace(-323.5, 0, 400)
    assert lams[0] > 0
    residuals = [solve.scalars(lam).residual_b for lam in lams]
    assert np.all(np.diff(residuals) >= 0)
    sol = solve(1e-320)
    assert math.isfinite(sol.residual_b) and np.all(np.isfinite(sol.x))
