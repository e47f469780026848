import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tikhreg import (
    ConvergenceFailure,
    InsufficientSpectrum,
    ProblemInstance,
    SpectralDecomposition,
    add_noise,
    build_blur,
    build_fredholm,
    decompose,
    filter_errors,
    fit_alpha,
    load_problem,
    save_problem,
    spectral_solvers,
    spectrum_rows,
)
from tikhreg.spectral import _dense_decompose

from reference import b_seminorm_sq, basis, solve_direct


def _instance(a, w=None, label="t"):
    n = a.shape[0]
    x = np.zeros(n)
    return ProblemInstance(
        n=n, a=a, x_star=x, y=a @ x,
        w=w, label=label,
    )


def _random_instance(seed, n, explicit_w=True):
    gen = np.random.Generator(np.random.Philox(key=seed))
    a = gen.standard_normal((n, n))
    if explicit_w:
        l = gen.standard_normal((n, n)) / np.sqrt(n)
        w = l @ l.T + 0.5 * np.eye(n)
    else:
        w = None
    return _instance(a, w)


def test_identity_operator_flat_spectrum():
    dec = decompose(_instance(np.eye(6)))
    assert dec.m == 6
    assert np.allclose(dec.rho, 1.0)


def test_diagonal_operator_squared_singular_values():
    dec = decompose(_instance(np.diag([2.0, 1.0])))
    assert np.allclose(dec.rho, [4.0, 1.0])


def test_fredholm_polyharmonic_decay(fred200, dec200):
    k = np.arange(1, 11)
    oracle = (k * np.pi) ** -4.0
    assert np.all(np.abs(dec200.rho[:10] - oracle) <= 0.05 * oracle)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("explicit_w", [False, True])
def test_w_orthonormal_eigenvectors(seed, explicit_w):
    inst = _random_instance(seed, 14, explicit_w)
    dec = decompose(inst)
    gram_w = dec.psi.T @ (dec.psi if inst.w is None else inst.w @ dec.psi)
    assert np.allclose(gram_w, np.eye(dec.m), atol=1e-10)
    # the decomposition satisfies its own equation ||A psi_k||^2 = rho_k
    a_psi_sq = np.sum((inst.dense_a() @ dec.psi) ** 2, axis=0)
    assert np.max(np.abs(a_psi_sq / dec.rho - 1.0)) <= 1e-12


@pytest.mark.parametrize("seed", [2, 3])
def test_images_orthogonal_with_rho_norms(seed):
    # (A psi_i, A psi_j) = rho_i delta_ij ties the two Gram forms together
    inst = _random_instance(seed, 12)
    dec = decompose(inst)
    gram = dec.a_psi.T @ dec.a_psi
    assert np.allclose(gram, np.diag(dec.rho), atol=1e-10 * dec.rho[0])


def test_a_psi_cached_consistently():
    inst = _random_instance(4, 10)
    dec = decompose(inst)
    assert np.allclose(dec.a_psi, inst.dense_a() @ dec.psi, atol=1e-13)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_parseval_identity(seed):
    """||A u||^2 == sum rho_k u_k^2 once u is expanded in the eigenbasis."""
    inst = _random_instance(seed, 9)
    dec = decompose(inst)
    gen = np.random.Generator(np.random.Philox(key=seed ^ 0xABCD))
    u = gen.standard_normal(9)
    coeffs = dec.psi.T @ (inst.w @ u)
    lhs = float(np.linalg.norm(inst.dense_a() @ u) ** 2)
    rhs = float(np.sum(dec.rho * coeffs**2))
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_project_and_expand_are_the_basis_products(fred20, rng):
    # the dense route's methods are the basis products themselves; the sine
    # route's transforms match them to rounding
    v = rng.standard_normal((fred20.n, 3))
    for dec in (_dense_decompose(fred20), decompose(fred20)):
        assert (dec.m, dec.n) == (dec.rho.shape[0], fred20.n) == (19, 20)
        psi, a_psi = basis(dec)
        c = rng.standard_normal(dec.m)
        x, ax = dec.expand(c), dec.image(c)
        pairs = [(dec.project(v[:, 0]), a_psi.T @ v[:, 0]), (dec.project(v), a_psi.T @ v),
                 (dec.psi.T @ v[:, 0], psi.T @ v[:, 0]), (x, psi @ c), (ax, a_psi @ c)]
        for got, want in pairs:
            if isinstance(dec.psi, np.ndarray):
                assert np.array_equal(got, want)
            else:
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


_IMPLICIT = ([pytest.param(build_fredholm, n, id=f"fredholm-{n}") for n in (8, 60, 501, 2000)]
             + [pytest.param(lambda side, w=w: build_blur(side, w), side, id=f"blur-{side}-{w}")
                for side in (6, 20) for w in (0.7, 2.0)])


@pytest.mark.parametrize("build, size", _IMPLICIT)
def test_implicit_routes_match_their_basis(build, size, rng):
    inst = build(size)
    dec = decompose(inst)
    assert not isinstance(dec.psi, np.ndarray)
    n, m = inst.n, dec.m
    psi, a_psi = basis(dec)
    assert psi.shape == a_psi.shape == (n, m)
    v = rng.standard_normal(n)
    block = rng.standard_normal((n, 64))
    c = rng.standard_normal(m)
    x, ax = dec.expand(c), dec.image(c)
    projected = dec.project(block)
    for got, want in [(dec.project(v), a_psi.T @ v), (projected, a_psi.T @ block),
                      (dec.psi.T @ v, psi.T @ v), (x, psi @ c), (ax, a_psi @ c)]:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    for j in range(block.shape[1]):
        assert np.array_equal(projected[:, j], dec.project(block[:, j]))
    # the decomposition holds O(n) numbers, no n x m array
    stored = [np.size(dec.rho)] + [np.size(a) for b in (dec.psi, dec.a_psi)
                                   for a in vars(b).values() if isinstance(a, np.ndarray)]
    assert len(stored) > 2 and max(stored) <= n


def _explicit_w_fredholm(n):
    inst = build_fredholm(n)
    return dataclasses.replace(inst, w=np.diag(np.linspace(1.0, 2.0, n)))


@pytest.mark.parametrize("make, from_prob", [
    pytest.param(lambda: build_fredholm(30), False, id="built-fredholm"),
    pytest.param(lambda: build_blur(6, 1.0), False, id="built-blur"),
    pytest.param(lambda: _explicit_w_fredholm(30), True, id="explicit-w-prob"),
    pytest.param(lambda: _random_instance(5, 12, explicit_w=False), True, id="unstructured-prob"),
])
def test_every_route_returns_one_decomposition_type(make, from_prob, tmp_path):
    inst = make()
    if from_prob:
        save_problem(inst, str(tmp_path / "i.prob"))
        inst = load_problem(str(tmp_path / "i.prob"))
    dec = decompose(inst)
    assert type(dec) is SpectralDecomposition
    # both .prob instances fit no closed form, so they take the dense route
    assert isinstance(dec.psi, np.ndarray) == isinstance(dec.a_psi, np.ndarray) == from_prob
    psi, a_psi = basis(dec)
    assert psi.shape == a_psi.shape == (inst.n, dec.m)


def test_rank_deficient_modes_dropped():
    a = np.diag([1.0, 1e-20, 0.0])
    dec = decompose(_instance(a))
    assert dec.m == 1
    assert dec.rho[0] == pytest.approx(1.0)


def test_fit_alpha_exact_power_law():
    m, n = 500, 500
    k = np.arange(1, m + 1, dtype=np.float64)
    rho = 7.0 * k**-3.0
    dec = SpectralDecomposition(rho=rho, psi=np.eye(n), a_psi=np.eye(n))
    fit = fit_alpha(dec)
    assert fit.alpha_hat == pytest.approx(3.0, abs=1e-10)
    assert fit.c_upper == pytest.approx(7.0, rel=1e-10)
    assert fit.residual_rms <= 1e-12
    assert fit.fit_range == (6, 250)


def test_fit_alpha_needs_enough_modes():
    k = np.arange(1, 14, dtype=np.float64)
    dec = SpectralDecomposition(rho=k**-2.0, psi=np.eye(13), a_psi=np.eye(13))
    with pytest.raises(InsufficientSpectrum):
        fit_alpha(dec)


def test_fit_alpha_on_blur_spectrum():
    dec = decompose(build_blur(40, 2.0))
    fit = fit_alpha(dec)
    assert fit.alpha_hat > 1.0
    # envelope bounds every retained eigenvalue
    k = np.arange(1, dec.m + 1)
    assert np.all(dec.rho <= fit.c_upper * k**-fit.alpha_hat + 1e-300)


def test_spectrum_rows_schema(dec200):
    fit = fit_alpha(dec200)
    rows = spectrum_rows(dec200, fit)
    assert rows[0][0] == 1
    assert len(rows) == dec200.m
    ks, rhos, envs = zip(*rows)
    assert list(ks) == list(range(1, dec200.m + 1))
    assert all(r <= e * (1.0 + 1e-12) for r, e in zip(rhos, envs))
    assert np.all(np.diff(rhos) <= 0)


def test_b_seminorm_single_mode(fred20):
    dec = decompose(fred20)
    val = b_seminorm_sq(dec, basis(dec)[0][:, 0], fred20.w)
    assert val == pytest.approx(np.sqrt(dec.rho[0]), rel=1e-10)


def test_b_seminorm_zero(fred20):
    dec = decompose(fred20)
    assert b_seminorm_sq(dec, np.zeros(20), fred20.w) == 0.0


def test_b_seminorm_matches_matrix_power_oracle(rng):
    """Explicit (W^{-1/2} A^T A W^{-1/2})^{1/4} W^{1/2} construction at n=10."""
    n = 10
    a = rng.standard_normal((n, n))
    l = rng.standard_normal((n, n)) / np.sqrt(n)
    wmat = l @ l.T + np.eye(n)
    inst = _instance(a, wmat)
    dec = decompose(inst)

    wvals, wvecs = np.linalg.eigh(wmat)
    w_half = (wvecs * np.sqrt(wvals)) @ wvecs.T
    w_ihalf = (wvecs / np.sqrt(wvals)) @ wvecs.T
    s = w_ihalf @ (a.T @ a) @ w_ihalf
    svals, svecs = np.linalg.eigh((s + s.T) / 2.0)
    svals = np.clip(svals, 0.0, None)
    s_quarter = (svecs * svals**0.25) @ svecs.T

    u = rng.standard_normal(n)
    oracle = float(np.linalg.norm(s_quarter @ (w_half @ u)) ** 2)
    assert b_seminorm_sq(dec, u, inst.w) == pytest.approx(oracle, rel=1e-8)


def _well_conditioned(seed, n=12, columns=4):
    """Instance with A near I, explicit SPD W and nonzero x*, plus noisy columns b."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    a = np.eye(n) + 0.3 * gen.standard_normal((n, n)) / np.sqrt(n)
    l = gen.standard_normal((n, n)) / np.sqrt(n)
    x = gen.standard_normal(n)
    inst = ProblemInstance(n=n, a=a, x_star=x, y=a @ x,
                           w=l @ l.T + 0.5 * np.eye(n), label="t")
    return inst, inst.y[:, None] + 0.1 * gen.standard_normal((n, columns))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("lam", [1e-8, 1e-4, 1.0])
def test_error_filter_matches_direct_solve_errors(seed, lam):
    inst, b = _well_conditioned(seed)
    dec = decompose(inst)
    assert dec.m == inst.n
    for j in range(b.shape[1]):
        err = solve_direct(inst, b[:, j], lam).x - inst.x_star
        d, d_noise = dec.project(b[:, j]), dec.project(b[:, j] - inst.y)
        _, out_sq, b_sq = filter_errors(dec, d, d_noise, lam)
        assert out_sq == pytest.approx(np.linalg.norm(inst.dense_a() @ err) ** 2, rel=1e-8)
        assert b_sq == pytest.approx(b_seminorm_sq(dec, err, inst.w), rel=1e-8)


def _route_instance(route, seed):
    """An instance of one decomposition route, with nonzero x*, plus 5 noisy columns b."""
    if route == "dense":
        return _well_conditioned(seed, n=40, columns=5)
    inst = build_fredholm(61) if route == "sine" else build_blur(12, 2.0)
    gen = np.random.Generator(np.random.Philox(key=seed))
    sigma = 0.01 * np.linalg.norm(inst.y) / np.sqrt(inst.n)
    return inst, inst.y[:, None] + sigma * gen.standard_normal((inst.n, 5))


@pytest.mark.parametrize("seed", [0, 1])
def test_error_filter_batch_matches_single_columns(seed):
    # on every route each row's filter and errors have the bits of its own
    # vector call, in either memory layout of d and d_noise; on the implicit
    # routes so does each column's projection, so no batch width can move a
    # Monte Carlo bit
    for route in ("dense", "sine", "kronecker"):
        inst, b = _route_instance(route, seed)
        dec = decompose(inst)
        d, d_noise = dec.project(b).T, dec.project(b - inst.y[:, None]).T
        if route != "dense":
            for j in range(b.shape[1]):
                assert np.array_equal(d[j], dec.project(b[:, j])), (route, j)
        for lam in (1e-8, 1e-4, 1.0):
            c, out_sq, b_sq = filter_errors(dec, d, d_noise, lam)
            assert c.shape == d.shape
            assert out_sq.shape == b_sq.shape == (b.shape[1],)
            for layout in (np.ascontiguousarray, np.asfortranarray):
                c_l, out_l, b_l = filter_errors(dec, layout(d), layout(d_noise), lam)
                assert np.array_equal(c_l, c)
                assert np.array_equal(out_l, out_sq) and np.array_equal(b_l, b_sq)
            for j in range(b.shape[1]):
                c_j, out_j, b_j = filter_errors(dec, d[j], d_noise[j], lam)
                assert np.array_equal(c[j], c_j)
                assert out_sq[j] == out_j and b_sq[j] == b_j, (route, lam, j)


@pytest.mark.parametrize("side", [8, 12, 20])
@pytest.mark.parametrize("psf_width", [0.7, 2.0])
def test_kronecker_route_matches_dense_route(side, psf_width):
    inst = build_blur(side, psf_width)
    n, eps = inst.n, np.finfo(np.float64).eps
    a = inst.dense_a()
    kron = decompose(inst)
    dense = decompose(dataclasses.replace(inst, kron_factor=None, a=a))
    assert kron.m == dense.m
    assert np.max(np.abs(kron.rho - dense.rho)) <= n * eps * dense.rho[0]
    assert np.max(np.abs(dense.rho / kron.rho - 1.0)) <= 1e-9
    psi, a_psi = basis(kron)
    assert np.max(np.abs(psi.T @ psi - np.eye(kron.m))) <= 1e-13
    assert np.max(np.abs(np.sum((a @ psi) ** 2, axis=0) / kron.rho - 1.0)) <= 1e-9
    gram = a.T @ a
    residuals = np.linalg.norm(gram @ psi - psi * kron.rho, axis=0)
    assert np.max(residuals) <= 1e-13 * kron.rho[0]
    assert np.max(np.abs(a_psi - a @ psi)) <= 1e-13
    b = add_noise(inst, 0.01, 5).b
    for lam in (1e-2, 1.0):
        x = spectral_solvers(kron, inst)(b)(lam).x
        x_dense = spectral_solvers(dense, inst)(b)(lam).x
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        if psf_width == 0.7:      # full rank: every mode retained, so x is exact
            assert kron.m == n
            x_direct = solve_direct(inst, b, lam).x
            assert np.linalg.norm(x - x_direct) <= 1e-12 * np.linalg.norm(x_direct)


def test_kronecker_eigensolve_failure_is_a_convergence_failure(monkeypatch):
    # the Kronecker route and the dense route share one SVD call
    insts = [build_blur(6, 1.0), _random_instance(3, 12, explicit_w=False)]

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    for inst in insts:
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            decompose(inst)


def test_kronecker_route_not_taken_with_explicit_weight():
    inst = build_blur(6, 1.0)
    w = np.diag(np.linspace(1.0, 2.0, inst.n))
    weighted = dataclasses.replace(inst, w=w)
    dec = decompose(weighted)
    reference = decompose(dataclasses.replace(weighted, kron_factor=None, a=inst.dense_a()))
    assert np.array_equal(dec.rho, reference.rho)
    assert np.array_equal(dec.psi, reference.psi)


@pytest.mark.parametrize("n", [8, 60, 500])
def test_sine_route_matches_dense_route(n):
    inst = build_fredholm(n)
    sine = decompose(inst)
    dense = _dense_decompose(inst)
    assert sine.m == dense.m
    assert np.all(np.diff(sine.rho) < 0)
    assert np.max(np.abs(dense.rho / sine.rho - 1.0)) <= 1e-9
    psi, a_psi = basis(sine)
    assert np.max(np.abs(psi.T @ psi - np.eye(sine.m))) <= 1e-13
    sigma_1 = np.sqrt(sine.rho[0])
    assert np.linalg.norm(inst.dense_a() @ psi - a_psi) <= 1e-12 * sigma_1
    b = add_noise(inst, 0.01, 5).b
    for lam in (1e-6, 1e-2, 1.0):
        x = spectral_solvers(sine, inst)(b)(lam).x
        x_dense = spectral_solvers(dense, inst)(b)(lam).x
        assert np.linalg.norm(x - x_dense) <= 1e-8 * np.linalg.norm(x_dense)
        if lam >= 1e-2:   # the modes both routes drop no longer move x (n = 500)
            x_direct = solve_direct(inst, b, lam).x
            assert np.linalg.norm(x - x_direct) <= 1e-8 * np.linalg.norm(x_direct)


def test_sine_route_spectrum_matches_singular_values():
    # the closed form against LAPACK's singular values of the assembled A
    inst = build_fredholm(2000)
    dec = decompose(inst)
    sv_sq = np.linalg.svd(inst.dense_a(), compute_uv=False)[:dec.m] ** 2
    assert np.max(np.abs(dec.rho - sv_sq) / sv_sq) <= 1e-9


def test_sine_route_not_taken_with_explicit_weight():
    inst = build_fredholm(30)
    w = np.diag(np.linspace(1.0, 2.0, inst.n))
    weighted = dataclasses.replace(inst, w=w)
    dec = decompose(weighted)
    reference = _dense_decompose(weighted)
    assert np.array_equal(dec.rho, reference.rho)
    assert np.array_equal(dec.psi, reference.psi)


def test_fredholm_instance_takes_sine_route(monkeypatch):
    def no_factorization(*args, **kwargs):
        raise AssertionError("the sine route factors nothing")

    monkeypatch.setattr(np.linalg, "svd", no_factorization)
    assert decompose(build_fredholm(300)).m == 298


def test_a_one_ulp_off_the_kernel_fill_takes_dense_route():
    inst = build_fredholm(300)                  # the bad entry sits in the second row block
    a = inst.dense_a()
    a[290, 7] = np.nextafter(a[290, 7], np.inf)
    off = dataclasses.replace(inst, a=a)
    dec, reference = decompose(off), _dense_decompose(off)
    for field in ("rho", "psi", "a_psi"):
        assert np.array_equal(getattr(dec, field), getattr(reference, field))
