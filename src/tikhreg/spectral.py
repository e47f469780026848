"""Generalized eigendecomposition, spectral-decay fitting, and the one filter.

Every route returns one SpectralDecomposition: rho and the bases psi and
A psi, each an (n, m) array on the dense route or an implicit basis, held in
O(n) numbers, on the sine and Kronecker routes. The methods that read the
basis (project, expand, image) are written once against B @ c and v @ B,
v a vector or a block of rows.
filter_errors is the one place that forms the Tikhonov filter
c = d / (lambda + rho) and the errors it makes.

Dense route. The decomposition solves A^T A psi = rho W psi without forming
A^T A, whose condition number is the square of A's: with W = L L^T and
B = A L^{-T}, the SVD B^T = L^{-1} A^T = U S V^T gives rho = s^2,
psi = L^{-T} U and A psi = B U = V S, which makes the psi_k W-orthonormal and
(A psi_i, A psi_j) = rho_i delta_ij. For W = identity this is the SVD of A^T.

Kronecker route. For W = identity and an instance with a Kronecker factor
(A = kron(T, T), the blur family), the SVD T = U S V^T gives
A = kron(U, U) kron(S, S) kron(V, V)^T (Kamm and Nagy, LAA 284, 1998), so
with mu = s^2 the eigenpairs are rho = mu_i mu_j with psi = kron(v_i, v_j)
and A psi = kron(T v_i, T v_j), T V = U S. Only the side x side T is
factored, by the same SVD call as the dense route, and the basis is never
formed: for u = vec(U), U side x side and row-major,
(u, kron(f_i, f_j)) = (F^T U F)[i, j], so a product u @ B is two side x side
products and a gather at the index pairs (i_k, j_k), and B c scatters c into
a side x side C and returns vec(F C F^T). psi and A psi are _KronBasis of
F = V and F = TV with the same index pairs.

Sine route. For W = identity and an instance whose A is the kernel fill of
build_fredholm(n) (Hansen's deriv2), the singular system has a closed form.
With theta_k = k pi / n for k = 1..n-1:

    sigma_k = cos(theta_k / 2) / (n^2 (2 - 2 cos theta_k)),   rho_k = sigma_k^2,
    psi_k[i] = sqrt(2/n) sin((2i+1) k pi / (2n)),   i = 0..n-1 (the DST-II basis),
    (A psi_k)[j] = sigma_k sqrt(2/n) sin(j k pi / n),   j = 0..n-1.

Why: column i of n A is piecewise linear in t, its slope drops by 1 at the
midpoint node s_i, and it vanishes at t = 0 (row 0 of A is zero) and at
t = 1. The second difference D over the rows t = (j-1)/n, j = 2..n, with the
zero row of t = 1 appended, therefore gives n^2 D A = -1/2 E, with E the
(n-1) x n bidiagonal of ones. So rows 2..n of A are -1/2 n^-2 T^-1 E with
T = tridiag(1, -2, 1), and T and E E^T = tridiag(1, 2, 1) are both functions
of tridiag(1, 0, 1), whose eigenvectors are the sines sin(j k pi / n).
Nothing is factored and no Gram matrix is formed. Bin k of the length-2n
real FFT of v is sum_j v_j e^{-i j k pi/n}, so minus its imaginary part is
the sine sum of (v, A psi_k) / (sigma_k sqrt(2/n)); with the half-sample
phase e^{-i k pi/(2n)} applied first it is the DST-II sum of (u, psi_k).
Expansions are the matching inverse transform, so a product costs
O(n log n). psi and A psi are _SineBasis of shift 1/2 with weights 1 and of
shift 0 with weights sigma. At n = 2000 every retained rho_k of this route is
within 5e-12 relative of the dense route's, which takes the SVD of A itself.

The route follows the instance's fields and nothing is compared here: an
instance with no explicit A (instance.a is None) is the kernel fill or, with
a Kronecker factor, kron(T, T) (problems module docstring), and neither route
reads A. Every instance with an explicit A or an explicit W takes the dense
route (_dense_decompose), the reference and the only route that reads the
dense A (instance.dense_a()).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DomainError, InsufficientSpectrum, NonFiniteLambda, _real

# Eigenvalues are kept only while rho_k > n * eps * rho_1. No route loses
# precision near that level, since none forms A^T A: the threshold is a fixed
# policy, not a precision floor. It drops the null mode of the Fredholm A
# (row 0 is zero) and keeps the same modes on every route: m = 59, 489 and
# 1117 at n = 60, 500 and 2000 on the sine and dense routes, and 1394 for
# blur side 48 on the Kronecker and dense routes.
_EPS = float(np.finfo(np.float64).eps)

# Log-log fit window: ranks 6 .. min(400, floor(m/2)), at least two points.
_FIT_LO = 6
_FIT_CAP = 400


class _Basis:
    """An (n, m) basis held implicitly: B @ c synthesizes, v @ B analyses.

    v is (n,) or a block (r, n) of rows. __array_ufunc__ = None makes
    ndarray @ basis return NotImplemented, so Python calls __rmatmul__
    (NumPy's NEP 13 opt-out).
    """

    __array_ufunc__ = None

    def __matmul__(self, c):
        return self._synthesis(c)

    def __rmatmul__(self, v):
        return self._analysis(v)


@dataclass
class _SineBasis(_Basis):
    """Columns w_k sqrt(2/n) sin(k (j + shift) pi/n), j < n, k = 1..m; products by real FFT."""

    n: int
    shift: float
    w: np.ndarray          # (m,)

    @property
    def shape(self):
        return self.n, self.w.shape[0]

    def _phase(self, shift):
        # e^{i k shift pi/n}, k = 1..m
        return np.exp(1j * shift * math.pi / self.n * np.arange(1, self.w.shape[0] + 1))

    def _analysis(self, v):
        # w_k sqrt(2/n) sum_j v_j sin(k (j + shift) pi/n) along the last axis of v
        scale = self.w * math.sqrt(2.0 / self.n)
        f = np.fft.rfft(v, 2 * self.n)[..., 1:self.w.shape[0] + 1]
        if self.shift:
            f *= self._phase(-self.shift)
        return f.imag * -scale

    def _synthesis(self, c):
        # sum_k g_k sin(k (j + shift) pi/n) with g = w c sqrt(2/n): the inverse
        # real FFT of the bins -i n g_k e^{i k shift pi/n}
        h = np.zeros(self.n + 1, dtype=np.complex128)
        h[1:self.w.shape[0] + 1] = (-1j * self.n) * (self.w * (c * math.sqrt(2.0 / self.n)))
        if self.shift:
            h[1:self.w.shape[0] + 1] *= self._phase(self.shift)
        return np.fft.irfft(h, 2 * self.n)[:self.n]


@dataclass
class _KronBasis(_Basis):
    """Columns kron(f[:, i_k], f[:, j_k]), k = 1..m; a length-n vector is a side x side image."""

    f: np.ndarray          # (side, side)
    i: np.ndarray          # (m,) row factor index of each mode
    j: np.ndarray          # (m,) column factor index of each mode

    @property
    def shape(self):
        return self.f.shape[0] ** 2, self.i.shape[0]

    def _analysis(self, u):
        # (F^T U F)[i_k, j_k] per row of u: (m,) or (r, m)
        side = self.f.shape[0]
        images = u.reshape(u.shape[:-1] + (side, side))
        return (self.f.T @ images @ self.f)[..., self.i, self.j]

    def _synthesis(self, c):
        # vec(F C F^T) for C = c scattered to the index pairs
        side = self.f.shape[0]
        scattered = np.zeros((side, side))
        scattered[self.i, self.j] = c
        return (self.f @ scattered @ self.f.T).ravel()


class SpectralDecomposition(NamedTuple):
    """Retained generalized eigenpairs (rho_k, psi_k, A psi_k) of (A^T A, W).

    rho is descending and strictly positive, psi holds the W-orthonormal
    eigenvectors as columns and a_psi = A @ psi, each an (n, m) array or an
    implicit basis (module docstring). Other modules reach the basis only
    through project, expand and image, so its layout stays this module's
    business.
    """

    rho: np.ndarray        # (m,) descending, > 0
    psi: object            # (n, m) array or implicit basis
    a_psi: object          # (n, m) array or implicit basis

    @property
    def m(self):
        return self.rho.shape[0]

    @property
    def n(self):
        return self.psi.shape[0]

    def project(self, v):
        """The projections (v, A psi_k): (m,) for a vector, (r, m) for a block of r rows."""
        return v @ self.a_psi

    def expand(self, c):
        """psi c, the vector with coefficients c on the retained modes."""
        return self.psi @ c

    def image(self, c):
        """A psi c, the image under A of expand(c), formed without it."""
        return self.a_psi @ c


class AlphaFit(NamedTuple):
    """Least-squares power-law fit log rho_k ~ log_c - alpha_hat * log k."""

    alpha_hat: float
    log_c: float
    fit_range: tuple       # (k_lo, k_hi), 1-based ranks, inclusive
    c_upper: float         # max_k rho_k * k^alpha_hat over all retained k
    residual_rms: float


def _svd(m):
    # the one factorization of every route that factors an operator
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _retained(rho, n):
    # number of leading modes of the descending rho above n * eps * rho_1; an
    # overflowed rho_1 (inf) would keep none
    if not rho[0] < math.inf:
        raise DomainError("rho_1, the largest eigenvalue of (A^T A, W), overflows float64")
    return int(np.sum(rho > n * _EPS * rho[0]))


def _kron_decompose(instance):
    # T = U S V^T gives mu = s^2, V and T V = U S; the stable sort keeps tied
    # products (mu_i mu_j = mu_j mu_i) in index order
    t = instance.kron_factor
    side = t.shape[0]
    u, s, vt = _svd(t)
    rho = np.outer(s**2, s**2).ravel()
    order = np.argsort(-rho, kind="stable")
    rho = rho[order]
    m = _retained(rho, instance.n)
    i, j = np.divmod(order[:m], side)
    return SpectralDecomposition(rho=rho[:m], psi=_KronBasis(np.ascontiguousarray(vt.T), i, j),
                                 a_psi=_KronBasis(u * s, i, j))


def _sine_decompose(instance):
    # closed-form singular values of build_fredholm(n) (module docstring)
    n = instance.n
    # sines[k - 1] = sin(k pi/(2n)) for k = 1..n-1, the n - 1 sines sigma
    # needs: 2 - 2 cos theta_k = 4 sin^2(theta_k/2), free of cancellation at
    # small k, and cos(theta_k/2) = sin((n - k) pi/(2n))
    sines = np.sin(np.arange(1, n) * (math.pi / (2 * n)))
    sigma = sines[::-1] / (4.0 * n * n * sines**2)
    rho = sigma**2
    m = _retained(rho, n)
    return SpectralDecomposition(rho=rho[:m], psi=_SineBasis(n, 0.5, np.ones(m)),
                                 a_psi=_SineBasis(n, 0.0, sigma[:m]))


def decompose(instance):
    """Generalized eigenpairs of (A^T A, W) from one SVD (none on the sine route).

    Modes with rho_k <= n * eps * rho_1 are dropped. With W = identity and
    instance.a None, an instance with a Kronecker factor takes the Kronecker
    route and one without the sine route, whose bases are implicit; every
    other instance takes the dense route, whose bases are arrays. See the
    module docstring. A rho_1 that overflows float64 (an A scaled up or a W
    scaled down far enough) raises DomainError.
    """
    # every route squares singular values, and _retained refuses a rho that
    # overflowed (on the Kronecker route inf times a zero mu is a NaN)
    with np.errstate(over="ignore", invalid="ignore"):
        if instance.w is None and instance.a is None:
            return (_sine_decompose if instance.kron_factor is None else _kron_decompose)(instance)
        return _dense_decompose(instance)


def _dense_decompose(instance):
    # the reference route: B^T = L^{-1} A^T (A^T for W = I) = U S V^T, so
    # rho = s^2, psi = L^{-T} U and A psi = V S; A is read once (assembled
    # here unless the instance holds an explicit one), and rebinding bt frees
    # an assembled A before the SVD when W is explicit
    chol = instance.w_chol
    bt = instance.dense_a().T
    if chol is not None:
        bt = np.linalg.solve(chol, bt)
    u, s, vt = _svd(bt)
    rho = s**2
    m = _retained(rho, instance.n)
    u = u[:, :m]
    psi = u.copy() if chol is None else np.linalg.solve(chol.T, u)
    return SpectralDecomposition(rho=rho[:m], psi=psi, a_psi=vt[:m].T * s[:m])


def _envelope(c_upper, alpha_hat, ks):
    return c_upper * ks ** (-alpha_hat)


def fit_alpha(decomp):
    """Fit the decay exponent of rho_k ~ c k^{-alpha} by ordinary least squares.

    Natural logs over ranks k in [6, min(400, floor(m/2))]; alpha_hat is the
    slope magnitude and c_upper the envelope constant max_k rho_k k^alpha_hat
    over every retained rank, raised by the fewest ulps that make the computed
    envelope c_upper k^-alpha_hat bound every rho_k. A c_upper that
    overflows float64 raises DomainError.
    """
    m = decomp.m
    k_hi = min(_FIT_CAP, m // 2)
    if k_hi <= _FIT_LO:
        raise InsufficientSpectrum(
            f"fit range [{_FIT_LO}, {k_hi}] has fewer than two points (m = {m})"
        )
    ks = np.arange(_FIT_LO, k_hi + 1, dtype=np.float64)
    log_k = np.log(ks)
    log_rho = np.log(decomp.rho[_FIT_LO - 1 : k_hi])
    slope, intercept = np.polyfit(log_k, log_rho, 1)
    alpha_hat = float(abs(slope))
    resid = log_rho - (slope * log_k + intercept)
    all_k = np.arange(1, m + 1, dtype=np.float64)
    # a finite rho_k times k^a (or k^a itself) can overflow; the check below
    # refuses it
    with np.errstate(over="ignore"):
        c_upper = float(np.max(decomp.rho * all_k**alpha_hat))
    # rho_k * k^a / k^a need not round back to rho_k; step up until it bounds
    while np.any(decomp.rho > _envelope(c_upper, alpha_hat, all_k)):
        c_upper = float(np.nextafter(c_upper, math.inf))
    if not c_upper < math.inf:
        raise DomainError("the envelope constant c_upper = max_k rho_k k^alpha_hat overflows float64")
    return AlphaFit(
        alpha_hat=alpha_hat,
        log_c=float(intercept),
        fit_range=(_FIT_LO, k_hi),
        c_upper=c_upper,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def _check_lambda(lam):
    return _real(lam, "lambda", 0, error=NonFiniteLambda)


def filter_errors(decomp, d, d_noise, lam):
    """(c, ||A(x - x*)||^2, ||B(x - x*)||^2) on the retained modes, per right-hand side.

    d = (b, A psi_k) and d_noise = (b - y, A psi_k) are one vector (m,) or
    one row (r, m) per right-hand side. The filter is c = d / (lam + rho).
    Since (y, A psi_k) = rho_k (x*, psi_k)_W, the error coefficient is
    c - (x*, psi_k)_W = t / sqrt(rho) with t = (d_noise - lam c) / sqrt(rho),
    so the errors are the sums of t^2 and t^2 / sqrt(rho): no x* is needed,
    and the noise enters without the cancellation between d and
    (y, A psi_k). Each row is summed as a contiguous row, in the pairwise
    order of a vector, so a row's errors have the same bits whatever the
    number of rows or the layout of d. A lambda that is not finite and
    positive raises NonFiniteLambda.
    """
    lam = _check_lambda(lam)
    rho, sqrt_rho = decomp.rho, np.sqrt(decomp.rho)
    c = np.divide(d, lam + rho, order="C")
    t = c * -lam
    t += d_noise
    t /= sqrt_rho
    t *= t
    out_sq = t.sum(axis=-1)
    t /= sqrt_rho
    return c, out_sq, t.sum(axis=-1)


def spectrum_rows(decomp, fit):
    """(k, rho_k, envelope_k) triples for the retained spectrum."""
    ks = np.arange(1, decomp.m + 1, dtype=np.float64)
    envelope = _envelope(fit.c_upper, fit.alpha_hat, ks)
    return [(int(k), float(r), float(e)) for k, r, e in zip(ks, decomp.rho, envelope)]
