"""Generalized eigendecomposition, spectral-decay fitting, and the B-seminorm.

The decomposition solves A^T A psi = rho W psi by whitening: with W = L L^T,
the symmetric matrix L^{-1} A^T A L^{-T} is eigendecomposed and the
eigenvectors are mapped back through psi = L^{-T} z, which makes the psi_k
W-orthonormal and (A psi_i, A psi_j) = rho_i delta_ij. For W = identity this
reduces to an ordinary eigendecomposition of A^T A.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, InsufficientSpectrum
from .linalg import sym_eig

# Eigenvalues are kept only while rho_k > n * eps * rho_1; below that they are
# numerically indistinguishable from rank deficiency and are dropped.
_EPS = float(np.finfo(np.float64).eps)

# Log-log fit window: ranks 6 .. min(400, floor(m/2)), at least two points.
_FIT_LO = 6
_FIT_CAP = 400


@dataclass
class SpectralDecomposition:
    """Retained generalized eigenpairs of (A^T A, W).

    rho is descending and strictly positive, psi holds the W-orthonormal
    eigenvectors as columns, and a_psi = A @ psi is cached because every
    spectral solve and Monte Carlo projection needs it.
    """

    rho: np.ndarray        # (m,) descending, > 0
    psi: np.ndarray        # (n, m)
    a_psi: np.ndarray      # (n, m)
    m: int
    n: int


@dataclass
class AlphaFit:
    """Least-squares power-law fit log rho_k ~ log_c - alpha_hat * log k."""

    alpha_hat: float
    log_c: float
    fit_range: tuple       # (k_lo, k_hi), 1-based ranks, inclusive
    c_upper: float         # max_k rho_k * k^alpha_hat over all retained k
    residual_rms: float


def decompose(instance):
    """Eigendecompose (A^T A, W) and retain the numerically positive part."""
    a = instance.a
    gram = a.T @ a
    if instance.w.is_identity:
        vals, vecs = sym_eig(gram)
        back = None
    else:
        chol = instance.w.chol_lower
        # L^{-1} G L^{-T}, then psi = L^{-T} z
        tmp = scipy.linalg.solve_triangular(chol, gram, lower=True, check_finite=False)
        white = scipy.linalg.solve_triangular(chol, tmp.T, lower=True, check_finite=False).T
        vals, vecs = sym_eig(white)
        back = chol
    vals = np.maximum(vals, 0.0)
    rho1 = vals[0] if vals.size else 0.0
    threshold = instance.n * _EPS * rho1
    m = int(np.sum(vals > threshold))
    rho = vals[:m].copy()
    z = vecs[:, :m]
    if back is None:
        psi = z.copy()
    else:
        psi = scipy.linalg.solve_triangular(back.T, z, lower=False, check_finite=False)
    a_psi = a @ psi
    return SpectralDecomposition(rho=rho, psi=psi, a_psi=a_psi, m=m, n=instance.n)


def _envelope(c_upper, alpha_hat, ks):
    return c_upper * ks ** (-alpha_hat)


def fit_alpha(decomp):
    """Fit the decay exponent of rho_k ~ c k^{-alpha} by ordinary least squares.

    Natural logs over ranks k in [6, min(400, floor(m/2))]; alpha_hat is the
    slope magnitude and c_upper the envelope constant max_k rho_k k^alpha_hat
    over every retained rank, raised by the fewest ulps that make the computed
    envelope c_upper k^-alpha_hat bound every rho_k.
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
    c_upper = float(np.max(decomp.rho * all_k**alpha_hat))
    # rho_k * k^a / k^a need not round back to rho_k; step up until it bounds
    while np.any(decomp.rho > _envelope(c_upper, alpha_hat, all_k)):
        c_upper = float(np.nextafter(c_upper, math.inf))
    return AlphaFit(
        alpha_hat=alpha_hat,
        log_c=float(intercept),
        fit_range=(_FIT_LO, k_hi),
        c_upper=c_upper,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def b_seminorm_sq(decomp, u, w):
    """Squared B-seminorm: sum_k sqrt(rho_k) * ((u, psi_k)_W)^2.

    Equals ||(W^{-1/2} A^T A W^{-1/2})^{1/4} W^{1/2} u||^2 on the retained
    modes; nonnegative by construction.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.shape != (decomp.n,):
        raise DimensionMismatch(f"u has shape {u.shape}, expected ({decomp.n},)")
    coeffs = decomp.psi.T @ w.apply(u)
    return float(np.sum(np.sqrt(decomp.rho) * coeffs**2))


def spectrum_rows(decomp, fit):
    """(k, rho_k, envelope_k) triples for the retained spectrum."""
    ks = np.arange(1, decomp.m + 1, dtype=np.float64)
    envelope = _envelope(fit.c_upper, fit.alpha_hat, ks)
    return [(int(k), float(r), float(e)) for k, r, e in zip(ks, decomp.rho, envelope)]
