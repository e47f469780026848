"""Reference implementations the package does not ship, for the tests alone.

solve_direct is the normal-equations route, (A^T A + lambda W) x = A^T b by a
Cholesky solve. It shares nothing with the decomposition but the answer, so it
is the independent reference the spectral route is held against (criterion
3); living here, no command or driver can call it. greens_kernel and
b_seminorm_sq are written from their definitions, basis forms a
decomposition's bases as arrays, and error_moments gives the exact mean and
variance of the Monte Carlo errors. Inputs are taken as valid: the package's
input checks are tested against the package.
"""

import numpy as np

from tikhreg import RegularizedSolution, w_norm


def solve_direct(instance, b, lam):
    """RegularizedSolution of (A^T A + lambda W) x = A^T b; A^T A and A^T b are formed per call."""
    lam = float(lam)
    a = instance.dense_a()
    m = a.T @ a
    if instance.w.is_identity:
        m[np.diag_indices_from(m)] += lam
    else:
        m += lam * instance.w.matrix
    chol = np.linalg.cholesky(0.5 * (m + m.T))
    x = np.linalg.solve(chol.T, np.linalg.solve(chol, a.T @ b))
    ax = a @ x
    return RegularizedSolution(lam=lam, x=x, residual_b=float(np.linalg.norm(ax - b)),
                               w_norm=w_norm(x, instance.w),
                               output_err=float(np.linalg.norm(ax - instance.y)))


def greens_kernel(t, s):
    """kappa(t, s) = s (1 - t) for s <= t, else t (1 - s), on scalars or broadcastable arrays."""
    t, s = np.asarray(t, dtype=np.float64), np.asarray(s, dtype=np.float64)
    out = np.minimum(t, s) * (1.0 - np.maximum(t, s))
    return float(out) if out.ndim == 0 else out


def basis(decomp):
    """(psi, A psi) as (n, m) arrays: the dense route's own, or an implicit basis's
    analysis B.T applied to the identity; for small n."""
    eye = np.eye(decomp.n)
    return tuple(b if isinstance(b, np.ndarray) else (b.T @ eye).T
                 for b in (decomp.psi, decomp.a_psi))


def b_seminorm_sq(decomp, u, w):
    """Squared B-seminorm sum_k sqrt(rho_k) (u, psi_k)_W^2 on the retained modes, from the
    (n, m) basis array."""
    psi = basis(decomp)[0]
    return float(np.sum(np.sqrt(decomp.rho) * (psi.T @ w.apply(u)) ** 2))


def error_moments(decomp, d_y, sigma, lam):
    """Exact (mean, variance) of ||A(x - x*)||^2 and of ||B(x - x*)||^2 on the retained modes,
    for b = y + sigma xi with xi standard normal, as ((E_out, Var_out), (E_b, Var_b)).

    z_k = (xi, A psi_k) / sqrt(rho_k) are iid N(0, 1), since the A psi_k are
    orthogonal with ||A psi_k||^2 = rho_k, and each squared error is
    sum_k w_k (a_k - b_k z_k)^2 with a_k = lam d_y,k / ((lam + rho_k) sqrt(rho_k)),
    b_k = sigma rho_k / (lam + rho_k) and w_k = 1 (output) or rho_k^{-1/2}
    (B-seminorm): E = sum w (a^2 + b^2), Var = sum w^2 (2 b^4 + 4 a^2 b^2)
    (Mathai and Provost, Quadratic Forms in Random Variables, 1992).
    """
    rho = decomp.rho
    a = lam * d_y / ((lam + rho) * np.sqrt(rho))
    b = sigma * rho / (lam + rho)
    return tuple((float(np.sum(w * (a**2 + b**2))),
                  float(np.sum(w**2 * (2 * b**4 + 4 * a**2 * b**2))))
                 for w in (np.ones_like(rho), rho**-0.5))
