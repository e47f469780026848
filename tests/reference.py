"""Reference implementations the package does not ship, for the tests alone.

solve_direct is the normal-equations route, (A^T A + lambda W) x = A^T b by a
Cholesky solve. It shares nothing with the decomposition but the answer, so it
is the independent reference the spectral route is held against (criterion
3); living here, no command or driver can call it. greens_kernel and
b_seminorm_sq are written from their definitions. Inputs are taken as valid:
the package's input checks are tested against the package.
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


def b_seminorm_sq(decomp, u, w):
    """Squared B-seminorm sum_k sqrt(rho_k) (u, psi_k)_W^2 on the retained modes, from the
    (n, m) basis array."""
    psi = decomp.basis()[0]
    return float(np.sum(np.sqrt(decomp.rho) * (psi.T @ w.apply(u)) ** 2))
