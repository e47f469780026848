"""Dense symmetric linear algebra primitives.

SPD solves, the weight matrix descriptor and weighted inner products, used
everywhere else in the package. Everything is real64 and operates on plain
numpy arrays (row-major); inputs are never mutated. The LAPACK routines
behind them (potrf, gesv) are reached through np.linalg alone; the one
factorization of the spectral routes, an SVD, is spectral's.
"""

import numpy as np

from .errors import DimensionMismatch, NotSPD, NotSymmetric

# Relative asymmetry tolerated before a matrix is rejected outright.
SYM_RTOL = 1e-12


def _as_square(m):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def symmetrize(m):
    """Return (M + M^T)/2 after checking M is symmetric to within 1e-12 relative.

    Parameters
    ----------
    m : ndarray, shape (k, k)

    Returns
    -------
    ndarray
        Exactly symmetric copy of ``m``.

    Raises
    ------
    NotSymmetric
        If max|M - M^T| > 1e-12 * max|M|.
    """
    m = _as_square(m)
    scale = np.max(np.abs(m)) if m.size else 0.0
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYM_RTOL * max(scale, np.finfo(np.float64).tiny):
        raise NotSymmetric(
            f"asymmetry {asym:.3e} exceeds {SYM_RTOL:.0e} * max|M| = {SYM_RTOL * scale:.3e}"
        )
    return 0.5 * (m + m.T)


def spd_solve(m, rhs):
    """Solve M z = rhs for symmetric positive definite M via Cholesky.

    Parameters
    ----------
    m : ndarray, shape (k, k)
        Symmetric positive definite matrix.
    rhs : ndarray, shape (k,) or (k, j)

    Returns
    -------
    ndarray
        Solution with the same trailing shape as ``rhs``.

    Raises
    ------
    NotSPD
        On a non-positive Cholesky pivot.
    NotSymmetric, DimensionMismatch
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    m = symmetrize(m)
    if rhs.shape[0] != m.shape[0]:
        raise DimensionMismatch(
            f"matrix is {m.shape[0]}x{m.shape[0]}, rhs has leading dim {rhs.shape[0]}"
        )
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))


class WeightSpec:
    """Weight matrix descriptor: the identity or an explicit SPD matrix.

    Explicit matrices are validated on construction (symmetry within 1e-12
    relative, Cholesky succeeds) and the lower Cholesky factor is cached for
    whitening transforms; the identity holds neither.
    """

    __slots__ = ("matrix", "chol_lower")

    def __init__(self, matrix=None):
        self.matrix = self.chol_lower = None
        if matrix is None:
            return
        self.matrix = symmetrize(matrix)
        try:
            self.chol_lower = np.linalg.cholesky(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise NotSPD(f"weight matrix is not positive definite: {exc}") from exc

    @classmethod
    def identity(cls):
        return cls()

    @classmethod
    def explicit(cls, matrix):
        return cls(matrix)

    @property
    def kind(self):
        return "identity" if self.matrix is None else "explicit"

    @property
    def is_identity(self):
        return self.matrix is None

    def apply(self, v):
        """Return W v (v may be a vector or a matrix of columns)."""
        if self.is_identity:
            return np.asarray(v, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.matrix.shape[0]:
            raise DimensionMismatch(
                f"weight is {self.matrix.shape[0]}x{self.matrix.shape[0]}, operand has leading dim {v.shape[0]}"
            )
        return self.matrix @ v

    def __repr__(self):
        if self.is_identity:
            return "WeightSpec(identity)"
        return f"WeightSpec(explicit, {self.matrix.shape[0]}x{self.matrix.shape[1]})"


def w_inner(u, v, w):
    """Weighted inner product u^T W v.

    Parameters
    ----------
    u, v : ndarray, shape (k,)
    w : WeightSpec

    Returns
    -------
    float

    Raises
    ------
    DimensionMismatch
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatch(f"incompatible shapes {u.shape} and {v.shape}")
    if w.is_identity:
        return float(u @ v)
    if w.matrix.shape[0] != u.shape[0]:
        raise DimensionMismatch(
            f"weight is {w.matrix.shape[0]}x{w.matrix.shape[0]}, vectors have length {u.shape[0]}"
        )
    return float(u @ (w.matrix @ v))


def w_norm(u, w):
    """Weighted norm ||u||_W = sqrt(u^T W u)."""
    val = w_inner(u, u, w)
    # guard tiny negative round-off from the quadratic form
    return float(np.sqrt(max(val, 0.0)))
