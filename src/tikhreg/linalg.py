"""Dense symmetric linear algebra primitives.

The weight matrix descriptor, the symmetrization it validates with, and the
weighted norm. Everything is real64 and operates on plain numpy arrays
(row-major); inputs are never mutated. np.linalg.cholesky (potrf) factors an
explicit W, once; the one factorization of the spectral routes, an SVD, is
spectral's.
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


def w_norm(u, w):
    """Weighted norm ||u||_W = sqrt(u^T W u)."""
    val = float(u @ w.apply(u))
    # guard tiny negative round-off from the quadratic form
    return float(np.sqrt(max(val, 0.0)))
