"""Dense symmetric linear algebra primitives.

SPD solves, symmetric eigendecomposition and weighted inner products, used
everywhere else in the package. Everything is real64 and operates on plain
numpy arrays (row-major); inputs are never mutated.
"""

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, DimensionMismatch, NotSPD, NotSymmetric

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


def spd_factor(m):
    """Cholesky-factor a symmetric positive definite matrix.

    Returns the (c, lower) pair accepted by :func:`scipy.linalg.cho_solve`.

    Raises
    ------
    NotSPD
        On a non-positive pivot.
    NotSymmetric
        If the input fails the symmetry tolerance.
    """
    m = symmetrize(m)
    try:
        return scipy.linalg.cho_factor(m, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotSPD(str(exc)) from exc


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
    NotSPD, NotSymmetric, DimensionMismatch
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    factor = spd_factor(m)
    if rhs.shape[0] != factor[0].shape[0]:
        raise DimensionMismatch(
            f"matrix is {factor[0].shape[0]}x{factor[0].shape[0]}, rhs has leading dim {rhs.shape[0]}"
        )
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def sym_eig(m):
    """Full eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    m : ndarray, shape (k, k)
        Symmetric to within 1e-12 relative; symmetrized internally.

    Returns
    -------
    vals : ndarray, shape (k,)
        Eigenvalues in descending order.
    vecs : ndarray, shape (k, k)
        Orthonormal eigenvectors; column j pairs with vals[j].

    Raises
    ------
    ConvergenceFailure
        If the underlying solver fails to converge.
    """
    m = symmetrize(m)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    # eigh returns ascending order; reverse (stable, deterministic under ties)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


class WeightSpec:
    """Weight matrix descriptor: the identity or an explicit SPD matrix.

    Explicit matrices are validated on construction (symmetry within 1e-12
    relative, Cholesky succeeds) and the lower Cholesky factor is cached for
    whitening transforms.
    """

    __slots__ = ("kind", "matrix", "chol_lower")

    def __init__(self, kind, matrix=None):
        if kind not in ("identity", "explicit"):
            raise ValueError(f"unknown weight kind {kind!r}")
        if kind == "identity":
            if matrix is not None:
                raise ValueError("identity weight takes no matrix")
            self.kind = "identity"
            self.matrix = None
            self.chol_lower = None
            return
        matrix = symmetrize(matrix)
        try:
            chol = scipy.linalg.cholesky(matrix, lower=True, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise NotSPD(f"weight matrix is not positive definite: {exc}") from exc
        self.kind = "explicit"
        self.matrix = matrix
        self.chol_lower = chol

    @classmethod
    def identity(cls):
        return cls("identity")

    @classmethod
    def explicit(cls, matrix):
        return cls("explicit", matrix)

    @property
    def is_identity(self):
        return self.kind == "identity"

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


def scaled_norm(v):
    """Normalized Euclidean norm n^{-1/2} ||v||, the grid analogue of an L2 norm."""
    v = np.asarray(v, dtype=np.float64)
    return float(np.linalg.norm(v) / np.sqrt(v.shape[0]))
