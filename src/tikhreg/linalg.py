"""The check and the factorization of an explicit weight matrix W.

W is a plain (n, n) float64 array, or None for the identity, held on the
problem instance beside A (problems.ProblemInstance.w). The instance checks
it here once, where n is known, and keeps the lower Cholesky factor
np.linalg.cholesky (potrf) returns, so that the dense decomposition reads it
without a second factorization; the one factorization of the spectral routes,
an SVD, is spectral's. Inputs are never mutated.
"""

import numpy as np

from .errors import DomainError, NotSPD, NotSymmetric, _array


def weight_factor(w, n):
    """Return (W, L): W averaged into an exactly symmetric (n, n) array, and W = L L^T.

    W goes through errors._array: DomainError unless it is an integer or
    float ndarray with finite entries, DimensionMismatch unless it is
    (n, n). Then DomainError if max|W| >= 2^1023, where W + W^T could
    overflow, NotSymmetric if max|W - W^T| > 1e-12 max|W|, and NotSPD if
    the Cholesky factorization finds W not positive definite. Asymmetry
    within the tolerance is round-off, and (W + W^T)/2 removes it.
    """
    w = _array(w, "W", (n, n))
    scale = np.max(np.abs(w))
    if scale >= 2.0 ** 1023:                # so that W - W^T and W + W^T stay finite
        raise DomainError(f"W has an entry of magnitude {scale:.3e}, at or above 2^1023")
    asym = np.max(np.abs(w - w.T))
    if asym > 1e-12 * max(scale, np.finfo(np.float64).tiny):
        raise NotSymmetric(f"W has asymmetry {asym:.3e}, over 1e-12 * max|W| = {1e-12 * scale:.3e}")
    w = 0.5 * (w + w.T)
    try:
        return w, np.linalg.cholesky(w)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"W is not positive definite: {exc}") from exc
