"""Exception types shared across the package."""


class TikhregError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(TikhregError):
    """Vector or matrix dimensions are incompatible."""


class NotSymmetric(TikhregError):
    """A matrix required to be symmetric exceeds the asymmetry tolerance."""


class NotSPD(TikhregError):
    """Cholesky factorization hit a non-positive pivot."""


class ConvergenceFailure(TikhregError):
    """The SVD of a spectral route did not converge."""


class DomainError(TikhregError):
    """A scalar argument lies outside its admissible domain."""


class SizeCap(TikhregError):
    """Requested problem size exceeds the supported cap."""


class InsufficientSpectrum(TikhregError):
    """Too few retained eigenvalues for the requested spectral fit."""


class NonFiniteLambda(TikhregError):
    """A regularization parameter is zero, negative, or not finite."""


class ZeroSolutionNorm(TikhregError):
    """A parameter rule received a zero solution norm it cannot divide by."""


class DegenerateSolution(TikhregError):
    """An iterate collapsed to the zero vector, leaving the update undefined."""


class DegenerateSample(TikhregError):
    """A sample is constant, so standardization is undefined."""
