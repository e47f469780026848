"""Weighted Tikhonov regularization for discrete ill-posed problems.

Library layout:

- linalg: the check and Cholesky factor of an explicit weight W
- problems: Fredholm and blur test problems, with W None (the identity) or
  a checked array on the instance; noise model (add_noise(instance, delta,
  seed), with delta checked once, in noise_sigma), .prob round-trip
- spectral: generalized eigenpairs from one SVD, decay-exponent fit, the one filter
- tikhonov: spectral solver, error functionals
- params: the a-priori parameter rules (rule_lambda) and the adaptive
  fixed-point iteration
- harness: sweep / Monte Carlo / concentration / table experiment drivers
- cli: `tikhreg` command exposing every experiment with reproducible seeds
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceFailure,
    DegenerateSample,
    DegenerateSolution,
    DimensionMismatch,
    DomainError,
    InsufficientSpectrum,
    NonFiniteLambda,
    NotSPD,
    NotSymmetric,
    SizeCap,
    TikhregError,
    ZeroSolutionNorm,
)
from .problems import (
    NoisyData,
    ProblemInstance,
    add_noise,
    build_blur,
    build_fredholm,
    load_problem,
    noise_sigma,
    save_problem,
    standard_normal,
    stream_seed,
)
from .spectral import (
    AlphaFit,
    SpectralDecomposition,
    decompose,
    filter_errors,
    fit_alpha,
    spectrum_rows,
)
from .tikhonov import (
    ErrorReport,
    RegularizedSolution,
    error_report,
    spectral_solvers,
)
from .params import (
    AdaptiveConfig,
    AdaptiveTrace,
    adaptive_select,
    initial_lambda,
    rule_lambda,
)
from .harness import (
    MonteCarloCell,
    MonteCarloSummary,
    SampleStudy,
    SweepResult,
    TableRow,
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
