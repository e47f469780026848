"""Weighted Tikhonov regularization for discrete ill-posed problems.

Library layout:

- linalg: SPD solves, symmetric eigendecomposition, weighted inner products
- problems: Fredholm and blur test problems, noise model, .prob round-trip
- spectral: generalized eigendecomposition, decay-exponent fit, B-seminorm
- tikhonov: direct and spectral solvers plus error functionals
- params: a-priori parameter rules and the adaptive fixed-point iteration
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
from .linalg import (
    WeightSpec,
    scaled_norm,
    spd_factor,
    spd_solve,
    sym_eig,
    symmetrize,
    w_inner,
    w_norm,
)
from .problems import (
    NoiseSpec,
    NoisyData,
    ProblemInstance,
    add_noise,
    build_blur,
    build_fredholm,
    greens_kernel,
    load_problem,
    noise_sigma,
    save_problem,
    standard_normal,
    stream_seed,
)
from .spectral import (
    AlphaFit,
    SpectralDecomposition,
    b_seminorm_sq,
    decompose,
    fit_alpha,
    spectrum_rows,
)
from .tikhonov import (
    ErrorReport,
    RegularizedSolution,
    direct_solver,
    error_report,
    solve_direct,
    solve_spectral,
    spectral_solver,
)
from .params import (
    AdaptiveConfig,
    AdaptiveTrace,
    PriorRuleInput,
    adaptive_select,
    initial_lambda,
    prior_rule_rho0,
    prior_rule_w,
)
from .harness import (
    MonteCarloCell,
    MonteCarloSummary,
    SampleStudy,
    SweepResult,
    TableRow,
    rule_lambda,
    run_montecarlo,
    run_sample_study,
    run_sweep,
    run_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
