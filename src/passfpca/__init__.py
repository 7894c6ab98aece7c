"""Robust functional principal component analysis.

The package estimates functional principal components through a pairwise
self-normalized covariance surface that tolerates heavy-tailed and
contaminated curves, recovers the classical eigenvalue ratios from its
shrunken spectrum by a fixed-point iteration, handles pointwise
measurement noise by curve pre-smoothing or by surface smoothing off the
noise-inflated diagonal, and ships a seeded simulation benchmark comparing the
approaches.
"""

from .eigenratio import (
    ConvergenceDiagnostic,
    EigenratioEstimate,
    METHOD_ELLIPTICAL,
    METHOD_MONTE_CARLO,
    PairScores,
    convergence_condition,
    cpve,
    eigenratio_elliptical,
    eigenratio_mc,
    elliptical_expectation,
    pair_scores,
    rank_select,
)
from .errors import (
    AsymmetrySurfaceError,
    BasisSizeError,
    ConvergenceError,
    DegenerateSampleError,
    DimensionMismatchError,
    InsufficientSampleError,
    InvalidGridError,
    PassFpcaError,
    SampleTooLargeError,
    ThresholdError,
)
from .estimators import (
    CovarianceSurface,
    EigenSystem,
    eigendecompose,
    mean_function,
    mspc,
    pass_covariance,
    sample_covariance,
    spatial_median,
)
from .grid import FunctionalSample, Grid, inner_product, l2_norm, make_grid
from .metrics import (
    BenchmarkRow,
    ReplicationResult,
    align_sign,
    collect_replicates,
    config_label,
    derive_seed,
    eigenfunction_mse,
    pve_error,
    run_benchmark,
    truth_pve,
)
from .pipeline import (
    EIGENFUNCTION_METHODS,
    RATIO_METHODS,
    Pipeline,
    SolverOptions,
    parse_method,
)
from .simulate import (
    GroundTruth,
    OUTLIER_SCHEMES,
    SCORE_LAWS,
    SimulationConfig,
    draw_scores,
    fourier_truth,
    generate,
    inject_outliers,
)
from .smoothing import (
    SCHEME_PRE_SMOOTH,
    SCHEME_SMOOTH_CF,
    presmooth,
    smooth_surface,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetrySurfaceError",
    "BasisSizeError",
    "BenchmarkRow",
    "ConvergenceDiagnostic",
    "ConvergenceError",
    "CovarianceSurface",
    "DegenerateSampleError",
    "DimensionMismatchError",
    "EIGENFUNCTION_METHODS",
    "EigenSystem",
    "EigenratioEstimate",
    "FunctionalSample",
    "Grid",
    "GroundTruth",
    "InsufficientSampleError",
    "InvalidGridError",
    "METHOD_ELLIPTICAL",
    "METHOD_MONTE_CARLO",
    "OUTLIER_SCHEMES",
    "PairScores",
    "PassFpcaError",
    "Pipeline",
    "RATIO_METHODS",
    "ReplicationResult",
    "SCHEME_PRE_SMOOTH",
    "SCHEME_SMOOTH_CF",
    "SCORE_LAWS",
    "SampleTooLargeError",
    "SimulationConfig",
    "SolverOptions",
    "ThresholdError",
    "align_sign",
    "collect_replicates",
    "config_label",
    "convergence_condition",
    "cpve",
    "derive_seed",
    "draw_scores",
    "eigendecompose",
    "eigenfunction_mse",
    "eigenratio_elliptical",
    "eigenratio_mc",
    "elliptical_expectation",
    "fourier_truth",
    "generate",
    "inject_outliers",
    "inner_product",
    "l2_norm",
    "make_grid",
    "mean_function",
    "mspc",
    "pair_scores",
    "parse_method",
    "pass_covariance",
    "presmooth",
    "pve_error",
    "rank_select",
    "run_benchmark",
    "sample_covariance",
    "smooth_surface",
    "spatial_median",
    "truth_pve",
]
