"""Simulation and verification toolkit for extreme-value limits of
stationary multivariate Gaussian triangular arrays.

The package covers the pipeline end to end: Gumbel norming constants,
correlation models parametrised by log-scaled dependence coefficients,
exact Gaussian path samplers, Monte Carlo estimation of the extremal
coefficients that shape the limit law, and experiment drivers that
compare empirical maxima against the limit CDF.
"""

from .correlation import (
    BlockParameters,
    CorrelationModel,
    DeltaEstimate,
    DeltaSpec,
    berman_term,
    check_long_range,
    check_short_range,
    check_simplified,
    constant_model,
    estimate_delta,
    geometric_model,
    hr_family,
    iid_model,
    tabulated_model,
)
from .errors import (
    DegenerateDelta,
    InvalidDeltaSpec,
    NotPositiveSemidefinite,
    ToolkitError,
)
from .experiments import (
    ConvergenceReport,
    DiscreteMatrixDistribution,
    EmpiricalCdf,
    ExperimentConfig,
    block_consistency_check,
    build_report,
    compare_to_limit,
    lemma1_check,
    run_maxima_experiment,
)
from .norming import (
    NormingConstants,
    hr_bivariate_cdf,
    limit_cdf,
    norming_constants,
    std_normal_cdf,
    threshold,
)
from .rng import RngKey
from .sampler import (
    SamplePath,
    assemble_covariance,
    read_path,
    validate_psd,
    write_path,
)
from .theta import (
    ConstraintSet,
    ThetaEstimate,
    build_constraints,
    estimate_theta,
    theta_bivariate_closed_form,
    theta_for_spec,
)

__version__ = "0.1.0"

__all__ = [
    "BlockParameters",
    "ConstraintSet",
    "ConvergenceReport",
    "CorrelationModel",
    "DegenerateDelta",
    "DeltaEstimate",
    "DeltaSpec",
    "DiscreteMatrixDistribution",
    "EmpiricalCdf",
    "ExperimentConfig",
    "InvalidDeltaSpec",
    "NormingConstants",
    "NotPositiveSemidefinite",
    "RngKey",
    "SamplePath",
    "ThetaEstimate",
    "ToolkitError",
    "assemble_covariance",
    "berman_term",
    "block_consistency_check",
    "build_constraints",
    "build_report",
    "check_long_range",
    "check_short_range",
    "check_simplified",
    "constant_model",
    "compare_to_limit",
    "estimate_delta",
    "estimate_theta",
    "geometric_model",
    "hr_bivariate_cdf",
    "hr_family",
    "iid_model",
    "lemma1_check",
    "limit_cdf",
    "norming_constants",
    "read_path",
    "run_maxima_experiment",
    "std_normal_cdf",
    "tabulated_model",
    "theta_bivariate_closed_form",
    "theta_for_spec",
    "threshold",
    "validate_psd",
    "write_path",
]
