"""Numerical certification of bi-log-concavity and its consequences.

The toolkit certifies or refutes bi-log-concavity of one-dimensional
probability measures, computes their isoperimetric and Poincare constants
and concentration bounds, tests convolution stability through a covariance
criterion, and extends the checks to Gaussian mixtures on R^d via line
projections.
"""

from .core import (
    DEFAULT_COVERAGE,
    MASS_TOL,
    DegenerateDensityError,
    DistributionSpec,
    DomainError,
    GridDensity,
    SpecError,
    materialize,
)
from .certify import (
    Certificate,
    CertifyOptions,
    RequiresCertificateError,
    Status,
    certify_blc,
    check_derivative_sandwich,
    check_envelope,
    check_hazards,
    check_log_concave,
)
from .isoperimetry import (
    ConcentrationReport,
    IsoProfile,
    blc_isoperimetric_constant,
    bobkov_houdre_constant,
    concentration_check,
    halfspace_profile_1d,
    iso_profile,
    poincare_constant,
    variance_functional,
    weak_blc_ratio_check,
)
from .convolution import (
    ConvolutionCriterionReport,
    SmoothingStep,
    Verdict,
    check_convolution_blc_consistency,
    convolve,
    covariance_criterion,
    integration_by_parts_check,
    smooth_sequence,
)
from .multivariate import (
    DirectionScan,
    SymmetricMixtureNd,
    convolve_nd,
    direction_set,
    halfspace_profile_nd,
    project_to_line,
    weak_blc_check_nd,
    weak_star_check,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_COVERAGE",
    "MASS_TOL",
    "Certificate",
    "CertifyOptions",
    "ConcentrationReport",
    "ConvolutionCriterionReport",
    "DegenerateDensityError",
    "DirectionScan",
    "DistributionSpec",
    "DomainError",
    "GridDensity",
    "IsoProfile",
    "RequiresCertificateError",
    "SmoothingStep",
    "SpecError",
    "Status",
    "SymmetricMixtureNd",
    "Verdict",
    "blc_isoperimetric_constant",
    "bobkov_houdre_constant",
    "certify_blc",
    "check_convolution_blc_consistency",
    "check_derivative_sandwich",
    "check_envelope",
    "check_hazards",
    "check_log_concave",
    "concentration_check",
    "convolve",
    "convolve_nd",
    "covariance_criterion",
    "direction_set",
    "halfspace_profile_1d",
    "halfspace_profile_nd",
    "integration_by_parts_check",
    "iso_profile",
    "materialize",
    "poincare_constant",
    "project_to_line",
    "smooth_sequence",
    "variance_functional",
    "weak_blc_check_nd",
    "weak_blc_ratio_check",
    "weak_star_check",
]
