"""Simulation and verification laboratory for quartic-variation Gaussian processes.

The package samples exact-covariance Gaussian paths (heat-slice, quarter-
Hurst fractional Brownian motion, and composites), evaluates the discrete
midpoint / trapezoid / alternating-sum functionals of those paths, and
runs seeded distributional experiments against closed-form Gaussian
moment references, including the corrected chain rule with its
Brownian correction term.
"""

# Set before the submodule imports: verify reads it while the package loads.
__version__ = "0.1.0"

from .analytic import (
    CovAuditReport,
    DiscreteCovTable,
    GaussianMoments,
    KappaResult,
    audit_cov_table,
    discrete_cov_table,
    gamma,
    gauss_taylor,
    hermite_coefficients,
    kappa,
    kappa_reference,
    offset_increment_cov,
)
from .errors import ConfigError, DomainError, NotPositiveDefinite, QuarticLabError
from .functions import TestFunction, builtin
from .kernels import (
    CovKernel,
    Grid,
    build_cov_matrix,
    fbm_composite_kernel,
    fbm_quarter_kernel,
    heat_kernel,
    rho_fbm_quarter,
    rho_heat,
    rho_xi_lei_nualart,
)
from .simulate import (
    BrownianFactor,
    CholeskyFactor,
    CirculantFactor,
    CompositeFactor,
    HankelFactor,
    HeatFactor,
    cached_factor,
    clear_factor_cache,
    factorize,
    sample_brownian,
    sample_paths,
)
from .stats import (
    CorrelationResult,
    RateFit,
    correlation,
    ks_one_sample_normal,
    ks_two_sample,
    loglog_rate,
)
from .verify import (
    CheckResult,
    ExperimentReport,
    verify_bn_limit,
    verify_expansion_residual,
    verify_fbm_window,
    verify_ito_formula,
    verify_trapezoid_ucp,
)
