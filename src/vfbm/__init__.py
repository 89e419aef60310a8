"""Vector fractional Brownian motion: covariance structure and exact simulation.

The package implements, for a p-variate self-similar Gaussian process with
stationary increments and component exponents H_1..H_p in (0,1):

* the closed-form covariance in both regimes (general H_i+H_j != 1 and
  critical H_i+H_j = 1 with logarithmic terms), with validation of the
  necessary positive-definiteness condition;
* the mapping from mixing matrices (A_plus, A_minus) of the moving-average
  construction to covariance coefficients, the amplitude matrix C~, and the
  Cholesky-based causal factorization;
* independent oracles: deterministic quadrature of the kernel products and
  Monte Carlo simulation of the discretized stochastic integral;
* exact path sampling via semidefinite Cholesky of the grid covariance.
"""

from . import errors
from .covariance import (
    CovMatrix,
    cov_matrix,
    cov_pair,
    cov_same,
    sign_coeff,
    write_cov_csv,
)
from .kernels import KernelKind, b_coeff, kernel_cov, kernel_factor, quadrature_kernel_oracle
from .model import (
    CovarianceModel,
    HurstVector,
    MixingMatrices,
    TimeGrid,
    ValidationReport,
    critical_pairs,
    ensure_valid,
    load_model,
    model_to_dict,
    mixing_to_dict,
    parse_model,
    validate_hurst,
    validate_model,
)
from .representation import (
    AlphaProducts,
    TildeC,
    alpha_products,
    assemble_via_kernels,
    causal_factorize,
    coeffs_from_mixing,
    sigma_from_mixing,
    tilde_c,
)
from .simulate import (
    EmpiricalCovariance,
    McConfig,
    McCovarianceTable,
    PathEnsemble,
    cholesky_psd,
    empirical_cov,
    mc_integral_oracle,
    sample_paths,
)
from .special import beta, log_gamma, phi

__version__ = "0.1.0"

__all__ = [
    "errors",
    "HurstVector",
    "CovarianceModel",
    "MixingMatrices",
    "TimeGrid",
    "ValidationReport",
    "CovMatrix",
    "PathEnsemble",
    "McConfig",
    "McCovarianceTable",
    "EmpiricalCovariance",
    "AlphaProducts",
    "TildeC",
    "KernelKind",
    "validate_hurst",
    "critical_pairs",
    "validate_model",
    "ensure_valid",
    "load_model",
    "parse_model",
    "model_to_dict",
    "mixing_to_dict",
    "log_gamma",
    "beta",
    "phi",
    "b_coeff",
    "kernel_cov",
    "kernel_factor",
    "quadrature_kernel_oracle",
    "cov_same",
    "sign_coeff",
    "cov_pair",
    "cov_matrix",
    "write_cov_csv",
    "alpha_products",
    "sigma_from_mixing",
    "coeffs_from_mixing",
    "tilde_c",
    "causal_factorize",
    "assemble_via_kernels",
    "cholesky_psd",
    "sample_paths",
    "mc_integral_oracle",
    "empirical_cov",
    "__version__",
]
