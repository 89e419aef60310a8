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
* exact path sampling on a grid, by circulant embedding of the increments on
  long equispaced grids and by semidefinite Cholesky of the grid covariance
  otherwise.
"""

from . import covariance, errors, kernels, model, representation, simulate
from .covariance import *
from .kernels import *
from .model import *
from .representation import *
from .simulate import *

__version__ = "0.1.0"

# Each layer module's __all__ is the one list of the names it exports.  Other
# public names are imported from their module, e.g. vfbm.model.parse_model.
__all__ = [
    "errors",
    "__version__",
    *model.__all__,
    *representation.__all__,
    *kernels.__all__,
    *covariance.__all__,
    *simulate.__all__,
]
