"""Exception hierarchy shared by all vfbm modules.

Every exception carries a short machine-readable ``code`` used by the CLI
to emit one-line JSON diagnostics on stderr.
"""

from __future__ import annotations


class VfbmError(Exception):
    """Base class for all errors raised by this package."""

    code = "Error"


class OutOfRangeError(VfbmError):
    """A Hurst exponent lies outside the open interval (0, 1)."""

    code = "OutOfRange"

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"hurst exponent #{index} = {value!r} not in (0, 1)")


class NearSingularPairError(VfbmError):
    """A pair sum H_i + H_j falls inside the near-singular band around 1.

    In that band the general-regime normalization diverges and the pair
    coefficients lose all precision, so the parameterization is rejected
    outright instead of silently producing garbage.
    """

    code = "NearSingularPair"

    def __init__(self, i: int, j: int, pair_sum: float):
        self.i = i
        self.j = j
        self.pair_sum = pair_sum
        super().__init__(
            f"pair ({i},{j}) has H_i+H_j = {pair_sum!r}, too close to 1 to be "
            f"general-regime but not exactly critical"
        )


class NotPositiveDefiniteError(VfbmError):
    """The normalized coefficient matrix R fails positive definiteness.

    No vector fBm exists with the offending coefficients.
    """

    code = "NotPositiveDefinite"

    def __init__(self, lambda_min: float):
        self.lambda_min = lambda_min
        super().__init__(f"coefficient matrix R is not positive definite (lambda_min = {lambda_min:.6e})")


class IndexOutOfRangeError(VfbmError):
    """A 1-based component index is outside 1..p."""

    code = "IndexOutOfRange"


class DomainError(VfbmError):
    """A special function was evaluated outside its domain."""

    code = "DomainError"


class CriticalRegimeError(VfbmError):
    """General-regime normalization requested at H_i + H_j = 1 where it diverges."""

    code = "CriticalRegime"


class DegenerateComponentError(VfbmError):
    """A mixing-matrix row produces zero variance; the component is degenerate.

    ``index`` is the 1-based component; ``at`` is the position of the mixing
    in a stack of them, () for a single mixing.
    """

    code = "DegenerateComponent"

    def __init__(self, index: int, variance: float, at: tuple[int, ...] = ()):
        self.index = index
        self.variance = variance
        self.at = at
        super().__init__(f"component {index} has non-positive variance {variance:.6e}")


class SingularCosineError(VfbmError):
    """cos(H_i*pi) vanishes (H_i = 1/2), so the causal factorization matrix is singular."""

    code = "SingularCosine"

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"cos(H_{index} pi) = 0; causal factorization undefined for H = 1/2")


class InfeasibleFactorizationError(VfbmError):
    """Causal factorization impossible; ``reason`` is NotSymmetric or NotPD."""

    code = "Infeasible"

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        msg = f"causal factorization infeasible: {reason}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NotPsdError(VfbmError):
    """A grid covariance matrix is not positive semidefinite.

    Either the pivot at ``row`` is significantly negative, or it is zero to
    within tolerance and skipped while the rest of its column is not zero:
    then ``residual`` is the largest entry of that column, at
    ``residual_row``, and ``bound`` the Cauchy-Schwarz bound it exceeds.
    """

    code = "NotPSD"

    def __init__(self, pivot: float, row: int, residual_row: int | None = None,
                 residual: float | None = None, bound: float | None = None):
        self.pivot = pivot
        self.row = row
        self.residual_row = residual_row
        self.residual = residual
        self.bound = bound
        msg = f"covariance matrix not positive semidefinite (pivot {pivot:.6e} at row {row}"
        if residual is not None:
            msg += (f", skipped as zero, but its column has {residual:.6e} at row {residual_row}"
                    f", above the bound {bound:.6e}")
        super().__init__(msg + ")")


class NoConvergenceError(VfbmError):
    """Adaptive quadrature exhausted its evaluation budget before reaching tolerance."""

    code = "NoConvergence"


class ConfigError(VfbmError):
    """A Monte Carlo configuration cannot meet the requested accuracy."""

    code = "ConfigError"
