"""Beta and the Beta-over-sine normalization factor.

Everything here is plain scalar math on floats; ``beta`` takes its
log-gamma values from the standard library's ``math.lgamma``.
"""

from __future__ import annotations

import math

from .errors import CriticalRegimeError, DomainError

__all__ = []

# |h_i + h_j - 1| <= CRITICAL_TOL counts as exactly critical everywhere.
CRITICAL_TOL = 1e-12


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0.

    Symmetric in (x, y) by construction.
    """
    if not (x > 0.0 and y > 0.0):
        raise DomainError(f"beta requires positive arguments, got ({x!r}, {y!r})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def phi(h_i: float, h_j: float) -> float:
    """Normalization B(h_i+1/2, h_j+1/2) / sin((h_i+h_j) pi) of the general regime.

    Diverges as h_i + h_j -> 1; calls at the critical sum raise
    CriticalRegimeError so the caller dispatches to the logarithmic forms
    instead.
    """
    total = h_i + h_j
    if abs(total - 1.0) <= CRITICAL_TOL:
        raise CriticalRegimeError(
            f"phi undefined at H_i+H_j = 1 (got {total!r}); use the critical-regime formulas"
        )
    return beta(h_i + 0.5, h_j + 0.5) / math.sin(total * math.pi)
