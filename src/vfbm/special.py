"""Beta, the Beta-over-sine normalization factor and the regime test.

Everything here is plain scalar math on floats; ``beta`` takes its
log-gamma values from the standard library's ``math.lgamma``.  ``_each``
evaluates such a function at every entry of array arguments, so that a
column of coefficients gets, entry by entry, the bits of the scalar call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CriticalRegimeError, DomainError

__all__ = []

# |h_i + h_j - 1| <= CRITICAL_TOL counts as exactly critical everywhere.
CRITICAL_TOL = 1e-12


def is_critical(h_sum):
    """Whether H_i + H_j = h_sum is exactly critical, |h_sum - 1| <= CRITICAL_TOL;
    entry by entry for an array."""
    return abs(h_sum - 1.0) <= CRITICAL_TOL


def _each(fn, *args):
    """fn(*args) for float arguments; for arrays of one shape, the array of fn
    at each entry, each a Python float as the scalar call gives it."""
    if not isinstance(args[0], np.ndarray):
        return fn(*args)
    values = [fn(*xs) for xs in zip(*(a.ravel().tolist() for a in args))]
    return np.array(values, dtype=float).reshape(args[0].shape)


def _sin_pi(x: float) -> float:
    return math.sin(math.pi * x)


def _cos_pi(x: float) -> float:
    return math.cos(math.pi * x)


def _beta_half(x: float, y: float) -> float:
    """B(x + 1/2, y + 1/2), the Beta factor of the kernel products."""
    return beta(x + 0.5, y + 0.5)


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
    if is_critical(total):
        raise CriticalRegimeError(
            f"phi undefined at H_i+H_j = 1 (got {total!r}); use the critical-regime formulas"
        )
    return beta(h_i + 0.5, h_j + 0.5) / math.sin(total * math.pi)
