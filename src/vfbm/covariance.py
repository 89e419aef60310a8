"""Closed-form covariance of the p-variate process and its grid assembly.

For a single component (variance sigma^2 at time 1, exponent H):

    E X(s) X(t) = (sigma^2/2) (|s|^2H + |t|^2H - |t-s|^2H).

Across components the cross-covariance keeps the same three-term shape with
sign-dependent coefficients in the general regime (H_i + H_j != 1), and
acquires x*log|x| terms in the critical regime (H_i + H_j = 1).  All
formulas vanish identically at s = 0 or t = 0 and are exactly
self-similar: r(lambda s, lambda t) = lambda^(H_i+H_j) r(s, t).

``cov_pair`` reads the coefficients of a pair from the model's arrays:
sigma, c (c_ij at c[i, j] and c_ji at c[j, i], or d_ij at both) and the
antisymmetric f (f_ij at f[i, j]); the model's critical mask picks the
formula.  Each regime's formula (``cov_same`` and the private critical and
general ones) also takes its coefficients as columns, so that one array
call evaluates many pairs.  ``cov_matrix`` assembles the joint covariance
of the vector process over a time grid, ordered (time, component)
lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import _maybe_scalar, _xlogx, sign_coeff
from .model import CovarianceModel, TimeGrid, _check_components

__all__ = ["cov_pair", "cov_matrix"]


@np.errstate(over="ignore", invalid="ignore")  # cov_pair raises on a non-finite value instead
def cov_same(h_i, sigma_i, s, t):
    """Single-component covariance (sigma^2/2)(|s|^2H + |t|^2H - |t-s|^2H).

    h_i and sigma_i are floats, or columns that broadcast against s and t.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    e = 2.0 * h_i
    return _maybe_scalar(
        0.5 * _square(sigma_i) * (np.abs(s) ** e + np.abs(t) ** e - np.abs(t - s) ** e)
    )


def _square(x):
    """x**2 as Python rounds a float's square, for a float or entry by entry.

    numpy squares an array by x*x, which is correctly rounded; libm's pow(x, 2),
    which Python's float ** calls, differs from it in the last bit for about one
    value in a thousand.  A column of coefficients gets its float's bits.
    """
    if not isinstance(x, np.ndarray):
        return x**2
    return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)


@np.errstate(over="ignore", invalid="ignore")
def _cov_critical(sigma_i, sigma_j, d_ij, f_ij, s, t):
    """E X_i(s) X_j(t) of a critical pair i < j (H_i + H_j = 1); the
    coefficients are floats, or columns that broadcast against s and t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    spread = np.abs(s) + np.abs(t) - np.abs(s - t)
    logpart = _xlogx(t) - _xlogx(s) - _xlogx(t - s)
    return _maybe_scalar(0.5 * sigma_i * sigma_j * (d_ij * spread + f_ij * logpart))


@np.errstate(over="ignore", invalid="ignore")
def _cov_general(h_i, h_j, sigma_i, sigma_j, c_ij, c_ji, s, t):
    """E X_i(s) X_j(t) of a general pair i < j (H_i + H_j != 1); the
    coefficients are floats, or columns that broadcast against s and t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    a = h_i + h_j
    val = (
        sign_coeff(c_ij, c_ji, s) * np.abs(s) ** a
        + sign_coeff(c_ji, c_ij, t) * np.abs(t) ** a
        - sign_coeff(c_ji, c_ij, t - s) * np.abs(t - s) ** a
    )
    return _maybe_scalar(0.5 * sigma_i * sigma_j * val)


def cov_pair(model: CovarianceModel, i: int, j: int, s, t):
    """E X_i(s) X_j(t) (1-based component indices).

    With a = H_i + H_j and i < j, the general regime gives

        (sigma_i sigma_j / 2) { c_ij(s)|s|^a + c_ji(t)|t|^a - c_ji(t-s)|t-s|^a },

    where c_ij(.) and c_ji(.) switch between c_ij = model.c[i-1, j-1] and
    c_ji = model.c[j-1, i-1] with the sign of their argument, and the
    critical regime (a = 1) gives

        (sigma_i sigma_j / 2) { d_ij (|s|+|t|-|s-t|)
                                + f_ij (t log|t| - s log|s| - (t-s) log|t-s|) }

    with d_ij = model.c[i-1, j-1] and f_ij = model.f[i-1, j-1].  Queries
    against the transposed orientation (i > j) evaluate (j, i) at swapped
    times, which is the exact exchange identity of the formulas.  A value
    that is not finite (times too large for the exponents) raises ValueError
    naming the first such entry.
    """
    _check_components(model.p, i, j)
    if i > j:
        return cov_pair(model, j, i, t, s)
    val = _cov_upper(model, i - 1, j - 1, s, t)
    if not np.isfinite(val).all():
        _raise_not_finite(i, j, s, t, val)
    return val


def _raise_not_finite(i: int, j: int, s, t, val) -> None:
    """Raise cov_pair's ValueError for the first entry of val = E X_i(s) X_j(t), in
    C order, that is not finite (1-based i <= j)."""
    s, t, val = np.broadcast_arrays(s, t, val)
    k = int(np.argmin(np.isfinite(val)))
    raise ValueError(
        f"the covariance on this grid is not finite: E X_{i}({s.flat[k]:g}) X_{j}({t.flat[k]:g}) "
        f"= {val.flat[k]}"
    )


def _cov_upper(model: CovarianceModel, i: int, j: int, s, t):
    """E X_i(s) X_j(t) for 0-based i <= j, as a float or an array."""
    h_i, sigma_i = model.hurst[i], float(model.sigma[i])
    # cov_same, not the general branch with c_ii = 1, which took cov_matrix (700 points, p = 2) from
    # 0.044 s to 0.050-0.053 s and moved values by 1 ulp: sigma**2 != sigma*sigma at 4.869891801608191
    if i == j:
        return cov_same(h_i, sigma_i, s, t)
    sigma_j, c_ij = float(model.sigma[j]), float(model.c[i, j])
    if model.critical[i, j]:
        return _cov_critical(sigma_i, sigma_j, c_ij, float(model.f[i, j]), s, t)
    return _cov_general(h_i, model.hurst[j], sigma_i, sigma_j, c_ij, float(model.c[j, i]), s, t)


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Joint covariance over a grid; row index = time_index * p + (component-1)."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def cov_matrix(model: CovarianceModel, grid: TimeGrid) -> CovMatrix:
    """Assemble the (n p) x (n p) covariance of the process on the grid.

    Entry ((k,i),(l,j)) equals E X_i(t_k) X_j(t_l); the result is symmetric
    by construction.  An entry that is not finite raises ValueError from
    ``cov_pair``.
    """
    p = model.p
    times = np.asarray(grid.times)
    s = times[:, None]
    t = times[None, :]
    m = np.empty((grid.n * p, grid.n * p))
    for i in range(1, p + 1):
        for j in range(i, p + 1):
            block = np.asarray(cov_pair(model, i, j, s, t))
            m[i - 1 :: p, j - 1 :: p] = block
            if i != j:
                m[j - 1 :: p, i - 1 :: p] = block.T
    return CovMatrix(entries=m)
