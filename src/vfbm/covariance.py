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
formula.  ``cov_matrix`` assembles the joint covariance of the vector
process over a time grid, ordered (time, component) lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRangeError
from .kernels import _maybe_scalar, _xlogx
from .model import CovarianceModel, TimeGrid

__all__ = [
    "CovMatrix",
    "cov_same",
    "sign_coeff",
    "cov_pair",
    "cov_matrix",
    "write_cov_csv",
]


def cov_same(h_i: float, sigma_i: float, s, t):
    """Single-component covariance (sigma^2/2)(|s|^2H + |t|^2H - |t-s|^2H)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    e = 2.0 * h_i
    return _maybe_scalar(
        0.5 * sigma_i**2 * (np.abs(s) ** e + np.abs(t) ** e - np.abs(t - s) ** e)
    )


def sign_coeff(c_ij: float, c_ji: float, t):
    """c_ij for t > 0, c_ji for t < 0; the t = 0 value (c_ij) never contributes."""
    return _maybe_scalar(np.where(np.asarray(t, dtype=float) >= 0.0, c_ij, c_ji))


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
    times, which is the exact exchange identity of the formulas.
    """
    p = model.p
    if not (1 <= i <= p) or not (1 <= j <= p):
        raise IndexOutOfRangeError(f"component indices ({i},{j}) out of range for p = {p}")
    if i > j:
        return cov_pair(model, j, i, t, s)
    i, j = i - 1, j - 1
    h_i, sigma_i = model.hurst[i], float(model.sigma[i])
    if i == j:
        return cov_same(h_i, sigma_i, s, t)
    h_j, sigma_j = model.hurst[j], float(model.sigma[j])
    c_ij, c_ji = float(model.c[i, j]), float(model.c[j, i])
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if model.critical[i, j]:
        spread = np.abs(s) + np.abs(t) - np.abs(s - t)
        logpart = _xlogx(t) - _xlogx(s) - _xlogx(t - s)
        return _maybe_scalar(0.5 * sigma_i * sigma_j * (c_ij * spread + float(model.f[i, j]) * logpart))
    a = h_i + h_j
    val = (
        sign_coeff(c_ij, c_ji, s) * np.abs(s) ** a
        + sign_coeff(c_ji, c_ij, t) * np.abs(t) ** a
        - sign_coeff(c_ji, c_ij, t - s) * np.abs(t - s) ** a
    )
    return _maybe_scalar(0.5 * sigma_i * sigma_j * val)


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """Joint covariance over a grid; row index = time_index * p + (component-1)."""

    entries: np.ndarray
    grid: TimeGrid
    p: int
    lambda_min: float

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def cov_matrix(model: CovarianceModel, grid: TimeGrid) -> CovMatrix:
    """Assemble the (n p) x (n p) covariance of the process on the grid.

    Entry ((k,i),(l,j)) equals E X_i(t_k) X_j(t_l); the result is symmetric
    by construction and its smallest eigenvalue is reported on the side.
    An entry that overflows (times too large for the exponents) raises
    ValueError naming its grid times.
    """
    p = model.p
    times = np.asarray(grid.times)
    s = times[:, None]
    t = times[None, :]
    m = np.empty((grid.n * p, grid.n * p))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, p + 1):
            for j in range(i, p + 1):
                block = np.asarray(cov_pair(model, i, j, s, t))
                m[i - 1 :: p, j - 1 :: p] = block
                if i != j:
                    m[j - 1 :: p, i - 1 :: p] = block.T
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        (k, i), (l, j) = divmod(int(bad[0, 0]), p), divmod(int(bad[0, 1]), p)
        raise ValueError(
            f"the covariance on this grid is not finite: E X_{i + 1}({times[k]:g}) X_{j + 1}({times[l]:g}) "
            f"= {m[bad[0, 0], bad[0, 1]]}"
        )
    lam_min = float(np.linalg.eigvalsh(m)[0])
    return CovMatrix(entries=m, grid=grid, p=p, lambda_min=lam_min)


def write_cov_csv(cov: CovMatrix, path: str | Path) -> None:
    """Emit all entries as CSV rows `t_k,i,t_l,j,value` in deterministic order."""
    times = cov.grid.times
    p = cov.p
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_k,i,t_l,j,value\n")
        for k, t_k in enumerate(times):
            for i in range(1, p + 1):
                for l, t_l in enumerate(times):
                    for j in range(1, p + 1):
                        fh.write(
                            f"{t_k:.17g},{i},{t_l:.17g},{j},{cov.entries[k * p + i - 1, l * p + j - 1]:.17g}\n"
                        )
