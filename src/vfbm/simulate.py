"""Exact path sampling and the Monte Carlo discretization oracle.

``sample_paths`` draws exact Gaussian skeletons of the vector process by
Cholesky factorization of the grid covariance (semidefinite pivots, e.g.
the identically-zero row at grid time 0, are skipped).  ``cholesky_psd`` is
a blocked right-looking factorization in diagonal blocks of 128 rows, done
in place on one copy of the matrix: a column loop factors each block and the
panel below it, skipping zero pivots, and one matrix product per block column
updates the rest.  ``mc_integral_oracle`` instead simulates the moving-average
construction directly: the stochastic integral is discretized by a midpoint
Riemann sum on a truncated domain with local refinement around the kernel
singularities, giving an end-to-end statistical check of the whole covariance
machinery.  The sum is linear in its normals, x = K z, so the oracle draws x
exactly from N(0, K K^T) through the same Cholesky draw as ``sample_paths``.

Reproducibility contract: every seeded routine draws its standard normals
from one ``np.random.default_rng(seed)`` stream, replication after
replication, so reruns with a fixed seed are bit-identical; replication r is
reached only by drawing replications 0..r-1 first.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .covariance import cov_matrix
from .errors import ConfigError, NotPsdError
from .kernels import kernel_factor
from .model import CovarianceModel, MixingMatrices, TimeGrid, model_to_dict
from .representation import sigma_from_mixing

__all__ = [
    "McConfig",
    "cholesky_psd",
    "sample_paths",
    "mc_integral_oracle",
    "empirical_cov",
]

# pivots below -PIVOT_TOL * max|C_ij| fail; |pivot| <= ZERO_TOL * max|C_ij| is
# treated as an exactly semidefinite direction and skipped.
_PIVOT_TOL = 1e-10
_ZERO_TOL = 1e-12
# rows per diagonal block of cholesky_psd
_BLOCK = 128


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it is an integer in [0, 2**64).

    This is the range every seeded routine of the package accepts, passed
    as is to ``np.random.default_rng``.
    """
    if isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64:
        return int(seed)
    raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """N sampled skeletons of the p-variate process on a common grid."""

    paths: np.ndarray  # shape (N, n_times, p)
    seed: int
    model_hash: str

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


@dataclass(frozen=True)
class McConfig:
    """Discretization parameters of the stochastic-integral simulation."""

    n_reps: int
    grid_step: float
    trunc: float
    seed: int

    def __post_init__(self):
        check_seed(self.seed)
        if self.n_reps < 100:
            raise ConfigError(f"n_reps must be >= 100, got {self.n_reps}")
        if not 0.0 < self.grid_step < math.inf:
            raise ConfigError(f"grid_step must be positive and finite, got {self.grid_step}")
        if not 0.0 < self.trunc < math.inf:
            raise ConfigError(f"trunc must be positive and finite, got {self.trunc}")


@dataclass(frozen=True, eq=False)
class EmpiricalCovariance:
    """Sample covariance with moment-based standard errors, (time, component) order."""

    cov: np.ndarray
    se: np.ndarray


@dataclass(frozen=True, eq=False)
class McCovarianceTable:
    """Empirical E X_i(s) X_j(t) over all grid pairs, with standard errors."""

    cov: np.ndarray
    se: np.ndarray
    n_reps: int


def cholesky_psd(c: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L* = C for symmetric positive semidefinite C.

    Zero (or numerically zero) pivots produce zero columns instead of
    failing, so grids containing t = 0 factor cleanly.  With norm = max|C_ij|,
    a pivot below -1e-10 norm raises NotPsdError, and so does a skipped pivot
    (one at most 1e-12 norm) whose column below it is not zero to within
    1e-6 norm.

    Blocked right-looking Cholesky on one copy of C, overwritten in place in
    diagonal blocks of _BLOCK = 128 rows: the column loop of
    ``_factor_block_by_columns`` factors each block and the panel below it,
    applying the rules above, and the trailing matrix is updated one block
    column at a time, so no temporary exceeds n * _BLOCK.  Of C, only the
    lower triangle and max|C_ij| are used; the caller's array is never
    written, and the copy is the only n x n buffer allocated.
    """
    a = np.asarray(c, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # max|C_ij| without an n x n |C| temporary, and before the copy exists
    norm = max(float(max(a.max(), -a.min())), np.finfo(float).tiny)
    low = np.array(a, order="C")
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        _factor_block_by_columns(low, k0, k1, norm)
        low[k0:k1, k1:] = 0.0
        for j0 in range(k1, n, _BLOCK):  # trailing update S -= L_panel L_panel^T, lower part
            j1 = min(j0 + _BLOCK, n)
            low[j0:, j0:j1] -= low[j0:, k0:k1] @ low[j0:j1, k0:k1].T
    return low


def _factor_block_by_columns(low: np.ndarray, k0: int, k1: int, norm: float) -> None:
    """Factor columns k0..k1-1 of low in place, one pivot at a time.

    On entry low[k0:, k0:k1] holds the lower part of the Schur complement
    left by the blocks before k0; on exit it holds those columns of L, with
    zero columns for skipped pivots and a zero upper triangle in the block.
    """
    for k in range(k0, k1):
        row = low[k, k0:k]
        pivot = low[k, k] - float(np.dot(row, row))
        if pivot < -_PIVOT_TOL * norm:
            raise NotPsdError(pivot, k)
        column = low[k + 1 :, k]  # a view, updated in place
        column -= low[k + 1 :, k0:k] @ row
        if pivot <= _ZERO_TOL * norm:
            # semidefinite direction: leave the column zero.  If C is PSD, so is
            # its Schur complement S, and |S_ik| <= sqrt(S_kk S_ii) <= sqrt(ZERO_TOL) norm
            # (Cauchy-Schwarz); a larger entry in the rest of the column means C is not.
            bound = math.sqrt(_ZERO_TOL) * norm
            if column.size:
                worst = int(np.argmax(np.abs(column)))
                if abs(float(column[worst])) > bound:
                    raise NotPsdError(pivot, k, residual_row=k + 1 + worst,
                                      residual=float(column[worst]), bound=bound)
            low[k:, k] = 0.0
        else:
            low[k, k] = math.sqrt(pivot)
            column /= low[k, k]
        low[k, k + 1 : k1] = 0.0


def _draw(low: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n draws of N(0, low low^T), one per row: row r is the r-th block of
    low.shape[0] normals of the default_rng(seed) stream times low^T."""
    z = np.empty((n, low.shape[0]))  # filled in place: drawing a new array raised peak RSS by ~12%
    np.random.default_rng(seed).standard_normal(out=z)
    return z @ low.T


def sample_paths(model: CovarianceModel, grid: TimeGrid, n: int, seed: int) -> PathEnsemble:
    """Draw n i.i.d. exact skeletons of the process on the grid.

    The joint normal has covariance cov_matrix(model, grid); draws are
    reproducible per (model, grid, n, seed): path r takes the r-th block of
    dim normals of the default_rng(seed) stream.
    """
    seed = check_seed(seed)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    flat = _draw(cholesky_psd(cov_matrix(model, grid).entries), n, seed)
    digest = hashlib.sha256(
        json.dumps(model_to_dict(model), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return PathEnsemble(paths=flat.reshape(n, grid.n, model.p), seed=seed, model_hash=digest)


def empirical_cov(e: PathEnsemble) -> EmpiricalCovariance:
    """Unbiased sample covariance of the ensemble with fourth-moment SEs."""
    n = e.n_paths
    if n < 2:
        raise ValueError("need at least 2 paths for a sample covariance")
    flat = e.paths.reshape(n, -1)
    centered = flat - flat.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    mu22 = (centered**2).T @ (centered**2) / n
    se = np.sqrt(np.maximum(mu22 - cov**2, 0.0) / n)
    return EmpiricalCovariance(cov=cov, se=se)


# ---------------------------------------------------------------------------
# Monte Carlo discretization of the moving-average construction
# ---------------------------------------------------------------------------

def _build_cells(grid: TimeGrid, cfg: McConfig, right_edge: float):
    """Midpoint cells on [-trunc, right_edge], step/16 within distance 1 of a
    kernel singularity, with every singularity an exact cell boundary."""
    sing = sorted({0.0} | set(grid.times))
    fine = cfg.grid_step / 16.0
    left_edge = -cfg.trunc
    marks = {left_edge, right_edge}
    for pnt in sing:
        marks.add(pnt)
        marks.update(np.clip([pnt - 1.0, pnt + 1.0], left_edge, right_edge))
    bounds = sorted(marks)
    edges = [left_edge]
    for a, b in zip(bounds, bounds[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        step = fine if any(abs(mid - pnt) < 1.0 for pnt in sing) else cfg.grid_step
        k = max(1, int(round((b - a) / step)))
        edges.extend(np.linspace(a, b, k + 1)[1:])
    edges = np.asarray(edges)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


def _tail_variance_bound(h: float, row_norm_sq: float, t_max: float, cut: float) -> float:
    """Upper bound on the variance lost by dropping |x| > cut for one component."""
    if row_norm_sq == 0.0 or cut <= 2.0 * max(t_max, 1.0):
        return math.inf if row_norm_sq > 0.0 else 0.0
    a = h - 0.5
    return row_norm_sq * a * a * t_max * t_max * 2.0 ** (3.0 - 2.0 * h) * cut ** (2.0 * h - 2.0) / (2.0 - 2.0 * h)


def mc_integral_oracle(m: MixingMatrices, grid: TimeGrid, cfg: McConfig) -> McCovarianceTable:
    """Empirical covariance of exact draws of the Riemann-sum discretized construction.

    The midpoint sum X_i(t_g) = sum_k sum_cells (A_plus[i,k] f+_i(t_g, x) +
    A_minus[i,k] f-_i(t_g, x)) sqrt(width) z_k(cell) is x = K z with K of
    shape (n p, p cells), so x ~ N(0, K K^T) exactly; the n_reps replications
    are drawn from that law by the Cholesky draw of ``sample_paths``.  The
    domain is [-trunc, max(grid)+1]; when A_minus is nonzero the right edge
    extends to +trunc because the anti-causal kernels carry a right tail.

    Raises ConfigError if the analytic truncation-tail bound exceeds the
    accuracy budget (the 2% discretization allowance on the variance scale).
    """
    p = m.p
    times = np.asarray(grid.times)
    t_max = float(np.max(np.abs(times))) if grid.n else 0.0
    if t_max >= cfg.trunc / 2.0:
        raise ConfigError(f"grid times must lie within (-trunc/2, trunc/2); got |t| up to {t_max}")

    causal_only = not np.any(m.a_minus)
    right_edge = max(float(np.max(times)), 0.0) + 1.0 if causal_only else cfg.trunc

    # truncation budget: compare the analytic tail bound with the variance scale
    sigma = [sigma_from_mixing(m, i) for i in range(1, p + 1)]
    scale = max(
        sigma[i] ** 2 * max(t_max, 1e-12) ** (2.0 * m.hurst[i]) for i in range(p)
    )
    worst = 0.0
    for i in range(p):
        plus_norm = float(np.dot(m.a_plus[i], m.a_plus[i]))
        minus_norm = float(np.dot(m.a_minus[i], m.a_minus[i]))
        worst = max(worst, _tail_variance_bound(m.hurst[i], plus_norm, t_max, cfg.trunc))
        if not causal_only:
            worst = max(worst, _tail_variance_bound(m.hurst[i], minus_norm, t_max, cfg.trunc))
    if worst > 0.02 * scale:
        raise ConfigError(
            f"truncation tail bound {worst:.3e} exceeds budget {0.02 * scale:.3e}; increase trunc"
        )

    mids, widths = _build_cells(grid, cfg, right_edge)
    sqrt_w = np.sqrt(widths)
    sides = (("+", m.a_plus),) if causal_only else (("+", m.a_plus), ("-", m.a_minus))
    kmat = np.zeros((grid.n, p, p, mids.size))  # K: row (time g, component i), column (component k, cell)
    for side, a in sides:
        for i in range(p):
            for g, tg in enumerate(grid.times):
                kmat[g, i] += a[i, :, None] * (kernel_factor(side, m.hurst[i], tg, mids) * sqrt_w)
    kmat = kmat.reshape(grid.n * p, p * mids.size)

    x = _draw(cholesky_psd(kmat @ kmat.T), cfg.n_reps, cfg.seed)
    mean = x.T @ x / cfg.n_reps
    sq = x**2
    var = np.maximum(sq.T @ sq / cfg.n_reps - mean**2, 0.0)
    se = np.sqrt(var / cfg.n_reps)
    return McCovarianceTable(cov=mean, se=se, n_reps=cfg.n_reps)
