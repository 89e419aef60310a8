"""Exact path sampling and the Monte Carlo discretization oracle.

``sample_paths`` draws exact Gaussian skeletons of the vector process by
Cholesky factorization of the grid covariance (semidefinite pivots, e.g.
the identically-zero row at grid time 0, are skipped).  ``mc_integral_oracle``
instead simulates the moving-average construction directly: the stochastic
integral is discretized by a midpoint Riemann sum on a truncated domain with
local refinement around the kernel singularities, giving an end-to-end
statistical check of the whole covariance machinery.

Reproducibility contract: every seeded routine draws its standard normals
from one ``np.random.default_rng(seed)`` stream, replication after
replication, so reruns with a fixed seed are bit-identical and the values do
not depend on how the draws are chunked; replication r is reached only by
drawing replications 0..r-1 first.  The MC reductions use numpy's pairwise
summation over fixed-size batches.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovMatrix, cov_matrix
from .errors import ConfigError, NotPsdError
from .kernels import kernel_factor
from .model import CovarianceModel, MixingMatrices, TimeGrid, model_to_dict
from .representation import sigma_from_mixing

__all__ = [
    "PathEnsemble",
    "McConfig",
    "EmpiricalCovariance",
    "McCovarianceTable",
    "cholesky_psd",
    "sample_paths",
    "mc_integral_oracle",
    "empirical_cov",
]

_MC_BATCH = 256  # fixed replication batch of the integral discretization

# pivots below -PIVOT_TOL * ||C||_inf fail; |pivot| <= ZERO_TOL * ||C||_inf is
# treated as an exactly semidefinite direction and skipped.
_PIVOT_TOL = 1e-10
_ZERO_TOL = 1e-12


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
    grid: TimeGrid
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
        if not self.grid_step > 0.0:
            raise ConfigError(f"grid_step must be positive, got {self.grid_step}")
        if not self.trunc > 0.0:
            raise ConfigError(f"trunc must be positive, got {self.trunc}")

    @classmethod
    def default_for(cls, grid: TimeGrid, n_reps: int = 100_000, seed: int = 0) -> "McConfig":
        t_max = max(abs(t) for t in grid.times)
        return cls(n_reps=n_reps, grid_step=0.05, trunc=1e3 * max(t_max, 1.0), seed=seed)


@dataclass(frozen=True, eq=False)
class EmpiricalCovariance:
    """Sample covariance with moment-based standard errors, (time, component) order."""

    cov: np.ndarray
    se: np.ndarray
    n: int


@dataclass(frozen=True, eq=False)
class McCovarianceTable:
    """Empirical E X_i(s) X_j(t) over all grid pairs, with standard errors."""

    cov: np.ndarray
    se: np.ndarray
    grid: TimeGrid
    p: int
    n_reps: int


def cholesky_psd(c: CovMatrix | np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L* = C for symmetric positive semidefinite C.

    Zero (or numerically zero) pivots produce zero columns instead of
    failing, so grids containing t = 0 factor cleanly.  A pivot below
    -1e-10 ||C||_inf raises NotPsdError.
    """
    a = np.array(c.entries if isinstance(c, CovMatrix) else c, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = max(float(np.max(np.abs(a))), np.finfo(float).tiny)
    low = np.zeros_like(a)
    for k in range(n):
        pivot = a[k, k] - float(np.dot(low[k, :k], low[k, :k]))
        if pivot < -_PIVOT_TOL * norm:
            raise NotPsdError(pivot)
        if pivot <= _ZERO_TOL * norm:
            continue  # semidefinite direction: leave the column zero
        low[k, k] = math.sqrt(pivot)
        if k + 1 < n:
            low[k + 1 :, k] = (a[k + 1 :, k] - low[k + 1 :, :k] @ low[k, :k]) / low[k, k]
    return low


def sample_paths(model: CovarianceModel, grid: TimeGrid, n: int, seed: int) -> PathEnsemble:
    """Draw n i.i.d. exact skeletons of the process on the grid.

    The joint normal has covariance cov_matrix(model, grid); draws are
    reproducible per (model, grid, n, seed): path r takes the r-th block of
    dim normals of the default_rng(seed) stream.
    """
    seed = check_seed(seed)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    c = cov_matrix(model, grid)
    low = cholesky_psd(c)
    dim = c.dim
    z = np.empty((n, dim))  # filled in place: drawing a new array raised peak RSS by ~12%
    np.random.default_rng(seed).standard_normal(out=z)
    flat = z @ low.T
    digest = hashlib.sha256(
        json.dumps(model_to_dict(model), sort_keys=True).encode("utf-8")
    ).hexdigest()
    return PathEnsemble(
        paths=flat.reshape(n, grid.n, model.p), grid=grid, seed=seed, model_hash=digest
    )


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
    return EmpiricalCovariance(cov=cov, se=se, n=n)


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
    """Empirical covariance of the Riemann-sum discretized construction.

    Per replication, independent Gaussian increments (scaled by sqrt of
    the cell width) drive the midpoint-evaluated kernels.  The domain is
    [-trunc, max(grid)+1]; when A_minus is nonzero the right edge extends
    to +trunc because the anti-causal kernels carry a right tail.

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
    n_cells = mids.size

    f_plus = np.empty((p, grid.n, n_cells))
    for i in range(p):
        for g, tg in enumerate(grid.times):
            f_plus[i, g] = kernel_factor("+", m.hurst[i], tg, mids)
    f_minus = None
    if not causal_only:
        f_minus = np.empty_like(f_plus)
        for i in range(p):
            for g, tg in enumerate(grid.times):
                f_minus[i, g] = kernel_factor("-", m.hurst[i], tg, mids)

    dim = grid.n * p
    sum_p = np.zeros((dim, dim))
    sum_p2 = np.zeros((dim, dim))
    done = 0
    rng = np.random.default_rng(cfg.seed)
    dw = np.empty((_MC_BATCH, p, n_cells))
    while done < cfg.n_reps:
        batch = min(_MC_BATCH, cfg.n_reps - done)
        rng.standard_normal(out=dw[:batch])
        scaled = dw[:batch] * sqrt_w
        x = np.einsum("igm,bim->bgi", f_plus, np.einsum("ik,bkm->bim", m.a_plus, scaled))
        if f_minus is not None:
            x += np.einsum("igm,bim->bgi", f_minus, np.einsum("ik,bkm->bim", m.a_minus, scaled))
        x = x.reshape(batch, dim)
        prods = np.einsum("ba,bc->bac", x, x)
        sum_p += prods.sum(axis=0)
        sum_p2 += (prods**2).sum(axis=0)
        done += batch

    mean = sum_p / cfg.n_reps
    var = np.maximum(sum_p2 / cfg.n_reps - mean**2, 0.0)
    se = np.sqrt(var / cfg.n_reps)
    return McCovarianceTable(cov=mean, se=se, grid=grid, p=p, n_reps=cfg.n_reps)
