"""Exact path sampling and the Monte Carlo discretization oracle.

A draw of exact Gaussian skeletons of the vector process comes in two
steps.  ``plan_paths`` computes, once per (model, grid), the factor of the
grid law and picks the method, recorded in ``PathPlan.method`` (and in
``PathEnsemble.method``); a covariance that is not PSD raises
``NotPsdError`` here, before any path exists.  ``PathPlan.draw`` then gives
the paths in chunks of a fixed size, so what it holds at once does not grow
with the number of paths; ``sample_paths`` fills one (n, n_times, p) array
from them.  The two methods:

- ``"circulant"``: on an equispaced grid t_k = (k0 + k) Delta, k0 in {0, 1},
  whose dimension n p exceeds one factorization block, the M increments
  over steps of Delta (M = n - 1 from 0, n from Delta) are stationary with
  lag cross-covariances
  Gamma(k)_ij = r_ij(Delta, (k+1) Delta) - r_ij(Delta, k Delta) and
  Gamma(-k) = Gamma(k)^T.  They are embedded in a block circulant of size
  L = 2M (middle lag (Gamma(M) + Gamma(M)^T)/2), whose L per-frequency
  p x p Hermitian matrices come from one FFT and are eigendecomposed; each
  complex Gaussian synthesis gives two independent increment sequences,
  its real and imaginary parts, and cumulative sums give the paths (an
  exact 0 row at t = 0).  This costs O(p^3 M + p^2 M log M) and holds no
  n p x n p matrix.  It is exact only when every per-frequency matrix is
  PSD: an eigenvalue below -1e-12 max|lambda| (the zero-pivot rule of
  ``cholesky_psd``) sends the draw to the Cholesky path instead, and one in
  [-1e-12 max|lambda|, 0] is treated as 0.  A chunk holds
  max(1, _CHUNK_BYTES // (16 L p)) pairs of paths.
- ``"cholesky"``: every other grid, by Cholesky factorization of the grid
  covariance (semidefinite pivots, e.g. the identically-zero row at grid
  time 0, are skipped).  ``cholesky_psd`` is a blocked right-looking
  factorization in diagonal blocks of 128 rows, done in place on one copy
  of the matrix: a column loop factors each block and the panel below it,
  skipping zero pivots, and one matrix product per block column updates
  the rest.  A chunk holds a multiple of 384 paths, about _CHUNK_BYTES of
  normals, and the last chunk takes a lone last path with it: BLAS
  multiplies a single row by another kernel, whose sums round differently.

``mc_integral_oracle`` instead simulates the moving-average construction
directly: the stochastic integral is discretized by a midpoint Riemann sum
on a truncated domain with local refinement around the kernel
singularities, giving an end-to-end statistical check of the whole
covariance machinery.  The sum is linear in its normals, x = K z, so the
oracle draws x exactly from N(0, K K^T) by the Cholesky draw, in one
product.

Reproducibility contract: every seeded routine draws its standard normals
from one ``np.random.default_rng(seed)`` stream, replication after
replication, so reruns with a fixed seed are bit-identical; replication r
is reached only by drawing replications 0..r-1 first.  A Cholesky draw
takes n p normals per path, path r the r-th block.  A circulant draw takes
2 L p normals per pair of paths, pair q the q-th block, ordered by
component, then frequency, then real and imaginary part; pair q gives path
2q (real part) and path 2q + 1 (imaginary part).  An odd number of paths
drops the last pair's imaginary part, and the first k paths of a larger
draw equal a k-path draw.  The chunks take their normals from the stream
in this order, so a circulant draw is bit for bit the draw of all its
paths at once, whatever the chunk size.  So is a Cholesky draw, as far as
BLAS rounds each row of z L^T alike whatever rows come with it.  With one
OpenBLAS thread, chunks that start at multiples of 384 rows do.  With
several, OpenBLAS may split a product of another row count otherwise,
which moves last bits of a one-shot draw of another n as well.

So reruns are bit-identical for one numpy/BLAS build at one BLAS thread
count.  Cholesky draws and ``mc_integral_oracle`` multiply normals by a
factor through BLAS, and the thread count may reorder its sums: a one-shot
draw of 769 rows at dimension 600 differs in every row between one and two
OpenBLAS threads.  A circulant draw makes no BLAS product (elementwise
sums, an FFT and cumulative sums per pair); the CSVs of 79 circulant
``vfbm simulate`` runs were equal at one and two threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .covariance import cov_matrix, cov_pair
from .errors import ConfigError, NotPsdError
from .kernels import kernel_factor
from .model import CovarianceModel, MixingMatrices, TimeGrid, check_count

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
# bytes of standard normals one chunk of PathPlan.draw takes, up to its minimum
# of one pair (circulant) or _CHUNK_ROWS paths (Cholesky)
_CHUNK_BYTES = 1 << 19
# a Cholesky chunk holds a multiple of this many paths: 3 * _BLOCK, a multiple
# of the 24 rows that OpenBLAS's AVX-512 kernel multiplies at once, so that
# chunks start where a product of all the rows starts a group of rows
_CHUNK_ROWS = 3 * _BLOCK
# a grid time t_k is on the equispaced grid (k0 + k) Delta when it is within
# _GRID_ULPS * eps * (k0 + k) Delta of it
_GRID_ULPS = 4


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless it is an integer (not a bool) in [0, 2**64).

    This is the range every seeded routine of the package accepts, passed
    as is to ``np.random.default_rng``.
    """
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= seed < 2**64:
        return int(seed)
    raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """N sampled skeletons of the p-variate process on a common grid."""

    paths: np.ndarray  # shape (N, n_times, p)
    method: str  # "cholesky" or "circulant": which exact draw made the paths

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]


@dataclass(frozen=True, eq=False)
class PathPlan:
    """The factor of the exact draw on one grid, computed once for any number of paths.

    ``method`` "circulant": ``factor`` is B of ``_circulant_factor``, shape
    (p, p, 2m), for the m increments of a grid that starts at k0 Delta;
    "cholesky": ``factor`` is L, L L^T = cov_matrix(model, grid).
    """

    method: str
    factor: np.ndarray
    n_times: int
    p: int
    m: int = 0
    k0: int = 0

    def draw(self, n: int, seed: int) -> Iterator[np.ndarray]:
        """Paths 0..n-1 of the default_rng(seed) draw, in chunks of shape (c, n_times, p).

        n and seed are checked here, before the first chunk is drawn.
        Each chunk is a new array; joined in order, the chunks are the
        one-shot draw of the module's reproducibility contract.
        """
        seed = check_seed(seed)
        n = check_count("n", n, 1)
        return self._chunks(n, np.random.default_rng(seed))

    def _chunks(self, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        if self.method == "circulant":
            shape = (self.p, 2 * self.m, 2)  # the normals of one pair
            size = 2 * max(1, _CHUNK_BYTES // (8 * math.prod(shape)))
            for start in range(0, n, size):
                count = min(size, n - start)
                z = np.empty(((count + 1) // 2, *shape))
                rng.standard_normal(out=z)
                yield _circulant_paths(self.factor, z, self.m, self.k0)[:count]
            return
        dim = self.factor.shape[0]
        size = _CHUNK_ROWS * max(1, _CHUNK_BYTES // (8 * dim * _CHUNK_ROWS))
        start = 0
        while start < n:
            stop = n if n - start <= size + 1 else start + size  # a last lone row joins this chunk
            z = np.empty((stop - start, dim))
            rng.standard_normal(out=z)
            yield (z @ self.factor.T).reshape(stop - start, self.n_times, self.p)
            start = stop


@dataclass(frozen=True)
class McConfig:
    """Discretization parameters of the stochastic-integral simulation."""

    n_reps: int
    grid_step: float
    trunc: float
    seed: int

    def __post_init__(self):
        check_seed(self.seed)
        check_count("n_reps", self.n_reps, 100, ConfigError)
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
    low.shape[0] normals of the default_rng(seed) stream times low^T.

    The Cholesky draw of ``PathPlan.draw`` in one chunk, for callers that
    need every row at once."""
    z = np.empty((n, low.shape[0]))  # filled in place: drawing a new array raised peak RSS by ~12%
    np.random.default_rng(seed).standard_normal(out=z)
    return z @ low.T


def _equispaced(grid: TimeGrid) -> tuple[float, int] | None:
    """(Delta, k0) when the grid is t_k = (k0 + k) Delta, k = 0..n-1, k0 in {0, 1}.

    k0 is 0 when t_0 is exactly 0 and 1 otherwise, and Delta = t_{n-1} / (k0 + n - 1).
    Each time must be within 4 eps (k0 + k) Delta of (k0 + k) Delta (eps = 2.2e-16),
    which a ``np.linspace`` or ``np.arange`` grid and decimal text such as
    0,0.1,...,20 meet; any other grid, or one of fewer than two times, gives None.
    """
    times = np.asarray(grid.times)
    if times.size < 2 or times[0] < 0.0:
        return None
    k0 = 0 if times[0] == 0.0 else 1
    steps = np.arange(k0, k0 + times.size)
    delta = float(times[-1]) / float(steps[-1])
    exact = steps * delta
    if np.all(np.abs(times - exact) <= _GRID_ULPS * np.finfo(float).eps * exact):
        return delta, k0
    return None


def _circulant_factor(model: CovarianceModel, delta: float, m: int) -> np.ndarray | None:
    """Factors B(f), stored as B[i, k, f] of shape (p, p, 2m), with B(f) B(f)^H = S(f) / 2m, or None.

    S(f) is the f-th per-frequency matrix of the block circulant of size
    L = 2m whose first block column holds Gamma(0), ..., Gamma(m-1), the
    symmetrized (Gamma(m) + Gamma(m)^T)/2, then Gamma(m-1)^T, ..., Gamma(1)^T,
    for the lag covariances Gamma(k)_ij = E Y_0,i Y_k,j of the increments
    Y_k = X((k+1) Delta) - X(k Delta).  None when some eigenvalue of some S(f)
    is below -_ZERO_TOL max|lambda|: the embedding is not PSD.
    """
    p = model.p
    lags = delta * np.arange(m + 2)
    gamma = np.empty((m + 1, p, p))
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            r = np.asarray(cov_pair(model, i, j, delta, lags))  # r_ij(Delta, k Delta), k = 0..m+1
            gamma[:, i - 1, j - 1] = r[1:] - r[:-1]
    middle = 0.5 * (gamma[m] + gamma[m].T)
    column = np.concatenate((gamma[:m], middle[None], gamma[m - 1 : 0 : -1].transpose(0, 2, 1)))
    lam, vec = np.linalg.eigh(np.fft.fft(column, axis=0))  # S(f) is Hermitian: column[L-k] = column[k]^T
    floor = _ZERO_TOL * float(np.max(np.abs(lam)))
    if float(lam.min()) < -floor:
        return None
    factor = vec * np.sqrt(np.maximum(lam, 0.0) / (2 * m))[:, None, :]
    return np.ascontiguousarray(factor.transpose(1, 2, 0))  # frequency last, for the FFT


def _circulant_paths(factor: np.ndarray, z: np.ndarray, m: int, k0: int) -> np.ndarray:
    """Paths, shape (2 pairs, m + 1 - k0, p), from normals z of shape (pairs, p, L, 2).

    Pair q synthesizes Y = FFT_f(B(f) W_q(f)) with W_q = z[q, ..., 0] + i z[q, ..., 1],
    whose real and imaginary parts are independent with the lag covariances
    embedded in B, then takes the cumulative sums of their first m increments
    as paths 2q and 2q + 1, after an exact 0 row when the grid starts at 0.
    Every step acts on each pair alone, so path r does not depend on how many
    pairs are drawn.
    """
    pairs, p, _, _ = z.shape
    w = z.view(complex)[..., 0]  # (pairs, p, L)
    v = factor[None, :, 0] * w[:, None, 0]
    for k in range(1, p):  # B(f) W(f) elementwise, so each pair's sums run in one order
        v += factor[None, :, k] * w[:, None, k]
    y = np.fft.fft(v, axis=-1)[:, :, :m].transpose(0, 2, 1)  # increments, (pairs, m, p)
    paths = np.zeros((pairs, 2, m + 1 - k0, p))
    np.cumsum(y.real, axis=1, out=paths[:, 0, 1 - k0 :])
    np.cumsum(y.imag, axis=1, out=paths[:, 1, 1 - k0 :])
    return paths.reshape(2 * pairs, m + 1 - k0, p)


def _circulant_plan(model: CovarianceModel, grid: TimeGrid) -> PathPlan | None:
    """The circulant plan of the grid, or None.

    None unless the grid is equispaced from 0 or Delta with more than one
    factorization block of rows, and its embedding is PSD.
    """
    if grid.n * model.p <= _BLOCK:
        return None
    spacing = _equispaced(grid)
    if spacing is None:
        return None
    delta, k0 = spacing
    m = grid.n - 1 + k0  # increments up to the last grid time
    factor = _circulant_factor(model, delta, m)
    if factor is None:
        return None
    return PathPlan("circulant", factor, grid.n, model.p, m, k0)


def plan_paths(model: CovarianceModel, grid: TimeGrid) -> PathPlan:
    """The method and factor of exact draws on the grid.

    Equispaced grids beyond one factorization block draw by circulant
    embedding when it is PSD, every other grid by Cholesky factorization
    of cov_matrix(model, grid) (the module docstring has both).  Raises
    NotPsdError when that covariance is not positive semidefinite.
    """
    plan = _circulant_plan(model, grid)
    if plan is None:
        plan = PathPlan("cholesky", cholesky_psd(cov_matrix(model, grid).entries), grid.n, model.p)
    return plan


def sample_paths(model: CovarianceModel, grid: TimeGrid, n: int, seed: int) -> PathEnsemble:
    """Draw n i.i.d. exact skeletons of the process on the grid.

    The joint normal has covariance cov_matrix(model, grid).  The draw is
    that of ``plan_paths(model, grid).draw(n, seed)``, its chunks copied
    into one (n, grid.n, p) array, and is reproducible per
    (model, grid, n, seed) under the module's reproducibility contract.
    """
    plan = plan_paths(model, grid)
    chunks = plan.draw(n, seed)
    paths = np.empty((n, grid.n, model.p))
    start = 0
    for chunk in chunks:
        paths[start : start + len(chunk)] = chunk
        start += len(chunk)
    return PathEnsemble(paths=paths, method=plan.method)


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
    pieces = [[left_edge]]
    for a, b in zip(bounds, bounds[1:]):  # a sorted set: b > a
        mid = 0.5 * (a + b)
        step = fine if any(abs(mid - pnt) < 1.0 for pnt in sing) else cfg.grid_step
        k = max(1, int(round((b - a) / step)))
        pieces.append(np.linspace(a, b, k + 1)[1:])
    edges = np.concatenate(pieces)
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
    are drawn from that law by ``_draw``, the Cholesky draw of ``sample_paths``
    in one product.  The domain is [-trunc, max(grid)+1]; when A_minus is
    nonzero the right edge extends to +trunc because the anti-causal kernels
    carry a right tail.

    Raises ConfigError if the analytic truncation-tail bound exceeds the
    accuracy budget (the 2% discretization allowance on the variance scale).
    """
    p = m.p
    times = np.asarray(grid.times)
    t_max = float(np.max(np.abs(times)))
    if t_max >= cfg.trunc / 2.0:
        raise ConfigError(f"grid times must lie within (-trunc/2, trunc/2); got |t| up to {t_max}")

    causal_only = not np.any(m.a_minus)
    right_edge = max(float(np.max(times)), 0.0) + 1.0 if causal_only else cfg.trunc

    # truncation budget: compare the analytic tail bound with the variance scale
    scale = max(
        m.sigma[i] ** 2 * max(t_max, 1e-12) ** (2.0 * m.hurst[i]) for i in range(p)
    )
    worst = 0.0
    for i in range(p):
        worst = max(worst, _tail_variance_bound(m.hurst[i], float(m.app[i, i]), t_max, cfg.trunc))
        if not causal_only:
            worst = max(worst, _tail_variance_bound(m.hurst[i], float(m.amm[i, i]), t_max, cfg.trunc))
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
