"""Semidefinite Cholesky, exact sampling, and the Monte Carlo discretization."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vfbm
from vfbm import McConfig, TimeGrid, cholesky_psd, empirical_cov, mc_integral_oracle, sample_paths, validate_hurst
from vfbm.errors import ConfigError, NotPsdError
from vfbm.simulate import _BLOCK, _build_cells, _circulant_factor, _circulant_paths, _draw, _equispaced, check_seed
from vfbm.simulate import plan_paths
from vfbm.verify import random_mixing, run_suite, suite_mc


def _standard_model():
    m = vfbm.MixingMatrices(
        a_plus=np.array([[1.0, 0.5], [0.0, 1.0]]),
        a_minus=np.zeros((2, 2)),
        hurst=validate_hurst([0.3, 0.6]),
    )
    return m, vfbm.coeffs_from_mixing(m)


def test_cholesky_identity():
    assert np.array_equal(cholesky_psd(np.eye(4)), np.eye(4))


def test_cholesky_brownian_grid():
    model = vfbm.CovarianceModel(validate_hurst([0.5]))
    cov = vfbm.cov_matrix(model, TimeGrid((1.0, 2.0, 3.0)))
    low = cholesky_psd(cov.entries)
    assert np.allclose(low, [[1, 0, 0], [1, 1, 0], [1, 1, 1]], atol=1e-14)


def test_cholesky_semidefinite_zero_row():
    model = vfbm.CovarianceModel(validate_hurst([0.5]))
    cov = vfbm.cov_matrix(model, TimeGrid((0.0, 1.0, 2.0)))
    low = cholesky_psd(cov.entries)
    assert np.all(low[0] == 0.0)
    assert np.max(np.abs(low @ low.T - cov.entries)) <= 1e-8 * max(1.0, np.max(np.abs(cov.entries)))


def test_cholesky_skips_a_tiny_positive_pivot():
    # 1e-14 <= 1e-12 max|C_ij|: a zero column, although LAPACK would accept that pivot
    d = np.ones(_BLOCK + 5)
    d[_BLOCK - 1] = 1e-14
    low = cholesky_psd(np.diag(d))
    assert np.array_equal(np.diagonal(low), np.where(d == 1e-14, 0.0, 1.0))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPsdError):
        cholesky_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.parametrize(
    "matrix",
    [
        [[0.0, 1.0], [1.0, 1.0]],  # eigenvalues -0.618 and 1.618
        [[1.0, 0.0, 0.5], [0.0, 0.0, 0.3], [0.5, 0.3, 1.0]],
    ],
)
def test_cholesky_rejects_a_zero_pivot_with_a_nonzero_column(matrix):
    with pytest.raises(NotPsdError):
        cholesky_psd(np.array(matrix))


@pytest.mark.parametrize(
    "matrix, pivot, message",
    [
        ([[1.0, 2.0], [2.0, 1.0]], -3.0, "(pivot -3.000000e+00 at row 1)"),
        ([[0.0, 1.0], [1.0, 1.0]], 0.0,
         "(pivot 0.000000e+00 at row 0, skipped as zero, but its column has 1.000000e+00 at row 1,"
         " above the bound 1.000000e-06)"),
        ([[1.0, 0.0, 0.5], [0.0, 0.0, 0.3], [0.5, 0.3, 1.0]], 0.0,
         "(pivot 0.000000e+00 at row 1, skipped as zero, but its column has 3.000000e-01 at row 2,"
         " above the bound 1.000000e-06)"),
    ],
)
def test_cholesky_error_names_the_row_and_the_residual(matrix, pivot, message):
    with pytest.raises(NotPsdError) as info:
        cholesky_psd(np.array(matrix))
    assert str(info.value) == "covariance matrix not positive semidefinite " + message
    assert info.value.code == "NotPSD" and info.value.pivot == pivot


def _grid_cov(times):
    _, model = _standard_model()
    return vfbm.cov_matrix(model, TimeGrid(tuple(times))).entries


def test_cholesky_matches_lapack_on_a_definite_matrix_beyond_one_block():
    cov = _grid_cov(np.linspace(0.1, 5.0, 90))  # dimension 180, no t = 0 row
    assert cov.shape[0] > _BLOCK
    norm = float(np.max(np.abs(cov)))
    assert float(np.max(np.abs(cholesky_psd(cov) - np.linalg.cholesky(cov)))) <= 1e-10 * norm


@pytest.mark.parametrize(
    "times, zero_rows",
    [
        (np.linspace(0.0, 10.0, 700), [0, 1]),  # long-grid's grid, dimension 1400; the t = 0 rows
        ((0.5, 1.0, 1.5, 2.5), []),  # criterion 8's grid, dimension 8: one block
    ],
    ids=["dim1400", "dim8"],
)
def test_cholesky_blocks_match_the_column_loop_at_dimension_1400(times, zero_rows):
    # the column loop run over all n columns is the unblocked factorization
    cov = _grid_cov(times)
    norm = float(np.max(np.abs(cov)))
    loop = cov.copy()
    vfbm.simulate._factor_block_by_columns(loop, 0, cov.shape[0], norm)
    low = cholesky_psd(cov)
    if cov.shape[0] <= _BLOCK:
        assert np.array_equal(low, loop)
    assert float(np.max(np.abs(low - loop))) <= 1e-10
    assert float(np.max(np.abs(low @ low.T - cov))) <= 1e-12 * norm
    assert np.flatnonzero(np.diagonal(low) == 0.0).tolist() == zero_rows


def test_cholesky_leaves_its_input_alone_and_reads_any_layout():
    cov = _grid_cov([k / 20 for k in range(-70, 71)])  # t = 0 mid-grid, dimension 282
    before = cov.tobytes()
    low = cholesky_psd(cov)
    assert cov.tobytes() == before
    strided = np.zeros((2 * cov.shape[0], 2 * cov.shape[1]))
    strided[::2, ::2] = cov
    view = strided[::2, ::2]
    assert not view.flags.c_contiguous
    for same in (cov.tolist(), np.asfortranarray(cov), view):
        assert np.array_equal(cholesky_psd(same), low)
    assert strided[::2, ::2].tobytes() == before and not strided[1::2].any()


@st.composite
def _padded_low_rank(draw):
    """(C, B, independent rows) with C = B B^T of rank r < n, n up to 2.5 blocks.

    B is zero at the padded rows (block-boundary positions among the choices).
    The other rows are in echelon form: each of the r independent ones opens a
    new column of B with an entry in [1, 2] and small entries (spectral norm
    about 0.5) in the columns open before, each dependent one combines the
    columns open so far.  So B, its columns placed at the independent rows, is
    the semidefinite Cholesky factor of C, and the independent rows of B are
    well conditioned (a Gaussian triangular factor would not be).
    """
    n = draw(st.integers(3, 5 * _BLOCK // 2))
    edges = [k for k in (_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK) if k < n]
    position = st.integers(0, n - 1) | st.sampled_from(edges) if edges else st.integers(0, n - 1)
    zeros = draw(st.sets(position, min_size=1, max_size=min(8, n - 2)))
    rows = [k for k in range(n) if k not in zeros]
    rank = len(rows) - draw(st.integers(0, len(rows) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    independent = sorted(rng.choice(rows, size=rank, replace=False).tolist())
    b = np.zeros((n, rank))
    for k in rows:
        opened = int(np.searchsorted(independent, k, side="right"))
        if k in independent:
            b[k, : opened - 1] = rng.standard_normal(opened - 1) * (0.25 / np.sqrt(rank))
            b[k, opened - 1] = rng.uniform(1.0, 2.0)
        else:
            b[k, :opened] = rng.standard_normal(opened)
    b *= 10.0 ** draw(st.integers(-3, 3))
    return b @ b.T, b, independent


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_padded_low_rank())
def test_cholesky_property_low_rank_with_zero_rows(case):
    cov, b, independent = case
    low = cholesky_psd(cov)
    norm = float(np.max(np.abs(cov)))
    assert float(np.max(np.abs(low @ low.T - cov))) <= 1e-8 * norm
    assert np.flatnonzero(np.diagonal(low)).tolist() == independent  # zero on padded and dependent rows
    assert float(np.max(np.abs(low[:, independent] - b))) <= 1e-8 * np.sqrt(norm)
    assert not np.triu(low, 1).any()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_padded_low_rank())
def test_cholesky_property_rejects_a_psd_matrix_minus_a_rank_one_term(case):
    # C - 2 c_k c_k^T / C_kk at the largest diagonal entry k has e_k^T (.) e_k = -C_kk,
    # and C_kk >= max|C_ij|, so its smallest eigenvalue is at most -max|C_ij|
    cov = case[0]
    k = int(np.argmax(np.diagonal(cov)))
    with pytest.raises(NotPsdError):
        cholesky_psd(cov - 2.0 * np.outer(cov[:, k], cov[:, k]) / cov[k, k])


@pytest.mark.xfail(strict=True, raises=NotPsdError, reason="unpivoted elimination: a small pivot within the rank "
                   "amplifies rounding past the -1e-10 max|C_ij| rule")
def test_cholesky_factors_a_generic_low_rank_matrix():
    # rank 17 of 20, with row 16 of B nearly a combination of rows 0-15, so the 17th pivot
    # is 1.9e-12 max|C_ij|, just above the zero-pivot rule; dividing by it leaves -3.2e-6
    # max|C_ij| at row 17 (-7.2e-6 with the panel product on a transposed copy, the other
    # gemv summation order), far past the -1e-10 rule either way, while the eigenvalues
    # are >= -7.9e-17 max|C_ij|
    rng = np.random.default_rng(2)
    b = rng.standard_normal((20, 17))
    b[16] = b[:16].T @ rng.standard_normal(16) / 4 + 1e-4 * b[16]
    cholesky_psd(b @ b.T)


def test_cholesky_reconstruction_accuracy():
    rng = np.random.default_rng(31)
    for k in range(5):
        m = random_mixing(rng, 2, critical_pair=(k % 2 == 0), a_minus_scale=float(rng.uniform(0, 1.0)))
        model = vfbm.coeffs_from_mixing(m)
        cov = vfbm.cov_matrix(model, TimeGrid((-1.0, 0.0, 0.5, 2.0)))
        low = cholesky_psd(cov.entries)
        norm = float(np.max(np.abs(cov.entries)))
        assert float(np.max(np.abs(low @ low.T - cov.entries))) <= 1e-8 * norm


def test_sample_paths_deterministic_and_zero_at_origin():
    _, model = _standard_model()
    grid = TimeGrid((0.0, 0.5, 1.0))
    e1 = sample_paths(model, grid, 64, seed=7)
    e2 = sample_paths(model, grid, 64, seed=7)
    assert np.array_equal(e1.paths, e2.paths)
    assert e1.paths.shape == (64, 3, 2)
    assert np.all(e1.paths[:, 0, :] == 0.0)  # X(0) = 0 on every path
    e3 = sample_paths(model, grid, 64, seed=8)
    assert not np.array_equal(e1.paths, e3.paths)


def test_sample_paths_rejects_a_count_that_is_not_a_positive_integer():
    _, model = _standard_model()
    grid = TimeGrid((0.5, 1.0))
    for bad in (2.5, math.nan, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_paths(model, grid, bad, seed=0)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        sample_paths(model, grid, 0, seed=0)
    assert sample_paths(model, grid, np.int64(3), seed=0).n_paths == 3


@pytest.mark.parametrize("bad", [True, False, -1, 2**64, 1.0, "1", None])
def test_every_seeded_routine_rejects_a_seed_that_is_not_an_integer_in_range(bad):
    # a bool is not a seed: True would run silently at seed 1
    _, model = _standard_model()
    with pytest.raises(ValueError, match="seed must be an integer"):
        check_seed(bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        sample_paths(model, TimeGrid((0.5, 1.0)), 3, seed=bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        McConfig(n_reps=100, grid_step=0.1, trunc=100.0, seed=bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_suite("tildec", seed=bad)


def test_sample_paths_draws_one_default_rng_stream():
    # the RNG contract: path r is the r-th block of dim normals of default_rng(seed)
    _, model = _standard_model()
    grid = TimeGrid((0.0, 0.5, 1.0, 2.0))
    n, seed = 50, 2**64 - 1
    cov = vfbm.cov_matrix(model, grid)
    expected = np.random.default_rng(seed).standard_normal((n, cov.dim)) @ cholesky_psd(cov.entries).T
    assert np.array_equal(sample_paths(model, grid, n, seed).paths.reshape(n, -1), expected)


def test_sample_paths_rank_deficient_beyond_time_zero():
    # c_12 = c_21 = 1 with equal exponents gives R = [[1, 1], [1, 1]] (lambda_min = 0),
    # so X_1 = X_2 and the grid covariance is singular on every row, not only at t = 0
    model = vfbm.ensure_valid(
        vfbm.CovarianceModel(validate_hurst([0.4, 0.4]), sigma=[1.0, 1.0], c=[[1.0, 1.0], [1.0, 1.0]])
    )
    grid = TimeGrid((0.0, 0.5, 1.0, 2.0))
    cov = vfbm.cov_matrix(model, grid)
    low = cholesky_psd(cov.entries)
    norm = float(np.max(np.abs(cov.entries)))
    assert float(np.max(np.abs(low @ low.T - cov.entries))) <= 1e-8 * norm
    paths = sample_paths(model, grid, 200, seed=4).paths
    assert float(np.max(np.abs(paths[:, :, 0] - paths[:, :, 1]))) <= 1e-12


def _mixing_model(a_plus, a_minus, hurst):
    return vfbm.coeffs_from_mixing(
        vfbm.MixingMatrices(a_plus=np.array(a_plus), a_minus=np.array(a_minus), hurst=validate_hurst(hurst))
    )


# perfbench long-grid's mixing matrices (H = (0.35, 0.65), a critical pair) at its
# seeds 1 and 9, to 3 decimals.  Seed 1's circulant embedding is PSD; seed 9's has a
# smallest eigenvalue of -7.7e-4 max|lambda| at 100 grid points (-5.0e-4 at 700).
_LONG_GRID_SEED_1 = _mixing_model([[0.346, 0.822], [0.33, -1.303]], [[0.453, 0.223], [-0.268, 0.291]], (0.35, 0.65))
_LONG_GRID_SEED_9 = _mixing_model([[-0.803, 0.243], [-1.656, 0.656]], [[0.572, -0.226], [0.215, 0.125]], (0.35, 0.65))
_THREE_COMPONENTS = _mixing_model(
    [[1.0, 0.3, -0.2], [0.4, 1.0, 0.1], [0.0, -0.5, 1.0]], [[0.2, 0.0, 0.1], [0.0, 0.3, 0.0], [0.1, 0.0, 0.2]],
    (0.4, 0.6, 0.75),
)


def _circulant_setup(model, grid):
    spacing = _equispaced(grid)
    assert spacing is not None
    delta, k0 = spacing
    m = grid.n - 1 + k0
    factor = _circulant_factor(model, delta, m)
    assert factor is not None
    return factor, m, k0


@pytest.mark.parametrize("model", [_LONG_GRID_SEED_1, _standard_model()[1], _THREE_COMPONENTS],
                         ids=["critical", "general", "p3"])
@pytest.mark.parametrize("times", [np.linspace(0.0, 7.0, 70), 0.1 * np.arange(1, 71)], ids=["from0", "fromDelta"])
def test_circulant_synthesis_implies_cov_matrix(model, times):
    # push every unit normal of one pair through the synthesis: the outputs'
    # outer products sum to the covariance the draw implies, for the real-part
    # path, the imaginary-part path and between the two
    grid = TimeGrid(tuple(times))
    factor, m, k0 = _circulant_setup(model, grid)
    size = model.p * factor.shape[-1] * 2
    paths = _circulant_paths(factor, np.eye(size).reshape(size, model.p, -1, 2), m, k0)
    paths = paths.reshape(size, 2, grid.n * model.p)
    real, imag = paths[:, 0], paths[:, 1]
    cov = vfbm.cov_matrix(model, grid).entries
    bound = 1e-12 * float(np.max(np.abs(cov)))
    # the cross blocks are not the transposes of each other, so a draw with
    # Gamma_ji in place of Gamma_ij would be off there
    assert float(np.max(np.abs(cov[0 :: model.p, 1 :: model.p] - cov[1 :: model.p, 0 :: model.p]))) > 1e3 * bound
    assert float(np.max(np.abs(real.T @ real - cov))) <= bound
    assert float(np.max(np.abs(imag.T @ imag - cov))) <= bound
    assert float(np.max(np.abs(real.T @ imag))) <= bound


def test_circulant_draw_takes_pairs_of_the_one_stream():
    # the RNG contract: pair q is the q-th block of 2 L p normals, path 2q its
    # real part and path 2q + 1 its imaginary part
    grid = TimeGrid(tuple(np.linspace(0.0, 10.0, 100)))
    factor, m, k0 = _circulant_setup(_LONG_GRID_SEED_1, grid)
    n, seed = 7, 2**64 - 1
    ens = sample_paths(_LONG_GRID_SEED_1, grid, n, seed)
    z = np.random.default_rng(seed).standard_normal(((n + 1) // 2, 2, 2 * m, 2))  # (pair, component, L, re/im)
    assert ens.method == "circulant"
    assert np.array_equal(ens.paths, _circulant_paths(factor, z, m, k0)[:n])


@pytest.mark.parametrize("start", [0.0, 0.1], ids=["from0", "fromDelta"])
def test_circulant_draw_is_reproducible_and_prefix_stable(start):
    grid = TimeGrid(tuple(start + 0.1 * np.arange(100)))
    ens = sample_paths(_LONG_GRID_SEED_1, grid, 12, seed=3)
    assert ens.method == "circulant" and ens.paths.shape == (12, 100, 2)
    assert np.array_equal(sample_paths(_LONG_GRID_SEED_1, grid, 12, seed=3).paths, ens.paths)
    for n in (1, 6, 7):
        assert np.array_equal(sample_paths(_LONG_GRID_SEED_1, grid, n, seed=3).paths, ens.paths[:n])
    assert np.all(ens.paths[:, 0, :] == 0.0) == (start == 0.0)  # X(0) = 0 exactly
    assert np.all(np.isfinite(ens.paths))


def test_circulant_draw_matches_cov_matrix_in_distribution():
    # 65 points from 0 (dimension 130, just past one block); a Bonferroni bound
    # over the 130 * 131 / 2 distinct entries, family-wise false alarm 1e-3
    grid = TimeGrid(tuple(np.linspace(0.0, 3.2, 65)))
    ens = sample_paths(_LONG_GRID_SEED_1, grid, 20_000, seed=4242)
    assert ens.method == "circulant"
    emp = empirical_cov(ens)
    analytic = vfbm.cov_matrix(_LONG_GRID_SEED_1, grid).entries
    tests = analytic.shape[0] * (analytic.shape[0] + 1) // 2
    z = statistics.NormalDist().inv_cdf(1.0 - 1e-3 / (2.0 * tests))
    assert np.all(np.abs(emp.cov - analytic) <= z * emp.se)


def _assert_parent_cholesky_draw(model, times, monkeypatch):
    grid = TimeGrid(tuple(times))
    real = vfbm.simulate.cholesky_psd
    calls = []
    monkeypatch.setattr(vfbm.simulate, "cholesky_psd", lambda c: calls.append(1) or real(c))
    n, seed = 9, 5
    ens = sample_paths(model, grid, n, seed)
    expected = _draw(real(vfbm.cov_matrix(model, grid).entries), n, seed)
    assert ens.method == "cholesky" and calls == [1]
    assert np.array_equal(ens.paths.reshape(n, -1), expected)


_NOT_CIRCULANT_GRIDS = {
    "3-points": (0.0, 0.5, 1.0),
    "4-points": (0.5, 1.0, 1.5, 2.0),
    "dim-equals-block": np.linspace(0.0, 6.3, _BLOCK // 2),
    "negative-start": [k / 20 for k in range(-70, 71)],
    "gap": [0.1 * k for k in range(100) if k != 50],
    "from-2Delta": 0.1 * np.arange(2, 102),
    "irregular": np.linspace(0.0, 3.0, 100) ** 1.5,
    "one-time-8-ulp-off": np.linspace(0.0, 10.0, 100) + 8 * np.spacing(10.0) * (np.arange(100) == 60),
}


@pytest.mark.parametrize("times", list(_NOT_CIRCULANT_GRIDS.values()), ids=list(_NOT_CIRCULANT_GRIDS))
def test_other_grids_draw_the_cholesky_paths(times, monkeypatch):
    _assert_parent_cholesky_draw(_LONG_GRID_SEED_1, times, monkeypatch)


def test_a_non_psd_embedding_draws_the_cholesky_paths(monkeypatch):
    times = np.linspace(0.0, 10.0, 100)
    delta, k0 = _equispaced(TimeGrid(tuple(times)))
    assert _circulant_factor(_LONG_GRID_SEED_9, delta, 99) is None
    assert _circulant_factor(_LONG_GRID_SEED_1, delta, 99) is not None
    _assert_parent_cholesky_draw(_LONG_GRID_SEED_9, times, monkeypatch)


def _chunk_lengths(plan, n, seed=0):
    return [len(chunk) for chunk in plan.draw(n, seed)]


def _full_chunk(plan):
    """Paths in a full chunk of the plan's draw: only the first chunk is drawn."""
    return len(next(plan.draw(10**9, 0)))


@pytest.mark.parametrize("times", [np.linspace(0.0, 7.0, 70), 0.1 * np.arange(1, 71)], ids=["from0", "fromDelta"])
def test_chunked_circulant_draw_equals_the_one_shot_draw(times):
    # c pairs a chunk: at n = 2c - 1, 2c and 2c + 1 the last pair of a chunk is
    # cut, fills it, or starts the next chunk with half a pair
    grid = TimeGrid(tuple(times))
    plan = plan_paths(_THREE_COMPONENTS, grid)
    factor, m, k0 = _circulant_setup(_THREE_COMPONENTS, grid)
    assert plan.method == "circulant" and (plan.m, plan.k0) == (m, k0) and np.array_equal(plan.factor, factor)
    c = _full_chunk(plan) // 2
    assert c > 1
    seed = 21
    for n in (1, 2 * c - 1, 2 * c, 2 * c + 1):
        z = np.empty(((n + 1) // 2, 3, 2 * m, 2))
        np.random.default_rng(seed).standard_normal(out=z)
        one_shot = _circulant_paths(factor, z, m, k0)[:n]
        assert _chunk_lengths(plan, n) == [2 * c] * (n // (2 * c)) + ([n % (2 * c)] if n % (2 * c) else [])
        assert np.array_equal(sample_paths(_THREE_COMPONENTS, grid, n, seed).paths, one_shot)


@pytest.mark.parametrize("k", [2, 3])
def test_chunked_cholesky_draw_equals_the_one_shot_draw(k):
    # c paths a chunk; at n = c k + 1 the last lone path joins the last chunk,
    # since BLAS multiplies a single row by a kernel whose sums round differently.
    # Dimension 600: there OpenBLAS splits a product the same way for any row
    # count, with one thread or two
    times = np.linspace(0.0, 3.0, 301)[1:] ** 1.5
    grid = TimeGrid(tuple(times))
    plan = plan_paths(_LONG_GRID_SEED_1, grid)
    c = _full_chunk(plan)
    assert plan.method == "cholesky" and c >= _BLOCK
    n, seed = c * k + 1, 8
    assert _chunk_lengths(plan, n) == [c] * (k - 1) + [c + 1]
    assert _chunk_lengths(plan, c + 2) == [c, 2]
    expected = _draw(cholesky_psd(vfbm.cov_matrix(_LONG_GRID_SEED_1, grid).entries), n, seed)
    assert np.array_equal(sample_paths(_LONG_GRID_SEED_1, grid, n, seed).paths.reshape(n, -1), expected)


def test_plan_draw_checks_its_count_and_seed_before_drawing():
    plan = plan_paths(_LONG_GRID_SEED_1, TimeGrid((0.5, 1.0)))
    with pytest.raises(ValueError, match="n must be >= 1"):
        plan.draw(0, 1)
    with pytest.raises(ValueError, match="seed"):
        plan.draw(3, -1)


def test_sample_paths_peaks_below_one_and_a_half_path_arrays():
    # tracemalloc sees numpy's buffers: the chunks add at most a fixed budget to the
    # (n, n_times, p) array the paths are copied into
    import tracemalloc

    grid = TimeGrid(tuple(np.arange(2001) / 200.0))
    tracemalloc.start()
    try:
        ens = sample_paths(_standard_model()[1], grid, 400, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.method == "circulant"
    assert peak < 1.5 * ens.paths.nbytes, (peak, ens.paths.nbytes)


@pytest.mark.parametrize(
    "times, delta, k0",
    [
        (np.linspace(0.0, 10.0, 700), 10.0 / 699, 0),
        (np.linspace(0.5, 50.0, 100), 0.5, 1),
        (np.arange(0.0, 20.0, 0.1), 0.1, 0),
        (np.arange(1, 1001) * 0.003, 0.003, 1),
        ([float(v) for v in ",".join(f"{k / 10:g}" for k in range(201)).split(",")], 0.1, 0),  # 0,0.1,...,20
        ([float(v) for v in ",".join(f"{k / 100:g}" for k in range(1, 501)).split(",")], 0.01, 1),
    ],
    ids=["linspace-from0", "linspace-fromDelta", "arange", "arange-fromDelta", "decimal-text", "decimal-text-fromDelta"],
)
def test_equispaced_detection_accepts_rounded_grids(times, delta, k0):
    spacing = _equispaced(TimeGrid(tuple(times)))
    assert spacing is not None
    assert spacing[1] == k0 and spacing[0] == pytest.approx(delta, rel=1e-15)


def test_random_mixing_propagates_unexpected_errors(monkeypatch):
    # only a degenerate component is redrawn; any other error must surface, not loop
    real = vfbm.verify.MixingMatrices
    calls = []

    def fail_once(**kwargs):
        calls.append(kwargs["hurst"])
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real(**kwargs)

    monkeypatch.setattr("vfbm.verify.MixingMatrices", fail_once)
    with pytest.raises(RuntimeError, match="injected"):
        random_mixing(np.random.default_rng(0), 2)
    assert len(calls) == 1


def test_sample_paths_matches_analytic_covariance():
    _, model = _standard_model()
    grid = TimeGrid((0.5, 1.0, 2.0))
    ens = sample_paths(model, grid, 30_000, seed=123)
    emp = empirical_cov(ens)
    analytic = vfbm.cov_matrix(model, grid).entries
    dev = np.abs(emp.cov - analytic) / np.maximum(emp.se, 1e-300)
    assert float(dev.max()) <= 4.0


def test_empirical_cov_trivial_cases():
    zeros = vfbm.simulate.PathEnsemble(paths=np.zeros((5, 1, 2)), method="cholesky")
    emp = empirical_cov(zeros)
    assert not emp.cov.any() and not emp.se.any()

    two = vfbm.simulate.PathEnsemble(paths=np.array([[[1.0, 0.0]], [[3.0, 4.0]]]), method="cholesky")
    emp2 = empirical_cov(two)
    # hand-computed 2-sample covariance: centered values +-1 and +-2
    assert emp2.cov[0, 0] == pytest.approx(2.0)
    assert emp2.cov[0, 1] == pytest.approx(4.0)
    assert emp2.cov[1, 1] == pytest.approx(8.0)

    with pytest.raises(ValueError):
        empirical_cov(vfbm.simulate.PathEnsemble(paths=np.zeros((1, 1, 2)), method="cholesky"))


def test_mc_config_validation():
    with pytest.raises(ConfigError, match="n_reps must be >= 100"):
        McConfig(n_reps=10, grid_step=0.1, trunc=100.0, seed=0)
    for bad in (100.5, math.nan, 200.0, True, "200"):
        with pytest.raises(ConfigError, match="n_reps must be an integer"):
            McConfig(n_reps=bad, grid_step=0.1, trunc=100.0, seed=0)
    assert McConfig(n_reps=np.int64(100), grid_step=0.1, trunc=100.0, seed=0).n_reps == 100
    with pytest.raises(ConfigError):
        McConfig(n_reps=100, grid_step=-0.1, trunc=100.0, seed=0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            McConfig(n_reps=100, grid_step=bad, trunc=100.0, seed=0)
        with pytest.raises(ConfigError, match="finite"):
            McConfig(n_reps=100, grid_step=0.1, trunc=bad, seed=0)


def test_mc_oracle_rejects_bad_configs():
    m, _ = _standard_model()
    grid = TimeGrid((0.5, 1.0, 2.0))
    with pytest.raises(ConfigError):  # grid not inside (-trunc/2, trunc/2)
        mc_integral_oracle(m, grid, McConfig(n_reps=200, grid_step=0.1, trunc=3.9, seed=0))
    with pytest.raises(ConfigError):  # truncation tail bound above budget
        mc_integral_oracle(m, grid, McConfig(n_reps=200, grid_step=0.1, trunc=4.2, seed=0))


def _cells_by_list(grid: TimeGrid, cfg: McConfig, right_edge: float):
    """_build_cells with its edges built element by element in a Python list."""
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
        mid = 0.5 * (a + b)
        step = fine if any(abs(mid - pnt) < 1.0 for pnt in sing) else cfg.grid_step
        k = max(1, int(round((b - a) / step)))
        edges.extend(np.linspace(a, b, k + 1)[1:])
    edges = np.asarray(edges)
    return 0.5 * (edges[:-1] + edges[1:]), np.diff(edges)


# criterion 7's grid and discretization: right edge max(grid) + 1 when A- = 0, trunc otherwise
@pytest.mark.parametrize("right_edge", [3.0, 120.0])
def test_mc_cells_equal_the_list_built_cells(right_edge):
    grid = TimeGrid((0.5, 1.0, 2.0))
    cfg = McConfig(n_reps=100_000, grid_step=0.05, trunc=120.0, seed=777)
    mids, widths = _build_cells(grid, cfg, right_edge)
    ref_mids, ref_widths = _cells_by_list(grid, cfg, right_edge)
    assert mids.size > 1000
    assert np.array_equal(mids, ref_mids) and np.array_equal(widths, ref_widths)


def test_mc_oracle_brownian_variance():
    m = vfbm.MixingMatrices(a_plus=np.eye(1), a_minus=np.zeros((1, 1)), hurst=validate_hurst([0.5]))
    grid = TimeGrid((1.0,))
    table = mc_integral_oracle(m, grid, McConfig(n_reps=4000, grid_step=0.1, trunc=40.0, seed=5))
    assert abs(table.cov[0, 0] - 1.0) <= 4.0 * table.se[0, 0] + 1e-3


def test_mc_oracle_draws_through_the_cholesky_stream():
    # Brownian motion at t = 1: K K^T is the total width of the cells in [0, 1),
    # i.e. 1, so the draws are the default_rng(seed) normals themselves
    m = vfbm.MixingMatrices(a_plus=np.eye(1), a_minus=np.zeros((1, 1)), hurst=validate_hurst([0.5]))
    table = mc_integral_oracle(m, TimeGrid((1.0,)), McConfig(n_reps=4000, grid_step=0.1, trunc=40.0, seed=5))
    expected = np.mean(np.random.default_rng(5).standard_normal(4000) ** 2)
    assert table.cov[0, 0] == pytest.approx(expected, rel=1e-12)


def test_mc_oracle_deterministic():
    m, _ = _standard_model()
    grid = TimeGrid((0.5, 1.0))
    cfg = McConfig(n_reps=500, grid_step=0.2, trunc=60.0, seed=11)
    t1 = mc_integral_oracle(m, grid, cfg)
    t2 = mc_integral_oracle(m, grid, cfg)
    assert np.array_equal(t1.cov, t2.cov) and np.array_equal(t1.se, t2.se)


def test_mc_oracle_reflection_symmetry():
    # anti-causal weights at mirrored (negative) times reproduce the causal law
    h = validate_hurst([0.4])
    causal = vfbm.MixingMatrices(a_plus=np.eye(1), a_minus=np.zeros((1, 1)), hurst=h)
    anti = vfbm.MixingMatrices(a_plus=np.zeros((1, 1)), a_minus=np.eye(1), hurst=h)
    cfg = McConfig(n_reps=6000, grid_step=0.1, trunc=60.0, seed=17)
    fwd = mc_integral_oracle(causal, TimeGrid((0.5, 1.0)), cfg)
    bwd = mc_integral_oracle(anti, TimeGrid((-1.0, -0.5)), cfg)
    mirror = bwd.cov[::-1, ::-1]  # reverse time order to align the grids
    joint_se = np.sqrt(fwd.se**2 + bwd.se[::-1, ::-1] ** 2)
    assert np.all(np.abs(fwd.cov - mirror) <= 4.0 * joint_se + 5e-3)


def test_sampler_scaling_in_distribution():
    # paths on lambda*grid have covariance lambda^(H_i+H_j) times the one on grid
    _, model = _standard_model()
    lam = 2.0
    grid = TimeGrid((0.5, 1.0))
    scaled_grid = TimeGrid(tuple(lam * t for t in grid.times))
    ens = sample_paths(model, scaled_grid, 30_000, seed=55)
    emp = empirical_cov(ens)
    base = vfbm.cov_matrix(model, grid).entries
    h = np.asarray(model.hurst.h)
    exponents = h[None, :] + h[:, None]  # (i, j) component exponent sums
    factor = np.tile(lam**exponents, (grid.n, grid.n))
    dev = np.abs(emp.cov - factor * base) / np.maximum(emp.se, 1e-300)
    assert float(dev.max()) <= 4.0


def test_sampler_stationary_increments():
    # increments over shifted windows of equal length share their covariance
    _, model = _standard_model()
    delta, shift = 0.8, 1.7
    grid = TimeGrid((0.3, 0.3 + delta, 0.3 + shift, 0.3 + shift + delta))
    ens = sample_paths(model, grid, 30_000, seed=56)
    d1 = ens.paths[:, 1, :] - ens.paths[:, 0, :]
    d2 = ens.paths[:, 3, :] - ens.paths[:, 2, :]
    p1 = np.einsum("ni,nj->nij", d1, d1)
    p2 = np.einsum("ni,nj->nij", d2, d2)
    gap = np.abs(p1.mean(axis=0) - p2.mean(axis=0))
    joint_se = np.sqrt(p1.var(axis=0) / len(p1) + p2.var(axis=0) / len(p2))
    assert np.all(gap <= 4.0 * joint_se)


def test_mc_oracle_matches_analytic_small_run():
    m, model = _standard_model()
    grid = TimeGrid((0.5, 1.0, 2.0))
    table = mc_integral_oracle(m, grid, McConfig(n_reps=8000, grid_step=0.1, trunc=120.0, seed=29))
    analytic = vfbm.cov_matrix(model, grid).entries
    allowance = np.maximum(4.0 * table.se, 0.02 * float(np.max(np.abs(analytic))))
    assert np.all(np.abs(table.cov - analytic) <= allowance)


def test_verify_mc_suite_passes_at_seed_1741841811():
    # history: at grid step 0.1 with one Philox stream per replication the
    # discretization bias scored 1.128 here, above the 1.0 tolerance; at step
    # 0.05 it scored 0.815, then 0.343 with one default_rng stream feeding the
    # batched Riemann sum, and 0.477 with exact draws of the sum's law
    (record,) = suite_mc(1741841811)
    assert record["pass"], record
