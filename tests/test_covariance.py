"""Closed-form covariance identities, dispatch, and grid assembly."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vfbm
import vfbm.cli
from vfbm import (
    CovarianceModel,
    TimeGrid,
    cov_matrix,
    cov_pair,
    sign_coeff,
    validate_hurst,
)
from vfbm.covariance import _cov_critical, _cov_general, cov_same
from vfbm.errors import IndexOutOfRangeError
from vfbm.model import model_to_dict
from vfbm.representation import _pair_coeffs
from vfbm.verify import random_mixing

# frozen 40-digit reference: 2*(1.5^1.4 + 0.5^1.4 - 2^1.4)/... for sigma=2
COV_SAME_07_2 = -0.99193629226235727857


def _general_model(c_ij, c_ji, sigma_i=1.0, sigma_j=1.0, hurst=(0.3, 0.6)):
    return CovarianceModel(validate_hurst(list(hurst)), sigma=[sigma_i, sigma_j], c=[[1.0, c_ij], [c_ji, 1.0]])


def _critical_model(d_ij, f_ij, sigma_i=1.0, sigma_j=1.0, hurst=(0.3, 0.7)):
    return CovarianceModel(
        validate_hurst(list(hurst)),
        sigma=[sigma_i, sigma_j],
        c=[[1.0, d_ij], [d_ij, 1.0]],
        f=[[0.0, f_ij], [-f_ij, 0.0]],
    )


def test_cov_same_brownian_values():
    assert cov_same(0.5, 1.0, 1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert cov_same(0.5, 1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)  # min(s, t)


def test_cov_same_frozen_reference():
    assert cov_same(0.7, 2.0, 1.5, -0.5) == pytest.approx(COV_SAME_07_2, rel=1e-14)


def test_sign_coeff():
    assert sign_coeff(2.0, 3.0, 0.1) == 2.0
    assert sign_coeff(2.0, 3.0, -0.1) == 3.0
    assert sign_coeff(2.0, 3.0, 0.0) == 2.0  # never multiplies a nonzero factor


def test_cross_general_zero_at_origin():
    model = _general_model(0.7, -0.3)
    for t in (-2.3, 0.4, 1.0):
        assert cov_pair(model, 1, 2, 0.0, t) == 0.0
        assert cov_pair(model, 1, 2, t, 0.0) == 0.0


def test_cross_general_symmetric_coefficients_reduce_to_scalar_form():
    # c_ij = c_ji = 1 with unit scales collapses to the one-component formula
    model = _general_model(1.0, 1.0)
    rng = np.random.default_rng(5)
    for s, t in rng.uniform(-3, 3, size=(20, 2)):
        lhs = cov_pair(model, 1, 2, s, t)
        rhs = cov_same((0.3 + 0.6) / 2.0, 1.0, s, t)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_cross_critical_special_values():
    model = _critical_model(0.4, 0.2, sigma_i=1.5, sigma_j=2.0)
    # log terms cancel at s = t
    assert cov_pair(model, 1, 2, 1.0, 1.0) == pytest.approx(1.5 * 2.0 * 0.4, rel=1e-14)
    assert cov_pair(model, 1, 2, 0.0, 3.7) == 0.0


def test_cov_pair_dispatch_and_bounds():
    model = _general_model(0.4, -0.2)
    assert cov_pair(model, 1, 1, 1.2, 0.7) == pytest.approx(cov_same(0.3, 1.0, 1.2, 0.7), rel=1e-15)
    with pytest.raises(IndexOutOfRangeError):
        cov_pair(model, 0, 1, 1.0, 1.0)
    with pytest.raises(IndexOutOfRangeError):
        cov_pair(model, 1, 3, 1.0, 1.0)


def test_cov_pair_transpose_identity():
    # E X_j(s) X_i(t) queried directly must equal E X_i(t) X_j(s)
    rng = np.random.default_rng(8)
    for k in range(20):
        m = random_mixing(rng, 2, critical_pair=(k % 2 == 0), a_minus_scale=float(rng.uniform(0, 1.2)))
        model = vfbm.coeffs_from_mixing(m)
        for s, t in rng.uniform(-3, 3, size=(5, 2)):
            assert cov_pair(model, 2, 1, s, t) == pytest.approx(
                cov_pair(model, 1, 2, t, s), rel=1e-14, abs=1e-14
            )


def test_cov_pair_exchange_rule_matches_transpose():
    # storing the swapped orientation explicitly (c_ij <-> c_ji, f -> -f)
    # reproduces the transpose-based evaluation
    rng = np.random.default_rng(9)
    model = _general_model(0.5, -0.1)
    swapped = _general_model(-0.1, 0.5, hurst=(0.6, 0.3))
    crit = _critical_model(0.3, 0.12)
    crit_swapped = _critical_model(0.3, -0.12, hurst=(0.7, 0.3))
    for s, t in rng.uniform(-2, 2, size=(25, 2)):
        assert cov_pair(model, 2, 1, s, t) == pytest.approx(
            cov_pair(swapped, 1, 2, s, t), rel=1e-13, abs=1e-14
        )
        assert cov_pair(crit, 2, 1, s, t) == pytest.approx(
            cov_pair(crit_swapped, 1, 2, s, t), rel=1e-13, abs=1e-14
        )


def test_symmetrized_sum_identity():
    # r(u,v) + r(v,u) collapses to the scalar-fBm shape with kappa from R
    rng = np.random.default_rng(10)
    for k in range(30):
        m = random_mixing(rng, 2, critical_pair=(k % 2 == 0), a_minus_scale=float(rng.uniform(0, 1.5)))
        model = vfbm.coeffs_from_mixing(m)
        h_sum = model.hurst[0] + model.hurst[1]
        kappa2 = model.sigma[0] * model.sigma[1] * model.r[0, 1]
        for u, v in rng.uniform(-3, 3, size=(5, 2)):
            lhs = cov_pair(model, 1, 2, u, v) + cov_pair(model, 1, 2, v, u)
            rhs = kappa2 * (abs(u) ** h_sum + abs(v) ** h_sum - abs(u - v) ** h_sum)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_self_similarity_tight_tolerance():
    rng = np.random.default_rng(12)
    for k in range(25):
        m = random_mixing(rng, 2, critical_pair=(k % 2 == 0), a_minus_scale=float(rng.uniform(0, 1.2)))
        model = vfbm.coeffs_from_mixing(m)
        i, j = (int(v) for v in rng.integers(1, 3, size=2))
        s, t = rng.uniform(-3, 3, size=2)
        lam = float(rng.uniform(0.2, 5.0))
        h_sum = model.hurst[i - 1] + model.hurst[j - 1]
        base = cov_pair(model, i, j, s, t)
        scaled = cov_pair(model, i, j, lam * s, lam * t)
        assert scaled == pytest.approx(lam**h_sum * base, rel=1e-12, abs=1e-12)


def test_zero_boundary_exact():
    rng = np.random.default_rng(13)
    m = random_mixing(rng, 3, critical_pair=True, a_minus_scale=0.7)
    model = vfbm.coeffs_from_mixing(m)
    for i in range(1, 4):
        for j in range(1, 4):
            assert cov_pair(model, i, j, 0.0, 1.7) == 0.0
            assert cov_pair(model, i, j, -0.4, 0.0) == 0.0


def _term_sum(model, i, j, s, t):
    """The sum of the absolute values of the terms that cov_pair adds up at (s, t)."""
    lo, hi = sorted((i - 1, j - 1))
    coef = 0.5 * model.sigma[lo] * model.sigma[hi]
    x = np.abs([s, t, t - s])
    if model.critical[lo, hi]:
        logs = np.abs(x * np.log(np.where(x == 0.0, 1.0, x)))
        return coef * (abs(model.c[lo, hi]) * x.sum() + abs(model.f[lo, hi]) * logs.sum())
    cmax = max(abs(model.c[lo, hi]), abs(model.c[hi, lo]))
    return coef * cmax * float(np.sum(x ** (model.hurst[lo] + model.hurst[hi])))


@pytest.mark.parametrize("critical_pair", [False, True])
def test_array_call_matches_scalar_calls(critical_pair):
    # An array call may differ from the scalar calls by rounding only: numpy's
    # vectorized pow and log (AVX-512 on some CPUs) differ from the scalar libm
    # ones by 1 ulp on a few percent of arguments.  Where the three terms
    # cancel, 1 ulp of a term exceeds 1e-14 of the value (3.4e-14 seen in 600
    # random models), so the bound scales with the sum of the terms' sizes,
    # which is never below |value|.  At s = 0 or t = 0 both sides are exactly 0.
    rng = np.random.default_rng(41)
    for _ in range(20):
        m = random_mixing(rng, 3, critical_pair=critical_pair, a_minus_scale=float(rng.uniform(0, 1.5)))
        model = vfbm.coeffs_from_mixing(m)
        s, t, big_t = rng.uniform(-3, 3, size=3)
        ss = np.array([s, 2.5 * s, s + big_t, s + big_t, big_t, big_t, 0.0, s, t])
        ts = np.array([t, 2.5 * t, t + big_t, big_t, t + big_t, big_t, t, 0.0, s])
        for i in range(1, 4):
            for j in range(1, 4):
                batch = cov_pair(model, i, j, ss, ts)
                for k, (sk, tk) in enumerate(zip(ss.tolist(), ts.tolist())):
                    one = cov_pair(model, i, j, sk, tk)
                    if sk == 0.0 or tk == 0.0:
                        assert batch[k] == 0.0 and one == 0.0
                    bound = 1e-14 * max(1.0, _term_sum(model, i, j, sk, tk))
                    assert abs(batch[k] - one) <= bound, (i, j, sk, tk)


def test_cov_matrix_brownian_grid():
    model = CovarianceModel(validate_hurst([0.5]))
    cov = cov_matrix(model, TimeGrid((1.0, 2.0, 3.0)))
    assert np.allclose(cov.entries, [[1, 1, 1], [1, 2, 2], [1, 2, 3]], atol=1e-15)


def test_cov_matrix_zero_time_row():
    model = _general_model(0.3, 0.1)
    cov = cov_matrix(model, TimeGrid((0.0, 1.0)))
    assert np.all(cov.entries[:2, :] == 0.0)  # rows of t = 0
    assert np.all(cov.entries[:, :2] == 0.0)
    assert np.max(np.abs(cov.entries - cov.entries.T)) <= 1e-12


def test_cov_matrix_from_mixing_is_psd():
    rng = np.random.default_rng(14)
    for k in range(10):
        m = random_mixing(rng, 2, critical_pair=(k % 2 == 0), a_minus_scale=float(rng.uniform(0, 1.2)))
        model = vfbm.coeffs_from_mixing(m)
        cov = cov_matrix(model, TimeGrid((-1.0, 0.5, 1.0, 2.0)))
        eigs = np.linalg.eigvalsh(cov.entries)
        assert eigs[0] >= -1e-10 * max(1.0, float(eigs[-1]))


def test_cov_matrix_entry_order():
    # row index = time_index * p + (component - 1)
    rng = np.random.default_rng(15)
    m = random_mixing(rng, 2, a_minus_scale=0.5)
    model = vfbm.coeffs_from_mixing(m)
    grid = TimeGrid((0.5, 2.0))
    cov = cov_matrix(model, grid)
    for k, s in enumerate(grid.times):
        for i in (1, 2):
            for l, t in enumerate(grid.times):
                for j in (1, 2):
                    assert cov.entries[k * 2 + i - 1, l * 2 + j - 1] == pytest.approx(
                        cov_pair(model, i, j, s, t), rel=1e-14, abs=1e-14
                    )


def test_cov_pair_raises_on_a_value_that_is_not_finite():
    # (1e308)^1 log(1e308) overflows; the error names the entry (a RuntimeWarning
    # on the way fails the test, since the test configuration turns warnings into errors)
    model = _critical_model(0.1, 0.2)
    with pytest.raises(ValueError, match=r"not finite: E X_1\(1e\+308\) X_2\(0\.5\) = nan"):
        cov_pair(model, 1, 2, 1e308, 0.5)
    with pytest.raises(ValueError, match=r"not finite: E X_1\(0\.5\) X_2\(1e\+308\)"):
        cov_pair(model, 1, 2, np.array([0.5, 1.0]), np.array([[1.0], [1e308]]))


def test_cov_csv_roundtrip(tmp_path, capsys):
    model = _general_model(0.3, 0.1)
    grid = TimeGrid((0.5, 1.0))
    cov = cov_matrix(model, grid)
    model_path, path = tmp_path / "model.json", tmp_path / "cov.csv"
    model_path.write_text(json.dumps(model_to_dict(model)))
    assert vfbm.cli.main(["cov", "--model", str(model_path), "--grid", "0.5,1", "--out", str(path)]) == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == (2 * 2) ** 2
    assert list(rows[0].keys()) == ["t_k", "i", "t_l", "j", "value"]
    for row in rows:
        k = grid.times.index(float(row["t_k"]))
        l = grid.times.index(float(row["t_l"]))
        i, j = int(row["i"]), int(row["j"])
        assert float(row["value"]) == cov.entries[k * 2 + i - 1, l * 2 + j - 1]  # 17 digits round-trips


# Times with exact zeros, where the formulas' sign switches and x log|x| are
# decided, and values far enough apart for both signs of t - s.
_TIMES = st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0, allow_nan=False)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([2, 3]),
    critical_pair=st.booleans(),
    times=st.lists(st.tuples(_TIMES, _TIMES), min_size=1, max_size=5),
)
def test_regime_formulas_on_columns_equal_cov_pair_bit_for_bit(seed, p, critical_pair, times):
    # every ordered pair (i, j), i > j and i = j included, is one row of its
    # regime's array call; cov_pair evaluates i > j as (j, i) at swapped times
    model = vfbm.coeffs_from_mixing(random_mixing(np.random.default_rng(seed), p, critical_pair=critical_pair))
    h, sigma, c, f = model.hurst, model.sigma.tolist(), model.c.tolist(), model.f.tolist()
    s, t = (np.array(v) for v in zip(*times))
    rows = {cov_same: [], _cov_critical: [], _cov_general: []}
    for i in range(p):
        for j in range(p):
            a, b = min(i, j), max(i, j)
            up = (t, s) if i > j else (s, t)
            if a == b:
                rows[cov_same].append(((i, j), (h[a], sigma[a]), up))
            elif model.critical[a, b]:
                rows[_cov_critical].append(((i, j), (sigma[a], sigma[b], c[a][b], f[a][b]), up))
            else:
                rows[_cov_general].append(((i, j), (h[a], h[b], sigma[a], sigma[b], c[a][b], c[b][a]), up))
    assert bool(rows[_cov_critical]) == critical_pair
    for formula, batch in rows.items():
        if not batch:
            continue
        columns = np.array([coeffs for _, coeffs, _ in batch]).T[:, :, None]
        ss, tt = (np.array(v) for v in zip(*(up for _, _, up in batch)))
        values = formula(*columns, ss, tt)
        for ((i, j), _, _), row in zip(batch, values):
            assert np.array_equal(row, cov_pair(model, i + 1, j + 1, s, t)), (formula.__name__, i, j)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3]), critical_pair=st.booleans())
def test_pair_coeffs_are_the_entries_of_coeffs_from_mixing(seed, p, critical_pair):
    # on columns, as the theorem1 suite calls it, each regime's pairs get the
    # bits that coeffs_from_mixing gives them one pair at a time
    m = random_mixing(np.random.default_rng(seed), p, critical_pair=critical_pair)
    model = vfbm.coeffs_from_mixing(m)
    a, b = np.triu_indices(p, 1)
    h = np.array(m.hurst.h)
    gram = np.array([m.app, m.amm, m.apm])
    for regime in (True, False):
        rows = m.hurst.critical[a, b] == regime
        if rows.any():
            i, j = a[rows], b[rows]
            c_ij, c_ji, f_ij = _pair_coeffs(
                h[i], h[j], gram[:, i, j], gram[:, j, i], m.sigma[i] * m.sigma[j], regime
            )
            assert np.array_equal(c_ij, model.c[i, j]) and np.array_equal(c_ji, model.c[j, i])
            assert np.array_equal(np.broadcast_to(f_ij, i.shape), model.f[i, j])


def test_cov_same_on_a_column_keeps_the_square_of_its_float():
    # libm's pow gives 4.869891801608191**2 one ulp away from the product, which
    # numpy's square of an array computes
    sigma = 4.869891801608191
    s, t = np.array([0.5, 1.0, -2.0]), np.array([1.5, 0.25, 3.0])
    values = cov_same(np.array([[0.3], [0.7]]), np.array([[sigma], [sigma]]), s, t)
    for row, h in zip(values, (0.3, 0.7)):
        assert np.array_equal(row, cov_same(h, sigma, s, t))
