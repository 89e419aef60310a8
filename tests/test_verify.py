"""The verify suites: the batched evaluation layout and NaN handling."""

import math

import numpy as np
import pytest

import vfbm.covariance
import vfbm.model
from vfbm import assemble_via_kernels, coeffs_from_mixing, cov_pair
from vfbm import verify
from vfbm.errors import DegenerateComponentError
from vfbm.verify import random_mixing, suite_prop31, suite_theorem1


def _theorem1_point_by_point(seed: int, n_draws: int) -> dict:
    """suite_theorem1's statistics, drawn in its order, from one scalar cov_pair call per point."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("scaling", "stationary_increments", "symmetrization", "zero_boundary"), 0.0)
    for k in range(n_draws):
        p = int(rng.integers(2, 4))
        m = random_mixing(rng, p, critical_pair=(k % 3 == 0), a_minus_scale=float(rng.uniform(0, 1.5)))
        model = coeffs_from_mixing(m)
        i, j = (int(v) for v in rng.integers(1, p + 1, size=2))
        s, t, big_t = (float(v) for v in rng.uniform(-3, 3, size=3))
        lam = float(rng.uniform(0.2, 5.0))
        h_sum = model.hurst[i - 1] + model.hurst[j - 1]

        base = cov_pair(model, i, j, s, t)
        scaled = cov_pair(model, i, j, lam * s, lam * t)
        scale_ref = max(1.0, abs(scaled), abs(base) * lam**h_sum)
        worst["scaling"] = max(worst["scaling"], abs(scaled - lam**h_sum * base) / scale_ref)
        inc = (
            cov_pair(model, i, j, s + big_t, t + big_t)
            - cov_pair(model, i, j, s + big_t, big_t)
            - cov_pair(model, i, j, big_t, t + big_t)
            + cov_pair(model, i, j, big_t, big_t)
        )
        worst["stationary_increments"] = max(worst["stationary_increments"], abs(inc - base) / max(1.0, abs(base)))
        kappa2 = model.sigma[i - 1] * model.sigma[j - 1] * model.r[i - 1, j - 1]
        sym_ref = 0.5 * kappa2 * (abs(s) ** h_sum + abs(t) ** h_sum - abs(s - t) ** h_sum)
        lhs = base + cov_pair(model, j, i, s, t)
        worst["symmetrization"] = max(worst["symmetrization"], abs(lhs - 2.0 * sym_ref) / max(1.0, abs(lhs)))
        worst["zero_boundary"] = max(
            worst["zero_boundary"], abs(cov_pair(model, i, j, 0.0, t)), abs(cov_pair(model, i, j, s, 0.0))
        )
    return {f"theorem1/{name}": stat for name, stat in worst.items()}


def _prop31_point_by_point(seed: int, n_models: int, n_times: int = 6) -> dict:
    """suite_prop31's statistics, drawn in its order, from one cov_pair and one
    assemble_via_kernels call per pair and per variance."""
    rng = np.random.default_rng(seed)
    worst = {"prop31/closed_form_vs_kernel_assembly": 0.0, "prop31/variance_vs_kernel_assembly": 0.0}
    for k in range(n_models):
        p = 2 + k % 2
        a_minus_scale = 0.0 if k % 5 == 0 else float(rng.uniform(0.3, 1.5))
        m = random_mixing(rng, p, critical_pair=(k % 2 == 0), a_minus_scale=a_minus_scale)
        model = coeffs_from_mixing(m)
        for i in range(1, p + 1):
            ref = assemble_via_kernels(m, i, i, 1.0, 1.0)
            var = abs(float(m.sigma[i - 1]) ** 2 - ref) / abs(ref)
            worst["prop31/variance_vs_kernel_assembly"] = max(worst["prop31/variance_vs_kernel_assembly"], var)
            for j in range(1, p + 1):
                s, t = rng.uniform(-3, 3, size=(n_times, 2)).T
                direct = cov_pair(model, i, j, s, t)
                via = assemble_via_kernels(m, i, j, s, t)
                gap = float(np.max(np.abs(direct - via) / np.maximum(1.0, np.abs(via))))
                worst["prop31/closed_form_vs_kernel_assembly"] = max(worst["prop31/closed_form_vs_kernel_assembly"], gap)
    return worst


@pytest.mark.parametrize("seed", [0, 7, 202])
def test_prop31_batch_layout_matches_point_by_point_calls(seed):
    expected = _prop31_point_by_point(seed, 10)
    records = suite_prop31(seed, n_models=10)
    assert [r["check"] for r in records] == list(expected)
    for r in records:
        assert abs(r["statistic"] - expected[r["check"]]) <= 1e-13, r


def test_theorem1_replays_the_draws_random_mixing_rejects(monkeypatch):
    # with the degenerate-variance threshold raised, random_mixing discards some
    # mixings; the batch must discard the same ones and so see the same draws
    monkeypatch.setattr(vfbm.model, "_DEGENERATE_TOL", 0.3)
    real = verify.MixingMatrices
    rejected = []

    def counted(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except DegenerateComponentError:
            rejected.append(args)
            raise

    monkeypatch.setattr(verify, "MixingMatrices", counted)
    expected = _theorem1_point_by_point(0, 40)
    assert rejected
    for r in suite_theorem1(0, n_draws=40):
        assert abs(r["statistic"] - expected[r["check"]]) <= 1e-13, r


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("critical_pair", [False, True])
def test_cov_rows_keep_the_exchange_rule_on_rows_with_i_above_j(p, critical_pair):
    # the theorem1 identities hold in either orientation, so its statistics
    # cannot see a row with i > j evaluated at unswapped times; these rows can
    m = random_mixing(np.random.default_rng(40 + p), p, critical_pair=critical_pair)
    model = coeffs_from_mixing(m)
    j, i = np.triu_indices(p, 1)
    i, j = i + 1, j + 1
    assert model.critical[i - 1, j - 1].any() == critical_pair
    s, t = np.random.default_rng(p).uniform(-3, 3, size=(2, i.size, 8))
    assert (s != t).all()
    values = verify._cov_rows(i, j, *verify._model_coeffs(model, i, j), s, t)
    for k in range(i.size):
        assert np.array_equal(values[k], cov_pair(model, i[k], j[k], s[k], t[k])), (i[k], j[k])
        via = assemble_via_kernels(m, int(i[k]), int(j[k]), s[k], t[k])
        assert np.all(np.abs(values[k] - via) <= 1e-10 * np.maximum(1.0, np.abs(via))), (i[k], j[k])


@pytest.mark.parametrize("seed", [0, 7, 202])
def test_theorem1_batch_layout_matches_point_by_point_calls(seed):
    # a point in the wrong place of the 9-point batch moves a statistic by far
    # more than the rounding by which array and scalar pow may differ
    expected = _theorem1_point_by_point(seed, 12)
    records = suite_theorem1(seed, n_draws=12)
    assert [r["check"] for r in records] == list(expected)
    for r in records:
        assert abs(r["statistic"] - expected[r["check"]]) <= 1e-13, r
    assert records[-1]["statistic"] == 0.0


def _nan_on_call(monkeypatch, name: str, nth: int) -> None:
    """Make the nth call of verify's name return NaN in place of its value (or values)."""
    real = getattr(verify, name)
    calls = []

    def patched(*args):
        calls.append(args)
        value = real(*args)
        return value * math.nan if len(calls) == nth else value

    monkeypatch.setattr(verify, name, patched)


@pytest.mark.parametrize(
    "suite, sizes, name, nth, check",
    [
        ("theorem1", {"n_draws": 5}, "_cov_rows", 1, "theorem1/scaling"),
        ("prop31", {"n_models": 2}, "_cov_rows", 1, "prop31/closed_form_vs_kernel_assembly"),
        ("prop31", {"n_models": 2}, "_assemble_rows", 1, "prop31/variance_vs_kernel_assembly"),
        ("tildec", {"n_models": 3}, "phi", 1, "tildec/amplitude_identity"),
        ("factorization", {"n_models": 3}, "tilde_c", 2, "factorization/roundtrip"),
        ("quadrature", {}, "kernel_cov", 1, "quadrature/kernel_agreement"),
    ],
)
def test_a_nan_statistic_fails_its_record(monkeypatch, suite, sizes, name, nth, check):
    # max(0.0, nan) is 0.0, so a running worst kept with max() would drop the NaN
    _nan_on_call(monkeypatch, name, nth)
    record = next(r for r in verify.SUITES[suite](0, **sizes) if r["check"] == check)
    assert math.isnan(record["statistic"]) and record["pass"] is False


@pytest.mark.parametrize("name", ["cov_same", "_cov_critical", "_cov_general"])
def test_theorem1_raises_cov_pairs_error_on_a_value_that_is_not_finite(monkeypatch, name):
    # with one regime's formula made infinite, the batch names the first such
    # draw's first point, in cov_pair's orientation, as point-by-point calls do
    # (at seed 0 the first critical draw, the 13th, queries (2, 1))
    real = getattr(verify, name)

    def infinite(*args):
        return real(*args) + math.inf

    monkeypatch.setattr(vfbm.covariance, name, infinite)
    monkeypatch.setattr(verify, name, infinite)
    with pytest.raises(ValueError, match="not finite") as expected:
        _theorem1_point_by_point(0, 16)
    with pytest.raises(ValueError) as batched:
        suite_theorem1(0, n_draws=16)
    assert str(batched.value) == str(expected.value)


@pytest.mark.parametrize("name", ["cov_same", "_cov_critical", "_cov_general"])
def test_prop31_raises_cov_pairs_error_on_a_value_that_is_not_finite(monkeypatch, name):
    # the first pair of each regime: (1, 1) and the critical (1, 2) of model 0,
    # the general (1, 2) of model 1
    real = getattr(verify, name)

    def infinite(*args):
        return real(*args) + math.inf

    monkeypatch.setattr(vfbm.covariance, name, infinite)
    monkeypatch.setattr(verify, name, infinite)
    with pytest.raises(ValueError, match="not finite") as expected:
        _prop31_point_by_point(0, 2)
    with pytest.raises(ValueError) as batched:
        suite_prop31(0, n_models=2)
    assert str(batched.value) == str(expected.value)
