"""The verify suites: the batched evaluation layout and NaN handling."""

import math

import numpy as np
import pytest

import vfbm.covariance
from vfbm import coeffs_from_mixing, cov_pair
from vfbm import verify
from vfbm.verify import random_mixing, suite_theorem1


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
        ("theorem1", {"n_draws": 5}, "_theorem1_values", 1, "theorem1/scaling"),
        ("prop31", {"n_models": 2}, "cov_pair", 1, "prop31/closed_form_vs_kernel_assembly"),
        ("prop31", {"n_models": 2}, "assemble_via_kernels", 1, "prop31/variance_vs_kernel_assembly"),
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
