"""The verify suites: the batched evaluation layout and NaN handling."""

import math

import numpy as np
import pytest

import vfbm.covariance
import vfbm.model
import vfbm.representation
from vfbm import MixingMatrices, assemble_via_kernels, causal_factorize, coeffs_from_mixing, cov_pair, tilde_c
from vfbm import verify
from vfbm.errors import DegenerateComponentError, InfeasibleFactorizationError
from vfbm.model import validate_hurst
from vfbm.special import phi
from vfbm.verify import random_hurst, random_mixing, suite_factorization, suite_prop31, suite_theorem1, suite_tildec


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


def _tildec_model_by_model(seed: int, n_models: int) -> list[dict]:
    """suite_tildec's report from one mixing, coefficient model and C~ per model."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        p = int(rng.integers(2, 4))
        m = random_mixing(rng, p, a_minus_scale=float(rng.uniform(0, 1.5)))
        model = coeffs_from_mixing(m)
        ct = tilde_c(m)
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                if i == j:
                    continue
                lhs = ct[i - 1, j - 1] * 2.0 * phi(model.hurst[i - 1], model.hurst[j - 1])
                rhs = model.sigma[i - 1] * model.sigma[j - 1] * model.c[i - 1, j - 1]
                worst = verify._fold(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return [verify._record("tildec/amplitude_identity", worst, 1e-10)]


def _factorization_model_by_model(seed: int, n_models: int) -> list[dict]:
    """suite_factorization's report from one causal_factorize call per model."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        p = int(rng.integers(2, 4))
        h = random_hurst(rng, p)
        a_plus = rng.normal(size=(p, p)) + p * np.eye(p)
        m0 = MixingMatrices(a_plus=a_plus, a_minus=np.zeros((p, p)), hurst=h)
        ct = tilde_c(m0)
        recovered = causal_factorize(ct, h)
        ct2 = tilde_c(recovered)
        worst = verify._fold(worst, float(np.max(np.abs(ct - ct2))) / max(1.0, float(np.max(np.abs(ct)))))
    rejected = 0.0
    h = random_hurst(np.random.default_rng(seed + 1), 2)
    cos_h = np.cos(np.pi * np.asarray(h.h))
    for bad, reason in (([[1.0, 0.9], [0.2, 1.0]], "NotSymmetric"), ([[1.0, 2.0], [2.0, 1.0]], "NotPD")):
        try:
            causal_factorize(cos_h[:, None] * np.array(bad), h)
            rejected = 1.0
        except InfeasibleFactorizationError as exc:
            if exc.reason != reason:
                rejected = 1.0
    return [
        verify._record("factorization/roundtrip", worst, 1e-10),
        verify._record("factorization/rejects_infeasible", rejected, 0.5),
    ]


@pytest.mark.parametrize("seed", [0, 7, 202, 505, 606])
def test_tildec_and_factorization_stacks_match_model_by_model_calls(seed):
    # the same bits: the stacks take every product, sine, cosine and phi as one model's call does
    assert suite_tildec(seed, n_models=50) == _tildec_model_by_model(seed, 50)
    assert suite_factorization(seed, n_models=50) == _factorization_model_by_model(seed, 50)


def _count_rejected_mixings(monkeypatch, threshold: float) -> tuple[list, list]:
    """Raise the degenerate-variance threshold so that random_mixing discards
    some mixings; return the lists that collect the mixings it discards and
    the stacks in which verify's batches find a degenerate one."""
    monkeypatch.setattr(vfbm.model, "_DEGENERATE_TOL", threshold)
    real_mixing, real_stacks = verify.MixingMatrices, verify._gram_stacks
    rejected, replayed = [], []

    def counted(*args, **kwargs):
        try:
            return real_mixing(*args, **kwargs)
        except DegenerateComponentError:
            rejected.append(args)
            raise

    def stacks(*args):
        try:
            return real_stacks(*args)
        except DegenerateComponentError as exc:
            replayed.append(exc.at)
            raise

    monkeypatch.setattr(verify, "MixingMatrices", counted)
    monkeypatch.setattr(verify, "_gram_stacks", stacks)
    return rejected, replayed


def test_tildec_replays_the_draws_random_mixing_rejects(monkeypatch):
    rejected, replayed = _count_rejected_mixings(monkeypatch, 1.0)
    expected = _tildec_model_by_model(0, 20)
    assert rejected
    assert suite_tildec(0, n_models=20) == expected
    assert len(replayed) == len(rejected)


def test_prop31_replays_the_draws_random_mixing_rejects(monkeypatch):
    rejected, replayed = _count_rejected_mixings(monkeypatch, 1.0)
    expected = _prop31_point_by_point(0, 12)
    assert rejected
    records = suite_prop31(0, n_models=12)
    assert len(replayed) == len(rejected)
    assert [r["check"] for r in records] == list(expected)
    for r in records:
        assert abs(r["statistic"] - expected[r["check"]]) <= 1e-13, r


@pytest.mark.parametrize(
    "threshold, value, reason",
    # at seed 16 the first model to break either rule has 3 components, and a later one
    # with 2 components breaks it with another statistic
    [("_FACTOR_PD_TOL", 0.002, "NotPD"), ("_SYMMETRY_TOL", 0.0, "NotSymmetric")],
)
def test_factorization_raises_the_error_of_the_first_infeasible_model(monkeypatch, threshold, value, reason):
    monkeypatch.setattr(vfbm.representation, threshold, value)
    with pytest.raises(InfeasibleFactorizationError) as expected:
        _factorization_model_by_model(16, 20)
    with pytest.raises(InfeasibleFactorizationError) as batched:
        suite_factorization(16, n_models=20)
    assert expected.value.reason == reason
    assert (batched.value.reason, str(batched.value)) == (expected.value.reason, str(expected.value))


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
    rejected, replayed = _count_rejected_mixings(monkeypatch, 0.3)
    expected = _theorem1_point_by_point(0, 40)
    assert rejected
    records = suite_theorem1(0, n_draws=40)
    assert len(replayed) == len(rejected)
    for r in records:
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
    a, b = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    h = np.array(model.hurst.h)
    columns = (h[a], h[b], model.sigma[a], model.sigma[b], model.c[a, b], model.c[b, a], model.f[a, b])
    values = verify._cov_rows(i, j, model.critical[a, b], columns, s, t)
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


@pytest.mark.parametrize("suite, sizes", [("theorem1", {"n_draws": 0}), ("tildec", {"n_models": 0}),
                                          ("factorization", {"n_models": 0}), ("prop31", {"n_models": 0})])
def test_a_suite_with_no_draws_passes_with_zero_statistics(suite, sizes):
    records = verify.SUITES[suite](0, **sizes)
    assert records and all(r["pass"] for r in records)
    assert all(r["statistic"] == 0.0 for r in records)


def _frozen_random_hurst(rng, p: int, critical_pair: bool = False) -> list:
    """random_hurst's exponents as it drew them with one rng.uniform call per attempt."""
    while True:
        h = rng.uniform(0.08, 0.92, size=p)
        if critical_pair:
            h[1] = 1.0 - h[0]
        v = h.tolist()
        pairs = ((i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1) or not critical_pair)
        if all(abs(v[i] + v[j] - 1.0) >= 1e-3 for i, j in pairs):
            return v


def _frozen_random_mixing(rng, p: int, critical_pair: bool, a_minus_scale: float) -> tuple:
    """random_mixing's (H, A+, A-) as it drew them with one rng.normal call per
    matrix, and the number of degenerate mixings it discarded."""
    h = _frozen_random_hurst(rng, p, critical_pair)
    discarded = 0
    while True:
        a_plus = rng.normal(size=(p, p))
        a_minus = a_minus_scale * rng.normal(size=(p, p))
        try:
            MixingMatrices(a_plus=a_plus, a_minus=a_minus, hurst=validate_hurst(h))
            return h, a_plus, a_minus, discarded
        except DegenerateComponentError:
            discarded += 1


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("critical_pair", [False, True])
@pytest.mark.parametrize("a_minus_scale", [0.0, 0.7])
@pytest.mark.parametrize("degenerate_tol", [None, 1.0])
def test_random_hurst_and_random_mixing_keep_the_stream_of_one_call_per_matrix(
    monkeypatch, p, critical_pair, a_minus_scale, degenerate_tol
):
    # the merged draws must give the same numbers and leave the generator in the
    # same state as one uniform call per exponent vector and one normal call per
    # matrix; a raised degenerate-variance threshold makes random_mixing retry
    if degenerate_tol is not None:
        monkeypatch.setattr(vfbm.model, "_DEGENERATE_TOL", degenerate_tol)
    discarded = 0
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        h = random_hurst(rng, p, critical_pair)
        assert _same_bits(np.array(h.h), np.array(_frozen_random_hurst(ref, p, critical_pair)))
        assert rng.bit_generator.state == ref.bit_generator.state
        m = random_mixing(rng, p, critical_pair, a_minus_scale)
        h_ref, a_plus, a_minus, n = _frozen_random_mixing(ref, p, critical_pair, a_minus_scale)
        discarded += n
        assert _same_bits(np.array(m.hurst.h), np.array(h_ref))
        assert _same_bits(m.a_plus, a_plus) and _same_bits(m.a_minus, a_minus), seed
        assert rng.bit_generator.state == ref.bit_generator.state
    assert (discarded > 0) == (degenerate_tol is not None)


@pytest.mark.parametrize(
    "lo_hi",
    [verify._H_RANGE, verify._SCALE_RANGE, verify._PROP31_SCALE_RANGE, verify._TIME_RANGE, verify._LAMBDA_RANGE],
)
def test_the_uniform_map_is_numpys_uniform_bit_for_bit(lo_hi):
    # a numpy build that fused uniform's multiply and add into an FMA would
    # shift the verify reports; it fails here instead
    lo, hi = lo_hi
    u = np.random.default_rng(3).random(200_000)
    expected = np.random.default_rng(3).uniform(lo, hi, 200_000)
    assert _same_bits(lo + (hi - lo) * u, expected)
    assert _same_bits(verify._uniform(lo_hi, u), expected)
    assert [verify._uniform(lo_hi, x) for x in u[:2000].tolist()] == expected[:2000].tolist()


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
        ("factorization", {"n_models": 3}, "_tilde_c", 2, "factorization/roundtrip"),
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
