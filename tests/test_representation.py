"""Mixing matrices -> coefficients, amplitude matrix, causal factorization."""

import numpy as np
import pytest

from vfbm import (
    KernelKind,
    MixingMatrices,
    assemble_via_kernels,
    causal_factorize,
    coeffs_from_mixing,
    cov_pair,
    kernel_cov,
    quadrature_kernel_oracle,
    sigma_from_mixing,
    tilde_c,
    validate_hurst,
)
from vfbm.errors import (
    DegenerateComponentError,
    IndexOutOfRangeError,
    InfeasibleFactorizationError,
    SingularCosineError,
)
from vfbm.representation import _causal_factor

SIGMA_SQ_H03 = 1.8750709111678687222  # B(0.8,0.8)/sin(0.3 pi), 40-digit reference


def _mixing(h, a_plus, a_minus=None):
    hv = validate_hurst(h)
    ap = np.asarray(a_plus, dtype=float)
    am = np.zeros_like(ap) if a_minus is None else np.asarray(a_minus, dtype=float)
    return MixingMatrices(a_plus=ap, a_minus=am, hurst=hv)


def test_alpha_products_basic():
    m = _mixing([0.3, 0.6], np.eye(2))
    assert np.array_equal(m.app, np.eye(2))
    assert not m.amm.any() and not m.apm.any()

    m2 = _mixing([0.3, 0.6], np.zeros((2, 2)), np.eye(2))
    assert np.array_equal(m2.amm, np.eye(2))
    assert not m2.app.any()

    rng = np.random.default_rng(3)
    m3 = _mixing([0.3, 0.6], rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
    assert np.allclose(m3.apm.T, m3.a_minus @ m3.a_plus.T)
    assert np.all(np.linalg.eigvalsh(m3.app) >= -1e-12)


def test_mixing_matrices_hold_frozen_copies_and_their_gram_products():
    rng = np.random.default_rng(11)
    a_plus, a_minus = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    kept_plus, kept_minus = a_plus.copy(), a_minus.copy()
    m = MixingMatrices(a_plus=a_plus, a_minus=a_minus, hurst=validate_hurst([0.3, 0.6, 0.8]))
    assert np.array_equal(m.app, kept_plus @ kept_plus.T)
    assert np.array_equal(m.amm, kept_minus @ kept_minus.T)
    assert np.array_equal(m.apm, kept_plus @ kept_minus.T)
    assert [sigma_from_mixing(m, i) for i in (1, 2, 3)] == m.sigma.tolist()
    for name in ("a_plus", "a_minus", "app", "amm", "apm", "sigma"):
        with pytest.raises(ValueError):
            getattr(m, name)[0, 0] = 1.0
    # the caller's arrays stay writable and are not shared with the model
    assert not np.shares_memory(a_plus, m.a_plus) and not np.shares_memory(a_minus, m.a_minus)
    a_plus[0, 0] += 1.0
    a_minus[:] = 0.0
    assert np.array_equal(m.a_plus, kept_plus) and np.array_equal(m.a_minus, kept_minus)
    assert np.array_equal(m.app, kept_plus @ kept_plus.T)


@pytest.mark.parametrize("i, j", [(0, 1), (-1, 1), (3, 1), (1, 0), (1, -1), (1, 3)])
def test_component_indices_are_checked(i, j):
    m = _mixing([0.3, 0.6], [[1.0, 0.5], [0.0, 1.0]], [[0.2, 0.0], [0.1, 0.3]])
    message = f"component indices ({i},{j}) out of range for p = 2"
    with pytest.raises(IndexOutOfRangeError) as exc:
        assemble_via_kernels(m, i, j, 0.5, 1.0)
    assert str(exc.value) == message
    with pytest.raises(IndexOutOfRangeError) as exc:
        cov_pair(coeffs_from_mixing(m), i, j, 0.5, 1.0)
    assert str(exc.value) == message
    bad = i if j == 1 else j
    with pytest.raises(IndexOutOfRangeError) as exc:
        sigma_from_mixing(m, bad)
    assert str(exc.value) == f"component indices ({bad}) out of range for p = 2"


def test_sigma_unit_for_brownian_causal():
    m = _mixing([0.5], [[1.0]])
    assert sigma_from_mixing(m, 1) == pytest.approx(1.0, rel=1e-14)


def test_sigma_frozen_reference_and_quadrature():
    m = _mixing([0.3, 0.6], np.eye(2))
    var = sigma_from_mixing(m, 1) ** 2
    assert var == pytest.approx(SIGMA_SQ_H03, rel=1e-13)
    assert var == pytest.approx(quadrature_kernel_oracle(KernelKind.PP, 0.3, 0.3, 1, 1, tol=1e-9), abs=1e-8)


def test_sigma_degenerate_component():
    with pytest.raises(DegenerateComponentError) as exc:  # a zero row in A+, A- = 0
        _mixing([0.3, 0.6], [[0.0, 0.0], [0.0, 1.0]])
    assert exc.value.index == 1 and exc.value.variance == 0.0
    with pytest.raises(DegenerateComponentError) as exc:  # the 1-based index of the second row
        _mixing([0.3, 0.6], [[1.0, 0.0], [0.0, 0.0]])
    assert exc.value.index == 2
    # H = 1/2 with equal rows in both matrices also cancels to zero variance
    with pytest.raises(DegenerateComponentError) as exc:
        _mixing([0.5], [[1.0]], [[1.0]])
    assert exc.value.index == 1


@pytest.mark.parametrize("a_plus, a_minus", [(np.eye(3), np.eye(2)), (np.eye(2), np.eye(3)), (np.ones(2), np.eye(2))])
def test_mixing_with_a_wrong_shape_is_rejected(a_plus, a_minus):
    with pytest.raises(ValueError, match="mixing matrices must be 2x2"):
        MixingMatrices(a_plus=a_plus, a_minus=a_minus, hurst=validate_hurst([0.3, 0.6]))


def test_identity_mixing_gives_independent_components():
    model = coeffs_from_mixing(_mixing([0.3, 0.6], np.eye(2)))
    assert model.c[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert model.c[1, 0] == pytest.approx(0.0, abs=1e-15)
    assert np.array_equal(model.r, np.eye(2))


def test_critical_log_weight_direct_substitution():
    # H = (0.3, 0.7), upper-triangular causal weights: the log-term weight is
    # (H_j - H_i) alpha++_12 / (sigma_1 sigma_2) with alpha++_12 = 0.5
    m = _mixing([0.3, 0.7], [[1.0, 0.5], [0.0, 1.0]])
    model = coeffs_from_mixing(m)
    s1, s2 = sigma_from_mixing(m, 1), sigma_from_mixing(m, 2)
    assert model.f[0, 1] == pytest.approx(0.4 * 0.5 / (s1 * s2), rel=1e-13)


def test_tilde_c_special_cases():
    rng = np.random.default_rng(22)
    ap = rng.normal(size=(2, 2))
    hv = validate_hurst([0.3, 0.6])
    cos_h = np.diag(np.cos(np.pi * np.array([0.3, 0.6])))
    causal = MixingMatrices(a_plus=ap, a_minus=np.zeros((2, 2)), hurst=hv)
    assert np.allclose(tilde_c(causal), cos_h @ ap @ ap.T, atol=1e-14)
    anti = MixingMatrices(a_plus=np.zeros((2, 2)), a_minus=ap, hurst=hv)
    assert np.allclose(tilde_c(anti), ap @ ap.T @ cos_h, atol=1e-14)


def test_causal_factorize_identity_case():
    hv = validate_hurst([0.3, 0.6])
    ct = np.diag(np.cos(np.pi * np.array([0.3, 0.6])))
    rec = causal_factorize(ct, hv)
    assert np.allclose(rec.a_plus, np.eye(2), atol=1e-14)
    assert not rec.a_minus.any()


def test_causal_factorize_rejections():
    hv = validate_hurst([0.3, 0.6])
    cos_h = np.cos(np.pi * np.array([0.3, 0.6]))
    with pytest.raises(InfeasibleFactorizationError) as exc:
        causal_factorize(cos_h[:, None] * np.array([[1.0, 0.8], [0.1, 1.0]]), hv)
    assert exc.value.reason == "NotSymmetric"
    with pytest.raises(InfeasibleFactorizationError) as exc:
        causal_factorize(cos_h[:, None] * np.array([[1.0, 2.0], [2.0, 1.0]]), hv)
    assert exc.value.reason == "NotPD"
    with pytest.raises(SingularCosineError) as exc:
        causal_factorize(np.eye(2), validate_hurst([0.5, 0.6]))
    assert exc.value.index == 1


def test_a_stacked_factorization_raises_the_error_of_its_first_infeasible_matrix():
    # the error causal_factorize raises for the first matrix of the stack that breaks a
    # rule, and for that matrix the first rule it breaks
    h = [0.3, 0.6]
    cos_h = np.cos(np.pi * np.array(h))
    good = cos_h[:, None] * np.array([[2.0, 0.5], [0.5, 1.0]])
    not_pd = cos_h[:, None] * np.array([[1.0, 2.0], [2.0, 1.0]])
    asymmetric = cos_h[:, None] * np.array([[1.0, 0.8], [0.1, 1.0]])
    nan = np.full((2, 2), np.nan)
    for stack, first in (
        ([good, not_pd, asymmetric], not_pd),
        ([good, asymmetric, not_pd], asymmetric),
        ([good, nan, not_pd], nan),
        ([good, np.zeros((2, 2)), nan], np.zeros((2, 2))),
    ):
        with pytest.raises((ValueError, InfeasibleFactorizationError)) as expected:
            causal_factorize(first, validate_hurst(h))
        with pytest.raises(type(expected.value)) as batched:
            _causal_factor(np.array(stack), np.array([h] * 3))
        assert str(batched.value) == str(expected.value)
    # a singular cosine comes before the asymmetry of the same matrix
    with pytest.raises(SingularCosineError) as exc:
        _causal_factor(np.array([good, asymmetric]), np.array([h, [0.6, 0.5]]))
    assert exc.value.index == 2
    factors = _causal_factor(np.array([good, 3.0 * good]), np.array([h, h]))
    assert np.array_equal(factors[1], causal_factorize(3.0 * good, validate_hurst(h)).a_plus)


def test_assemble_via_kernels_simple():
    m = _mixing([0.3, 0.6], np.eye(2))
    # single-term sum: the component variance comes from the PP kernel alone
    assert assemble_via_kernels(m, 1, 1, 1.0, 1.0) == pytest.approx(
        kernel_cov(KernelKind.PP, 0.3, 0.3, 1.0, 1.0), rel=1e-14
    )
    assert assemble_via_kernels(m, 1, 2, 0.0, 1.0) == 0.0
