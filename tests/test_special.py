"""Special-function contracts: Beta and the Beta-over-sine factor."""

import math

import mpmath
import pytest
from scipy import integrate

from vfbm.errors import CriticalRegimeError, DomainError
from vfbm.special import beta, phi

# 40-digit references (mpmath), frozen:
BETA_08_11 = 1.1516221492895699343  # B(0.8, 1.1)
BETA_075_075 = 1.6944261695879581732  # B(0.75, 0.75)
PHI_03_06 = 3.7267275594954594489  # B(0.8,1.1)/sin(0.9 pi)


def test_beta_trivial_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)


def test_beta_matches_high_precision_on_working_range():
    # Beta's arguments are H + 1/2 with H in (0, 1): a grid over [0.5, 1.5]^2
    mpmath.mp.dps = 30
    grid = [0.5 + 0.05 * k for k in range(21)]
    for x in grid:
        for y in grid:
            ref = float(mpmath.beta(x, y))
            got = beta(x, y)
            assert abs(got - ref) <= 1e-13 * ref, f"B({x}, {y}): {got} vs {ref}"


def test_beta_against_quadrature_oracle():
    # independent route: adaptive quadrature of t^(x-1) (1-t)^(y-1) with
    # algebraic endpoint weights
    val, err = integrate.quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.2, 0.1))
    assert err < 1e-12
    assert val == pytest.approx(BETA_08_11, rel=1e-12)
    assert beta(0.8, 1.1) == pytest.approx(BETA_08_11, rel=1e-12)


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(-0.1, 1.0)
    with pytest.raises(DomainError):
        beta(1.0, 0.0)


def test_beta_symmetry_is_exact():
    for x, y in [(0.8, 1.1), (0.51, 1.49), (0.62, 0.93)]:
        assert beta(x, y) == beta(y, x)


@pytest.mark.parametrize("x", [0.6, 0.9, 1.4])
def test_beta_right_unit_argument(x):
    assert beta(x, 1.0) == pytest.approx(1.0 / x, rel=1e-12)


def test_phi_values():
    # sin((0.25+0.25) pi) = 1, so phi reduces to the Beta value
    assert phi(0.25, 0.25) == pytest.approx(BETA_075_075, rel=1e-13)
    assert phi(0.3, 0.6) == pytest.approx(PHI_03_06, rel=1e-13)


def test_phi_symmetric():
    assert phi(0.3, 0.6) == phi(0.6, 0.3)
    assert phi(0.15, 0.44) == phi(0.44, 0.15)


def test_phi_rejects_critical_sum():
    with pytest.raises(CriticalRegimeError):
        phi(0.3, 0.7)
    with pytest.raises(CriticalRegimeError):
        phi(0.5, 0.5)
