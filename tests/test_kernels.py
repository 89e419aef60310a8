"""Elementary kernel covariances: closed forms vs the quadrature oracle."""

import numpy as np
import pytest

from vfbm import KernelKind, kernel_cov, quadrature_kernel_oracle
from vfbm.errors import NoConvergenceError

# 40-digit quadrature references for the closed forms, frozen:
PP_03_06_1_2 = 1.1931347299295306881
PP_CRIT_03_07_1_2 = 1.14206513820118809
MM_CRIT_03_07_1_2 = 0.587547393753231843
PM_CRIT_03_07_1_2 = -1.06895933211559511
MP_03_06_m07_13 = -0.144745141814511736
MM_045_025_m12_m04 = 0.71570654419080303
BETA_08_11 = 1.1516221492895699343


def test_kernel_cov_vanishes_at_time_zero():
    for kind in KernelKind:
        assert kernel_cov(kind, 0.3, 0.6, 0.0, 1.7) == 0.0
        assert kernel_cov(kind, 0.3, 0.7, -2.2, 0.0) == 0.0


def test_kernel_cov_frozen_references():
    assert kernel_cov(KernelKind.PP, 0.3, 0.6, 1, 2) == pytest.approx(PP_03_06_1_2, rel=1e-14)
    assert kernel_cov(KernelKind.PP, 0.3, 0.7, 1, 2) == pytest.approx(PP_CRIT_03_07_1_2, rel=1e-14)
    assert kernel_cov(KernelKind.MM, 0.3, 0.7, 1, 2) == pytest.approx(MM_CRIT_03_07_1_2, rel=1e-14)
    assert kernel_cov(KernelKind.PM, 0.3, 0.7, 1, 2) == pytest.approx(PM_CRIT_03_07_1_2, rel=1e-14)
    assert kernel_cov(KernelKind.MP, 0.3, 0.6, -0.7, 1.3) == pytest.approx(MP_03_06_m07_13, rel=1e-14)
    assert kernel_cov(KernelKind.MM, 0.45, 0.25, -1.2, -0.4) == pytest.approx(MM_045_025_m12_m04, rel=1e-14)


def test_kernel_cov_pm_simple_cases():
    # s=1, t=2: (s-t)_+ = 0, s_+ = 1, t_- = 0
    assert kernel_cov(KernelKind.PM, 0.3, 0.6, 1, 2) == pytest.approx(-BETA_08_11, rel=1e-13)
    # opposite-sign times at the critical sum: |s|+|t|-|s-t| = 0
    assert kernel_cov(KernelKind.PM, 0.3, 0.7, 1, -1) == 0.0


def test_scaling_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        h_i, h_j = rng.uniform(0.1, 0.9, size=2)
        if abs(h_i + h_j - 1.0) < 1e-3:
            h_i = 1.0 - h_j  # make it exactly critical instead of nearly
        s, t = rng.uniform(-3, 3, size=2)
        alpha = h_i + h_j
        for lam in (0.5, 2.0, 10.0):
            for kind in KernelKind:
                base = kernel_cov(kind, h_i, h_j, s, t)
                scaled = kernel_cov(kind, h_i, h_j, lam * s, lam * t)
                assert scaled == pytest.approx(lam**alpha * base, rel=1e-12, abs=1e-12)


def test_exchange_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(40):
        h_i, h_j = rng.uniform(0.1, 0.9, size=2)
        s, t = rng.uniform(-3, 3, size=2)
        assert kernel_cov(KernelKind.PP, h_i, h_j, s, t) == pytest.approx(
            kernel_cov(KernelKind.PP, h_j, h_i, t, s), rel=1e-12, abs=1e-14
        )
        assert kernel_cov(KernelKind.PM, h_i, h_j, s, t) == pytest.approx(
            kernel_cov(KernelKind.MP, h_j, h_i, t, s), rel=1e-12, abs=1e-14
        )


def test_oracle_brownian_variance():
    # H_i = H_j = 1/2 makes the kernel the indicator of (0, s)
    assert quadrature_kernel_oracle(KernelKind.PP, 0.5, 0.5, 1, 1, tol=1e-9) == pytest.approx(1.0, abs=1e-8)


def test_oracle_reflection_symmetry():
    # x -> -x swaps causal and anti-causal kernels and mirrors the times
    mm = quadrature_kernel_oracle(KernelKind.MM, 0.4, 0.4, 1, 1, tol=1e-8)
    pp = quadrature_kernel_oracle(KernelKind.PP, 0.4, 0.4, -1, -1, tol=1e-8)
    assert mm == pytest.approx(pp, abs=2e-8)
    assert mm == pytest.approx(kernel_cov(KernelKind.MM, 0.4, 0.4, 1, 1), abs=1e-7)


@pytest.mark.parametrize(
    "kind,h_i,h_j,s,t",
    [
        (KernelKind.PP, 0.3, 0.6, 1.0, 2.0),
        (KernelKind.PP, 0.3, 0.7, 1.0, 2.0),
        (KernelKind.MM, 0.4, 0.4, 1.0, 1.0),
        (KernelKind.PM, 0.3, 0.6, 1.0, 2.0),
        (KernelKind.MP, 0.25, 0.55, -0.7, 1.3),
        (KernelKind.PP, 0.45, 0.25, -1.2, -0.4),
        (KernelKind.MM, 0.3, 0.7, -0.5, 2.0),
        (KernelKind.PM, 0.5, 0.5, 0.8, -0.9),
        (KernelKind.MP, 0.7, 0.3, 1.4, 1.4),
        (KernelKind.PM, 0.85, 0.85, 2.0, 0.5),
    ],
)
def test_oracle_agrees_with_closed_form(kind, h_i, h_j, s, t):
    closed = kernel_cov(kind, h_i, h_j, s, t)
    oracle = quadrature_kernel_oracle(kind, h_i, h_j, s, t, tol=2e-7)
    assert abs(closed - oracle) <= 1e-6


def test_oracle_zero_time_short_circuit():
    assert quadrature_kernel_oracle(KernelKind.PP, 0.3, 0.6, 0.0, 2.0) == 0.0
    assert quadrature_kernel_oracle(KernelKind.MM, 0.3, 0.6, 1.0, 0.0) == 0.0


def test_oracle_budget_exhaustion():
    with pytest.raises(NoConvergenceError):
        quadrature_kernel_oracle(KernelKind.PP, 0.3, 0.6, 1.0, 2.0, tol=1e-10, max_evals=200)
    with pytest.raises(ValueError):
        quadrature_kernel_oracle(KernelKind.PP, 0.3, 0.6, 1.0, 2.0, tol=0.0)


def test_continuity_across_critical_boundary():
    # smoke test: approaching the critical sum from either side stays close
    crit = kernel_cov(KernelKind.PP, 0.3, 0.7, 1.0, 2.0)
    above = kernel_cov(KernelKind.PP, 0.3, 0.7 + 1e-4, 1.0, 2.0)
    below = kernel_cov(KernelKind.PP, 0.3, 0.7 - 1e-4, 1.0, 2.0)
    assert abs(above - crit) < 1e-3
    assert abs(below - crit) < 1e-3
