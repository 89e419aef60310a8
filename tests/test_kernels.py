"""Elementary kernel covariances: closed forms vs the quadrature oracle."""

import math

import numpy as np
import pytest

from vfbm import KernelKind, kernel_cov, kernels, quadrature_kernel_oracle
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
    with pytest.raises(ValueError):  # before any evaluation, not after the whole budget
        quadrature_kernel_oracle(KernelKind.PP, 0.3, 0.6, 1.0, 2.0, tol=float("nan"))


# an exponent of 0.05 sits below random_hurst's range [0.08, 0.92], so no verify suite meets it
_SMALL_EXPONENT_CONFIGS = [(KernelKind.PP, 0.05, 0.95, 1.0, 2.0), (KernelKind.PP, 0.05, 0.6, 1.0, 2.0)]


@pytest.mark.xfail(strict=True, raises=NoConvergenceError, reason="the oracle's depth limit is reached at its "
                   "default tol 1e-8 when an exponent is 0.05")
@pytest.mark.parametrize("config", _SMALL_EXPONENT_CONFIGS, ids=["critical", "general"])
def test_oracle_converges_at_its_default_tol_for_a_small_exponent(config):
    assert abs(quadrature_kernel_oracle(*config) - kernel_cov(*config)) <= 1e-8


@pytest.mark.parametrize("config", _SMALL_EXPONENT_CONFIGS, ids=["critical", "general"])
def test_oracle_agrees_at_tol_1e6_for_a_small_exponent(config):
    # the closed form is right there: only the default tolerance fails
    assert abs(quadrature_kernel_oracle(*config, tol=1e-6) - kernel_cov(*config)) <= 1e-9


@pytest.mark.parametrize("max_evals", [0, -5, 2.5, True, False, None, "100", 10.0])
def test_oracle_rejects_a_budget_that_is_not_a_positive_integer(monkeypatch, max_evals):
    def no_evaluation(*args):
        raise AssertionError("the integrand was evaluated")

    monkeypatch.setattr(kernels, "kernel_factor", no_evaluation)
    with pytest.raises(ValueError, match="max_evals"):
        quadrature_kernel_oracle(KernelKind.PP, 0.3, 0.6, 1.0, 2.0, max_evals=max_evals)


def _reference_oracle(kind, h_i, h_j, s, t, tol):
    """quadrature_kernel_oracle's pieces integrated one panel at a time by a
    depth-first refinement that splits the right half first; returns the value
    and the deepest level refined."""
    g, pieces = kernels._oracle_pieces(kind, h_i, h_j, s, t)
    unit_tol = tol / max(1, len(pieces))
    nodes, weights = np.polynomial.legendre.leggauss(15)
    deepest = 0

    def panel(fn, a, b):
        half = 0.5 * (b - a)
        return half * float(np.dot(weights, fn(0.5 * (a + b) + half * nodes)))

    def adaptive(fn):
        nonlocal deepest
        total = 0.0
        stack = [(0.0, 1.0, panel(fn, 0.0, 1.0), 0)]
        while stack:
            a, b, whole, depth = stack.pop()
            deepest = max(deepest, depth)
            mid = 0.5 * (a + b)
            left, right = panel(fn, a, mid), panel(fn, mid, b)
            err = abs(left + right - whole)
            if err <= unit_tol * (b - a) or depth >= 60:
                assert err <= unit_tol * (b - a)
                total += left + right
            else:
                stack.append((a, mid, left, depth + 1))
                stack.append((mid, b, right, depth + 1))
        return total

    def tail_of(edge):
        def tail(u):
            safe = np.where(u > 0.0, u, 1.0)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                vals = g(edge / safe) * (abs(edge) / safe**2)
            return np.where((u > 0.0) & np.isfinite(vals), vals, 0.0)

        return tail

    def piece(f, anchor, length, q):
        if length == 0.0:
            return 0.0
        scale = abs(length) * q

        def transformed(v):
            vq = v ** (q - 1) if q > 1 else np.ones_like(v)
            vals = f(anchor + length * v**q) * (scale * vq)
            return np.where(np.isfinite(vals), vals, 0.0)

        return adaptive(transformed)

    total = 0.0
    for anchor, length, q, edge in pieces:
        total += piece(g if math.isnan(edge) else tail_of(edge), anchor, length, q)
    return total, deepest


@pytest.mark.parametrize(
    "kind,h_i,h_j,s,t,tol",
    [
        (KernelKind.PP, 0.3, 0.6, 1.0, 2.0, 1e-10),  # endpoint-singular pieces and a left tail
        (KernelKind.PP, 0.45, 0.25, -1.2, -0.4, 1e-11),  # a left tail
        (KernelKind.MM, 0.4, 0.4, 1.0, 1.0, 1e-10),  # a right tail
        (KernelKind.PP, 0.3, 0.7, 1.0, 2.0, 1e-10),  # critical, a left tail
        (KernelKind.PM, 0.15, 0.7, 1.0, -1.5, 1e-10),  # bounded, singular at both ends
        (KernelKind.PM, 0.3, 0.6, 1.0, 2.0, 1e-11),
        (KernelKind.MP, 0.1, 0.2, 1.4, 1.4, 1e-11),
    ],
)
def test_oracle_equals_the_panel_by_panel_refinement(kind, h_i, h_j, s, t, tol):
    # tolerances near the rounding floor, so that the panels refine many levels
    expected, deepest = _reference_oracle(kind, h_i, h_j, s, t, tol)
    assert deepest >= 3
    assert quadrature_kernel_oracle(kind, h_i, h_j, s, t, tol=tol) == expected


def test_continuity_across_critical_boundary():
    # smoke test: approaching the critical sum from either side stays close
    crit = kernel_cov(KernelKind.PP, 0.3, 0.7, 1.0, 2.0)
    above = kernel_cov(KernelKind.PP, 0.3, 0.7 + 1e-4, 1.0, 2.0)
    below = kernel_cov(KernelKind.PP, 0.3, 0.7 - 1e-4, 1.0, 2.0)
    assert abs(above - crit) < 1e-3
    assert abs(below - crit) < 1e-3
