"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (prints are captured otherwise).
"""

import math
import time

import numpy as np
import pytest

import vfbm
from vfbm import KernelKind, McConfig, TimeGrid, validate_hurst
from vfbm.verify import (
    random_mixing,
    run_suite,
    suite_factorization,
    suite_prop31,
    suite_theorem1,
    suite_tildec,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion-{num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion-{num} failed: {detail}"


def _suite_criterion(num: int, suite, seed: int, max_s: float = math.inf, **sizes) -> None:
    """A criterion that is a verify suite at its own seed and sizes: every record must pass."""
    start = time.perf_counter()
    records = suite(seed, **sizes)
    elapsed = time.perf_counter() - start
    detail = ", ".join(
        [f"seed {seed}", *(f"{k}={v}" for k, v in sizes.items())]
        + [f"{r['check']} {r['statistic']:.2e}" for r in records]
    )
    _report(num, all(r["pass"] for r in records) and elapsed < max_s, f"{detail}, {elapsed:.1f}s")


def _standard_mixing(h_pair):
    return vfbm.MixingMatrices(
        a_plus=np.array([[1.0, 0.5], [0.0, 1.0]]),
        a_minus=np.zeros((2, 2)),
        hurst=validate_hurst(list(h_pair)),
    )


def test_criterion_1_scalar_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for h in (0.1, 0.3, 0.5, 0.7, 0.9):
        model = vfbm.CovarianceModel(validate_hurst([h]))
        sigma = 1.0
        for s, t in rng.uniform(-5, 5, size=(100, 2)):
            via_model = vfbm.cov_pair(model, 1, 1, s, t)
            direct = 0.5 * sigma**2 * (abs(s) ** (2 * h) + abs(t) ** (2 * h) - abs(t - s) ** (2 * h))
            worst = max(worst, abs(via_model - direct) / max(1e-300, abs(direct)))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-14 and elapsed < 1.0, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_theorem1_identity_suite():
    _suite_criterion(2, suite_theorem1, 202, max_s=10.0, n_draws=1050)


def test_criterion_3_prop31_cross_validation():
    _suite_criterion(3, suite_prop31, 303, max_s=30.0, n_models=54, n_times=10)


def test_criterion_4_quadrature_oracle():
    start = time.perf_counter()
    times = [(1.0, 2.0), (-0.7, 1.3), (-1.2, -0.4)]  # s<t>0, s<0<t, s,t<0
    h_pairs = [(0.3, 0.6), (0.3, 0.7)]  # general and critical
    worst = 0.0
    n_configs = 0
    for kind in KernelKind:
        for h_i, h_j in h_pairs:
            for s, t in times:
                closed = vfbm.kernel_cov(kind, h_i, h_j, s, t)
                oracle = vfbm.quadrature_kernel_oracle(kind, h_i, h_j, s, t, tol=2e-7)
                worst = max(worst, abs(closed - oracle))
                n_configs += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        worst <= 1e-6 and n_configs >= 20 and elapsed < 120.0,
        f"{n_configs} configs, max |closed - quadrature| {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_tildec_identity():
    _suite_criterion(5, suite_tildec, 505, n_models=50)


def test_criterion_6_causal_factorization_roundtrip():
    _suite_criterion(6, suite_factorization, 606, n_models=50)


@pytest.mark.parametrize("h_pair", [(0.3, 0.6), (0.3, 0.7)])
def test_criterion_7_monte_carlo_end_to_end(h_pair):
    start = time.perf_counter()
    m = _standard_mixing(h_pair)
    grid = TimeGrid((0.5, 1.0, 2.0))
    cfg = McConfig(n_reps=100_000, grid_step=0.05, trunc=120.0, seed=777)
    table = vfbm.mc_integral_oracle(m, grid, cfg)
    analytic = vfbm.cov_matrix(vfbm.coeffs_from_mixing(m), grid).entries
    allowance = np.maximum(4.0 * table.se, 0.02 * float(np.max(np.abs(analytic))))
    ratio = float(np.max(np.abs(table.cov - analytic) / allowance))
    elapsed = time.perf_counter() - start
    _report(
        7,
        ratio <= 1.0 and elapsed < 300.0,
        f"H={h_pair}, N={cfg.n_reps}, max dev/allowance {ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_cholesky_sampler():
    start = time.perf_counter()
    m = _standard_mixing((0.3, 0.6))
    model = vfbm.coeffs_from_mixing(m)
    grid = TimeGrid((0.5, 1.0, 1.5, 2.5))
    ens = vfbm.sample_paths(model, grid, 200_000, seed=20240809)
    again = vfbm.sample_paths(model, grid, 200_000, seed=20240809)
    bitwise = np.array_equal(ens.paths, again.paths)
    emp = vfbm.empirical_cov(ens)
    analytic = vfbm.cov_matrix(model, grid).entries
    dev = float(np.max(np.abs(emp.cov - analytic) / np.maximum(emp.se, 1e-300)))
    elapsed = time.perf_counter() - start
    _report(
        8,
        dev <= 4.0 and bitwise,
        f"200000 paths, max |emp-analytic|/SE {dev:.2f}, bit-identical={bitwise}, {elapsed:.1f}s",
    )


def test_criterion_9_positive_definiteness_gate():
    hv = validate_hurst([0.3, 0.6])
    bad = vfbm.CovarianceModel(hv, c=[[1.0, 1.5], [1.0, 1.0]])
    bad_report = vfbm.validate_model(bad)
    rejected = not bad_report.passed and bad_report.lambda_min < 0.0

    rng = np.random.default_rng(909)
    accepted = True
    for k in range(100):
        p = 2 + k % 2
        m = random_mixing(rng, p, critical_pair=(k % 4 == 0), a_minus_scale=float(rng.uniform(0, 1.5)))
        accepted = accepted and vfbm.validate_model(vfbm.coeffs_from_mixing(m)).passed
    _report(
        9,
        rejected and accepted,
        f"counterexample lambda_min {bad_report.lambda_min:.3f} rejected={rejected}, 100 constructed models accepted={accepted}",
    )


def test_suite_tolerances_are_pinned():
    # Criteria 2, 3, 5 and 6 inherit these bounds from verify, so pin them here.
    pinned = {
        "all": [
            ("theorem1/scaling", 1e-10),
            ("theorem1/stationary_increments", 1e-10),
            ("theorem1/symmetrization", 1e-10),
            ("theorem1/zero_boundary", 0.0),
            ("prop31/closed_form_vs_kernel_assembly", 1e-10),
            ("prop31/variance_vs_kernel_assembly", 1e-12),
            ("tildec/amplitude_identity", 1e-10),
            ("factorization/roundtrip", 1e-10),
            ("factorization/rejects_infeasible", 0.5),
            ("quadrature/kernel_agreement", 1e-6),
        ],
        "mc": [("mc/empirical_vs_analytic(ratio_to_allowance)", 1.0)],
    }
    for name, expected in pinned.items():
        assert [(r["check"], r["tolerance"]) for r in run_suite(name, 0)["results"]] == expected, name
