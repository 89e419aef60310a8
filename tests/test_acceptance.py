"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (prints are captured otherwise).
"""

import time

import numpy as np
import pytest

import vfbm
from vfbm import KernelKind, McConfig, TimeGrid, validate_hurst
from vfbm.errors import InfeasibleFactorizationError
from vfbm.verify import random_hurst, random_mixing


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion-{num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion-{num} failed: {detail}"


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
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    n_draws = 1050
    worst = {"scaling": 0.0, "increments": 0.0, "symmetrization": 0.0}
    zero_ok = True
    for k in range(n_draws):
        p = int(rng.integers(2, 4))
        m = random_mixing(rng, p, critical_pair=(k % 3 == 0), a_minus_scale=float(rng.uniform(0, 1.5)))
        model = vfbm.coeffs_from_mixing(m)
        i, j = (int(v) for v in rng.integers(1, p + 1, size=2))
        s, t, big_t = (float(v) for v in rng.uniform(-3, 3, size=3))
        lam = float(rng.uniform(0.2, 5.0))
        h_sum = model.hurst[i - 1] + model.hurst[j - 1]

        base = vfbm.cov_pair(model, i, j, s, t)
        scaled = vfbm.cov_pair(model, i, j, lam * s, lam * t)
        scale = max(1.0, abs(scaled), abs(base) * lam**h_sum)
        worst["scaling"] = max(worst["scaling"], abs(scaled - lam**h_sum * base) / scale)

        inc = (
            vfbm.cov_pair(model, i, j, s + big_t, t + big_t)
            - vfbm.cov_pair(model, i, j, s + big_t, big_t)
            - vfbm.cov_pair(model, i, j, big_t, t + big_t)
            + vfbm.cov_pair(model, i, j, big_t, big_t)
        )
        worst["increments"] = max(worst["increments"], abs(inc - base) / max(1.0, abs(base)))

        kappa2 = model.sigma[i - 1] * model.sigma[j - 1] * model.r[i - 1, j - 1]
        rhs = kappa2 * (abs(s) ** h_sum + abs(t) ** h_sum - abs(s - t) ** h_sum)
        lhs = vfbm.cov_pair(model, i, j, s, t) + vfbm.cov_pair(model, j, i, s, t)
        worst["symmetrization"] = max(worst["symmetrization"], abs(lhs - rhs) / max(1.0, abs(rhs)))

        zero_ok = zero_ok and vfbm.cov_pair(model, i, j, 0.0, t) == 0.0
        zero_ok = zero_ok and vfbm.cov_pair(model, i, j, s, 0.0) == 0.0
    elapsed = time.perf_counter() - start
    stat = max(worst.values())
    _report(
        2,
        stat <= 1e-10 and zero_ok and elapsed < 10.0,
        f"{n_draws} draws, worst identity dev {stat:.2e}, zero-boundary={'exact' if zero_ok else 'BROKEN'}, {elapsed:.1f}s",
    )


def test_criterion_3_prop31_cross_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    n_models = 54
    worst_pair = 0.0
    worst_var = 0.0
    for k in range(n_models):
        p = 2 + k % 2
        m = random_mixing(
            rng, p,
            critical_pair=(k % 2 == 0),
            a_minus_scale=(0.0 if k % 5 == 0 else float(rng.uniform(0.3, 1.5))),
        )
        model = vfbm.coeffs_from_mixing(m)
        for i in range(1, p + 1):
            var = vfbm.sigma_from_mixing(m, i) ** 2
            ref = vfbm.assemble_via_kernels(m, i, i, 1.0, 1.0)
            worst_var = max(worst_var, abs(var - ref) / abs(ref))
            for j in range(1, p + 1):
                for s, t in rng.uniform(-3, 3, size=(10, 2)):
                    direct = vfbm.cov_pair(model, i, j, float(s), float(t))
                    via = vfbm.assemble_via_kernels(m, i, j, float(s), float(t))
                    worst_pair = max(worst_pair, abs(direct - via) / max(1.0, abs(via), abs(direct)))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst_pair <= 1e-10 and worst_var <= 1e-12 and elapsed < 30.0,
        f"{n_models} models, closed-vs-kernels {worst_pair:.2e}, variance {worst_var:.2e}, {elapsed:.1f}s",
    )


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
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 4))
        m = random_mixing(rng, p, a_minus_scale=float(rng.uniform(0, 1.5)))
        model = vfbm.coeffs_from_mixing(m)
        ct = vfbm.tilde_c(m).c_tilde
        for i in range(1, p + 1):
            for j in range(1, p + 1):
                if i == j:
                    continue
                lhs = ct[i - 1, j - 1] * 2.0 * vfbm.phi(model.hurst[i - 1], model.hurst[j - 1])
                rhs = model.sigma[i - 1] * model.sigma[j - 1] * model.c[i - 1, j - 1]
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _report(5, worst <= 1e-10, f"50 models, worst amplitude-identity dev {worst:.2e}")


def test_criterion_6_causal_factorization_roundtrip():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 4))
        hv = random_hurst(rng, p)
        a_plus = rng.normal(size=(p, p)) + p * np.eye(p)
        m0 = vfbm.MixingMatrices(a_plus=a_plus, a_minus=np.zeros((p, p)), hurst=hv)
        ct = vfbm.tilde_c(m0)
        ct2 = vfbm.tilde_c(vfbm.causal_factorize(ct, hv))
        scale = max(1.0, float(np.max(np.abs(ct.c_tilde))))
        worst = max(worst, float(np.max(np.abs(ct.c_tilde - ct2.c_tilde))) / scale)

    hv = validate_hurst([0.3, 0.6])
    cos_h = np.cos(np.pi * np.array([0.3, 0.6]))
    reasons = []
    for bad in (np.array([[1.0, 0.8], [0.1, 1.0]]), np.array([[1.0, 2.0], [2.0, 1.0]])):
        try:
            vfbm.causal_factorize(vfbm.TildeC(c_tilde=cos_h[:, None] * bad), hv)
            reasons.append("accepted")
        except InfeasibleFactorizationError as exc:
            reasons.append(exc.reason)
    reject_ok = reasons == ["NotSymmetric", "NotPD"]
    _report(6, worst <= 1e-10 and reject_ok, f"50 roundtrips, worst dev {worst:.2e}, rejections {reasons}")


@pytest.mark.parametrize("h_pair", [(0.3, 0.6), (0.3, 0.7)])
def test_criterion_7_monte_carlo_end_to_end(h_pair):
    start = time.perf_counter()
    m = _standard_mixing(h_pair)
    model = vfbm.coeffs_from_mixing(m)
    grid = TimeGrid((0.5, 1.0, 2.0))
    cfg = McConfig(n_reps=100_000, grid_step=0.05, trunc=120.0, seed=777)
    table = vfbm.mc_integral_oracle(m, grid, cfg)
    analytic = np.array(
        [
            [vfbm.cov_pair(model, i, j, s, t) for t in grid.times for j in (1, 2)]
            for s in grid.times
            for i in (1, 2)
        ]
    )
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
