"""Self-check suites wiring the closed forms against their independent oracles.

Each suite returns a list of records {check, statistic, tolerance, pass}
suitable for JSON emission; the CLI ``verify`` subcommand is a thin wrapper.
These suites are the one definition of each check: the acceptance tests
run them at their own seeds and sizes.

The closed forms are evaluated in batches.  ``theorem1`` makes all its
draws first, in the order of the RNG stream, recording each queried pair's
regime (same component, critical, general) and coefficients; then each
regime's formula runs once over the (s, t) points of all its draws, with
the coefficients as columns, and the statistics are folded in draw order.
The ``n_times`` points of one ``prop31`` pair go through one ``cov_pair``
and one ``assemble_via_kernels`` call.  An array ``**`` may round
differently from the scalar one (a vector ``pow`` can differ by 1 ulp), so
a statistic may differ from a point-by-point evaluation at rounding level.
Every worst value is folded with ``_fold``, which keeps a NaN, so a NaN
statistic fails its check.
"""

from __future__ import annotations

import numpy as np

from .covariance import _cov_critical, _cov_general, _raise_not_finite, cov_matrix, cov_pair, cov_same
from .errors import DegenerateComponentError, InfeasibleFactorizationError
from .kernels import KernelKind, kernel_cov, quadrature_kernel_oracle
from .model import HurstVector, MixingMatrices, TimeGrid, validate_hurst
from .representation import (
    _pair_coeffs,
    assemble_via_kernels,
    causal_factorize,
    coeffs_from_mixing,
    sigma_from_mixing,
    tilde_c,
)
from .simulate import McConfig, check_seed, mc_integral_oracle
from .special import phi

__all__ = ["random_hurst", "random_mixing", "run_suite", "SUITES"]

# Keep random exponents away from the rejected near-singular band (and from
# numerically awkward extremes) unless a pair is made critical on purpose.
_H_LO, _H_HI = 0.08, 0.92
_PAIR_SUM_MARGIN = 1e-3

_QUADRATURE_TOL = 1e-6  # the quadrature suite's tolerance
_MC_REPS = 20_000  # the Monte Carlo suite's replications


def random_hurst(rng: np.random.Generator, p: int, critical_pair: bool = False) -> HurstVector:
    """Exponents with all pair sums clear of 1; optionally pair (1,2) exactly critical."""
    while True:
        h = rng.uniform(_H_LO, _H_HI, size=p)
        if critical_pair:
            h[1] = 1.0 - h[0]
        pairs = ((i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1) or not critical_pair)
        if all(abs(h[i] + h[j] - 1.0) >= _PAIR_SUM_MARGIN for i, j in pairs):
            return validate_hurst(h.tolist())


def random_mixing(
    rng: np.random.Generator, p: int, critical_pair: bool = False, a_minus_scale: float = 1.0
) -> MixingMatrices:
    """A random representation with non-degenerate components."""
    h = random_hurst(rng, p, critical_pair)
    while True:
        try:
            return MixingMatrices(
                a_plus=rng.normal(size=(p, p)),
                a_minus=a_minus_scale * rng.normal(size=(p, p)),
                hurst=h,
            )
        except DegenerateComponentError:
            continue


def _fold(worst: float, *values: float) -> float:
    """max(worst, *values), but NaN once any argument is NaN.

    Python's max drops a NaN that is not its first argument (max(0.0, nan)
    is 0.0), which would let a NaN statistic pass its check.
    """
    for v in values:
        if v > worst or v != v:
            worst = v
    return worst


def _record(check: str, statistic: float, tolerance: float) -> dict:
    return {
        "check": check,
        "statistic": float(statistic),
        "tolerance": float(tolerance),
        "pass": bool(statistic <= tolerance),
    }


def suite_theorem1(seed: int, n_draws: int = 400) -> list[dict]:
    """Self-similarity, stationary increments, symmetrization, zero boundary."""
    rng = np.random.default_rng(seed)
    draws = []  # (i, j, s, t, T, lambda, H_i + H_j, sigma_i sigma_j r_ij) of each draw
    pairs = []  # (formula, coefficients) of each draw's pair, as _theorem1_pair gives them
    for k in range(n_draws):
        p = int(rng.integers(2, 4))
        m = random_mixing(rng, p, critical_pair=(k % 3 == 0), a_minus_scale=float(rng.uniform(0, 1.5)))
        i, j = (int(v) for v in rng.integers(1, p + 1, size=2))
        s, t, big_t = (float(v) for v in rng.uniform(-3, 3, size=3))
        lam = float(rng.uniform(0.2, 5.0))
        formula, coeffs, r = _theorem1_pair(m, min(i, j) - 1, max(i, j) - 1)
        kappa2 = float(m.sigma[i - 1]) * float(m.sigma[j - 1]) * r
        draws.append((i, j, s, t, big_t, lam, m.hurst[i - 1] + m.hurst[j - 1], kappa2))
        pairs.append((formula, coeffs))

    worst = {"scaling": 0.0, "stationary_increments": 0.0, "symmetrization": 0.0, "zero_boundary": 0.0}
    for (i, j, s, t, big_t, lam, h_sum, kappa2), v in zip(draws, _theorem1_values(draws, pairs).tolist()):
        base, scaled = v[0], v[1]
        scale_ref = max(1.0, abs(scaled), abs(base) * lam**h_sum)
        worst["scaling"] = _fold(worst["scaling"], abs(scaled - lam**h_sum * base) / scale_ref)

        inc = v[2] - v[3] - v[4] + v[5]
        worst["stationary_increments"] = _fold(
            worst["stationary_increments"], abs(inc - base) / max(1.0, abs(base))
        )

        sym_ref = 0.5 * kappa2 * (abs(s) ** h_sum + abs(t) ** h_sum - abs(s - t) ** h_sum)
        lhs = base + v[8]
        worst["symmetrization"] = _fold(worst["symmetrization"], abs(lhs - 2.0 * sym_ref) / max(1.0, abs(lhs)))

        worst["zero_boundary"] = _fold(worst["zero_boundary"], abs(v[6]), abs(v[7]))
    # X(0) = 0 exactly, so the zero boundary allows no rounding at all
    return [
        _record(f"theorem1/{name}", stat, 0.0 if name == "zero_boundary" else 1e-10)
        for name, stat in worst.items()
    ]


def _theorem1_pair(m: MixingMatrices, a: int, b: int) -> tuple:
    """The formula of components a <= b (0-based), as cov_pair picks it; its
    arguments before (s, t), as cov_pair passes them; and R's entry r_ab =
    (c_ab + c_ba)/2."""
    sigma = m.sigma
    if a == b:
        return cov_same, (m.hurst[a], float(sigma[a])), 1.0
    c_ab, c_ba, f_ab = _pair_coeffs(m, a, b)
    r = (c_ab + c_ba) / 2.0
    if m.hurst.critical[a, b]:
        return _cov_critical, (float(sigma[a]), float(sigma[b]), c_ab, f_ab), r
    return _cov_general, (m.hurst[a], m.hurst[b], float(sigma[a]), float(sigma[b]), c_ab, c_ba), r


def _theorem1_values(draws: list[tuple], pairs: list[tuple]) -> np.ndarray:
    """cov_pair(i, j, .) at the nine points of every draw: base, scaled, the four
    increment points, the two zero-boundary points and the reversed orientation.

    A draw with i > j is evaluated as (j, i) at swapped times, since cov_pair(i,
    j, s, t) is cov_pair(j, i, t, s) bit for bit.  Each regime's formula runs
    once, over the (D, 9) times of its D draws with (D, 1) coefficient columns.
    A value that is not finite raises cov_pair's ValueError for the first such
    draw.
    """
    s_pts = np.array([[s, lam * s, s + tt, s + tt, tt, tt, 0.0, s, t] for _, _, s, t, tt, lam, *_ in draws])
    t_pts = np.array([[t, lam * t, t + tt, tt, t + tt, tt, t, 0.0, s] for _, _, s, t, tt, lam, *_ in draws])
    swapped = np.array([[i > j] for i, j, *_ in draws])
    s_up, t_up = np.where(swapped, t_pts, s_pts), np.where(swapped, s_pts, t_pts)
    values = np.empty_like(s_pts)
    for formula in (cov_same, _cov_critical, _cov_general):
        rows = [k for k, (f, _) in enumerate(pairs) if f is formula]
        if rows:
            coeffs = np.array([pairs[k][1] for k in rows]).T[:, :, None]
            values[rows] = formula(*coeffs, s_up[rows], t_up[rows])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        i, j = draws[k][:2]
        _raise_not_finite(min(i, j), max(i, j), s_up[k], t_up[k], values[k])
    return values


def suite_prop31(seed: int, n_models: int = 12, n_times: int = 6) -> list[dict]:
    """Closed-form covariance vs direct kernel assembly, plus variance consistency."""
    rng = np.random.default_rng(seed)
    worst_pair = 0.0
    worst_var = 0.0
    for k in range(n_models):
        p = 2 + k % 2
        # every fifth model is causal-only (A- = 0)
        a_minus_scale = 0.0 if k % 5 == 0 else float(rng.uniform(0.3, 1.5))
        m = random_mixing(rng, p, critical_pair=(k % 2 == 0), a_minus_scale=a_minus_scale)
        model = coeffs_from_mixing(m)
        for i in range(1, p + 1):
            var = sigma_from_mixing(m, i) ** 2
            ref = assemble_via_kernels(m, i, i, 1.0, 1.0)
            worst_var = _fold(worst_var, abs(var - ref) / abs(ref))
            for j in range(1, p + 1):
                s, t = rng.uniform(-3, 3, size=(n_times, 2)).T
                direct = cov_pair(model, i, j, s, t)
                via = assemble_via_kernels(m, i, j, s, t)
                worst_pair = _fold(worst_pair, *(np.abs(direct - via) / np.maximum(1.0, np.abs(via))).tolist())
    return [
        _record("prop31/closed_form_vs_kernel_assembly", worst_pair, 1e-10),
        _record("prop31/variance_vs_kernel_assembly", worst_var, 1e-12),
    ]


def suite_tildec(seed: int, n_models: int = 20) -> list[dict]:
    """Amplitude identity c~_ij * 2 phi_ij = sigma_i sigma_j c_ij (general pairs)."""
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
                worst = _fold(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return [_record("tildec/amplitude_identity", worst, 1e-10)]


def suite_factorization(seed: int, n_models: int = 20) -> list[dict]:
    """Roundtrip through causal_factorize and rejection of infeasible inputs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_models):
        p = int(rng.integers(2, 4))
        h = random_hurst(rng, p)
        a_plus = rng.normal(size=(p, p)) + p * np.eye(p)  # keep it invertible
        m0 = MixingMatrices(a_plus=a_plus, a_minus=np.zeros((p, p)), hurst=h)
        ct = tilde_c(m0)
        recovered = causal_factorize(ct, h)
        ct2 = tilde_c(recovered)
        worst = _fold(worst, float(np.max(np.abs(ct - ct2))) / max(1.0, float(np.max(np.abs(ct)))))
    rejected = 0.0
    h = random_hurst(np.random.default_rng(seed + 1), 2)
    cos_h = np.cos(np.pi * np.asarray(h.h))
    # an asymmetric M, then one with a negative eigenvalue
    for bad, reason in (([[1.0, 0.9], [0.2, 1.0]], "NotSymmetric"), ([[1.0, 2.0], [2.0, 1.0]], "NotPD")):
        try:
            causal_factorize(cos_h[:, None] * np.array(bad), h)
            rejected = 1.0
        except InfeasibleFactorizationError as exc:
            if exc.reason != reason:
                rejected = 1.0
    return [
        _record("factorization/roundtrip", worst, 1e-10),
        _record("factorization/rejects_infeasible", rejected, 0.5),
    ]


def suite_quadrature(seed: int) -> list[dict]:
    """Closed-form kernels vs the deterministic quadrature oracle."""
    configs = [
        (KernelKind.PP, 0.3, 0.6, 1.0, 2.0),
        (KernelKind.PP, 0.3, 0.7, 1.0, 2.0),
        (KernelKind.MM, 0.4, 0.4, 1.0, 1.0),
        (KernelKind.PM, 0.3, 0.6, 1.0, 2.0),
        (KernelKind.MP, 0.25, 0.55, -0.7, 1.3),
        (KernelKind.PP, 0.45, 0.25, -1.2, -0.4),
        (KernelKind.MM, 0.3, 0.7, -0.5, 2.0),
        (KernelKind.PM, 0.5, 0.5, 0.8, -0.9),
    ]
    worst = 0.0
    for kind, hi, hj, s, t in configs:
        gap = abs(
            kernel_cov(kind, hi, hj, s, t)
            - quadrature_kernel_oracle(kind, hi, hj, s, t, tol=_QUADRATURE_TOL / 5.0)
        )
        worst = _fold(worst, gap)
    return [_record("quadrature/kernel_agreement", worst, _QUADRATURE_TOL)]


def suite_mc(seed: int) -> list[dict]:
    """Small end-to-end Monte Carlo check of the discretized construction."""
    h = validate_hurst([0.3, 0.6])
    m = MixingMatrices(
        a_plus=np.array([[1.0, 0.5], [0.0, 1.0]]), a_minus=np.zeros((2, 2)), hurst=h
    )
    grid = TimeGrid((0.5, 1.0, 2.0))
    # step 0.05 as in acceptance criterion 7: at 0.1 the discretization deficit of
    # about 2.7 SE failed the 4 SE allowance on some seeds
    table = mc_integral_oracle(m, grid, McConfig(n_reps=_MC_REPS, grid_step=0.05, trunc=120.0, seed=seed))
    analytic = cov_matrix(coeffs_from_mixing(m), grid).entries
    allowance = np.maximum(4.0 * table.se, 0.02 * np.max(np.abs(analytic)))
    ratio = float(np.max(np.abs(table.cov - analytic) / allowance))
    return [_record("mc/empirical_vs_analytic(ratio_to_allowance)", ratio, 1.0)]


SUITES = {
    "theorem1": suite_theorem1,
    "prop31": suite_prop31,
    "tildec": suite_tildec,
    "factorization": suite_factorization,
    "quadrature": suite_quadrature,
    "mc": suite_mc,
}


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one suite, or 'all' for every suite but 'mc' (about 7 ms), whose
    4 SE allowance holds per entry, not for the whole table: it fails about
    1 seed in 190 on a correct program."""
    seed = check_seed(seed)
    if name == "all":
        results = []
        for key in ("theorem1", "prop31", "tildec", "factorization", "quadrature"):
            results.extend(SUITES[key](seed))
    elif name in SUITES:
        results = SUITES[name](seed)
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES) + ['all']}")
    return {
        "suite": name,
        "seed": seed,
        "results": results,
        "passed": all(r["pass"] for r in results),
    }
