"""Self-check suites wiring the closed forms against their independent oracles.

Each suite returns a list of records {check, statistic, tolerance, pass}
suitable for JSON emission; the CLI ``verify`` subcommand is a thin wrapper.
These suites are the one definition of each check: the acceptance tests
run them at their own seeds and sizes.

The closed forms are evaluated in batches, by ``_cov_rows``: each row is
one (i, j) query of its own model at its own times, and each regime's
formula (same component, critical, general) runs once over its rows, with
the coefficients as columns.  ``theorem1`` makes all its draws first, in
the order of the RNG stream, recording only the raw exponents and mixing
matrices; one stacked Gram/sigma pass per p (``_gram_and_sigma``, as
``MixingMatrices`` computes them) and one ``_pair_coeffs`` pass per p and
regime give the coefficients, and the statistics are folded in draw order.
A draw whose mixing ``random_mixing`` would reject as degenerate makes the
suite replay its draws from the seed, discarding that mixing.  ``prop31``
draws the points of all pairs of a model in one call and evaluates the pairs
of all its models in one closed-form and one kernel-assembly pass.  An array ``**`` may round
differently from the scalar one (a vector ``pow`` can differ by 1 ulp), so
a statistic may differ from a point-by-point evaluation at rounding level.
Every worst value is folded with ``_fold``, which keeps a NaN, so a NaN
statistic fails its check.
"""

from __future__ import annotations

import numpy as np

from .covariance import _cov_critical, _cov_general, _raise_not_finite, cov_matrix, cov_same
from .errors import DegenerateComponentError, InfeasibleFactorizationError
from .kernels import KernelKind, kernel_cov, quadrature_kernel_oracle
from .model import CovarianceModel, HurstVector, MixingMatrices, TimeGrid, _gram_and_sigma, validate_hurst
from .representation import _assemble_rows, _pair_coeffs, causal_factorize, coeffs_from_mixing, tilde_c
from .simulate import McConfig, check_seed, mc_integral_oracle
from .special import is_critical, phi

__all__ = ["random_hurst", "random_mixing", "run_suite", "SUITES"]

# Keep random exponents away from the rejected near-singular band (and from
# numerically awkward extremes) unless a pair is made critical on purpose.
_H_LO, _H_HI = 0.08, 0.92
_PAIR_SUM_MARGIN = 1e-3

_QUADRATURE_TOL = 1e-6  # the quadrature suite's tolerance
_MC_REPS = 20_000  # the Monte Carlo suite's replications


def random_hurst(rng: np.random.Generator, p: int, critical_pair: bool = False) -> HurstVector:
    """Exponents with all pair sums clear of 1; optionally pair (1,2) exactly critical."""
    return validate_hurst(_draw_hurst(rng, p, critical_pair).tolist())


def _draw_hurst(rng: np.random.Generator, p: int, critical_pair: bool) -> np.ndarray:
    """random_hurst's exponents as an array, drawn alike but not validated."""
    while True:
        h = rng.uniform(_H_LO, _H_HI, size=p)
        if critical_pair:
            h[1] = 1.0 - h[0]
        v = h.tolist()
        pairs = ((i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1) or not critical_pair)
        if all(abs(v[i] + v[j] - 1.0) >= _PAIR_SUM_MARGIN for i, j in pairs):
            return h


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
    rejected: dict[int, int] = {}  # draw -> degenerate mixings random_mixing discards there
    while True:
        p, h, a_plus, a_minus, i, j, times = _theorem1_draws(seed, n_draws, rejected)
        stacks, degenerate = [], []
        for q in (2, 3):
            ks = np.flatnonzero(p == q)
            if ks.size:
                hq = h[ks, :q]
                try:
                    stacks.append((ks, hq, *_gram_and_sigma(a_plus[ks, :q, :q], a_minus[ks, :q, :q], hq)))
                except DegenerateComponentError as exc:
                    degenerate.append(int(ks[exc.at[0]]))
        if not degenerate:
            break
        # replay from the seed: the draws before the first degenerate one are unchanged
        k = min(degenerate)
        rejected[k] = rejected.get(k, 0) + 1

    critical, coeffs, r = _theorem1_coeffs(i, j, stacks)
    h_a, h_b, sigma_a, sigma_b = coeffs[:4]
    kappa2 = sigma_a * sigma_b * r
    s, t, tt, lam = times.T
    zero = np.zeros_like(s)
    # base, scaled, the four increment points, the two zero-boundary points, the reversed orientation
    s_pts = np.stack([s, lam * s, s + tt, s + tt, tt, tt, zero, s, t], axis=1)
    t_pts = np.stack([t, lam * t, t + tt, tt, t + tt, tt, t, zero, s], axis=1)
    values = _cov_rows(i, j, critical, coeffs, s_pts, t_pts).tolist()

    worst = {"scaling": 0.0, "stationary_increments": 0.0, "symmetrization": 0.0, "zero_boundary": 0.0}
    for (s, t, _, lam), h_sum, k2, v in zip(times.tolist(), (h_a + h_b).tolist(), kappa2.tolist(), values):
        base, scaled = v[0], v[1]
        scale_ref = max(1.0, abs(scaled), abs(base) * lam**h_sum)
        worst["scaling"] = _fold(worst["scaling"], abs(scaled - lam**h_sum * base) / scale_ref)

        inc = v[2] - v[3] - v[4] + v[5]
        worst["stationary_increments"] = _fold(
            worst["stationary_increments"], abs(inc - base) / max(1.0, abs(base))
        )

        sym_ref = 0.5 * k2 * (abs(s) ** h_sum + abs(t) ** h_sum - abs(s - t) ** h_sum)
        lhs = base + v[8]
        worst["symmetrization"] = _fold(worst["symmetrization"], abs(lhs - 2.0 * sym_ref) / max(1.0, abs(lhs)))

        worst["zero_boundary"] = _fold(worst["zero_boundary"], abs(v[6]), abs(v[7]))
    # X(0) = 0 exactly, so the zero boundary allows no rounding at all
    return [
        _record(f"theorem1/{name}", stat, 0.0 if name == "zero_boundary" else 1e-10)
        for name, stat in worst.items()
    ]


def _theorem1_draws(seed: int, n_draws: int, rejected: dict[int, int]) -> tuple:
    """The draws of suite_theorem1 in the order of its RNG stream, as arrays over
    the draws: p, H, A+, A- (padded to 3 components), i, j and (s, t, T,
    lambda).  At draw k the first rejected[k] mixings drawn are discarded, as
    random_mixing discards degenerate ones."""
    rng = np.random.default_rng(seed)
    p = np.empty(n_draws, dtype=int)
    h = np.zeros((n_draws, 3))
    a_plus, a_minus = np.zeros((2, n_draws, 3, 3))
    ij = np.empty((n_draws, 2), dtype=int)
    times = np.empty((n_draws, 4))
    for k in range(n_draws):
        q = p[k] = int(rng.integers(2, 4))
        a_minus_scale = float(rng.uniform(0, 1.5))
        h[k, :q] = _draw_hurst(rng, q, critical_pair=(k % 3 == 0))
        for _ in range(rejected.get(k, 0) + 1):
            a_plus[k, :q, :q] = rng.normal(size=(q, q))
            a_minus[k, :q, :q] = a_minus_scale * rng.normal(size=(q, q))
        ij[k] = rng.integers(1, q + 1, size=2)
        times[k, :3] = rng.uniform(-3, 3, size=3)
        times[k, 3] = rng.uniform(0.2, 5.0)
    return p, h, a_plus, a_minus, ij[:, 0], ij[:, 1], times


def _theorem1_coeffs(i: np.ndarray, j: np.ndarray, stacks: dict) -> tuple:
    """The critical mask, the coefficient columns that _cov_rows takes, and R's
    entry r_ij, of each draw's queried pair (1-based i, j).

    stacks holds, for each p, the draws with p components and their
    exponents, Gram products and scales; _pair_coeffs runs once for each p
    and regime.
    """
    critical = np.zeros(i.size, dtype=bool)
    cols = np.zeros((7, i.size))  # h_a, h_b, sigma_a, sigma_b, c_ab, c_ba, f_ab
    r = np.ones(i.size)
    for ks, h, gram, sigma in stacks:
        a, b = np.minimum(i[ks], j[ks]) - 1, np.maximum(i[ks], j[ks]) - 1
        d = np.arange(ks.size)
        cols[:4, ks] = h[d, a], h[d, b], sigma[d, a], sigma[d, b]
        critical[ks] = (a != b) & is_critical(h[d, a] + h[d, b])
        for rows, regime in ((critical[ks], True), ((a != b) & ~critical[ks], False)):
            if rows.any():
                a_, b_, d_ = a[rows], b[rows], d[rows]
                c_ab, c_ba, f_ab = _pair_coeffs(
                    h[d_, a_], h[d_, b_], gram[:, d_, a_, b_], gram[:, d_, b_, a_], sigma[d_, a_] * sigma[d_, b_], regime
                )
                cols[4, ks[rows]], cols[5, ks[rows]], cols[6, ks[rows]] = c_ab, c_ba, f_ab
                r[ks[rows]] = (c_ab + c_ba) / 2.0
    return critical, tuple(cols), r


def _cov_rows(i: np.ndarray, j: np.ndarray, critical: np.ndarray, coeffs: tuple, s: np.ndarray, t: np.ndarray):
    """cov_pair(model_k, i_k, j_k, s_k, t_k) of every row k, each row with its own model.

    i and j are (R,) 1-based components, s and t (R, n) times.  critical and
    coeffs = (H_a, H_b, sigma_a, sigma_b, c_ab, c_ba, f_ab) are (R,) columns of
    the pair (a, b) = (min, max) of each row; a row with i > j is evaluated as
    (j, i) at swapped times, since cov_pair(i, j, s, t) is cov_pair(j, i, t, s)
    bit for bit.  Each regime's formula runs once over its rows, with the
    coefficients as (R, 1) columns.  A value that is not finite raises
    cov_pair's ValueError for the first such row.
    """
    h_a, h_b, sigma_a, sigma_b, c_ab, c_ba, f_ab = coeffs
    swapped = (i > j)[:, None]
    s_up, t_up = np.where(swapped, t, s), np.where(swapped, s, t)
    same = i == j
    values = np.empty(s_up.shape)
    for rows, formula, args in (
        (same, cov_same, (h_a, sigma_a)),
        (~same & critical, _cov_critical, (sigma_a, sigma_b, c_ab, f_ab)),
        (~same & ~critical, _cov_general, (h_a, h_b, sigma_a, sigma_b, c_ab, c_ba)),
    ):
        if rows.any():
            values[rows] = formula(*(col[rows, None] for col in args), s_up[rows], t_up[rows])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        k = int(np.argmin(finite))
        a, b = sorted((int(i[k]), int(j[k])))
        _raise_not_finite(a, b, s_up[k], t_up[k], values[k])
    return values


def _model_coeffs(model: CovarianceModel, i: np.ndarray, j: np.ndarray) -> tuple:
    """The critical mask and the coefficient columns that _cov_rows takes, for
    rows (i, j) (1-based) of one model."""
    a, b = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    h = np.array(model.hurst.h)
    return model.critical[a, b], (h[a], h[b], model.sigma[a], model.sigma[b], model.c[a, b], model.c[b, a], model.f[a, b])


def suite_prop31(seed: int, n_models: int = 12, n_times: int = 6) -> list[dict]:
    """Closed-form covariance vs direct kernel assembly, plus variance consistency.

    The pairs (i, j) of each model are rows in (i, j) order, their points
    drawn in one call (the stream of one call per pair).  After all draws,
    one closed-form pass and one kernel-assembly pass cover the rows of every
    model; the assembly has the point (1, 1) appended to each row for the
    variances.
    """
    rng = np.random.default_rng(seed)
    models = []  # the rows of each model: (i, j) 1-based, the columns of both routes, s, t
    sigmas = []
    for k in range(n_models):
        p = 2 + k % 2
        # every fifth model is causal-only (A- = 0)
        a_minus_scale = 0.0 if k % 5 == 0 else float(rng.uniform(0.3, 1.5))
        m = random_mixing(rng, p, critical_pair=(k % 2 == 0), a_minus_scale=a_minus_scale)
        i, j = np.indices((p, p)).reshape(2, -1)
        critical, coeffs = _model_coeffs(coeffs_from_mixing(m), i + 1, j + 1)
        h = np.array(m.hurst.h)
        s, t = np.moveaxis(rng.uniform(-3, 3, size=(p * p, n_times, 2)), -1, 0)
        models.append(
            (i + 1, j + 1, critical, *coeffs, h[i], h[j], m.app[i, j], m.apm[i, j], m.apm[j, i], m.amm[i, j], s, t)
        )
        sigmas += m.sigma.tolist()
    i, j, critical, *cov_cols, h_i, h_j, app, apm_ij, apm_ji, amm, s, t = (np.concatenate(c) for c in zip(*models))
    direct = _cov_rows(i, j, critical, tuple(cov_cols), s, t)
    one = np.ones((s.shape[0], 1))
    via = _assemble_rows(h_i, h_j, (app, apm_ij, apm_ji, amm), np.hstack([s, one]), np.hstack([t, one]))
    worst_var = 0.0
    for sigma, ref in zip(sigmas, via[i == j, -1].tolist()):
        worst_var = _fold(worst_var, abs(sigma**2 - ref) / abs(ref))
    via = via[:, :-1]
    worst_pair = _fold(0.0, *(np.abs(direct - via) / np.maximum(1.0, np.abs(via))).ravel().tolist())
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
