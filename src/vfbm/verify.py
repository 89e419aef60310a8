"""Self-check suites wiring the closed forms against their independent oracles.

Each suite returns a list of records {check, statistic, tolerance, pass}
suitable for JSON emission; the CLI ``verify`` subcommand is a thin wrapper.
These suites are the one definition of each check: the acceptance tests
run them at their own seeds and sizes.

No suite builds a ``MixingMatrices`` or a ``CovarianceModel`` per model.
Each makes all its draws first, in the order of the RNG stream that
``random_mixing`` and ``random_hurst`` would consume, recording only each
model's raw numbers.  ``_draw``, which ``random_hurst`` and
``random_mixing`` call too, takes them in the fewest Generator calls that
consume the same PCG64 stream:

* one ``rng.random(k)`` for the A- scale (when it is drawn) and the p
  exponents, mapped as ``lo + (hi - lo) * u``, the arithmetic of
  ``rng.uniform``; exponents that ``random_hurst`` rejects are drawn
  again, p at a time;
* one ``rng.normal(size=2 p^2)`` for A+ and A- / scale, as two
  ``normal(size=(p, p))`` calls would draw them; a replay that discards
  d degenerate mixings draws (d + 1) 2 p^2 normals and keeps the last.

``theorem1`` takes (s, t, T, lambda) from one ``rng.random(4)`` too, and
(i, j) from two scalar ``rng.integers`` calls, which equal one
``integers(size=2)``.  The number of components p keeps its own
``integers`` call: bounded integers take 32-bit halves of the 64-bit
outputs, and PCG64 keeps the unused half for the next such call, so they
cannot share a call with the 64-bit draws of ``random`` and ``normal``.
One stacked ``_gram_and_sigma`` pass per
number of components p (``_gram_stacks``, the arithmetic of
``MixingMatrices``) gives every model's Gram products and scales.  In
``theorem1``, ``prop31`` and ``tildec`` a mixing that ``random_mixing``
would reject as degenerate makes ``_replay`` make the draws again from the
seed with that mixing discarded.  The coefficients come from
``_pair_coeffs`` on columns of pairs, once per regime, and the rest runs on
the stacks through the private helpers that the public functions call:

* ``theorem1`` and ``prop31`` evaluate the closed forms by ``_cov_rows``:
  each row is one (i, j) query of its own model at its own times, and each
  regime's formula (same component, critical, general) runs once over its
  rows, with the coefficients as columns.  ``prop31`` assembles the same
  rows from the kernels in one ``_assemble_rows`` pass.
* ``tildec`` builds every model's C~ with ``_tilde_c`` (as ``tilde_c``)
  and phi entry by entry with ``_each``.
* ``factorization`` builds C~, factors it with ``_causal_factor`` (as
  ``causal_factorize``, whose error it raises for the first infeasible
  model in draw order) and rebuilds C~ from the factor.

Every product, sine, cosine, Beta and phi has the bits of the one-model
call, so the reports are those of model-by-model code; only an array
``**`` may round differently from the scalar one (a vector ``pow`` can
differ by 1 ulp), so a closed-form statistic may differ from a
point-by-point evaluation at rounding level.  Every worst value is folded
with ``_fold``, which keeps a NaN, so a NaN statistic fails its check; it
is a maximum, so the order of the fold does not matter.
"""

from __future__ import annotations

import numpy as np

from .covariance import _cov_critical, _cov_general, _raise_not_finite, cov_matrix, cov_same
from .errors import DegenerateComponentError, InfeasibleFactorizationError, SingularCosineError
from .kernels import KernelKind, kernel_cov, quadrature_kernel_oracle
from .model import HurstVector, MixingMatrices, TimeGrid, _gram_and_sigma, validate_hurst
from .representation import (_assemble_rows, _causal_factor, _pair_coeffs, _tilde_c, causal_factorize,
                             coeffs_from_mixing)
from .simulate import McConfig, check_seed, mc_integral_oracle
from .special import _each, is_critical, phi

__all__ = ["random_hurst", "random_mixing", "run_suite", "SUITES"]

# Keep random exponents away from the rejected near-singular band (and from
# numerically awkward extremes) unless a pair is made critical on purpose.
_H_RANGE = (0.08, 0.92)
_PAIR_SUM_MARGIN = 1e-3
# The other ranges that the suites draw uniformly from: the A- scale (prop31
# has its own), the times s, t, T and theorem1's lambda.
_SCALE_RANGE = (0.0, 1.5)
_PROP31_SCALE_RANGE = (0.3, 1.5)
_TIME_RANGE = (-3.0, 3.0)
_LAMBDA_RANGE = (0.2, 5.0)

_QUADRATURE_TOL = 1e-6  # the quadrature suite's tolerance
_MC_REPS = 20_000  # the Monte Carlo suite's replications


def random_hurst(rng: np.random.Generator, p: int, critical_pair: bool = False) -> HurstVector:
    """Exponents with all pair sums clear of 1; optionally pair (1,2) exactly critical."""
    return validate_hurst(_draw(rng, p, critical_pair, matrices=0)[1])


def random_mixing(
    rng: np.random.Generator, p: int, critical_pair: bool = False, a_minus_scale: float = 1.0
) -> MixingMatrices:
    """A random representation with non-degenerate components."""
    _, h, z = _draw(rng, p, critical_pair)
    hurst = validate_hurst(h)
    while True:
        a_plus, a_minus = z.reshape(2, p, p)
        try:
            return MixingMatrices(a_plus=a_plus, a_minus=a_minus_scale * a_minus, hurst=hurst)
        except DegenerateComponentError:
            z = rng.normal(size=2 * p * p)


def _uniform(lo_hi: tuple, u):
    """rng.uniform(lo, hi)'s value from the rng.random() value (or array) u
    that it consumes: numpy's own arithmetic, lo + (hi - lo) * u."""
    lo, hi = lo_hi
    return lo + (hi - lo) * u


def _draw(
    rng: np.random.Generator, p: int, critical_pair: bool = False, scale=1.0, matrices: int = 2, discard: int = 0
) -> tuple:
    """One model's raw numbers: (A- scale, exponents, normals), on the stream
    of one rng.uniform call per number and one rng.normal call per matrix,
    in the fewest Generator calls.

    scale is the A- scale, or the (lo, hi) range from which it is drawn
    before the exponents.  The scale and the first p exponents take one
    rng.random call, mapped by _uniform; exponents that random_hurst rejects
    are drawn again, p at a time.  The normals of discard + 1 attempts at
    ``matrices`` p x p matrices (A+, then A- / scale) take one rng.normal
    call, of which the last attempt's are kept, flat; the first ``discard``
    are dropped as random_mixing drops degenerate mixings.  The scale and
    the exponents are Python floats.
    """
    drawn = isinstance(scale, tuple)
    u = rng.random(p + drawn).tolist()
    if drawn:
        scale = _uniform(scale, u.pop(0))
    while True:
        h = [_uniform(_H_RANGE, x) for x in u]
        if critical_pair:
            h[1] = 1.0 - h[0]
        pairs = ((i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1) or not critical_pair)
        if all(abs(h[i] + h[j] - 1.0) >= _PAIR_SUM_MARGIN for i, j in pairs):
            break
        u = rng.random(p).tolist()
    n = matrices * p * p
    return scale, h, rng.normal(size=(discard + 1) * n)[-n:] if n else None


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


def _gram_stacks(p: list, models: list) -> list:
    """Gram products and scales of models drawn in order, in one
    _gram_and_sigma pass per number of components.

    p holds each model's number of components and models its (scale, H, z)
    from _draw: z holds A+ and then A- / scale, or A+ alone for A- = 0; each
    stack applies its scales to A- at once.  Returns one (ks, H, gram, sigma)
    per number of components: ks the models that have it, in order, H their
    exponents (D, p), gram their products (3, D, p, p) and sigma their
    scales (D, p).  A degenerate mixing raises the DegenerateComponentError
    of the first one in draw order, with ``at`` = (its model,).
    """
    stacks, degenerate = [], []
    for q in sorted(set(p)):
        ks = [k for k, p_k in enumerate(p) if p_k == q]
        scale, h, z = zip(*(models[k] for k in ks))
        h, z = np.array(h), np.array(z).reshape(len(ks), -1, q, q)
        a_plus = z[:, 0]
        a_minus = np.array(scale)[:, None, None] * z[:, 1] if z.shape[1] == 2 else np.zeros_like(a_plus)
        try:
            stacks.append((np.array(ks), h, *_gram_and_sigma(a_plus, a_minus, h)))
        except DegenerateComponentError as exc:
            degenerate.append(DegenerateComponentError(exc.index, exc.variance, (ks[exc.at[0]],)))
    if degenerate:
        raise min(degenerate, key=lambda exc: exc.at)
    return stacks


def _replay(draw) -> tuple:
    """(stacks, *rest) for the draws of draw(rejected) = (p, models, *rest).

    draw makes a suite's draws from its seed, dropping at model k the first
    rejected[k] mixings it draws.  A degenerate mixing is dropped in this
    way and the draws are made again, so each model gets the mixing that
    random_mixing would return; the draws before it are unchanged.
    """
    rejected: dict[int, int] = {}
    while True:
        p, models, *rest = draw(rejected)
        try:
            return (_gram_stacks(p, models), *rest)
        except DegenerateComponentError as exc:
            k = exc.at[0]
            rejected[k] = rejected.get(k, 0) + 1


def _model_table(stacks: list, n: int) -> tuple:
    """The exponents (n, P), Gram products (3, n, P, P) and scales (n, P) of
    the stacks' n models by model, zero-padded to the largest p, P."""
    size = max((h.shape[1] for _, h, _, _ in stacks), default=0)
    h, sigma = np.zeros((2, n, size))
    gram = np.zeros((3, n, size, size))
    for ks, h_q, gram_q, sigma_q in stacks:
        q = h_q.shape[1]
        h[ks, :q], gram[:, ks, :q, :q], sigma[ks, :q] = h_q, gram_q, sigma_q
    return h, gram, sigma


def _pair_columns(table: tuple, model: np.ndarray, i: np.ndarray, j: np.ndarray) -> tuple:
    """The critical mask, the coefficient columns that _cov_rows takes, and R's
    entry r_ij, of rows (model, i, j): the pair (i, j) (1-based) of a model
    of table = _model_table(...).  _pair_coeffs runs once per regime."""
    h, gram, sigma = table
    a, b = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    h_a, h_b, sigma_a, sigma_b = h[model, a], h[model, b], sigma[model, a], sigma[model, b]
    critical = (a != b) & is_critical(h_a + h_b)
    c_ab, c_ba, f_ab = np.zeros((3, i.size))
    for rows, regime in ((critical, True), ((a != b) & ~critical, False)):
        if rows.any():
            m, a_, b_ = model[rows], a[rows], b[rows]
            c_ab[rows], c_ba[rows], f_ab[rows] = _pair_coeffs(
                h_a[rows], h_b[rows], gram[:, m, a_, b_], gram[:, m, b_, a_], sigma_a[rows] * sigma_b[rows], regime
            )
    r = np.where(a != b, (c_ab + c_ba) / 2.0, 1.0)
    return critical, (h_a, h_b, sigma_a, sigma_b, c_ab, c_ba, f_ab), r


def suite_theorem1(seed: int, n_draws: int = 400) -> list[dict]:
    """Self-similarity, stationary increments, symmetrization, zero boundary."""
    stacks, ij, times = _replay(lambda rejected: _theorem1_draws(seed, n_draws, rejected))
    i, j = np.array(ij, dtype=int).reshape(-1, 2).T
    u = np.array(times).reshape(-1, 4)
    times = np.hstack([_uniform(_TIME_RANGE, u[:, :3]), _uniform(_LAMBDA_RANGE, u[:, 3:])])
    critical, coeffs, r = _pair_columns(_model_table(stacks, n_draws), np.arange(n_draws), i, j)
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
    """The draws of suite_theorem1 in the order of its RNG stream, for _replay:
    p, the models, (i, j) and the rng.random() values of (s, t, T, lambda)
    of each draw, in six Generator calls per draw.  The two scalar
    integers calls take (i, j) as integers(1, q + 1, size=2) does."""
    rng = np.random.default_rng(seed)
    p, models, ij, times = [], [], [], []
    for k in range(n_draws):
        q = int(rng.integers(2, 4))
        p.append(q)
        models.append(_draw(rng, q, k % 3 == 0, _SCALE_RANGE, discard=rejected.get(k, 0)))
        ij += (rng.integers(1, q + 1), rng.integers(1, q + 1))
        times.append(rng.random(4))
    return p, models, ij, times


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


def suite_prop31(seed: int, n_models: int = 12, n_times: int = 6) -> list[dict]:
    """Closed-form covariance vs direct kernel assembly, plus variance consistency.

    The pairs (i, j) of each model are rows in (i, j) order, their points
    drawn in one call (the stream of one call per pair).  After all draws,
    one closed-form pass and one kernel-assembly pass cover the rows of every
    model; the assembly has the point (1, 1) appended to each row for the
    variances.
    """
    stacks, rows, points = _replay(lambda rejected: _prop31_draws(seed, n_models, n_times, rejected))
    # the empty blocks let a suite of no models pass with zero statistics
    model, i, j = np.concatenate([np.empty((3, 0), dtype=int), *rows], axis=1)
    s, t = np.moveaxis(np.concatenate([np.empty((0, n_times, 2)), *points]), -1, 0)
    table = _model_table(stacks, n_models)
    critical, coeffs, _ = _pair_columns(table, model, i, j)
    direct = _cov_rows(i, j, critical, coeffs, s, t)
    h, gram, _ = table
    a, b = i - 1, j - 1
    weights = (gram[0, model, a, b], gram[2, model, a, b], gram[2, model, b, a], gram[1, model, a, b])
    one = np.ones((s.shape[0], 1))
    via = _assemble_rows(h[model, a], h[model, b], weights, np.hstack([s, one]), np.hstack([t, one]))
    same = i == j
    worst_var = 0.0
    for sigma, ref in zip(coeffs[2][same].tolist(), via[same, -1].tolist()):
        worst_var = _fold(worst_var, abs(sigma**2 - ref) / abs(ref))
    via = via[:, :-1]
    worst_pair = _fold(0.0, *(np.abs(direct - via) / np.maximum(1.0, np.abs(via))).ravel().tolist())
    return [
        _record("prop31/closed_form_vs_kernel_assembly", worst_pair, 1e-10),
        _record("prop31/variance_vs_kernel_assembly", worst_var, 1e-12),
    ]


def _prop31_draws(seed: int, n_models: int, n_times: int, rejected: dict[int, int]) -> tuple:
    """The draws of suite_prop31 in the order of its RNG stream, for _replay:
    p and the mixing of each model, its rows (model, i, j), 1-based, and
    their points (p * p, n_times, (s, t))."""
    rng = np.random.default_rng(seed)
    p, models, rows, points = [], [], [], []
    for k in range(n_models):
        q = 2 + k % 2
        # every fifth model is causal-only (A- = 0)
        scale = 0.0 if k % 5 == 0 else _PROP31_SCALE_RANGE
        p.append(q)
        models.append(_draw(rng, q, k % 2 == 0, scale, discard=rejected.get(k, 0)))
        rows.append(np.vstack([np.full(q * q, k), np.indices((q, q)).reshape(2, -1) + 1]))
        points.append(rng.uniform(*_TIME_RANGE, size=(q * q, n_times, 2)))
    return p, models, rows, points


def suite_tildec(seed: int, n_models: int = 20) -> list[dict]:
    """Amplitude identity c~_ij * 2 phi_ij = sigma_i sigma_j c_ij (general pairs)."""
    (stacks,) = _replay(lambda rejected: _tildec_draws(seed, n_models, rejected))
    worst = 0.0
    for _, h, gram, sigma in stacks:
        ct = _tilde_c(h, *gram)
        a, b = np.triu_indices(h.shape[1], 1)
        c_ab, c_ba, _ = _pair_coeffs(
            h[:, a], h[:, b], gram[:, :, a, b], gram[:, :, b, a], sigma[:, a] * sigma[:, b], False
        )
        # every ordered pair (i, j), i != j: c_ij is c_ab above the diagonal and c_ba below it
        i, j, c = np.concatenate([a, b]), np.concatenate([b, a]), np.hstack([c_ab, c_ba])
        lhs = ct[:, i, j] * 2.0 * _each(phi, h[:, i], h[:, j])
        rhs = sigma[:, i] * sigma[:, j] * c
        worst = _fold(worst, *(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))).ravel().tolist())
    return [_record("tildec/amplitude_identity", worst, 1e-10)]


def _tildec_draws(seed: int, n_models: int, rejected: dict[int, int]) -> tuple:
    """The draws of suite_tildec in the order of its RNG stream, for _replay:
    p and the mixing of each model."""
    rng = np.random.default_rng(seed)
    p, models = [], []
    for k in range(n_models):
        q = int(rng.integers(2, 4))
        p.append(q)
        models.append(_draw(rng, q, False, _SCALE_RANGE, discard=rejected.get(k, 0)))
    return p, models


def suite_factorization(seed: int, n_models: int = 20) -> list[dict]:
    """Roundtrip through causal_factorize and rejection of infeasible inputs.

    Each model's C~ is factored and C~ is rebuilt from the factor, in one
    stacked pass per number of components; an infeasible C~ raises the
    error of the first such model in draw order, as causal_factorize would.
    """
    rng = np.random.default_rng(seed)
    p, models = [], []
    for _ in range(n_models):
        q = int(rng.integers(2, 4))
        _, h, z = _draw(rng, q, matrices=1)
        p.append(q)
        models.append((None, h, z.reshape(q, q) + q * np.eye(q)))  # keep A+ invertible, with A- = 0
    stacks = [(ks, h, _tilde_c(h, *gram)) for ks, h, gram, _ in _gram_stacks(p, models)]
    try:
        factors = [_causal_factor(ct, h) for _, h, ct in stacks]
    except (ValueError, SingularCosineError, InfeasibleFactorizationError):
        # the first infeasible model in draw order decides, as in a call per model
        models = sorted((k, d, h, ct) for ks, h, ct in stacks for d, k in enumerate(ks.tolist()))
        for _, d, h, ct in models:
            _causal_factor(ct[d : d + 1], h[d : d + 1])
        raise
    worst = 0.0
    for (_, h, ct), a_plus in zip(stacks, factors):
        ct2 = _tilde_c(h, *_gram_and_sigma(a_plus, np.zeros_like(a_plus), h)[0])
        gap = np.abs(ct - ct2).max(axis=(1, 2)) / np.maximum(1.0, np.abs(ct).max(axis=(1, 2)))
        worst = _fold(worst, *gap.tolist())
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
