"""From mixing matrices to covariance coefficients, and back (causal case).

A pair of real p x p matrices (A_plus, A_minus) weights the causal and
anti-causal kernels of the moving-average construction.  Only the Gram-type
products

    app = A+ A+*,  amm = A- A-*,  apm = A+ A-*

(and A- A+* = apm*) enter the second-order law; ``MixingMatrices`` computes
them, and from them the scales sigma, once, on construction.
``coeffs_from_mixing`` produces the full coefficient model (the scales
sigma and the c and f arrays of ``CovarianceModel``);
``assemble_via_kernels`` computes the same covariances directly as the
alpha-weighted sum of elementary kernel covariances and serves as the
independent oracle for that mapping.  ``_pair_coeffs`` takes a pair's
exponents, Gram entries and scales as floats, or as columns of many pairs in
one regime; ``_assemble_rows`` assembles many (i, j) rows, each of its own
model, in one pass per regime.  Either way each entry gets the bits of the
one-pair call.

``tilde_c`` builds the amplitude matrix

    C~ = cos(H pi) A+A+* + A-A-* cos(H pi)
         - sin(H pi) A+A-* cos(H pi) - cos(H pi) A+A-* sin(H pi)

(diagonal sine/cosine matrices), linked to the general-regime coefficients
by c_ij = 2 c~_ij phi_ij / (sigma_i sigma_j).  For causal models (A- = 0)
the factorization C~ = cos(H pi) A+A+* is recoverable iff
cos(H pi)^(-1) C~ is symmetric positive definite; ``causal_factorize``
performs it by Cholesky.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InfeasibleFactorizationError, SingularCosineError
from .kernels import KernelKind, _kernel_coeffs, _kernel_critical, _kernel_general, _maybe_scalar
from .model import CovarianceModel, HurstVector, MixingMatrices, _check_components, parse_model, read_json
from .special import _beta_half, _cos_pi, _each, _sin_pi, is_critical, phi

__all__ = [
    "sigma_from_mixing",
    "coeffs_from_mixing",
    "tilde_c",
    "causal_factorize",
    "assemble_via_kernels",
    "load_model",
]

# Factorization feasibility thresholds on M = cos(H pi)^(-1) C~.
_SYMMETRY_TOL = 1e-10
_FACTOR_PD_TOL = 1e-12


def sigma_from_mixing(m: MixingMatrices, i: int) -> float:
    """Standard deviation of X_i(1) implied by the mixing matrices (1-based i),
    ``m.sigma[i - 1]``; IndexOutOfRangeError unless 1 <= i <= p."""
    _check_components(m.p, i)
    return float(m.sigma[i - 1])


def coeffs_from_mixing(m: MixingMatrices) -> CovarianceModel:
    """Covariance coefficients of the process built from the mixing matrices.

    General pairs get c[i, j] = c_ij and c[j, i] = c_ji, the reverse
    coefficient coming from the index-swapped formula (H_i <-> H_j,
    transposed alpha products); critical pairs get d_ij in both places and
    f[i, j] = f_ij = -f[j, i].
    """
    p = m.p
    c = np.eye(p)
    f = np.zeros((p, p))
    h = m.hurst
    gram = (m.app, m.amm, m.apm)
    for i in range(p):
        for j in range(i + 1, p):
            critical = bool(h.critical[i, j])
            c[i, j], c[j, i], f_ij = _pair_coeffs(
                h[i], h[j], [g[i, j] for g in gram], [g[j, i] for g in gram], m.sigma[i] * m.sigma[j], critical
            )
            if critical:  # general pairs keep f = +0.0
                f[i, j], f[j, i] = f_ij, -f_ij
    return CovarianceModel(hurst=m.hurst, sigma=m.sigma, c=c, f=f)


def _pair_coeffs(h_i, h_j, gram_ij, gram_ji, ss, critical: bool) -> tuple:
    """(c_ij, c_ji, f_ij) of pairs i < j: (d_ij, d_ij, f_ij) if critical, else
    (c_ij, c_ji, 0.0).

    h_i and h_j are the exponents, gram_ij and gram_ji the Gram entries
    (app, amm, apm) at (i, j) and at (j, i), and ss = sigma_i sigma_j: floats,
    or columns of pairs all in the one regime; the sine, cosine, Beta and phi
    factors are Python's scalar math at each entry.
    """
    app_ij, amm_ij, apm_ij = gram_ij
    app_ji, amm_ji, apm_ji = gram_ji
    if critical:
        b = _each(_beta_half, h_i, h_j)
        d = b * (0.5 * (_each(_sin_pi, h_i) + _each(_sin_pi, h_j)) * (app_ij + amm_ij) - apm_ij - apm_ji) / ss
        return d, d, (h_j - h_i) * (app_ij - amm_ij) / ss
    ci = _each(_cos_pi, h_i)
    cj = _each(_cos_pi, h_j)
    psi = _each(phi, h_i, h_j)
    sin_sum = _each(_sin_pi, h_i + h_j)
    return (
        2.0 * psi * (app_ij * ci + amm_ij * cj - apm_ij * sin_sum) / ss,
        2.0 * psi * (app_ji * cj + amm_ji * ci - apm_ji * sin_sum) / ss,
        0.0,
    )


def tilde_c(m: MixingMatrices) -> np.ndarray:
    """The p x p amplitude matrix C~ of the displayed quadratic form in (A+, A-)."""
    cos_h = np.diag(np.cos(np.pi * np.asarray(m.hurst.h)))
    sin_h = np.diag(np.sin(np.pi * np.asarray(m.hurst.h)))
    return cos_h @ m.app + m.amm @ cos_h - sin_h @ m.apm @ cos_h - cos_h @ m.apm @ sin_h


def causal_factorize(c_tilde: np.ndarray, h: HurstVector) -> MixingMatrices:
    """Recover a causal representation (A- = 0) from the amplitude matrix.

    Computes M = cos(H pi)^(-1) C~ and returns A+ = chol(M) (lower
    triangular; any rotation of it is equally valid, so tests should compare
    C~, never A+ entries).

    Raises ValueError when C~ is not a finite p x p matrix,
    SingularCosineError when some H_i = 1/2 makes cos(H pi) singular, and
    InfeasibleFactorizationError("NotSymmetric" | "NotPD") when M fails the
    feasibility conditions.
    """
    ct = np.asarray(c_tilde, dtype=float)
    if ct.shape != (h.p, h.p):
        raise ValueError(f"amplitude matrix has shape {ct.shape}, expected ({h.p}, {h.p})")
    if not np.all(np.isfinite(ct)):
        raise ValueError("amplitude matrix has NaN or infinite entries")
    cos_vals = np.cos(np.pi * np.asarray(h.h))
    for idx, c in enumerate(cos_vals, start=1):
        if abs(c) < 1e-12:
            raise SingularCosineError(idx)
    m = ct / cos_vals[:, None]
    norm = float(np.max(np.abs(m)))
    if norm == 0.0:
        raise InfeasibleFactorizationError("NotPD", "amplitude matrix is zero")
    if float(np.max(np.abs(m - m.T))) > _SYMMETRY_TOL * norm:
        raise InfeasibleFactorizationError("NotSymmetric", f"asymmetry {float(np.max(np.abs(m - m.T))):.3e}")
    sym = 0.5 * (m + m.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] <= _FACTOR_PD_TOL * max(1.0, float(eigs[-1])):
        raise InfeasibleFactorizationError("NotPD", f"lambda_min = {float(eigs[0]):.3e}")
    a_plus = np.linalg.cholesky(sym)
    return MixingMatrices(a_plus=a_plus, a_minus=np.zeros_like(a_plus), hurst=h)


def assemble_via_kernels(m: MixingMatrices, i: int, j: int, s, t):
    """E X_i(s) X_j(t) as the alpha-weighted sum of elementary kernel covariances.

    This is the independent route used to cross-validate the coefficient
    mapping and the closed-form covariances.  Raises IndexOutOfRangeError
    unless 1 <= i, j <= p.
    """
    _check_components(m.p, i, j)
    a, b = i - 1, j - 1
    h_i, h_j = m.hurst[a], m.hurst[b]
    weights = (m.app[a, b], m.apm[a, b], m.apm[b, a], m.amm[a, b])
    return _maybe_scalar(_kernel_sum(h_i, h_j, weights, is_critical(h_i + h_j), s, t))


def _assemble_rows(h_i, h_j, weights: tuple, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """assemble_via_kernels of every row k, each row with its own model: h_i,
    h_j and weights = (app_ij, apm_ij, apm_ji, amm_ij) are (R,) columns of the
    queried components, s and t (R, n) times.  Each regime's kernel sum runs
    once over its rows, with the coefficients as (R, 1) columns."""
    critical = is_critical(h_i + h_j)
    out = np.empty(np.shape(s))
    for rows, regime in ((critical, True), (~critical, False)):
        if rows.any():
            h_r, w_r = (h_i[rows, None], h_j[rows, None]), tuple(w[rows, None] for w in weights)
            out[rows] = _kernel_sum(*h_r, w_r, regime, s[rows], t[rows])
    return out


def _kernel_sum(h_i, h_j, weights: tuple, critical: bool, s, t):
    """app_ij E I+I+ + apm_ij E I+I- + apm_ji E I-I+ + amm_ij E I-I- at (s, t), with
    weights = (app_ij, apm_ij, apm_ji, amm_ij); the exponents and weights are
    floats, or columns of pairs all in the one regime."""
    formula = _kernel_critical if critical else _kernel_general
    coeffs = _kernel_coeffs(h_i, h_j, critical)
    app_ij, apm_ij, apm_ji, amm_ij = weights
    return (
        app_ij * formula(KernelKind.PP, *coeffs, s, t)
        + apm_ij * formula(KernelKind.PM, *coeffs, s, t)
        + apm_ji * formula(KernelKind.MP, *coeffs, s, t)
        + amm_ij * formula(KernelKind.MM, *coeffs, s, t)
    )


def load_model(path: str | Path) -> CovarianceModel:
    """Load a model file, converting mixing matrices to coefficients if needed."""
    parsed = parse_model(read_json(path))
    if isinstance(parsed, MixingMatrices):
        return coeffs_from_mixing(parsed)
    return parsed
