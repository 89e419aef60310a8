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
performs it by Cholesky.  Both run on stacks of models as well, through
the private ``_tilde_c`` and ``_causal_factor`` that they call; a stacked
matrix gets the bits of the one-model call, and a stacked factorization
raises the error of its first infeasible matrix.
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
    return _tilde_c(np.asarray(m.hurst.h), m.app, m.amm, m.apm)


def _tilde_c(h: np.ndarray, app: np.ndarray, amm: np.ndarray, apm: np.ndarray) -> np.ndarray:
    """C~ of mixings stacked along leading axes: h is (..., p), the Gram
    products (..., p, p).  The diagonal sine and cosine matrices are
    multiplied in as matrices, so every entry has the bits of one mixing's
    products."""
    cos_h, sin_h = _diag(np.cos(np.pi * h)), _diag(np.sin(np.pi * h))
    return cos_h @ app + amm @ cos_h - sin_h @ apm @ cos_h - cos_h @ apm @ sin_h


def _diag(x: np.ndarray) -> np.ndarray:
    """The diagonal matrices of x's last axis, stacked along its leading axes (np.diag of each row)."""
    d = np.zeros(x.shape + x.shape[-1:])
    k = np.arange(x.shape[-1])
    d[..., k, k] = x
    return d


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
    a_plus = _causal_factor(ct[None], np.asarray(h.h)[None])[0]
    return MixingMatrices(a_plus=a_plus, a_minus=np.zeros_like(a_plus), hurst=h)


def _causal_factor(ct: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The Cholesky factors A+ of M = cos(H pi)^(-1) C~ for a stack of
    amplitude matrices ct, (N, p, p), with exponents h, (N, p).

    Each matrix is held to causal_factorize's rules in turn, and the error
    raised is that of the first rule broken by the first matrix in the stack
    that breaks one.
    """
    cos_h = np.cos(np.pi * h)
    singular = np.abs(cos_h) < 1e-12
    # a matrix with an entry that is not finite, or a singular cosine, gives infinities or NaN here
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = ct / cos_h[:, :, None]
        norm = np.abs(m).max(axis=(1, 2))
        asymmetry = np.abs(m - m.swapaxes(1, 2)).max(axis=(1, 2))
        sym = 0.5 * (m + m.swapaxes(1, 2))
    broken = [~np.isfinite(ct).all(axis=(1, 2)), singular.any(axis=1), norm == 0.0, asymmetry > _SYMMETRY_TOL * norm]
    eigs = np.full(h.shape, np.nan)  # only for the matrices that keep the rules so far
    pending = ~np.any(broken, axis=0)
    eigs[pending] = np.linalg.eigvalsh(sym[pending])
    broken.append(eigs[:, 0] <= _FACTOR_PD_TOL * np.maximum(1.0, eigs[:, -1]))
    if np.any(broken):
        k = int(np.argmax(np.any(broken, axis=0)))
        errors = (
            ValueError("amplitude matrix has NaN or infinite entries"),
            SingularCosineError(int(np.argmax(singular[k])) + 1),
            InfeasibleFactorizationError("NotPD", "amplitude matrix is zero"),
            InfeasibleFactorizationError("NotSymmetric", f"asymmetry {float(asymmetry[k]):.3e}"),
            InfeasibleFactorizationError("NotPD", f"lambda_min = {float(eigs[k, 0]):.3e}"),
        )
        raise errors[int(np.argmax([rule[k] for rule in broken]))]
    return np.linalg.cholesky(sym)


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
