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
independent oracle for that mapping.

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

import math
from pathlib import Path

import numpy as np

from .errors import InfeasibleFactorizationError, SingularCosineError
from .kernels import KernelKind, kernel_cov
from .model import CovarianceModel, HurstVector, MixingMatrices, _check_components, parse_model, read_json
from .special import beta, phi

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
    for i in range(p):
        for j in range(i + 1, p):
            c[i, j], c[j, i], f_ij = _pair_coeffs(m, i, j)
            if m.hurst.critical[i, j]:  # general pairs keep f = +0.0
                f[i, j], f[j, i] = f_ij, -f_ij
    return CovarianceModel(hurst=m.hurst, sigma=m.sigma, c=c, f=f)


def _pair_coeffs(m: MixingMatrices, i: int, j: int) -> tuple[float, float, float]:
    """(c_ij, c_ji, f_ij) of the pair i < j (0-based): (d_ij, d_ij, f_ij) for a
    critical pair, (c_ij, c_ji, 0.0) for a general one."""
    h = m.hurst
    hi, hj = h[i], h[j]
    app, amm, apm = m.app, m.amm, m.apm
    ss = m.sigma[i] * m.sigma[j]
    if h.critical[i, j]:
        b = beta(hi + 0.5, hj + 0.5)
        d = (
            b
            * (
                0.5 * (math.sin(math.pi * hi) + math.sin(math.pi * hj)) * (app[i, j] + amm[i, j])
                - apm[i, j]
                - apm[j, i]
            )
            / ss
        )
        return d, d, (hj - hi) * (app[i, j] - amm[i, j]) / ss
    ci = math.cos(math.pi * hi)
    cj = math.cos(math.pi * hj)
    psi = phi(hi, hj)
    sin_sum = math.sin(math.pi * (hi + hj))
    return (
        2.0 * psi * (app[i, j] * ci + amm[i, j] * cj - apm[i, j] * sin_sum) / ss,
        2.0 * psi * (app[j, i] * cj + amm[j, i] * ci - apm[j, i] * sin_sum) / ss,
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
    hi, hj = m.hurst[i - 1], m.hurst[j - 1]
    k = (i - 1, j - 1)
    return (
        m.app[k] * kernel_cov(KernelKind.PP, hi, hj, s, t)
        + m.apm[k] * kernel_cov(KernelKind.PM, hi, hj, s, t)
        + m.apm[k[::-1]] * kernel_cov(KernelKind.MP, hi, hj, s, t)
        + m.amm[k] * kernel_cov(KernelKind.MM, hi, hj, s, t)
    )


def load_model(path: str | Path) -> CovarianceModel:
    """Load a model file, converting mixing matrices to coefficients if needed."""
    parsed = parse_model(read_json(path))
    if isinstance(parsed, MixingMatrices):
        return coeffs_from_mixing(parsed)
    return parsed
