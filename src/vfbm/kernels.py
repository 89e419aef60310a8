"""Elementary covariances of the two-sided moving-average representation.

The process components are built from causal / anti-causal integrals

    I+(s) = int ((s-x)_+^(h-1/2) - (-x)_+^(h-1/2)) W(dx),
    I-(s) = int ((s-x)_-^(h-1/2) - (-x)_-^(h-1/2)) W(dx),

and every model covariance is an alpha-weighted sum of the four products
E I+-(s) I+-(t).  ``kernel_cov`` evaluates the closed forms for those four
products in both regimes (general H_i+H_j != 1, critical H_i+H_j = 1);
``quadrature_kernel_oracle`` evaluates the same quantities by deterministic
adaptive quadrature of the kernel product and is the independent check used
throughout the test suite.

Conventions: 0^a = 0 for a > 0 and 0*log 0 = 0, so every formula vanishes
exactly at s = 0 or t = 0.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import NoConvergenceError
from .special import CRITICAL_TOL, beta, phi

__all__ = [
    "KernelKind",
    "sign_coeff",
    "kernel_cov",
    "kernel_factor",
    "quadrature_kernel_oracle",
]


class KernelKind(Enum):
    """Which pair of one-sided integrals the covariance refers to."""

    PP = "pp"  # E I+(s) I+(t)
    MM = "mm"  # E I-(s) I-(t)
    PM = "pm"  # E I+(s) I-(t)
    MP = "mp"  # E I-(s) I+(t)


_KIND_SIDES = {
    KernelKind.PP: ("+", "+"),
    KernelKind.MM: ("-", "-"),
    KernelKind.PM: ("+", "-"),
    KernelKind.MP: ("-", "+"),
}


def _maybe_scalar(x):
    arr = np.asarray(x)
    return float(arr) if arr.ndim == 0 else arr


def _pow_plus(u, a):
    """(u)_+^a with the 0^a = 0 convention (a > 0 assumed)."""
    u = np.asarray(u, dtype=float)
    safe = np.where(u > 0.0, u, 1.0)
    return np.where(u > 0.0, safe**a, 0.0)


def _xlogx(u):
    """u * log|u| extended continuously by 0 at u = 0."""
    u = np.asarray(u, dtype=float)
    safe = np.where(u == 0.0, 1.0, np.abs(u))
    return u * np.log(safe)


def sign_coeff(c_ij: float, c_ji: float, t):
    """c_ij for t >= 0 and c_ji for t < 0; the t = 0 value never multiplies
    anything nonzero.  The covariance formulas switch their coefficients
    with it, and the kernel covariances their weights cos(H_i pi), cos(H_j pi)."""
    return _maybe_scalar(np.where(np.asarray(t, dtype=float) >= 0.0, c_ij, c_ji))


def kernel_cov(kind: KernelKind, h_i: float, h_j: float, s, t):
    """Closed-form E I(s) I(t) for the requested side pair.

    Accepts scalar or broadcastable array time arguments.  Regime dispatch
    uses the exact-critical tolerance on H_i + H_j.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if kind in (KernelKind.MM, KernelKind.MP):  # x -> -x maps I-(s) onto I+(-s)
        kind = KernelKind.PP if kind is KernelKind.MM else KernelKind.PM
        s, t = -s, -t
    alpha = h_i + h_j
    bval = beta(h_i + 0.5, h_j + 0.5)
    cos_i, cos_j = math.cos(math.pi * h_i), math.cos(math.pi * h_j)

    if abs(alpha - 1.0) <= CRITICAL_TOL:
        spread = np.abs(s) + np.abs(t) - np.abs(s - t)
        if kind is KernelKind.PM:
            return _maybe_scalar(-0.5 * bval * spread)
        logpart = _xlogx(s) - _xlogx(t) - _xlogx(s - t)
        return _maybe_scalar(
            (bval / math.pi)
            * (0.5 * math.pi * math.sin(math.pi * h_i) * spread - cos_i * logpart)
        )

    if kind is KernelKind.PP:
        psi = phi(h_i, h_j)
        return _maybe_scalar(
            psi
            * (
                sign_coeff(cos_i, cos_j, s) * np.abs(s) ** alpha
                + sign_coeff(cos_j, cos_i, t) * np.abs(t) ** alpha
                - sign_coeff(cos_i, cos_j, s - t) * np.abs(s - t) ** alpha
            )
        )
    return _maybe_scalar(bval * (_pow_plus(s - t, alpha) - _pow_plus(s, alpha) - _pow_plus(-t, alpha)))


# ---------------------------------------------------------------------------
# Kernel factors and the quadrature oracle
# ---------------------------------------------------------------------------

def kernel_factor(side: str, h: float, time_point: float, x):
    """The moving-average kernel f(x) of I+ ("+") or I- ("-") at the given time.

    Vectorized over x.  In the far field, where the two power terms nearly
    cancel, the difference is computed via expm1/log1p to avoid catastrophic
    cancellation; non-finite inputs map to 0 (the kernel decays there).
    """
    x = np.asarray(x, dtype=float)
    tp = float(time_point)
    if side == "-":  # x -> -x maps I-(t) onto I+(-t)
        x, tp = -x, -tp
    elif side != "+":
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    a = h - 0.5
    out = np.zeros_like(x)
    if tp == 0.0:
        return out
    fill = max(1.0, 2.0 * abs(tp))  # masked-lane placeholder clear of log1p(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        both = x < min(tp, 0.0)
        y = np.where(both, -x, fill)
        vals = y**a * np.expm1(a * np.log1p(tp / y))
        out = np.where(both, vals, out)
        if tp > 0.0:
            single = (x >= 0.0) & (x < tp)
            out = np.where(single, np.where(single, tp - x, 1.0) ** a, out)
        else:
            single = (x >= tp) & (x < 0.0)
            out = np.where(single, -(np.where(single, -x, 1.0) ** a), out)
    return np.where(np.isfinite(out), out, 0.0)


class _EvalBudget:
    """Shared countdown of integrand evaluations; exhausting it aborts the oracle."""

    def __init__(self, limit: int):
        self.remaining = int(limit)

    def spend(self, n: int):
        self.remaining -= n
        if self.remaining < 0:
            raise NoConvergenceError("quadrature evaluation budget exhausted before reaching tolerance")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_MAX_DEPTH = 60


def _gl_panel(fn, a: float, b: float, budget: _EvalBudget) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    budget.spend(_GL_NODES.size)
    return half * float(np.dot(_GL_WEIGHTS, fn(mid + half * _GL_NODES)))


def _gl_adaptive(fn, tol: float, budget: _EvalBudget) -> float:
    """Adaptive Gauss-Legendre on [0, 1] with local tolerance proportional to width."""
    total = 0.0
    stack = [(0.0, 1.0, _gl_panel(fn, 0.0, 1.0, budget), 0)]
    while stack:
        a, b, whole, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _gl_panel(fn, a, mid, budget)
        right = _gl_panel(fn, mid, b, budget)
        err = abs(left + right - whole)
        if err <= tol * (b - a) or depth >= _MAX_DEPTH:
            if depth >= _MAX_DEPTH and err > tol * (b - a):
                raise NoConvergenceError("quadrature failed to converge within depth limit")
            total += left + right
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    return total


def _anchored_piece(g, anchor: float, length: float, q: int, tol: float, budget: _EvalBudget) -> float:
    """Integral of g over the interval from anchor to anchor+length.

    Substitutes x = anchor + length * v^q, which absorbs an algebraic
    singularity of g at the anchor endpoint; q = 1 means no singularity.
    """
    if length == 0.0:
        return 0.0
    scale = abs(length) * q

    def transformed(v):
        vq = v ** (q - 1) if q > 1 else np.ones_like(v)
        vals = g(anchor + length * v**q) * (scale * vq)
        return np.where(np.isfinite(vals), vals, 0.0)

    return _gl_adaptive(transformed, tol, budget)


def _endpoint_exponent(e: float, factors) -> int:
    """Substitution power for an endpoint: 1 if smooth, else enough to absorb
    the combined algebraic singularity of the factors singular at e."""
    gamma = 0.0
    singular = False
    for _, h, tp in factors:
        if e == 0.0 or e == tp:
            singular = True
            gamma += min(h - 0.5, 0.0)
    if not singular:
        return 1
    return min(40, max(4, math.ceil(3.0 / (1.0 + gamma))))


def quadrature_kernel_oracle(
    kind: KernelKind,
    h_i: float,
    h_j: float,
    s: float,
    t: float,
    tol: float = 1e-8,
    max_evals: int = 10**6,
) -> float:
    """E I(s) I(t) by deterministic quadrature of the kernel product.

    The real line is split at the kernel breakpoints {0, s, t}; each bounded
    piece is integrated by adaptive Gauss-Legendre after a power substitution
    absorbing the endpoint singularities.  Unbounded tails, where the product
    decays like |x|^(H_i+H_j-3) after increment cancellation, are mapped to
    (0, 1] by x -> edge/u, so no truncation error is incurred.

    Raises NoConvergenceError if the evaluation budget (default 1e6) runs out.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    s = float(s)
    t = float(t)
    if s == 0.0 or t == 0.0:
        return 0.0
    side1, side2 = _KIND_SIDES[kind]
    factors = [(side1, h_i, s), (side2, h_j, t)]

    def g(x):
        return kernel_factor(side1, h_i, s, x) * kernel_factor(side2, h_j, t, x)

    lo1, hi1 = (-math.inf, max(s, 0.0)) if side1 == "+" else (min(s, 0.0), math.inf)
    lo2, hi2 = (-math.inf, max(t, 0.0)) if side2 == "+" else (min(t, 0.0), math.inf)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if hi <= lo:
        return 0.0

    inner = sorted({v for v in (0.0, s, t) if lo < v < hi})
    edges = ([] if lo == -math.inf else [lo]) + inner + ([] if hi == math.inf else [hi])
    span = max(1.0, abs(s), abs(t))
    left_tail = lo == -math.inf
    right_tail = hi == math.inf
    if left_tail:
        cut = (edges[0] if edges else min(0.0, s, t)) - 4.0 * span
        edges.insert(0, cut)
    if right_tail:
        cut = (edges[-1] if edges else max(0.0, s, t)) + 4.0 * span
        edges.append(cut)

    n_units = 2 * (len(edges) - 1) + 2 * (int(left_tail) + int(right_tail))
    unit_tol = tol / max(1, n_units)
    budget = _EvalBudget(max_evals)
    alpha = h_i + h_j
    q_tail = min(40, max(4, math.ceil(3.0 / (2.0 - alpha))))

    total = 0.0
    for a, b in zip(edges, edges[1:]):
        m = 0.5 * (a + b)
        total += _anchored_piece(g, a, m - a, _endpoint_exponent(a, factors), unit_tol, budget)
        total += _anchored_piece(g, b, -(b - m), _endpoint_exponent(b, factors), unit_tol, budget)

    for is_present, edge in ((left_tail, edges[0]), (right_tail, edges[-1])):
        if not is_present:
            continue

        def tail(u, edge=edge):
            u = np.asarray(u, dtype=float)
            safe = np.where(u > 0.0, u, 1.0)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                vals = g(edge / safe) * (abs(edge) / safe**2)
            return np.where((u > 0.0) & np.isfinite(vals), vals, 0.0)

        # u in (0, 1]: u -> 0 is the far field, u = 1 is the cut point.
        total += _anchored_piece(tail, 0.0, 0.5, q_tail, unit_tol, budget)
        total += _anchored_piece(tail, 1.0, -0.5, 1, unit_tol, budget)

    return total
